package repro.engines.sparkql

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.Bindings.Binding
import repro.engines.graph.RdfGraph
import repro.sparql._

/** Spar(k)ql [12] (Gombos, Rácz, Kiss, FiCloud WS 2016): SPARQL evaluation
  * on Spark GraphX via vertex programs, per the survey:
  *
  *   - node model: **object properties are graph edges; data properties
  *     are stored inside node properties**; `rdf:type`, although an object
  *     property, is kept in the node properties too because of its
  *     popularity (here it lands there automatically: class names never
  *     occur as subjects, which is this engine's data-driven criterion);
  *   - sub-results are stored in **tables at each node**; a node receives
  *     messages from its neighbours and combines them with its stored
  *     information (Map phase keyed by query variables, data tables as
  *     values);
  *   - the query plan is a tree built by **breadth-first search over the
  *     object properties**; execution traverses the plan **bottom-up**,
  *     at each node iterating through the edges to find matches.
  *
  * Consequently only tree-shaped BGPs with constant predicates are
  * supported (fragment "BGP" in Table II).
  */
final class SparKql extends BindingEngine {
  val info: EngineInfo = EngineInfo(
    citation = "[12]",
    name = "Spar(k)ql",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = true,
    partitioning = "Default",
    sparqlFragment = "BGP",
  )

  private var dataProps: Set[String] = _
  /** Graph over object-property triples; vertex attr = (value, node props). */
  private var graph: Graph[(String, Map[String, Seq[String]]), String] = _

  override protected def build(triples: DataFrame): Unit = {
    val spark = triples.sparkSession
    import spark.implicits._
    // data property := predicate whose objects never occur as subjects
    val subjDf = triples.select($"s").distinct()
    val resourcePreds = triples
      .join(subjDf.withColumnRenamed("s", "subj"), triples("o") === $"subj", "leftsemi")
      .select("p").distinct().as[String].collect().toSet
    dataProps = Stats.predicateCounts(triples).keySet -- resourcePreds

    // one vertex per subject and per object-property object, carrying its
    // data properties; the object-property triples are the edges
    val data = dataProps // local: the closure must not capture the engine
    val vertices = triples.rdd.flatMap { r =>
      val (s, p, o) = (r.getString(0), r.getString(1), r.getString(2))
      if (data(p)) Seq(s -> Some(p -> o)) else Seq(s -> None, o -> None)
    }.groupByKey().map { case (v, props) => (v, (v, props.flatten.toSeq.groupMap(_._1)(_._2))) }
    graph = RdfGraph.build(triples.where(!$"p".isin(dataProps.toSeq: _*)), vertices)
  }

  // ---- query plan (BFS tree over object-property patterns) -----------------
  import SparKql.{Plan, TreeNode}

  private def plan(ps: Seq[TriplePattern]): Option[Plan] = {
    if (ps.exists(_.p.isVar) || dataProps == null) return None
    val (dataTps, objTps) = ps.partition(tp => dataProps.contains(tp.predConst.get))
    val dataByTerm = dataTps.groupBy(_.s: Term)
    if (dataTps.exists(tp => tp.o.isVar && tp.o == tp.s)) return None

    if (objTps.isEmpty) {
      // a single star over node properties
      if (dataByTerm.sizeIs != 1) return None
      val term = dataByTerm.keys.head
      return Some(Plan(TreeNode(term, Seq.empty), dataByTerm))
    }
    // the object-property patterns must form a tree, and every data
    // pattern must hang off one of its nodes
    val nodes = objTps.flatMap(tp => Seq(tp.s, tp.o)).toSet
    if (!Shapes.isTree(objTps) || !dataByTerm.keys.forall(nodes)) return None
    // the plan tree from the first pattern's subject: a node's children are
    // the patterns that touch it, except the one it was reached by
    def grow(t: Term, via: Option[TriplePattern]): TreeNode =
      TreeNode(t, objTps.filter(tp => !via.contains(tp) && (tp.s == t || tp.o == t))
        .map(tp => (grow(if (tp.s == t) tp.o else tp.s, Some(tp)), tp)))
    Some(Plan(grow(objTps.head.s, None), dataByTerm))
  }

  override def supports(q: Query): Boolean = q.isPlainBgp && plan(q.groups.head.patterns).isDefined

  // ---- bottom-up evaluation ------------------------------------------------

  /** Table of sub-results stored at each node for `term`: the node's own
    * binding plus the expansions of its data-property patterns.
    */
  private def localTables(term: Term, dataTps: Seq[TriplePattern]): VertexRDD[Seq[Binding]] =
    graph.vertices.mapValues { case (value, props) =>
      dataTps.foldLeft(Bindings.unify(term, value, Map.empty).toSeq) { (rows, tp) =>
        val vals = props.getOrElse(tp.predConst.get, Seq.empty)
        rows.flatMap(r => vals.flatMap(Bindings.unify(tp.o, _, r)))
      }
    }.filter(_._2.nonEmpty)

  /** Evaluate the subtree rooted at `node` bottom-up; returns each vertex's
    * table of sub-results for that subtree.
    */
  private def evalNode(node: TreeNode, dataByTerm: Map[Term, Seq[TriplePattern]]): VertexRDD[Seq[Binding]] = {
    var table = localTables(node.term, dataByTerm.getOrElse(node.term, Seq.empty))
    for ((child, tp) <- node.children) {
      val childTable = evalNode(child, dataByTerm)
      val childIsObject = tp.o == child.term // tp = (parent p child) ?
      val pred = tp.predConst.get
      val parentTerm = node.term // local: the closure must not capture nodes
      val withTables = graph.outerJoinVertices(childTable)(
        (_, attr, t) => (attr._1, t.getOrElse(Seq.empty[Binding])))
      // the Map phase: each node sends its table along matching edges,
      // keyed by the parent's variable
      val lifted = withTables.aggregateMessages[Seq[Binding]](
        ctx =>
          if (ctx.attr == pred) {
            if (childIsObject) {
              val rows = ctx.dstAttr._2
              if (rows.nonEmpty)
                ctx.sendToSrc(rows.flatMap(Bindings.unify(parentTerm, ctx.srcAttr._1, _)))
            } else {
              val rows = ctx.srcAttr._2
              if (rows.nonEmpty)
                ctx.sendToDst(rows.flatMap(Bindings.unify(parentTerm, ctx.dstAttr._1, _)))
            }
          },
        _ ++ _,
      )
      table = Bindings.mergeTables(table, lifted)
    }
    table
  }

  override protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val p = plan(ps).get // supports() admits tree-shaped BGPs only
    evalNode(p.root, p.dataByTerm).flatMap(_._2)
  }
}

/** The plan's types live on the companion: Spark closures that carry them
  * must not capture the engine instance (it holds a non-serializable Graph).
  */
object SparKql {
  /** A node of the BFS plan tree (companion-nested: no $outer, so plan
    * fragments can ride inside Spark closures).
    */
  final case class TreeNode(term: Term, children: Seq[(TreeNode, TriplePattern)])
  final case class Plan(root: TreeNode, dataByTerm: Map[Term, Seq[TriplePattern]])
}
