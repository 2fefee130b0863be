package repro.engines.s2x

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.Bindings.Binding
import repro.engines.graph.RdfGraph
import repro.sparql._

/** S2X [23] (Schätzle et al., Big-O(Q) 2015): "graph-parallel querying of
  * RDF with GraphX", per the survey:
  *
  *   - RDF as a property graph; every vertex stores the query variables it
  *     is a *match candidate* for;
  *   - first all triple patterns of the BGP are matched independently, then
  *     adjacent vertices **exchange messages to validate candidates** until
  *     nothing changes (local match / remote match validation rules;
  *     invalid candidates are discarded each superstep);
  *   - the final output is assembled from the surviving sub-matches with
  *     Spark's data-parallel API, which also implements the BGP+ operators
  *     (OPTIONAL, FILTER, ORDER BY, PROJECTION, LIMIT, OFFSET).
  *
  * Validation only prunes; the assembly joins alone decide the answer. So
  * a BGP in which no variable occurs at two subject/object positions, whose
  * initial candidates are already the fixpoint, skips validation and is
  * assembled straight from the graph's triplets. Every other BGP validates
  * at one Spark job per superstep, all inside `execute()`.
  */
final class S2X(maxIterations: Int = 30) extends BindingEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[23]",
    name = "S2X",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = false,
    partitioning = "Default",
    sparqlFragment = "BGP+",
  )

  import S2X._

  private var graph: Graph[String, String] = _

  override protected def build(triples: DataFrame): Unit = { graph = RdfGraph.build(triples) }

  /** Candidate validation (when it can prune) + final assembly for one BGP. */
  override protected def matchBgp(tps: Vector[TriplePattern]): RDD[Binding] = {
    val positions = Positions(tps)
    val parts =
      if (!positions.prunable)
        tps.map { tp =>
          Bindings.Rows(graph.triplets.flatMap(t => Bindings.bindTriple(tp, t.srcAttr, t.attr, t.dstAttr)), tp.varSet)
        }
      else {
        // assembly: per pattern, the surviving edge matches, joined data-parallel
        val g = validate(positions)
        tps.zipWithIndex.map { case (tp, i) =>
          val bindings = g.triplets.flatMap { t =>
            if (positions.holds(i, tp.s, 's', t.srcAttr) && positions.holds(i, tp.o, 'o', t.dstAttr))
              Bindings.bindTriple(tp, t.srcAttr.value, t.attr, t.dstAttr.value)
            else None
          }
          Bindings.Rows(bindings, tp.varSet)
        }
      }
    Bindings.joinAll(parts)
  }

  /** The validation fixpoint, one Spark job per superstep. The candidate
    * sets live on the graph's vertices, so each superstep's
    * `outerJoinVertices` zips the `aggregateMessages` output with the
    * vertices partition by partition, and each step flags the vertices it
    * pruned. As in GraphX's Pregel, a superstep is unpersisted once the one
    * after it has been computed from it.
    */
  private def validate(positions: Positions): Graph[Cand, String] = {
    val initial = graph.aggregateMessages[Set[Pos]](positions.sendInitial, _ ++ _)
    var g = graph.outerJoinVertices(initial) { (_, value, c) =>
      Cand(value, positions.consistent(c.getOrElse(Set.empty)), changed = false)
    }.cache()
    // the first aggregateMessages over a new graph swaps its cached edges
    // for ones that carry the vertex values, so `unpersist` no longer
    // reaches them
    val initialEdges = g.edges
    var prev: Graph[Cand, String] = null
    var changed = true
    var iter = 0
    while (changed && iter < maxIterations) {
      val supported = g.aggregateMessages[Set[Pos]](positions.sendSupport, _ ++ _)
      val next = g.outerJoinVertices(supported) { (_, c, sup) =>
        val kept = positions.consistent(c.pos intersect sup.getOrElse(Set.empty))
        Cand(c.value, kept, changed = kept.size != c.pos.size)
      }.cache()
      changed = next.vertices.filter(_._2.changed).count() > 0
      if (prev != null) prev.unpersist(blocking = false)
      if (iter == 1) initialEdges.unpersist(blocking = false)
      prev = g
      g = next
      iter += 1
    }
    g
  }
}

/** Executor-side helpers on the companion: Spark closures must not capture
  * the engine instance (it holds a non-serializable Graph).
  */
object S2X {

  /** Candidate position: (pattern index, 's' or 'o'). */
  type Pos = (Int, Char)

  /** A vertex during validation: its value, the positions it is still a
    * candidate for, and whether the last superstep pruned any of them.
    */
  final case class Cand(value: String, pos: Set[Pos], changed: Boolean)

  def edgeMatches(tp: TriplePattern, sVal: String, p: String, oVal: String): Boolean =
    (tp.p match { case Const(c) => c == p; case _ => true }) &&
      (tp.s match { case Const(c) => c == sVal; case _ => true }) &&
      (tp.o match { case Const(c) => c == oVal; case _ => true })

  /** The candidate positions of one BGP and S2X's validation rules. */
  final case class Positions(tps: Vector[TriplePattern]) {
    private val varPositions: Map[String, Set[Pos]] = tps.zipWithIndex
      .flatMap { case (tp, i) => tp.s.varName.map(_ -> (i, 's')) ++ tp.o.varName.map(_ -> (i, 'o')) }
      .groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
    private val posToVar: Map[Pos, String] = varPositions.flatMap { case (v, ps) => ps.map(_ -> v) }

    /** Whether validation can prune: only a variable at two subject/object
      * positions can lose a candidate, since otherwise the edge that made a
      * vertex a candidate also supports it.
      */
    val prunable: Boolean = varPositions.values.exists(_.sizeIs > 1)

    /** Local consistency: a vertex is a candidate for variable x only if it
      * is a candidate at *every* position where x occurs.
      */
    def consistent(cand: Set[Pos]): Set[Pos] = {
      val keptVars = varPositions.collect { case (v, ps) if ps.subsetOf(cand) => v }.toSet
      cand.filter(p => keptVars.contains(posToVar(p)))
    }

    /** Whether a vertex at side `side` of pattern `i` may match term `t`. */
    def holds(i: Int, t: Term, side: Char, c: Cand): Boolean = !t.isVar || c.pos.contains((i, side))

    /** Initial candidates: an independent match of every pattern. */
    def sendInitial(ctx: EdgeContext[String, String, Set[Pos]]): Unit =
      tps.zipWithIndex.foreach { case (tp, i) =>
        if (edgeMatches(tp, ctx.srcAttr, ctx.attr, ctx.dstAttr)) {
          if (tp.s.isVar) ctx.sendToSrc(Set((i, 's')))
          if (tp.o.isVar) ctx.sendToDst(Set((i, 'o')))
        }
      }

    /** A candidate position survives only if some incident edge supports
      * it with a still-candidate remote end (S2X's validation rule).
      */
    def sendSupport(ctx: EdgeContext[Cand, String, Set[Pos]]): Unit =
      tps.zipWithIndex.foreach { case (tp, i) =>
        val (s, o) = (ctx.srcAttr, ctx.dstAttr)
        if (edgeMatches(tp, s.value, ctx.attr, o.value)) {
          val sOk = holds(i, tp.s, 's', s)
          val oOk = holds(i, tp.o, 'o', o)
          if (tp.s.isVar && sOk && oOk) ctx.sendToSrc(Set((i, 's')))
          if (tp.o.isVar && sOk && oOk) ctx.sendToDst(Set((i, 'o')))
        }
      }
  }
}
