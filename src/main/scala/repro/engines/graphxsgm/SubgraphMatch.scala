package repro.engines.graphxsgm

import org.apache.spark.graphx.{Graph, VertexRDD}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.Bindings.Binding
import repro.engines.graph.RdfGraph
import repro.sparql._

/** The subgraph-matching-on-GraphX approach [16] (Kassaie, 2017:
  * "SPARQL over GraphX"), per the survey:
  *
  *   - each vertex carries a label (its subject/object value) and a
  *     **Match Track (MT) table** of variables and constants; edges carry
  *     the predicate as edge label;
  *   - the algorithm iterates over the BGP triples; matching is done with
  *     GraphX's `aggregateMessages` (its `sendMsg` maps the current BGP
  *     triple over all graph triples, `mergeMsg` reduces the messages at
  *     their target vertex); `joinVertices`-style merging reconciles the
  *     vertex's old MT with the arriving bindings;
  *   - after all BGP triples are evaluated, the **final MT tables of the
  *     end vertices are joined** to produce the query answer.
  */
final class SubgraphMatch extends BindingEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[16]",
    name = "SPARQL over GraphX",
    dataModel = "Graph",
    abstractions = Seq("GraphX"),
    queryProcessing = "Graph Iterations",
    optimization = true,
    partitioning = "Default",
    sparqlFragment = "BGP",
  )

  private var graph: Graph[String, String] = _

  override protected def build(triples: DataFrame): Unit = { graph = RdfGraph.build(triples) }

  /** The engine's optimization: a connected pattern order, never a
    * disconnected pattern while a connected one is available; otherwise
    * the input order.
    */
  override protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val tps = Stats.greedyOrder(ps)(tp => ps.indexOf(tp).toDouble)

    // one aggregateMessages round per BGP triple: sendMsg matches the
    // pattern against every graph triple and ships the binding to the
    // subject vertex; mergeMsg concatenates
    def mt(tp: TriplePattern): VertexRDD[Seq[Binding]] =
      graph.aggregateMessages[Seq[Binding]](
        ctx =>
          Bindings.bindTriple(tp, ctx.srcAttr, ctx.attr, ctx.dstAttr)
            .foreach(b => ctx.sendToSrc(Seq(b))),
        _ ++ _,
      )

    // per-vertex MT accumulation: patterns anchored at the same subject
    // term merge their tables at that vertex (subject stars stay local)
    val groupTables = Shapes.stars(tps).map(star =>
      Bindings.Rows(star.map(mt).reduce(Bindings.mergeTables).flatMap(_._2), star.flatMap(_.vars).toSet))

    // "join the final MT tables of the end vertices" for the answer
    Bindings.joinAll(groupTables)
  }
}
