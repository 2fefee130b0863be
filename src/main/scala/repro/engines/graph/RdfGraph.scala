package repro.engines.graph

import scala.reflect.ClassTag
import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.rdf.Dictionary

/** RDF data "represented as a directed labeled graph in which the triple
  * (s hasProperty p) is an edge labeled hasProperty from node s to node p"
  * — the paper's Graph Model, materialized as a GraphX property graph:
  * edge attribute = the predicate. Shared by S2X, SubgraphMatch and
  * Spar(k)ql.
  */
object RdfGraph {

  /** Every triple an edge; vertex attribute = the subject/object value. */
  def build(triples: DataFrame): Graph[String, String] =
    build(triples, triples.rdd.flatMap(r => Seq(r.getString(0), r.getString(2))).distinct().map(v => (v, v)))

  /** An edge per (s, p, o) row of `edges`, and a vertex per (value,
    * attribute) record of `vertices`, which holds one record per value and
    * every edge's ends. Vertex ids are the values' [[Dictionary]] ids. The
    * graph is materialized before it is returned.
    */
  def build[A: ClassTag](edges: DataFrame, vertices: RDD[(String, A)]): Graph[A, String] = {
    val dict = edges.sparkSession.sparkContext.broadcast(Dictionary(vertices.keys))
    val storage = StorageLevel.MEMORY_AND_DISK
    val graph = Graph(
      vertices.map { case (v, attr) => (dict.value.id(v).get, attr) },
      edges.rdd.map(r => Edge(dict.value.id(r.getString(0)).get, dict.value.id(r.getString(2)).get, r.getString(1))),
      null.asInstanceOf[A], storage, storage)
    graph.triplets.count()
    graph
  }
}
