package repro.engines.graph

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.rdf.Dictionary

/** RDF data "represented as a directed labeled graph in which the triple
  * (s hasProperty p) is an edge labeled hasProperty from node s to node p"
  * — the paper's Graph Model, materialized as a GraphX property graph:
  * vertex attribute = the subject/object URI or literal, edge attribute =
  * the predicate. Shared by S2X and SubgraphMatch.
  */
object RdfGraph {

  /** Vertex ids come from the [[Dictionary]] of subject and object values.
    * The graph is materialized before it is returned.
    */
  def build(triples: DataFrame): Graph[String, String] = {
    val sc = triples.sparkSession.sparkContext
    val idOf = Dictionary.ids(triples.select("s").union(triples.select("o")))
    val bc = sc.broadcast(idOf)
    val vertices = sc.parallelize(idOf.toSeq.map(_.swap))
    val edges = triples.rdd.map { r =>
      val ids = bc.value
      Edge(ids(r.getString(0)), ids(r.getString(2)), r.getString(1))
    }
    val graph = Graph(vertices, edges, defaultVertexAttr = null.asInstanceOf[String],
      edgeStorageLevel = StorageLevel.MEMORY_AND_DISK,
      vertexStorageLevel = StorageLevel.MEMORY_AND_DISK)
    graph.triplets.count()
    graph
  }
}
