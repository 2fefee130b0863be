package repro.engines.graph

import repro.SparkSpec
import repro.rdf.{Dictionary, RdfSynth}

class RdfGraphSpec extends SparkSpec {

  private lazy val triples = RdfSynth.social(spark, sf = 0.005).cache()
  private lazy val rows = triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSeq
  private lazy val graph = RdfGraph.build(triples)

  test("the graph's triplets are exactly the triples") {
    val triplets = graph.triplets.map(t => (t.srcAttr, t.attr, t.dstAttr)).collect().toSeq
    assert(triplets.sorted == rows.sorted)
  }

  test("each vertex's id is its value's Dictionary id") {
    val dict = Dictionary(triples.rdd.flatMap(r => Seq(r.getString(0), r.getString(2))))
    val vertices = graph.vertices.collect()
    assert(vertices.length == rows.flatMap { case (s, _, o) => Seq(s, o) }.distinct.length)
    assert(vertices.forall { case (id, v) => dict.id(v).contains(id) })
  }

  test("vertices carry the attributes they are given, edges join them by value") {
    import spark.implicits._
    val edges = Seq(("a", "knows", "b"), ("b", "knows", "c")).toDF("s", "p", "o")
    val attrs = spark.sparkContext.parallelize(Seq("a" -> 1, "b" -> 2, "c" -> 3, "d" -> 4))
    val g = RdfGraph.build(edges, attrs)
    // ids are ranks: a = 0, b = 1, c = 2, d = 3
    assert(g.vertices.collect().toMap == Map(0L -> 1, 1L -> 2, 2L -> 3, 3L -> 4))
    assert(g.triplets.map(t => (t.srcAttr, t.attr, t.dstAttr)).collect().toSet == Set((1, "knows", 2), (2, "knows", 3)))
  }
}
