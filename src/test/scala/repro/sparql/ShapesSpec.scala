package repro.sparql

import org.scalatest.funsuite.AnyFunSuite

class ShapesSpec extends AnyFunSuite {
  private def shape(s: String) = Shapes.classify(Parser.parse(s))

  test("one pattern is single") {
    assert(shape("SELECT ?s WHERE { ?s rdf:type Person }") == Shapes.Single)
  }
  test("subject-subject joins are a star") {
    assert(shape("SELECT ?p ?n ?a WHERE { ?p name ?n . ?p age ?a }") == Shapes.Star)
    assert(shape("SELECT ?p ?n ?a ?c WHERE { ?p name ?n . ?p age ?a . ?p livesIn ?c }") == Shapes.Star)
  }
  test("object-subject chains are linear") {
    assert(shape("SELECT ?a ?b ?c WHERE { ?a follows ?b . ?b follows ?c }") == Shapes.Linear)
    assert(shape("SELECT ?a ?b ?c ?d WHERE { ?a follows ?b . ?b follows ?c . ?c follows ?d }") == Shapes.Linear)
  }
  test("stars linked object-to-subject are a snowflake") {
    assert(shape(
      "SELECT ?p ?n ?pr ?l WHERE { ?p name ?n . ?p likes ?pr . ?pr label ?l . ?pr category ?c }") ==
      Shapes.Snowflake)
  }
  test("cyclic pattern is complex") {
    assert(shape("SELECT ?a ?b ?c WHERE { ?a follows ?b . ?a livesIn ?c . ?b livesIn ?c }") ==
      Shapes.Complex)
  }
  private def bgp(s: String) = Parser.parse(s"SELECT * WHERE { $s }").groups.head.patterns

  test("stars group patterns by subject in order of first appearance") {
    val ps = bgp("?a follows ?b . ?b name ?n . ?a age ?x . ?b age ?y . ?c likes ?b")
    assert(Shapes.stars(ps) == Seq(Seq(ps(0), ps(2)), Seq(ps(1), ps(3)), Seq(ps(4))))
  }
  test("isTree is false for two edges between two nodes, a self-loop, a disconnected BGP and complex-cycle") {
    import repro.harness.Battery
    val complexCycle = Battery.bgp.find(_.name == "complex-cycle").get.query.groups.head.patterns
    for (ps <- Seq(
      "?a follows ?b . ?b follows ?a",
      "?a follows ?b . ?a likes ?b",
      "?a follows ?a",
      "?a follows ?a . ?a name ?n",
      "?a follows ?b . ?c likes ?d",
      "?a follows ?b . ?b follows ?a . ?c likes ?d", // one edge fewer than nodes, yet disconnected
    ).map(bgp) :+ complexCycle) assert(!Shapes.isTree(ps), ps)
  }
  test("isTree is true for a tree with a constant leaf") {
    assert(Shapes.isTree(bgp("?a follows ?b . ?b livesIn city3 . ?a name ?n")))
  }
  test("classification of battery queries is stable") {
    import repro.harness.Battery
    assert(Battery.bgp.find(_.name == "star-3").get.shape == Shapes.Star)
    assert(Battery.bgp.find(_.name == "linear-3").get.shape == Shapes.Linear)
    assert(Battery.bgp.find(_.name == "snowflake").get.shape == Shapes.Snowflake)
    assert(Battery.bgp.find(_.name == "complex-cycle").get.shape == Shapes.Complex)
  }
}
