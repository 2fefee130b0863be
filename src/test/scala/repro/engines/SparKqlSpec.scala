package repro.engines

import repro.engines.sparkql.SparKql
import repro.harness.Battery
import repro.sparql.Parser

class SparKqlSpec extends EngineContract("Spar(k)ql", () => new SparKql()) {

  test("tree-shaped battery queries are supported") {
    for (n <- Seq("star-2", "star-3", "linear-2", "linear-3", "snowflake", "path-then-star")) {
      val q = Battery.bgp.find(_.name == n).get.query
      assert(engine.supports(q), n)
    }
  }

  test("cyclic BGPs are not supported (vertex-program plan is a tree)") {
    assert(!engine.supports(Battery.bgp.find(_.name == "complex-cycle").get.query))
    for (bgp <- Seq(
      "?a follows ?b . ?b follows ?a",
      "?a follows ?b . ?c likes ?d", // disconnected
      "?a follows ?a . ?a name ?n",  // self-loop
    )) assert(!engine.supports(Parser.parse(s"SELECT * WHERE { $bgp }")), bgp)
  }

  test("variable predicates are not supported") {
    assert(!engine.supports(Battery.bgp.find(_.name == "var-predicate").get.query))
  }

  test("rdf:type lands in node properties and is queryable") {
    val q = Parser.parse("SELECT ?p ?n WHERE { ?p rdf:type Person . ?p name ?n }")
    assert(engine.supports(q))
    assert(engine.execute(q).count() ==
      triples.where("p = 'name'").count())
  }

  test("data properties are detected from the data, not hard-coded") {
    // category objects (cat1..) never occur as subjects → data property;
    // livesIn objects are city resources → object property
    val qData = Parser.parse("SELECT ?pr ?c WHERE { ?pr category ?c }")
    val qObj = Parser.parse("SELECT ?p ?c ?n WHERE { ?p livesIn ?c . ?c cityName ?n }")
    assert(engine.supports(qData) && engine.supports(qObj))
    assert(engine.execute(qData).count() > 0)
    assert(engine.execute(qObj).count() > 0)
  }
}
