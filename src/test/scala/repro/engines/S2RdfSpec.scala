package repro.engines

import repro.Oracle
import repro.engines.s2rdf.S2Rdf
import repro.harness.Battery
import repro.sparql.{Parser, ReferenceSql}

class S2RdfSpec extends EngineContract("S2RDF", () => new S2Rdf(sfThreshold = 0.75)) {

  private lazy val s2rdf = engine.asInstanceOf[S2Rdf]
  /** Every reduction admitted: the most permissive ExtVP engine. */
  private lazy val permissive = { val e = new S2Rdf(sfThreshold = 1.0); e.load(triples); e }
  /** No reduction admitted: plain VP. */
  private lazy val vp = { val e = new S2Rdf(sfThreshold = 0.0); e.load(triples); e }

  test("every ExtVP table is at most as large as its VP table") {
    val stats = s2rdf.reductionStats
    assert(stats.nonEmpty)
    stats.foreach { case ((c, p1, p2), (ext, vp)) =>
      assert(ext <= vp, s"ExtVP_$c($p1|$p2)")
    }
  }

  test("semi-join reductions are real for correlated predicates") {
    // follows.o are persons; name.s are persons — OS reduction keeps all of
    // follows; but likes.o are products, so ExtVP_OS(likes|follows) is empty
    val stats = s2rdf.reductionStats
    assert(stats.get(("OS", "likes", "follows")).forall(_._1 == 0L))
    // and some correlated pair is reduced without being emptied
    assert(stats.values.exists { case (ext, vpSize) => 0L < ext && ext < vpSize }, stats)
  }

  test("a predicate's OS and SO self-reductions exist") {
    // few persons are followed, so few follows edges start at a followed
    // person: ExtVP_SO(follows|follows) is a real reduction
    val stats = s2rdf.reductionStats
    assert(stats.get(("SO", "follows", "follows")).exists { case (ext, vpSize) => 0L < ext && ext < vpSize }, stats)
    assert(stats.contains(("OS", "follows", "follows")), stats)
  }

  test("linear-2 reads the SO self-reduction for its second pattern") {
    val sql = s2rdf.toSql(Battery.bgp.find(_.name == "linear-2").get.query)
    assert(sql.contains("extvp_so_follows__follows"), sql)
  }

  test("SF threshold 0 disables ExtVP (plain VP), same results") {
    // the OPTIONAL queries guard the per-BGP layout: an ExtVP reduction is
    // valid only against a partner pattern of its own BGP
    val names = Seq("star-3", "linear-2", "linear-3", "path-then-star", "snowflake",
      "optional-likes", "optional-after-filter", "optional-chain")
    for {
      q <- names.map(n => Battery.all.find(_.name == n).get)
      e <- Seq(vp, permissive)
    } Oracle.assertEquivalent(e.execute(q.query), ReferenceSql.toSql(q.query), "triples" -> triples)
  }

  test("generated SQL uses ExtVP views when the threshold admits them") {
    val q = Parser.parse("SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }")
    val sql = permissive.toSql(q)
    assert(sql.contains("extvp_"), sql)
  }

  test("generated SQL uses plain VP views when the threshold forbids them") {
    val q = Parser.parse("SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }")
    val sql = vp.toSql(q)
    assert(!sql.contains("extvp_") && sql.contains("vp_"), sql)
  }

  test("an empty dataset answers star-3 with no rows") {
    val empty = new S2Rdf()
    empty.load(triples.limit(0))
    assert(empty.execute(Battery.bgp.find(_.name == "star-3").get.query).count() == 0L)
  }

  test("join order puts patterns with more constants first") {
    val q = Parser.parse("SELECT ?p ?n WHERE { ?p name ?n . ?p livesIn c3 }")
    val sql = s2rdf.toSql(q)
    // livesIn pattern has 2 constants (predicate + object) vs name's 1
    assert(sql.indexOf("livesIn") < sql.indexOf("name"), sql)
  }
}
