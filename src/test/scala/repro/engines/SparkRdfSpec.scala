package repro.engines

import org.apache.spark.JobCount
import repro.Oracle
import repro.engines.sparkrdf.SparkRdf
import repro.harness.Battery
import repro.sparql.{Parser, ReferenceSql}

class SparkRdfSpec extends EngineContract("SparkRDF", () => new SparkRdf()) {

  test("rdf:type patterns are removed and pushed into the CRC index") {
    val q = Parser.parse(
      "SELECT ?p ?x WHERE { ?p rdf:type Person . ?p likes ?x . ?x rdf:type Product }")
    Oracle.assertEquivalent(engine.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
  }

  test("class constraints prune non-members") {
    // likes objects are always products, so constraining to City empties it
    val q = Parser.parse(
      "SELECT ?p ?x WHERE { ?p likes ?x . ?x rdf:type City }")
    assert(engine.execute(q).count() == 0)
  }

  test("class-only variables come from the class index") {
    val q = Parser.parse("SELECT ?x WHERE { ?x rdf:type City }")
    Oracle.assertEquivalent(engine.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
  }

  test("variable-class rdf:type patterns see the full class sets") {
    val q = Parser.parse("SELECT ?x ?c WHERE { ?x rdf:type ?c . ?x rdf:type Person }")
    Oracle.assertEquivalent(engine.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
  }

  test("execute() runs no Spark job") {
    // constant-only patterns join as operands instead of being probed, and
    // class-only variables filter the class index built at load
    val guarded = Parser.parse("SELECT ?n WHERE { p5 name ?n . p5 rdf:type Person }")
    Oracle.assertEquivalent(engine.execute(guarded), ReferenceSql.toSql(guarded), "triples" -> triples)
    val queries = Battery.all.filter(q => engine.supports(q.query)).map(q => q.name -> q.query) :+
      ("p5 name ?n . p5 rdf:type Person" -> guarded)
    for ((name, q) <- queries)
      assert(JobCount(spark.sparkContext)(engine.execute(q))._2 == 0, name)
  }

  test("the Hash-sbj store answers star-3 in one stage without a shuffle") {
    // every pattern's bindings stay keyed and partitioned by subject, as
    // the CRC index was hashed at load, so the star joins in place
    val q = Battery.bgp.find(_.name == "star-3").get.query
    val fresh = new SparkRdf()
    fresh.load(triples)
    val df = fresh.execute(q)
    val (_, work) = JobCount.work(spark.sparkContext)(df.collect())
    assert(work.stages == 1, work)
    assert(work.tasks <= spark.sparkContext.defaultParallelism, work)
    assert(work.shuffleWriteBytes == 0L, work)
    Oracle.assertEquivalent(df, ReferenceSql.toSql(q), "triples" -> triples)
  }
}
