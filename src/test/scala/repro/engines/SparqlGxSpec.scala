package repro.engines

import org.apache.spark.JobCount
import org.apache.spark.sql.functions.col
import repro.Oracle
import repro.engines.sparqlgx.SparqlGx
import repro.harness.Battery
import repro.sparql.ReferenceSql

class SparqlGxSpec extends EngineContract("SPARQLGX", () => new SparqlGx()) {

  test("vertical partitioning answers bounded-predicate queries from one partition") {
    // load() materializes every partition, so the first star-2 of a fresh
    // engine reads the name and age partitions from the cache and no other
    // triple
    val q = Battery.bgp.find(_.name == "star-2").get
    val fresh = new SparqlGx()
    fresh.load(triples)
    val (_, work) = JobCount.work(spark.sparkContext)(fresh.execute(q.query).collect())
    val bounded = triples.where(col("p").isin("name", "age")).count()
    assert(work.recordsRead == bounded, work)
    // each VP table and each join has one partition per core
    assert(work.tasks <= work.stages * spark.sparkContext.defaultParallelism, work)
    assert(bounded < triples.count())
    Oracle.assertEquivalent(engine.execute(q.query), ReferenceSql.toSql(q.query), "triples" -> triples)
  }

  test("star-3 joins its three VP tables in one co-group") {
    // one shuffle-map stage per pattern and one result stage: the star's
    // joins share one key, so no join output is shuffled again
    val q = Battery.bgp.find(_.name == "star-3").get.query
    val fresh = new SparqlGx()
    fresh.load(triples)
    val (_, work) = JobCount.work(spark.sparkContext)(fresh.execute(q).collect())
    assert(work.stages == 4, work)
  }

  test("unknown predicate yields an empty result, not an error") {
    val q = repro.sparql.Parser.parse("SELECT ?s WHERE { ?s nosuchpred ?o }")
    assert(engine.execute(q).count() == 0)
  }
}
