package repro.engines

import org.apache.spark.JobCount
import org.apache.spark.sql.functions.col
import repro.Oracle
import repro.engines.sparqlgx.SparqlGx
import repro.harness.Battery
import repro.sparql.ReferenceSql

class SparqlGxSpec extends EngineContract("SPARQLGX", () => new SparqlGx()) {

  test("vertical partitioning answers bounded-predicate queries from one partition") {
    // star-2 reads the name and age partitions and no other triple; the
    // first run materializes those partitions, the second reads them cached
    val q = Battery.bgp.find(_.name == "star-2").get
    engine.execute(q.query).collect()
    val (_, work) = JobCount.work(spark.sparkContext)(engine.execute(q.query).collect())
    val bounded = triples.where(col("p").isin("name", "age")).count()
    assert(work.recordsRead == bounded)
    assert(bounded < triples.count())
    Oracle.assertEquivalent(engine.execute(q.query), ReferenceSql.toSql(q.query), "triples" -> triples)
  }

  test("unknown predicate yields an empty result, not an error") {
    val q = repro.sparql.Parser.parse("SELECT ?s WHERE { ?s nosuchpred ?o }")
    assert(engine.execute(q).count() == 0)
  }
}
