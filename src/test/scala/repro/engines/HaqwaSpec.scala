package repro.engines

import org.apache.spark.JobCount
import repro.Oracle
import repro.engines.haqwa.Haqwa
import repro.harness.Battery
import repro.sparql.{Parser, Query, ReferenceSql}

class HaqwaSpec extends EngineContract("HAQWA", () => new Haqwa(Engines.defaultWorkload)) {

  /** The same store without a workload: no triple is replicated. */
  private lazy val blind = { val e = new Haqwa(Seq.empty); e.load(triples); e }

  test("workload queries (partition-local path) match the oracle") {
    for (q <- Engines.defaultWorkload) {
      Oracle.assertEquivalent(engine.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
    }
  }

  test("a renamed-variable copy of a workload query still takes the local path") {
    // canonical shape matching is name-independent
    val q = Parser.parse("SELECT ?u ?v ?w WHERE { ?u follows ?v . ?v name ?w }")
    Oracle.assertEquivalent(engine.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
  }

  test("an engine with an empty workload still answers 2-hop queries (shuffle path)") {
    val q = Battery.bgp.find(_.name == "path-then-star").get
    Oracle.assertEquivalent(blind.execute(q.query), ReferenceSql.toSql(q.query), "triples" -> triples)
  }

  test("a workload query with a constant seed subject matches each seed once") {
    // p5's triples are replicated wherever a follower of p5 lives; only
    // p5's own partition may seed a match
    val q = Parser.parse("SELECT ?b ?n WHERE { p5 follows ?b . ?b name ?n }")
    val e = new Haqwa(Seq(q))
    e.load(triples)
    Oracle.assertEquivalent(e.execute(q), ReferenceSql.toSql(q), "triples" -> triples)
  }

  test("star queries never shuffle bindings (single stage per fragment)") {
    // correctness is the oracle's job; here we check the plan shape: a star
    // and a workload query both evaluate within mapPartitions over the
    // store, one subject-indexed fragment per partition built at load, so
    // either action is one stage with one task per partition, no shuffle,
    // and reads exactly one record (the fragment) per partition: nothing
    // is regrouped per query
    val star = Battery.bgp.find(_.name == "star-3").get.query
    val twoHop = Engines.defaultWorkload(1) // ?a follows ?b . ?b name ?n
    for (q <- Seq(star, twoHop)) {
      val df = engine.execute(q)
      val (rows, work) = JobCount.work(spark.sparkContext)(df.collect())
      assert(rows.nonEmpty)
      assert(work.stages == 1, work)
      assert(work.shuffleWriteBytes == 0L, work)
      assert(work.tasks == spark.sparkContext.defaultParallelism, work)
      assert(work.recordsRead == spark.sparkContext.defaultParallelism, work)
    }
    // without the workload's replicas the 2-hop query joins its two star
    // fragments with a shuffle
    val df = blind.execute(twoHop)
    val (_, work) = JobCount.work(spark.sparkContext)(df.collect())
    assert(work.shuffleWriteBytes > 0L, work)
  }

  test("a workload query that is not made local replicates nothing at load") {
    // ?c's fragment hangs off no link from the seed, so the query is not
    // registered, and loading it costs what loading no workload costs
    val q = Parser.parse("SELECT * WHERE { ?a follows ?b . ?b name ?n . ?c name ?n }")
    def loadWork(workload: Seq[Query]) = JobCount.work(spark.sparkContext)(new Haqwa(workload).load(triples))._2
    loadWork(Seq.empty) // warm-up
    val blindWork = loadWork(Seq.empty)
    val work = loadWork(Seq(q))
    assert(work.stages == blindWork.stages, (work, blindWork))
    assert(work.shuffleWriteBytes == blindWork.shuffleWriteBytes, (work, blindWork))
  }
}
