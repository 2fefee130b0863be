package repro.engines

import org.apache.spark.JobCount
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import repro.Oracle
import repro.core.Stats
import repro.engines.hybrid.HybridJoin
import repro.harness.Battery
import repro.sparql.ReferenceSql

class HybridJoinSpec extends EngineContract("HybridJoin", () => new HybridJoin())
    with AdaptiveSparkPlanHelper {

  private lazy val hybrid = engine.asInstanceOf[HybridJoin]

  for (s <- HybridJoin.AllStrategies) {
    test(s"strategy '${s.label}' answers the BGP battery exactly as the oracle") {
      for (q <- Battery.bgp if engine.supports(q.query)) {
        Oracle.assertEquivalent(
          hybrid.executeWith(q.query, s),
          ReferenceSql.toSql(q.query),
          "triples" -> triples,
        )
      }
    }

    test(s"strategy '${s.label}': execute() runs no Spark job and persists nothing") {
      val sc = spark.sparkContext
      val h = hybrid // loads the engine before the persisted RDDs are read
      for (q <- Battery.bgp if engine.supports(q.query)) {
        val before = sc.getPersistentRDDs.keySet
        val (_, jobs) = JobCount(sc)(h.executeWith(q.query, s))
        assert(jobs == 0, q.name)
        assert(sc.getPersistentRDDs.keySet == before, q.name)
      }
    }
  }

  test("the hybrid plan broadcasts exactly the patterns estimated at most the threshold") {
    val q = Battery.bgp.find(_.name == "snowflake").get.query
    val stats = Stats.compute(triples)
    // the plan starts from its first pattern; every later one is joined in
    val joined = stats.reorder(q.groups.head.patterns).tail.map(stats.estimate)
    val threshold = joined.min.toLong
    val small = joined.count(_ <= threshold)
    assert(small > 0 && small < joined.size, "the threshold must force both join kinds")
    val e = new HybridJoin(broadcastThreshold = threshold)
    e.load(triples)
    val df = e.execute(q)
    Oracle.assertEquivalent(df, ReferenceSql.toSql(q), "triples" -> triples)
    val plan = df.queryExecution.executedPlan
    assert(collect(plan) { case j: BroadcastHashJoinExec => j }.size == small)
    assert(collect(plan) { case j: SortMergeJoinExec => j }.size == joined.size - small)
  }

  test("BGP+ queries are rejected (Table II: fragment = BGP)") {
    val q = Battery.bgpPlus.find(_.name == "filter-gt").get.query
    assert(!engine.supports(q))
    assertThrows[IllegalArgumentException](engine.execute(q))
  }
}
