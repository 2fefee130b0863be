package repro.engines

import org.apache.spark.JobCount
import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.SparqlEngine
import repro.engines.hybrid.HybridJoin
import repro.harness.Battery
import repro.rdf.RdfSynth
import repro.sparql.{Query, ReferenceSql}

/** `load()` leaves every engine with storage of its own: answers never
  * depend on the caller's DataFrame after `load()`, nor on another engine
  * instance loaded in the same session, every store is materialized by the
  * time `load()` returns, and neither a store nor a query's stages run on
  * more partitions than there are cores, however many the input has.
  */
class EngineStorageSpec extends SparkSpec {

  private type Answer = (SparqlEngine, Query) => DataFrame

  private val registry: Seq[() => SparqlEngine] =
    Engines.withReference().indices.map(i => () => Engines.withReference()(i))

  /** Every engine of the registry, plus HybridJoin's Spark SQL strategy,
    * the one that reads its triples through a temp view.
    */
  private val engines: Seq[(String, () => SparqlEngine, Answer)] = {
    val execute: Answer = _.execute(_)
    val sparkSql: Answer = (e, q) => e.asInstanceOf[HybridJoin].executeWith(q, HybridJoin.SparkSql)
    registry.map(mk => (mk().info.name, mk, execute)) :+
      (("Hybrid join study [spark-sql]", () => new HybridJoin(), sparkSql))
  }

  private val queries = Seq("star-3", "order-desc-offset", "optional-likes")
    .map(n => Battery.all.find(_.name == n).get)

  /** The triples as a local relation: the oracle's copy reads no Spark source. */
  private def local(df: DataFrame): DataFrame =
    spark.createDataFrame(java.util.Arrays.asList(df.collect(): _*), df.schema)

  private lazy val own = local(RdfSynth.social(spark, sf = 0.005))
  private lazy val other = local(RdfSynth.social(spark, sf = 0.002, seed = 12))
  /** `own` with more partitions than cores, as a shuffle's output has. */
  private lazy val wide = own.repartition(64)

  for ((name, mk, answer) <- engines) {
    def assertAnswers(e: SparqlEngine, triples: DataFrame): Unit =
      for (q <- queries if e.supports(q.query))
        Oracle.assertEquivalent(answer(e, q.query), ReferenceSql.toSql(q.query), "triples" -> triples)

    test(s"$name answers from its own copy after the caller unpersists its input") {
      val evaluations = spark.sparkContext.longAccumulator("source evaluations")
      val counted = spark.createDataFrame(own.rdd.map { r => evaluations.add(1); r }, own.schema).cache()
      counted.count()
      val e = mk()
      e.load(counted)
      evaluations.reset()
      counted.unpersist(blocking = true)
      assertAnswers(e, own)
      assert(evaluations.value == 0L, "queries re-evaluated the caller's DataFrame")
    }

    test(s"$name keeps answering from its own data when a second instance loads other data") {
      val first = mk()
      first.load(own)
      val second = mk()
      second.load(other)
      assertAnswers(first, own)
      assertAnswers(second, other)
    }
  }

  // Suites run one at a time, so the RDDs persisted while `load()` runs
  // are the engine's own.
  for (mk <- registry) {
    test(s"${mk().info.name} has every RDD it persists cached in full when load() returns") {
      val sc = spark.sparkContext
      val e = mk()
      val before = sc.getPersistentRDDs.keySet
      // the storage status is updated from listener events: JobCount
      // waits until they are all delivered before it returns
      JobCount(sc)(e.load(wide))
      val persisted = sc.getPersistentRDDs -- before
      val cached = sc.getRDDStorageInfo.map(i => i.id -> i.numCachedPartitions).toMap
      val lazyRdds = persisted.values.filter(r => cached.getOrElse(r.id, 0) != r.getNumPartitions)
      val wideRdds = persisted.values.filter(_.getNumPartitions > sc.defaultParallelism)
      assert(persisted.nonEmpty)
      assert(lazyRdds.isEmpty, lazyRdds.map(r => s"${r.id} $r").mkString("not cached in full: ", "; ", ""))
      assert(wideRdds.isEmpty,
        wideRdds.map(r => s"${r.id} $r: ${r.getNumPartitions}").mkString("more partitions than cores: ", "; ", ""))
    }

    test(s"${mk().info.name} runs star-3 and linear-2 with at most one task per core per stage") {
      val sc = spark.sparkContext
      val e = mk()
      e.load(wide)
      for (name <- Seq("star-3", "linear-2")) {
        val q = Battery.all.find(_.name == name).get.query
        assert(e.supports(q), name)
        val (_, work) = JobCount.work(sc)(e.execute(q).collect())
        assert(work.tasks <= work.stages * sc.defaultParallelism, s"$name: $work")
      }
    }
  }
}
