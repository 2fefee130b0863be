package perfbench

import java.io.File
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SparqlEngine
import repro.harness.Battery
import repro.rdf.RdfSynth
import repro.sparql.Parser
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One benchmark run: one workload, one seed, a closed loop with one client.
  *
  *   perfbench.Bench --workload shapes --seed 11 --seconds 10 --trace 0
  *
  * Set-up generates the triples from the seed, loads every engine of
  * `Engines.withReference()` into one SparkSession and runs each (engine,
  * query) pair once untimed. The timed phase then goes round-robin over the
  * pairs in a seeded order. An op is `Parser.parse` + `execute` + `collect`;
  * its result bag is checked against the DuckDB oracle outside the op's
  * timed window. The last line of standard output is the result as JSON:
  * end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
  */
object Bench {

  /** Threads that set engines up, one engine at a time each. */
  val SetupThreads = 4

  /** Pinned session settings, not read from `SPARK_*`: the cores of the
    * machine the benchmark was sized on, broadcast joins off as in
    * `repro.jobs.JobUtil.session`, and one shuffle partition per core (with
    * `JobUtil`'s 64, every shuffle stage runs 64 tiny tasks at this size).
    */
  val Settings: Seq[(String, String)] = Seq(
    "spark.master"                         -> "local[4]",
    "spark.sql.shuffle.partitions"         -> "4",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
  )

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(
      Workloads.byName(need("workload")),
      need("seed").toLong,
      need("seconds").toInt.ensuring(_ > 0, "--seconds must be positive"),
      need("trace") match {
        case "0" => false
        case "1" => true
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
    )
  }

  def session(workDir: File, trace: Boolean): SparkSession = {
    val b = SparkSession.builder()
      // Lets the tracer charge cached blocks to the call that cached them.
      .config("spark.taskMetrics.trackUpdatedBlockStatuses", trace.toString)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
    Settings.foldLeft(b) { case (b, (k, v)) => b.config(k, v) }.getOrCreate()
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val spark = session(new File(sys.props.getOrElse("perfbench.workdir", ".bench_build")), args.trace)
    spark.sparkContext.setLogLevel("ERROR")
    Console.err.println(s"perfbench: session up at ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime} ms")
    try {
      val r = new Run(spark, args.workload, args.seed, args.trace).execute(args.seconds)
      r.report(args.seconds).foreach(println)
    } finally spark.stop()
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear interpolation between closest ranks; NaN for no samples. */
  def percentile(xs: Seq[Double], p: Double): Double = if (xs.isEmpty) Double.NaN else {
    val s = xs.sorted
    val pos = p * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)
}

/** Times of one op's three calls, in nanoseconds. */
final case class Sample(parseNs: Long, planNs: Long, runNs: Long) {
  def totalNs: Long = parseNs + planNs + runNs
}

final class Run(spark: SparkSession, val workload: Workload, val seed: Long, trace: Boolean,
    mkEngines: () => Seq[SparqlEngine] = () => Workloads.engines()) {
  import Bench._

  private val sc: SparkContext = spark.sparkContext
  val tracer: Option[Tracer] = if (trace) Some(new Tracer) else None
  tracer.foreach(sc.addSparkListener)

  private def tagged[A](group: String)(body: => A): A =
    if (trace) Tracer.tagged(sc, group)(body) else body

  var engines: Seq[SparqlEngine] = Nil
  var keys: IndexedSeq[String] = Vector.empty
  var tripleCount = 0L
  var expected: Map[String, Bag] = Map.empty
  var pairs: Vector[(Int, Battery.Q)] = Vector.empty
  var timed: Vector[(Int, Battery.Q)] = Vector.empty
  var samples: Vector[ArrayBuffer[Sample]] = Vector.empty
  val failures = ArrayBuffer.empty[String]
  val defectProbe = ArrayBuffer.empty[String]
  var attempted = 0L
  var setupS, synthS, timedS, cachedMbAtEnd = 0.0
  var loadS, warmupS: IndexedSeq[Double] = Vector.empty

  private def log(msg: String): Unit = Console.err.println(s"perfbench: $msg")

  /** Collects garbage, so that no set-up garbage is collected inside an op,
    * and waits until Spark's ContextCleaner has unpersisted the RDDs that
    * were only reachable from collected objects (storage unchanged for
    * three reads 100 ms apart, or 5 s): storage read afterwards is what the
    * engines still hold.
    */
  private def settle(): Unit = {
    System.gc()
    var last = -1.0
    var same = 0
    val deadline = System.nanoTime() + 5000000000L
    while (same < 3 && System.nanoTime() < deadline) {
      Thread.sleep(100)
      val now = storageMb()
      same = if (now == last) same + 1 else 0
      last = now
    }
  }

  private def storageMb(): Double =
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6

  /** Parse, plan (`execute`), run (`collect`), each call timed on its own. */
  private def op(e: Int, q: Battery.Q, planGroup: String, runGroup: String): (Sample, Bag) = {
    val t0 = System.nanoTime()
    val parsed = Parser.parse(q.sparql)
    val t1 = System.nanoTime()
    val df: DataFrame = tagged(planGroup)(engines(e).execute(parsed))
    val t2 = System.nanoTime()
    val rows = tagged(runGroup)(df.collect())
    val t3 = System.nanoTime()
    (Sample(t1 - t0, t2 - t1, t3 - t2), Bag.ofSpark(df.columns.toSeq, rows))
  }

  /** Runs an op and checks its bag; returns the sample if it was right. */
  private def checkedOp(e: Int, q: Battery.Q, planGroup: String, runGroup: String): Option[Sample] = {
    def fail(why: String) = failures.synchronized { failures += s"${keys(e)} / ${q.name}: $why" }
    try {
      val (s, got) = op(e, q, planGroup, runGroup)
      val want = expected(q.name)
      if (got == want) Some(s)
      else { fail(s"got ${got.describe} ${got.cols}, oracle ${want.describe} ${want.cols}"); None }
    } catch {
      case t: Throwable if scala.util.control.NonFatal(t) =>
        fail(s"threw ${t.getClass.getSimpleName}: ${String.valueOf(t.getMessage).take(200)}")
        None
    }
  }

  /** Synthesis, then every engine's `load()` followed by its warm-up ops
    * (one op per pair). Engines are set up `SetupThreads` at a time, one
    * per thread; each engine's own calls stay sequential.
    */
  private def setup(): Unit = {
    val t0 = System.nanoTime()
    val triples = tagged("rdf.synth") {
      val t = RdfSynth.social(spark, Workloads.SF, seed).cache()
      tripleCount = t.count()
      t
    }
    synthS = (System.nanoTime() - t0) / 1e9
    val o0 = System.nanoTime()
    expected = OracleBags.expected(triples.collect(), workload.queries.map(q => q.name -> q.query))
    val oracleNs = System.nanoTime() - o0
    log(f"synth $synthS%.1f s, oracle ${oracleNs / 1e9}%.1f s")
    engines = mkEngines()
    keys = engines.map(Workloads.engineKey).toVector
    val pool = java.util.concurrent.Executors.newFixedThreadPool(SetupThreads)
    try {
      val perEngine = keys.indices.map { e =>
        pool.submit { () =>
          val l0 = System.nanoTime()
          tagged(s"${keys(e)}.load")(engines(e).load(triples))
          val w0 = System.nanoTime()
          // `supports()` may depend on what `load()` found in the data.
          val supported = workload.queries.filter(q => engines(e).supports(q.query))
          for (q <- supported if !Workloads.knownDefects(keys(e) -> q.name))
            checkedOp(e, q, s"${keys(e)}.warmup", s"${keys(e)}.warmup")
          ((w0 - l0) / 1e9, (System.nanoTime() - w0) / 1e9, supported)
        }
      }.map(_.get())
      loadS = perEngine.map(_._1)
      warmupS = perEngine.map(_._2)
      pairs = perEngine.zipWithIndex.flatMap { case ((_, _, qs), e) => qs.map(e -> _) }.toVector
    } finally pool.shutdown()
    setupS = (System.nanoTime() - t0 - oracleNs) / 1e9
    timed = pairs.filterNot { case (e, q) => Workloads.knownDefects(keys(e) -> q.name) }
    log(f"set-up $setupS%.1f s, ${timed.size} timed pairs")
  }

  /** Known-wrong pairs: checked once, reported, not timed. */
  private def probeDefects(): Unit =
    for ((e, q) <- pairs if Workloads.knownDefects(keys(e) -> q.name)) {
      val want = expected(q.name)
      val state =
        try {
          val (_, got) = op(e, q, "probe", "probe")
          val seen = if (got == want) "no longer reproduced" else "reproduced"
          s"$seen (engine ${got.rows} rows, oracle ${want.rows} rows)"
        } catch {
          case t: Throwable if scala.util.control.NonFatal(t) =>
            s"threw ${t.getClass.getSimpleName}: ${String.valueOf(t.getMessage).take(200)}"
        }
      defectProbe += s"${keys(e)} / ${q.name}: $state"
    }

  /** Set-up, then whole rounds over the timed pairs, each round in a new
    * seeded order, until `Workloads.Rounds` rounds are done and `seconds`
    * have passed.
    */
  def execute(seconds: Int): this.type = {
    setup()
    probeDefects()
    settle()
    log("timed phase")
    samples = timed.map(_ => ArrayBuffer.empty[Sample])
    val rnd = new Random(seed)
    val start = System.nanoTime()
    def round(): Unit =
      for (k <- rnd.shuffle(timed.indices.toVector)) {
        val (e, q) = timed(k)
        attempted += 1
        checkedOp(e, q, s"${keys(e)}.plan", s"${keys(e)}.run").foreach(samples(k) += _)
      }
    var rounds = 0
    while (rounds < Workloads.Rounds || System.nanoTime() - start < seconds * 1000000000L) {
      round()
      rounds += 1
    }
    timedS = (System.nanoTime() - start) / 1e9
    settle()
    cachedMbAtEnd = storageMb()
    log(f"timed phase $timedS%.1f s, $attempted ops")
    this
  }

  private def allSamples: Seq[Sample] = samples.flatten

  /** Geometric mean over an engine's queries of a per-query median. */
  private def perEngine(e: Int, f: Sample => Long): Double =
    geomean(timed.indices.filter(k => timed(k)._1 == e && samples(k).nonEmpty)
      .map(k => median(samples(k).map(f(_) / 1e6).toSeq)))

  def endToEnd: Seq[(String, Double, String)] = {
    val lat = allSamples.map(_.totalNs / 1e6)
    Seq(
      ("setup_s", setupS, "s"),
      ("qps", allSamples.size / timedS, "ops/s"),
      ("latency_p50_ms", percentile(lat, 0.5), "ms"),
    )
  }

  def perLayer: Seq[(String, Double, String)] = {
    val tr = tracer.get
    val ops = keys.indices.map(e => timed.indices.filter(timed(_)._1 == e).map(samples(_).size).sum.max(1))
    def mb(bytes: Long) = bytes / 1e6
    Seq(
      ("rdf.synth_s", synthS, "s"),
      ("sparql.parse_ms", median(allSamples.map(_.parseNs / 1e6)), "ms"),
      ("spark.spill_mb", mb(tr.totalSpillBytes(sc)), "MB"),
      ("spark.cached_mb", cachedMbAtEnd, "MB"),
    ) ++ keys.indices.flatMap { e =>
      val k = keys(e)
      val load = tr.get(sc, s"$k.load")
      val plan = tr.get(sc, s"$k.plan")
      val run = tr.get(sc, s"$k.run")
      Seq(
        (s"$k.load_s", loadS(e), "s"),
        (s"$k.load_stages", load.stages.toDouble, "count"),
        (s"$k.load_shuffle_mb", mb(load.shuffleWriteBytes), "MB"),
        (s"$k.cached_mb", mb(load.cachedBytes), "MB"),
        (s"$k.warmup_s", warmupS(e), "s"),
        (s"$k.op_ms", perEngine(e, _.totalNs), "ms"),
        (s"$k.plan_ms", perEngine(e, _.planNs), "ms"),
        (s"$k.plan_jobs", plan.jobs.toDouble / ops(e), "count"),
        (s"$k.run_ms", perEngine(e, _.runNs), "ms"),
        (s"$k.run_stages", run.stages.toDouble / ops(e), "count"),
        (s"$k.run_tasks", run.tasks.toDouble / ops(e), "count"),
        (s"$k.shuffle_mb", mb(plan.shuffleWriteBytes + run.shuffleWriteBytes) / ops(e), "MB"),
      )
    }
  }

  def environment(seconds: Int): Seq[(String, Any)] = Seq(
    "workload" -> workload.name,
    "seed" -> seed,
    "seconds" -> seconds,
    "trace" -> (if (trace) 1 else 0),
    "sf" -> Workloads.SF,
    "pairs_timed" -> timed.size,
    "rounds" -> (if (timed.isEmpty) 0L else attempted / timed.size),
    "triples" -> tripleCount,
    "ops" -> attempted,
    "nproc" -> Runtime.getRuntime.availableProcessors,
    "heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
    "spark" -> spark.version,
    "scala" -> scala.util.Properties.versionNumberString,
    "jdk" -> System.getProperty("java.version"),
    "commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
    "settings" -> Json.obj(Bench.Settings),
  )

  /** Human-readable lines, then the JSON result as the last line. */
  def report(seconds: Int): Seq[String] = {
    val out = ArrayBuffer.empty[String]
    out += "env " + Json.obj(environment(seconds)).text
    for (k <- timed.indices) {
      val (e, q) = timed(k)
      val ms = samples(k).map(_.totalNs / 1e6).toSeq
      val med = if (ms.isEmpty) "-" else f"${Bench.median(ms)}%.1f ms"
      out += f"op ${keys(e)}%-10s ${q.name}%-22s n=${ms.size}%-4d median $med"
    }
    defectProbe.foreach(d => out += s"known defect $d")
    failures.foreach(f => out += s"FAILED $f")
    val failed = attempted - allSamples.size
    out += f"ops attempted=$attempted failed=$failed failed_frac=${failed.toDouble / attempted.max(1)}%.4f " +
      f"latency samples=${allSamples.size} timed_s=$timedS%.2f"
    if (trace) out += f"traced qps=${allSamples.size / timedS}%.4f setup_s=$setupS%.4f"
    val metrics = if (trace) perLayer else endToEnd
    metrics.foreach { case (n, v, u) => out += f"metric $n%-28s $v%16.6f $u" }
    out += Json.obj(Seq(
      "correct" -> (failures.isEmpty && metrics.forall(m => !m._2.isNaN && !m._2.isInfinite)),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(metrics.map { case (n, v, u) => n -> Json.obj(Seq("value" -> v, "unit" -> u)) }),
    )).text
    out.toSeq
  }
}

/** Just enough JSON for the result line and the environment record. */
object Json {
  final case class Raw(text: String)

  def obj(fields: Seq[(String, Any)]): Raw =
    Raw(fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def value(v: Any): String = v match {
    case Raw(t)    => t
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int    => n.toString
    case n: Long   => n.toString
    case other     => str(other.toString)
  }
}
