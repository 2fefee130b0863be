package perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ReferenceEngine
import repro.engines.haqwa.Haqwa
import repro.engines.sparqlgx.SparqlGx
import repro.engines.Engines
import repro.harness.Battery

/** Self-tests of the benchmark: its pair counts, its oracle gate and the
  * attribution of Spark work to layers, each on a run of one round.
  *
  *   cd perfbench && sbt test
  */
class AttributionSpec extends AnyFunSuite {

  lazy val spark: SparkSession = Bench.session(new File("target/bench-test"), trace = true)

  private def run(w: Workload, mkEngines: () => Seq[repro.core.SparqlEngine] = () => Workloads.engines()): Run =
    new Run(spark, w, seed = 11, trace = true, mkEngines).execute(seconds = 1)

  private def layer(r: Run): Map[String, Double] = r.perLayer.map(m => m._1 -> m._2).toMap

  private def q(name: String) = Battery.all.find(_.name == name).get

  test("workload pair counts: shapes 20, bgp-plus 30 of which 3 are known defects") {
    val shapes = run(Workloads.byName("shapes"))
    assert(shapes.pairs.size == 20)
    assert(shapes.timed.size == 20)
    assert(shapes.failures.isEmpty, shapes.failures)

    val plus = run(Workloads.byName("bgp-plus"))
    assert(plus.pairs.size == 30) // BGP-only engines take only the ORDER/LIMIT/OFFSET query
    assert(plus.timed.size == 27)
    assert(plus.failures.isEmpty, plus.failures)
    // The oracle gate catches the two-valued FILTER on all three engines.
    assert(plus.defectProbe.size == 3)
    assert(plus.defectProbe.forall(_.contains(": reproduced")), plus.defectProbe)
  }

  test("HAQWA answers star-3 without shuffling; SPARQLGX shuffles on complex-cycle") {
    val engines = () => Seq(new ReferenceEngine(), new Haqwa(Engines.defaultWorkload), new SparqlGx())
    val star = layer(run(Workload("star", Vector(q("star-3"))), engines))
    assert(star("haqwa.shuffle_mb") == 0.0)
    assert(star("haqwa.run_stages") >= 1.0)
    val cycle = layer(run(Workload("cycle", Vector(q("complex-cycle"))), engines))
    assert(cycle("sparqlgx.shuffle_mb") > 0.0)
    // Spark SQL plans lazily: no job runs inside the reference engine's execute().
    assert(star("reference.plan_jobs") == 0.0)
    assert(cycle("reference.plan_jobs") == 0.0)
    assert(cycle("reference.run_stages") >= 1.0)
  }

  test("percentiles of no samples are NaN, so a run whose every op failed still reports") {
    assert(Bench.percentile(Seq.empty, 0.5).isNaN)
    assert(Bench.percentile(Seq(3.0, 1.0, 2.0), 0.5) == 2.0)
  }

  test("every per-layer metric is reported for all ten engines") {
    val r = run(Workload("one", Vector(q("star-2"))))
    val names = r.perLayer.map(_._1)
    assert(names.size == 4 + 10 * 12)
    assert(names.distinct.size == names.size)
    assert(r.perLayer.forall { case (_, v, _) => !v.isNaN && v >= 0 })
  }
}
