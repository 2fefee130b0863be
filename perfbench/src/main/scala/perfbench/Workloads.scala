package perfbench

import repro.core.SparqlEngine
import repro.engines.Engines
import repro.harness.Battery

/** One of the benchmark's workloads: a set of queries. Its ops are every
  * (engine, query) pair the engine's `supports()` accepts, so refused pairs
  * are never attempted.
  */
final case class Workload(name: String, queries: Vector[Battery.Q])

object Workloads {

  /** FILTER over a mixed-type object column: `!(?v < 70)` where some `?v`
    * are not numbers. SPARQL and the SQL oracle drop those rows.
    */
  val filterNotMixed: Battery.Q =
    Battery.Q("filter-not-mixed", "SELECT ?pr ?v WHERE { p7 ?pr ?v . FILTER(!(?v < 70)) }")

  /** Pairs with a known wrong answer (the engines' two-valued FILTER
    * evaluation keeps the non-numeric rows). They are checked against the
    * oracle once per run and reported, but not timed: the timed ops of
    * every workload are pairs that answer correctly.
    */
  val knownDefects: Set[(String, String)] =
    Set("haqwa", "sparqlgx", "s2x").map(_ -> filterNotMixed.name)

  private def bgpPlus(names: String*): Vector[Battery.Q] =
    names.toVector.map(n => Battery.bgpPlus.find(_.name == n).get)

  /** Scale factor of every workload's data (about 8k triples). At this size
    * an op costs Spark's fixed per-job and per-stage overhead plus its
    * joins, and a whole run (set-up of all ten engines, then the timed
    * rounds) fits in about a minute.
    */
  val SF = 0.01

  /** Timed rounds of every run. A fixed count keeps the op count, and with
    * it the storage that S2X and HybridJoin cache on every `execute()`, the
    * same in every run of a workload. Two keep a run near a minute: with
    * three, a run took up to 76 s on a slow 4-vCPU VM.
    */
  val Rounds = 2

  val all: Vector[Workload] = Vector(
    // Joins and shuffles dominate: the paper's Section II.B star (partition-
    // local under subject hashing) and linear (a join on the object) shapes.
    Workload("shapes", Battery.shapes.filter(q => Set("star-3", "linear-2")(q.name))),
    // The only workload through FILTER / OPTIONAL / UNION and the solution
    // modifiers: one query per feature, plus the mixed-type negated FILTER.
    Workload("bgp-plus",
      bgpPlus("filter-range-and", "optional-likes", "union-edges", "order-desc-offset") :+ filterNotMixed),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))

  /** Metric prefix of an engine: its `repro.engines.*` package name, or
    * `reference` for `repro.core.ReferenceEngine`.
    */
  def engineKey(e: SparqlEngine): String = e.getClass.getName match {
    case "repro.core.ReferenceEngine" => "reference"
    case n                            => n.stripPrefix("repro.engines.").takeWhile(_ != '.')
  }

  /** The engines every run loads, in the registry's order. */
  def engines(): Seq[SparqlEngine] = Engines.withReference()
}
