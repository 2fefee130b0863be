package repro.engines

import org.apache.spark.JobCount
import repro.engines.s2x.S2X
import repro.harness.Battery
import repro.sparql.{Const, Parser, TriplePattern, Var}

class S2XSpec extends EngineContract("S2X", () => new S2X()) {

  private lazy val s2xEngine = engine.asInstanceOf[S2X]

  private def battery(name: String) = Battery.all.find(_.name == name).get.query

  /** Spark jobs `execute()` runs for `name` on `e`. */
  private def planJobs(e: S2X, name: String): Int = JobCount(spark.sparkContext)(e.execute(battery(name)))._2

  /** S2X engines whose validation stops after at most n supersteps. */
  private lazy val capped: Map[Int, S2X] = (1 to 4).map { n =>
    val e = new S2X(maxIterations = n)
    e.load(triples)
    n -> e
  }.toMap

  test("edgeMatches respects constants at every position") {
    val tp = TriplePattern(Const("p1"), Const("follows"), Var("x"))
    assert(S2X.edgeMatches(tp, "p1", "follows", "p2"))
    assert(!S2X.edgeMatches(tp, "p2", "follows", "p2"))
    assert(!S2X.edgeMatches(tp, "p1", "likes", "p2"))
  }

  test("validation prunes candidates that lack a supporting neighbour") {
    // persons who follow someone *and* live somewhere: a vertex that only
    // matches one of the two patterns must not survive as ?a
    val q = Parser.parse("SELECT ?a ?b ?c WHERE { ?a follows ?b . ?a livesIn ?c }")
    val rows = engine.execute(q).collect()
    assert(rows.nonEmpty)
    // spot-check a few rows against the raw data
    val data = triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    rows.take(5).foreach { r =>
      assert(data.contains((r.getString(0), "follows", r.getString(1))))
      assert(data.contains((r.getString(0), "livesIn", r.getString(2))))
    }
  }

  test("fixpoint terminates on a cyclic query") {
    val q = Parser.parse("SELECT ?a ?b WHERE { ?a follows ?b . ?b follows ?a }")
    val n = engine.execute(q).count()
    // symmetric: every (a,b) appears with (b,a)
    val rows = engine.execute(q).collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(rows.forall { case (a, b) => rows.contains((b, a)) })
    assert(n == rows.size)
  }

  test("validation is skipped, and execute() runs no Spark job, when no variable can be pruned") {
    for (name <- Seq("union-edges", "optional-likes", "order-desc-offset"))
      assert(planJobs(s2xEngine, name) == 0, name)
  }

  test("validation runs one Spark job per superstep") {
    val supersteps = planJobs(s2xEngine, "linear-3")
    assert(supersteps >= 2, "linear-3 should need more than one superstep")
    // capped at n supersteps, execute() runs exactly min(n, supersteps) jobs
    for ((n, e) <- capped) assert(planJobs(e, "linear-3") == math.min(n, supersteps), s"cap $n")
  }

  test("the persisted RDDs a query leaves do not grow with its supersteps") {
    val sc = spark.sparkContext
    val left = capped.toSeq.sortBy(_._1).map { case (n, e) =>
      val last = sc.getPersistentRDDs.keys.maxOption.getOrElse(-1)
      val df = e.execute(battery("linear-3"))
      val rows = df.collect().map(_.toSeq).sortBy(_.mkString("\u0000"))
      (n, sc.getPersistentRDDs.keys.count(_ > last), rows)
    }
    info(left.map { case (n, k, _) => s"cap $n: $k" }.mkString(", "))
    assert(left.map(_._2).distinct.size == 1)
    // validation only prunes: the answer does not depend on the cap
    assert(left.map(_._3.toSeq).distinct.size == 1)
  }
}
