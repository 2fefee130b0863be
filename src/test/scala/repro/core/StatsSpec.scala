package repro.core

import org.apache.spark.JobCount
import repro.SparkSpec
import repro.rdf.RdfSynth
import repro.sparql.{Const, Parser, TriplePattern, Var}

class StatsSpec extends SparkSpec {

  private lazy val triples = RdfSynth.social(spark, sf = 0.005).cache()
  private lazy val stats = Stats.compute(triples)

  test("totals and distinct counts match direct computation") {
    assert(stats.total == triples.count())
    assert(stats.distinctS == triples.select("s").distinct().count())
    assert(stats.distinctP == triples.select("p").distinct().count())
    assert(stats.distinctO == triples.select("o").distinct().count())
  }

  test("compute runs the jobs its scaladoc states") {
    // adaptive execution runs each shuffle map stage as a job of its own
    val jobs = (JobCount(spark.sparkContext)(Stats.compute(triples))._2,
      JobCount(spark.sparkContext)(Stats.predicateCounts(triples))._2)
    assert(jobs == ((5, 2)))
  }

  test("predicate counts sum to total") {
    assert(stats.predicateCounts.values.sum == stats.total)
  }

  test("estimate: bound predicate uses its partition size") {
    val tp = TriplePattern(Var("s"), Const("name"), Var("o"))
    assert(stats.estimate(tp) == stats.predicateCounts("name").toDouble)
  }

  test("estimate: constants reduce the estimate") {
    val base = TriplePattern(Var("s"), Const("name"), Var("o"))
    val withS = TriplePattern(Const("p1"), Const("name"), Var("o"))
    assert(stats.estimate(withS) < stats.estimate(base))
  }

  test("reorder puts the most selective pattern first and stays connected") {
    val q = Parser.parse(
      "SELECT ?p ?n ?c WHERE { ?p name ?n . ?p livesIn c3 . ?c cityName ?n2 }")
    val ordered = stats.reorder(q.groups.head.patterns)
    // livesIn-c3 is far more selective than name
    assert(ordered.head.predConst.contains("livesIn"))
    // second pattern must share ?p with the first, not jump to the cityName island
    assert(ordered(1).varSet.contains("p"))
  }

  test("greedyOrder with input-position cost places the first connected pattern next") {
    val ps = Parser.parse("SELECT * WHERE { ?a p ?b . ?c q ?d . ?b r ?c }").groups.head.patterns
    assert(Stats.greedyOrder(ps)(tp => ps.indexOf(tp).toDouble).map(_.predConst.get) == Seq("p", "r", "q"))
  }

  test("reorder is a permutation") {
    val ps = Parser.parse("SELECT ?a ?b ?c WHERE { ?a follows ?b . ?b follows ?c }")
      .groups.head.patterns
    assert(stats.reorder(ps).toSet == ps.toSet)
  }
}
