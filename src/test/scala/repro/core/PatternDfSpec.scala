package repro.core

import repro.SparkSpec
import repro.sparql.{Const, TriplePattern, Var}

class PatternDfSpec extends SparkSpec {

  private lazy val triples = {
    import spark.implicits._
    Seq(
      ("p1", "name", "alice"),
      ("p2", "name", "bob"),
      ("p1", "follows", "p2"),
      ("p3", "follows", "p3"),
    ).toDF("s", "p", "o").cache()
  }

  test("matchPattern projects variable columns") {
    val df = PatternDf.matchPattern(triples, TriplePattern(Var("x"), Const("name"), Var("n")))
    assert(df.columns.toSeq == Seq("x", "n"))
    assert(df.collect().map(r => (r.getString(0), r.getString(1))).toSet ==
      Set(("p1", "alice"), ("p2", "bob")))
  }

  test("matchPattern honours constants at any position") {
    val df = PatternDf.matchPattern(triples, TriplePattern(Const("p1"), Var("p"), Var("o")))
    assert(df.collect().map(_.getString(0)).toSet == Set("name", "follows"))
  }

  test("matchPattern enforces repeated-variable equality") {
    val df = PatternDf.matchPattern(triples, TriplePattern(Var("x"), Const("follows"), Var("x")))
    assert(df.columns.toSeq == Seq("x"))
    assert(df.collect().map(_.getString(0)).toSeq == Seq("p3"))
  }

  test("joinBindings joins on shared columns") {
    val a = PatternDf.matchPattern(triples, TriplePattern(Var("x"), Const("name"), Var("n")))
    val b = PatternDf.matchPattern(triples, TriplePattern(Var("x"), Const("follows"), Var("y")))
    val out = PatternDf.joinBindings(a, b).collect()
    assert(out.length == 1)
    assert(out.head.getAs[String]("n") == "alice")
  }

  test("joinBindings without shared columns is a cross join") {
    val a = PatternDf.matchPattern(triples, TriplePattern(Var("x"), Const("name"), Var("n")))
    val b = PatternDf.matchPattern(triples, TriplePattern(Var("u"), Const("follows"), Var("v")))
    assert(PatternDf.joinBindings(a, b).count() == 4)
  }
}
