package repro.core

import repro.SparkSpec
import repro.core.Bindings.Binding
import repro.sparql.{Cmp, Const, TriplePattern, Var}

class BindingsSpec extends SparkSpec {

  private def rdd(bs: Binding*) = spark.sparkContext.parallelize(bs)
  private val triples = Seq(
    ("p1", "name", "alice"),
    ("p1", "age", "30"),
    ("p2", "name", "bob"),
    ("p1", "follows", "p2"),
    ("p2", "follows", "p1"),
    ("p3", "follows", "p3"),
  )
  private lazy val triplesRdd = spark.sparkContext.parallelize(triples)

  test("matchPattern binds variables at every position") {
    val out = Bindings.matchPattern(triplesRdd, TriplePattern(Var("s"), Const("name"), Var("n")))
      .collect().toSet
    assert(out == Set(Map("s" -> "p1", "n" -> "alice"), Map("s" -> "p2", "n" -> "bob")))
  }

  test("matchPattern with constant subject and object") {
    val out = Bindings.matchPattern(triplesRdd, TriplePattern(Const("p1"), Var("p"), Const("alice")))
      .collect().toSet
    assert(out == Set(Map("p" -> "name")))
  }

  test("matchPattern with repeated variable requires equality") {
    val out = Bindings.matchPattern(triplesRdd, TriplePattern(Var("x"), Const("follows"), Var("x")))
      .collect().toSet
    assert(out == Set(Map("x" -> "p3")))
  }

  test("bindTriple rejects non-matching constants") {
    assert(Bindings.bindTriple(TriplePattern(Const("px"), Var("p"), Var("o")), "p1", "name", "alice").isEmpty)
  }

  test("joinOn merges compatible bindings on keys") {
    val l = rdd(Map("x" -> "1", "y" -> "a"), Map("x" -> "2", "y" -> "b"))
    val r = rdd(Map("x" -> "1", "z" -> "!"))
    val out = Bindings.joinOn(l, r, Seq("x")).collect().toSet
    assert(out == Set(Map("x" -> "1", "y" -> "a", "z" -> "!")))
  }

  test("joinOn with empty keys is a cartesian product") {
    val l = rdd(Map("x" -> "1"), Map("x" -> "2"))
    val r = rdd(Map("y" -> "a"), Map("y" -> "b"))
    assert(Bindings.joinOn(l, r, Seq.empty).count() == 4)
  }

  test("join preserves bag semantics (duplicates multiply)") {
    val l = rdd(Map("x" -> "1"), Map("x" -> "1"))
    val r = rdd(Map("x" -> "1", "y" -> "a"))
    assert(Bindings.joinOn(l, r, Seq("x")).count() == 2)
  }

  test("leftJoin keeps unmatched left rows") {
    val l = rdd(Map("x" -> "1"), Map("x" -> "2"))
    val r = rdd(Map("x" -> "1", "y" -> "a"))
    val out = Bindings.leftJoin(l, r, Seq("x")).collect().toSet
    assert(out == Set(Map("x" -> "1", "y" -> "a"), Map("x" -> "2")))
  }

  test("leftJoin keeps a left row whose key variable is unbound, unextended") {
    // ?y was left unbound by an earlier OPTIONAL: as in SQL, it never joins
    val l = rdd(Map("x" -> "1", "y" -> "a"), Map("x" -> "2"))
    val r = rdd(Map("x" -> "1", "y" -> "a", "z" -> "!"), Map("x" -> "2", "y" -> "b", "z" -> "?"))
    val out = Bindings.leftJoin(l, r, Seq("x", "y")).collect().toSet
    assert(out == Set(Map("x" -> "1", "y" -> "a", "z" -> "!"), Map("x" -> "2")))
  }

  test("joinOn and leftJoin partition to the cores, not to their inputs") {
    val l = spark.sparkContext.parallelize(Seq(Map("x" -> "1"), Map("x" -> "2")), 64)
    val r = spark.sparkContext.parallelize(Seq(Map("x" -> "1", "y" -> "a")), 64)
    val cores = spark.sparkContext.defaultParallelism
    assert(Bindings.joinOn(l, r, Seq("x")).getNumPartitions == cores)
    assert(Bindings.leftJoin(l, r, Seq("x")).getNumPartitions == cores)
  }

  test("leftJoin without keys is rejected") {
    assertThrows[IllegalArgumentException](
      Bindings.leftJoin(rdd(Map("x" -> "1")), rdd(Map("y" -> "2")), Seq.empty))
  }

  test("applyFilters filters by FilterEval semantics") {
    val l = rdd(Map("a" -> "10"), Map("a" -> "60"), Map("a" -> "abc"))
    val out = Bindings.applyFilters(l, Seq(Cmp(Var("a"), Const("50"), ">"))).collect().toSet
    assert(out == Set(Map("a" -> "60")))
  }

  test("joinAll chains joins over shared variables") {
    val parts = Seq(
      (rdd(Map("a" -> "1", "b" -> "2")), Set("a", "b")),
      (rdd(Map("b" -> "2", "c" -> "3")), Set("b", "c")),
      (rdd(Map("c" -> "3", "d" -> "4")), Set("c", "d")),
    )
    assert(Bindings.joinAll(parts).collect().toSet ==
      Set(Map("a" -> "1", "b" -> "2", "c" -> "3", "d" -> "4")))
  }

  test("mergeLocal joins small tables on shared variables") {
    val a = Seq(Map("x" -> "1", "y" -> "a"), Map("x" -> "2", "y" -> "b"))
    val b = Seq(Map("x" -> "1", "z" -> "c"), Map("x" -> "3", "z" -> "d"))
    assert(Bindings.mergeLocal(a, b) == Seq(Map("x" -> "1", "y" -> "a", "z" -> "c")))
  }

  test("mergeLocal with disjoint variables is a local cross product") {
    val a = Seq(Map("x" -> "1"), Map("x" -> "2"))
    val b = Seq(Map("y" -> "9"))
    assert(Bindings.mergeLocal(a, b).toSet ==
      Set(Map("x" -> "1", "y" -> "9"), Map("x" -> "2", "y" -> "9")))
  }

  test("mergeTables merges compatible bindings per key and drops keys left empty") {
    val l = spark.sparkContext.parallelize(Seq(
      1L -> Seq(Map("x" -> "1", "y" -> "a"), Map("x" -> "2", "y" -> "b")),
      2L -> Seq(Map("x" -> "1")),
      3L -> Seq(Map("x" -> "1"))))
    val r = spark.sparkContext.parallelize(Seq(
      1L -> Seq(Map("x" -> "1", "z" -> "c")),
      2L -> Seq(Map("x" -> "9", "z" -> "d"))))
    assert(Bindings.mergeTables(l, r).collect().toMap ==
      Map(1L -> Seq(Map("x" -> "1", "y" -> "a", "z" -> "c"))))
  }
}
