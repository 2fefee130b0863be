package repro.core

import org.apache.spark.ShuffleDependency
import org.apache.spark.graphx.VertexRDD
import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.core.Bindings.{Binding, Keyed, Rows}
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

  /** The bag of an RDD's bindings: each distinct binding and its count. */
  private def bag(r: RDD[Binding]): Map[Binding, Int] = bag(r.collect().toSeq)
  private def bag(bs: Seq[Binding]): Map[Binding, Int] = bs.groupBy(identity).view.mapValues(_.length).toMap

  /** The bag of the operands' natural join, merged on the driver. */
  private def merged(ops: RDD[Binding]*): Map[Binding, Int] = bag(ops.map(_.collect().toSeq).reduce(Bindings.mergeLocal))

  /** The shuffles in an RDD's lineage. */
  private def shuffles(r: RDD[_]): Int =
    r.dependencies.map(d => (if (d.isInstanceOf[ShuffleDependency[_, _, _]]) 1 else 0) + shuffles(d.rdd)).sum

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

  test("joinAll of two operands merges compatible bindings on shared variables") {
    val l = rdd(Map("x" -> "1", "y" -> "a"), Map("x" -> "2", "y" -> "b"))
    val r = rdd(Map("x" -> "1", "z" -> "!"))
    val out = Bindings.joinAll(Seq(Rows(l, Set("x", "y")), Rows(r, Set("x", "z")))).collect().toSet
    assert(out == Set(Map("x" -> "1", "y" -> "a", "z" -> "!")))
  }

  test("joinAll of two operands sharing no variable is a cartesian product") {
    val l = rdd(Map("x" -> "1"), Map("x" -> "2"))
    val r = rdd(Map("y" -> "a"), Map("y" -> "b"))
    assert(Bindings.joinAll(Seq(Rows(l, Set("x")), Rows(r, Set("y")))).count() == 4)
  }

  test("join preserves bag semantics (duplicates multiply)") {
    val l = rdd(Map("x" -> "1"), Map("x" -> "1"))
    val r = rdd(Map("x" -> "1", "y" -> "a"))
    assert(Bindings.joinAll(Seq(Rows(l, Set("x")), Rows(r, Set("x", "y")))).count() == 2)
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

  test("joinAll and leftJoin partition to the cores, not to their inputs") {
    val l = spark.sparkContext.parallelize(Seq(Map("x" -> "1"), Map("x" -> "2")), 64)
    val r = spark.sparkContext.parallelize(Seq(Map("x" -> "1", "y" -> "a")), 64)
    val cores = spark.sparkContext.defaultParallelism
    assert(Bindings.joinAll(Seq(Rows(l, Set("x")), Rows(r, Set("x", "y")))).getNumPartitions == cores)
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
      Rows(rdd(Map("a" -> "1", "b" -> "2")), Set("a", "b")),
      Rows(rdd(Map("b" -> "2", "c" -> "3")), Set("b", "c")),
      Rows(rdd(Map("c" -> "3", "d" -> "4")), Set("c", "d")),
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
    val l = VertexRDD(spark.sparkContext.parallelize(Seq(
      1L -> Seq(Map("x" -> "1", "y" -> "a"), Map("x" -> "2", "y" -> "b")),
      2L -> Seq(Map("x" -> "1")),
      3L -> Seq(Map("x" -> "1")))))
    val r = VertexRDD(spark.sparkContext.parallelize(Seq(
      1L -> Seq(Map("x" -> "1", "z" -> "c")),
      2L -> Seq(Map("x" -> "9", "z" -> "d")))))
    assert(Bindings.mergeTables(l, r).collect().toMap ==
      Map(1L -> Seq(Map("x" -> "1", "y" -> "a", "z" -> "c"))))
  }

  test("joinAll co-groups a run of same-key operands into their merged bag") {
    // x = 1 matches 2 × 2 × 2 bindings; x = 2 misses the third operand
    val a = rdd(Map("x" -> "1", "a" -> "1"), Map("x" -> "1", "a" -> "2"), Map("x" -> "2", "a" -> "3"))
    val b = rdd(Map("x" -> "1", "b" -> "1"), Map("x" -> "1", "b" -> "1"), Map("x" -> "2", "b" -> "2"))
    val c = rdd(Map("x" -> "1", "c" -> "1"), Map("x" -> "1", "c" -> "2"), Map("x" -> "3", "c" -> "3"))
    val joined = Bindings.joinAll(Seq(Rows(a, Set("x", "a")), Rows(b, Set("x", "b")), Rows(c, Set("x", "c"))))
    assert(joined.count() == 8)
    assert(bag(joined) == merged(a, b, c))
    // one join level: each operand is shuffled once, the product is not
    assert(shuffles(joined) == 3)
  }

  test("joinAll starts a new level where an operand shares a different key") {
    val a = rdd(Map("x" -> "1", "a" -> "1"), Map("x" -> "2", "a" -> "2"))
    val b = rdd(Map("x" -> "1", "b" -> "1"), Map("x" -> "2", "b" -> "2"))
    val c = rdd(Map("b" -> "1", "c" -> "1"), Map("b" -> "1", "c" -> "2"))
    val joined = Bindings.joinAll(Seq(Rows(a, Set("x", "a")), Rows(b, Set("x", "b")), Rows(c, Set("b", "c"))))
    assert(bag(joined) == merged(a, b, c))
    assert(joined.count() == 2)
    // a and b at the first level, their join and c at the second
    assert(shuffles(joined) == 4)
  }

  test("joinAll joins on a two-variable key") {
    val a = rdd(Map("x" -> "1", "y" -> "1", "a" -> "1"), Map("x" -> "1", "y" -> "2", "a" -> "2"))
    val b = rdd(Map("x" -> "1", "y" -> "1", "b" -> "1"), Map("x" -> "2", "y" -> "1", "b" -> "2"))
    val joined = Bindings.joinAll(Seq(Rows(a, Set("x", "y", "a")), Rows(b, Set("x", "y", "b"))))
    assert(joined.collect().toSeq == Seq(Map("x" -> "1", "y" -> "1", "a" -> "1", "b" -> "1")))
  }

  test("joinAll reads an operand keyed and partitioned on the join key in place") {
    val perCore = Bindings.perCore(spark.sparkContext)
    def keyed(bs: Binding*) = Keyed(rdd(bs: _*).keyBy(_("x")).partitionBy(perCore), "x", bs.head.keySet)
    val a = keyed(Map("x" -> "1", "a" -> "1"), Map("x" -> "2", "a" -> "2"))
    val b = keyed(Map("x" -> "1", "b" -> "1"), Map("x" -> "3", "b" -> "3"))
    val c = Rows(rdd(Map("x" -> "1", "c" -> "1")), Set("x", "c"))
    val joined = Bindings.joinAll(Seq(a, b, c))
    assert(joined.collect().toSeq == Seq(Map("x" -> "1", "a" -> "1", "b" -> "1", "c" -> "1")))
    // only the unkeyed operand is shuffled by the join
    assert(shuffles(joined) == shuffles(a.byKey) + shuffles(b.byKey) + 1)
    // a keyed operand joined on another variable is keyed afresh
    val other = Rows(rdd(Map("a" -> "1", "d" -> "!")), Set("a", "d"))
    assert(Bindings.joinAll(Seq(other, a)).collect().toSeq == Seq(Map("x" -> "1", "a" -> "1", "d" -> "!")))
  }
}
