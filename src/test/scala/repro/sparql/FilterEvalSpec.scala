package repro.sparql

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class FilterEvalSpec extends AnyFunSuite {

  /** Deterministic property driver over scalacheck generators (the
    * scalatest+scalacheck bridge artifact is not available offline).
    */
  private def forAll[A](gen: Gen[A], n: Int = 200)(check: A => Unit): Unit =
    (0 until n).foreach { i =>
      gen(org.scalacheck.Gen.Parameters.default, Seed(i.toLong)).foreach(check)
    }

  private def b(kv: (String, String)*): String => Option[String] = kv.toMap.get

  test("numeric comparison when the constant is numeric") {
    assert(FilterEval.eval(Cmp(Var("a"), Const("50"), ">"), b("a" -> "51")))
    assert(!FilterEval.eval(Cmp(Var("a"), Const("50"), ">"), b("a" -> "50")))
    // "9" < "50" numerically even though "9" > "5" lexicographically
    assert(FilterEval.eval(Cmp(Var("a"), Const("50"), "<"), b("a" -> "9")))
  }

  test("non-numeric bound value under numeric comparison is false (TRY_CAST null)") {
    assert(!FilterEval.eval(Cmp(Var("a"), Const("50"), ">"), b("a" -> "abc")))
    assert(!FilterEval.eval(Cmp(Var("a"), Const("50"), "<"), b("a" -> "abc")))
    assert(!FilterEval.eval(Cmp(Var("a"), Const("50"), "!="), b("a" -> "abc")))
  }

  test("string comparison when the constant is not numeric") {
    assert(FilterEval.eval(Cmp(Var("c"), Const("c1"), "!="), b("c" -> "c2")))
    assert(!FilterEval.eval(Cmp(Var("c"), Const("c1"), "!="), b("c" -> "c1")))
    assert(FilterEval.eval(Cmp(Var("c"), Const("b"), ">"), b("c" -> "c")))
  }

  test("var-var comparisons are string comparisons") {
    assert(FilterEval.eval(Cmp(Var("x"), Var("y"), "<"), b("x" -> "10", "y" -> "9")))
  }

  test("unbound variable makes any comparison false") {
    assert(!FilterEval.eval(Cmp(Var("zz"), Const("1"), "="), b()))
    assert(!FilterEval.eval(Cmp(Var("zz"), Const("1"), "!="), b()))
  }

  test("numeric equality crosses representations (5.0 = 5)") {
    assert(FilterEval.eval(Cmp(Var("x"), Const("5"), "="), b("x" -> "5.0")))
  }

  test("boolean connectives") {
    val f = And(Cmp(Var("a"), Const("30"), ">="), Cmp(Var("a"), Const("40"), "<"))
    assert(FilterEval.eval(f, b("a" -> "35")))
    assert(!FilterEval.eval(f, b("a" -> "45")))
    assert(FilterEval.eval(Or(f, Cmp(Var("a"), Const("99"), "=")), b("a" -> "99")))
    assert(FilterEval.eval(Not(f), b("a" -> "45")))
  }

  test("three-valued: a type error is unknown, ! keeps it unknown, &&/|| follow SQL") {
    val bound = b("a" -> "abc", "c" -> "c1")
    val t = Cmp(Var("c"), Const("c1"), "=")
    val f = Cmp(Var("c"), Const("c2"), "=")
    val u = Cmp(Var("a"), Const("70"), "<") // TRY_CAST('abc') is NULL
    val value = Map[FilterExpr, Option[Boolean]](t -> Some(true), f -> Some(false), u -> None)
    for ((x, vx) <- value; (y, vy) <- value) {
      val and = if (vx.contains(false) || vy.contains(false)) Some(false)
        else if (vx.contains(true) && vy.contains(true)) Some(true) else None
      val or = if (vx.contains(true) || vy.contains(true)) Some(true)
        else if (vx.contains(false) && vy.contains(false)) Some(false) else None
      assert(FilterEval.eval3(And(x, y), bound) == and)
      assert(FilterEval.eval3(Or(x, y), bound) == or)
    }
    assert(FilterEval.eval3(Not(u), bound).isEmpty)
    assert(!FilterEval.eval(Not(u), bound)) // the rows of filter-not-mixed-empty are dropped
    assert(!FilterEval.eval(Not(Cmp(Var("zz"), Const("1"), "=")), b()))
    assert(FilterEval.eval(Or(u, t), bound))
  }

  test("property: numeric comparisons agree with Double ordering") {
    forAll(Gen.zip(Gen.chooseNum(-1000, 1000), Gen.chooseNum(-1000, 1000))) { case (x, y) =>
      assert(FilterEval.eval(Cmp(Var("v"), Const(y.toString), "<"), b("v" -> x.toString)) == (x < y))
      assert(FilterEval.eval(Cmp(Var("v"), Const(y.toString), "="), b("v" -> x.toString)) == (x == y))
      assert(FilterEval.eval(Cmp(Var("v"), Const(y.toString), ">="), b("v" -> x.toString)) == (x >= y))
    }
  }

  test("property: Not is an involution on total comparisons") {
    forAll(Gen.chooseNum(-100, 100)) { x =>
      val c = Cmp(Var("v"), Const("0"), "<")
      assert(FilterEval.eval(Not(Not(c)), b("v" -> x.toString)) ==
        FilterEval.eval(c, b("v" -> x.toString)))
    }
  }

  test("isNumeric recognizes integers, decimals and negatives only") {
    assert(FilterEval.isNumeric("42") && FilterEval.isNumeric("-3.5"))
    assert(!FilterEval.isNumeric("p42") && !FilterEval.isNumeric("4.2.1") && !FilterEval.isNumeric(""))
  }

  test("SqlFilter renders numeric vs string comparisons") {
    val colOf = Map("a" -> "t0.o").apply _
    assert(SqlFilter.toSql(Cmp(Var("a"), Const("50"), ">"), colOf) ==
      "TRY_CAST(t0.o AS DOUBLE) > 50")
    assert(SqlFilter.toSql(Cmp(Var("a"), Const("c1"), "!="), colOf) == "t0.o <> 'c1'")
    assert(SqlFilter.toSql(And(Cmp(Var("a"), Const("1"), "="), Cmp(Var("a"), Const("x"), "=")), colOf) ==
      "(TRY_CAST(t0.o AS DOUBLE) = 1 AND t0.o = 'x')")
  }

  test("SqlFilter escapes single quotes") {
    val colOf = Map("a" -> "c").apply _
    assert(SqlFilter.toSql(Cmp(Var("a"), Const("O'Hara"), "="), colOf) == "c = 'O''Hara'")
  }
}
