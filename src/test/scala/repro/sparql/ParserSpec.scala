package repro.sparql

import org.scalatest.funsuite.AnyFunSuite

/** Pure parser tests — no SparkSession needed. */
class ParserSpec extends AnyFunSuite {

  test("single pattern with variables") {
    val q = Parser.parse("SELECT ?s WHERE { ?s rdf:type Person }")
    assert(q.projection == Vector("s"))
    assert(q.groups.head.patterns ==
      Vector(TriplePattern(Var("s"), Const("rdf:type"), Const("Person"))))
  }

  test("SELECT * projects variables in order of appearance") {
    val q = Parser.parse("SELECT * WHERE { ?a follows ?b . ?b name ?n }")
    assert(q.projection.isEmpty)
    assert(q.resultVars == Vector("a", "b", "n"))
  }

  test("star query with three patterns") {
    val q = Parser.parse("SELECT ?p ?n ?a WHERE { ?p name ?n . ?p age ?a . ?p livesIn ?c }")
    assert(q.groups.head.patterns.size == 3)
    assert(q.groups.head.patterns.forall(_.s == Var("p")))
  }

  test("trailing dot is optional on the last pattern") {
    val q1 = Parser.parse("SELECT ?n WHERE { p5 name ?n . }")
    val q2 = Parser.parse("SELECT ?n WHERE { p5 name ?n }")
    assert(q1.groups == q2.groups)
  }

  test("quoted literals keep spaces and strip quotes") {
    val q = Parser.parse("""SELECT ?s WHERE { ?s name "Alice Smith" }""")
    assert(q.groups.head.patterns.head.o == Const("Alice Smith"))
  }

  test("constant subject and object") {
    val q = Parser.parse("SELECT ?p WHERE { p1 ?p c3 }")
    val tp = q.groups.head.patterns.head
    assert(tp.s == Const("p1") && tp.p == Var("p") && tp.o == Const("c3"))
  }

  test("DISTINCT flag") {
    assert(Parser.parse("SELECT DISTINCT ?c WHERE { ?p livesIn ?c }").distinct)
    assert(!Parser.parse("SELECT ?c WHERE { ?p livesIn ?c }").distinct)
  }

  test("FILTER with numeric comparison") {
    val q = Parser.parse("SELECT ?p ?a WHERE { ?p age ?a . FILTER(?a > 50) }")
    assert(q.groups.head.filters == Vector(Cmp(Var("a"), Const("50"), ">")))
  }

  test("FILTER with && and ||") {
    val q = Parser.parse(
      "SELECT ?p ?a WHERE { ?p age ?a . FILTER(?a >= 30 && ?a < 40 || ?a = 99) }")
    q.groups.head.filters.head match {
      case Or(And(Cmp(_, _, ">="), Cmp(_, _, "<")), Cmp(_, _, "=")) => succeed
      case other => fail(s"unexpected parse: $other")
    }
  }

  test("FILTER with negation and parentheses") {
    val q = Parser.parse("SELECT ?p ?a WHERE { ?p age ?a . FILTER(!(?a < 70)) }")
    assert(q.groups.head.filters == Vector(Not(Cmp(Var("a"), Const("70"), "<"))))
  }

  test("FILTER on decimals") {
    val q = Parser.parse("SELECT ?x WHERE { ?s price ?x . FILTER(?x <= 10.5) }")
    assert(q.groups.head.filters == Vector(Cmp(Var("x"), Const("10.5"), "<=")))
  }

  test("OPTIONAL group") {
    val q = Parser.parse("SELECT ?p ?n ?pr WHERE { ?p name ?n OPTIONAL { ?p likes ?pr } }")
    assert(q.groups.head.optionals ==
      Vector(Vector(TriplePattern(Var("p"), Const("likes"), Var("pr")))))
  }

  test("UNION of two branches") {
    val q = Parser.parse("SELECT ?x ?y WHERE { { ?x likes ?y } UNION { ?x follows ?y } }")
    assert(q.groups.size == 2)
    assert(q.groups(0).patterns.head.p == Const("likes"))
    assert(q.groups(1).patterns.head.p == Const("follows"))
  }

  test("three-way UNION") {
    val q = Parser.parse(
      "SELECT ?x ?y WHERE { { ?x likes ?y } UNION { ?x follows ?y } UNION { ?x livesIn ?y } }")
    assert(q.groups.size == 3)
  }

  test("ORDER BY / LIMIT / OFFSET") {
    val q = Parser.parse("SELECT ?p ?n WHERE { ?p name ?n } ORDER BY ?n LIMIT 10 OFFSET 3")
    assert(q.orderBy == Vector(OrderKey("n", asc = true)))
    assert(q.limit.contains(10) && q.offset.contains(3))
  }

  test("ORDER BY DESC(?v)") {
    val q = Parser.parse("SELECT ?p ?n WHERE { ?p name ?n } ORDER BY DESC(?n)")
    assert(q.orderBy == Vector(OrderKey("n", asc = false)))
  }

  test("ORDER BY multiple keys") {
    val q = Parser.parse("SELECT ?p ?n ?a WHERE { ?p name ?n . ?p age ?a } ORDER BY ?a DESC(?n)")
    assert(q.orderBy == Vector(OrderKey("a", asc = true), OrderKey("n", asc = false)))
  }

  test("keywords are case-insensitive") {
    val q = Parser.parse("select distinct ?c where { ?p livesIn ?c } order by ?c limit 2")
    assert(q.distinct && q.orderBy.nonEmpty && q.limit.contains(2))
  }

  test("projection of unbound variable is rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT ?zzz WHERE { ?p name ?n }"))
  }

  test("a query that binds no variables is rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT * WHERE { p5 rdf:type Person }"))
  }

  test("FILTER on a variable not bound in the group is rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT ?p WHERE { ?p name ?n . FILTER(?zzz > 5) }"))
  }

  test("UNION branches with different variables are rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT ?x WHERE { { ?x likes ?y } UNION { ?x follows ?z } }"))
  }

  test("OPTIONAL without a shared variable is rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT ?p WHERE { ?p name ?n OPTIONAL { ?x likes ?y } }"))
  }

  test("garbage after modifiers is rejected") {
    assertThrows[IllegalArgumentException](
      Parser.parse("SELECT ?p WHERE { ?p name ?n } BOGUS"))
  }

  test("tokenizer splits operators from operands") {
    assert(Parser.tokenize("FILTER(?a>=30&&?b<5)") ==
      Vector("FILTER", "(", "?a", ">=", "30", "&&", "?b", "<", "5", ")"))
  }

  test("tokenizer keeps prefixed names and decimals whole") {
    assert(Parser.tokenize("?s rdf:type Person . FILTER(?x = 1.25)").contains("rdf:type"))
    assert(Parser.tokenize("FILTER(?x = 1.25)").contains("1.25"))
  }
}
