package repro.sparql

/** Abstract syntax for the SPARQL fragment used throughout the repo.
  *
  * The fragment is the union of what the nine surveyed systems support
  * (paper Table II): Basic Graph Patterns plus — for "BGP+" systems —
  * FILTER, DISTINCT, ORDER BY, LIMIT, OFFSET, UNION and OPTIONAL.
  */
sealed trait Term {
  def isVar: Boolean
  /** Variable name (without '?') if this is a variable. */
  def varName: Option[String] = this match {
    case Var(n)   => Some(n)
    case Const(_) => None
  }
}

/** A SPARQL variable, stored without the leading '?'. */
final case class Var(name: String) extends Term { val isVar = true }

/** A constant (IRI written bare, or a literal — both plain strings here). */
final case class Const(value: String) extends Term { val isVar = false }

/** One triple pattern `s p o`. */
final case class TriplePattern(s: Term, p: Term, o: Term) {
  def terms: Seq[Term] = Seq(s, p, o)
  /** Variables in s,p,o order, duplicates preserved. */
  def vars: Seq[String] = terms.collect { case Var(n) => n }
  def varSet: Set[String] = vars.toSet
  /** Bound (constant) predicate, if any — the common fast path. */
  def predConst: Option[String] = p match { case Const(v) => Some(v); case _ => None }
}

/** Boolean expressions allowed inside FILTER(...). */
sealed trait FilterExpr {
  def vars: Set[String] = this match {
    case Cmp(l, r, _) => Set(l, r).flatMap(_.varName)
    case And(l, r)    => l.vars ++ r.vars
    case Or(l, r)     => l.vars ++ r.vars
    case Not(e)       => e.vars
  }
}
final case class Cmp(lhs: Term, rhs: Term, op: String) extends FilterExpr
final case class And(l: FilterExpr, r: FilterExpr) extends FilterExpr
final case class Or(l: FilterExpr, r: FilterExpr) extends FilterExpr
final case class Not(e: FilterExpr) extends FilterExpr

/** A conjunctive group: BGP + filters + optional sub-BGPs.
  *
  * UNION branches are each one `BasicGroup`; most queries have exactly one.
  */
final case class BasicGroup(
    patterns: Vector[TriplePattern],
    filters: Vector[FilterExpr] = Vector.empty,
    optionals: Vector[Vector[TriplePattern]] = Vector.empty,
) {
  /** Variables of the required part, in order of first appearance. */
  def requiredVars: Vector[String] = distinctInOrder(patterns.flatMap(_.vars))
  /** All variables (required + optional), in order of first appearance. */
  def allVars: Vector[String] =
    distinctInOrder(patterns.flatMap(_.vars) ++ optionals.flatten.flatMap(_.vars))
  private def distinctInOrder(xs: Vector[String]): Vector[String] = {
    val seen = scala.collection.mutable.LinkedHashSet.empty[String]
    xs.foreach(seen += _); seen.toVector
  }
}

/** Sort key of an ORDER BY clause. */
final case class OrderKey(v: String, asc: Boolean)

/** A parsed query: one or more UNIONed groups plus solution modifiers. */
final case class Query(
    projection: Vector[String],       // empty ⇒ SELECT *
    distinct: Boolean,
    groups: Vector[BasicGroup],
    orderBy: Vector[OrderKey] = Vector.empty,
    limit: Option[Int] = None,
    offset: Option[Int] = None,
) {
  require(groups.nonEmpty, "query must have at least one group")
  /** The output columns, honouring SELECT * (vars of the first group). */
  def resultVars: Vector[String] =
    if (projection.nonEmpty) projection else groups.head.allVars
  def isPlainBgp: Boolean =
    groups.sizeIs == 1 && groups.head.filters.isEmpty && groups.head.optionals.isEmpty
}

/** Evaluation of FILTER expressions over a single binding.
  *
  * Semantics mirror the SQL produced by [[SqlFilter]]: when one side is a
  * numeric constant the comparison is numeric (`TRY_CAST(col AS DOUBLE)`),
  * otherwise comparisons are plain string comparisons. Evaluation is
  * three-valued, as in SPARQL and SQL: a non-numeric value under a numeric
  * comparison (SQL NULL, a SPARQL type error) or an unbound variable makes
  * the comparison *unknown*; `!` of unknown is unknown, `&&` and `||`
  * follow the SQL truth table, and only a true FILTER keeps the row.
  */
object FilterEval {
  private[sparql] val NumericRe = "^-?\\d+(\\.\\d+)?$".r
  def isNumeric(s: String): Boolean = NumericRe.matches(s)

  /** Whether the FILTER keeps the binding: true, not false or unknown. */
  def eval(f: FilterExpr, b: String => Option[String]): Boolean = eval3(f, b).contains(true)

  /** Three-valued evaluation; `None` is unknown. */
  private[sparql] def eval3(f: FilterExpr, b: String => Option[String]): Option[Boolean] = f match {
    case And(l, r) =>
      (eval3(l, b), eval3(r, b)) match {
        case (Some(false), _) | (_, Some(false)) => Some(false)
        case (Some(true), Some(true))            => Some(true)
        case _                                   => None
      }
    case Or(l, r) =>
      (eval3(l, b), eval3(r, b)) match {
        case (Some(true), _) | (_, Some(true)) => Some(true)
        case (Some(false), Some(false))        => Some(false)
        case _                                 => None
      }
    case Not(e) => eval3(e, b).map(!_)
    case Cmp(lhs, rhs, op) =>
      def value(t: Term): Option[String] = t match {
        case Var(n)   => b(n)
        case Const(v) => Some(v)
      }
      (value(lhs), value(rhs)) match {
        case (Some(l), Some(r)) =>
          val numeric =
            (lhs.isVar != rhs.isVar) && // var-vs-const comparison
              (if (lhs.isVar) isNumeric(r) else isNumeric(l))
          if (numeric)
            for (ld <- l.toDoubleOption; rd <- r.toDoubleOption) // TRY_CAST → NULL
              yield cmp(ld.compareTo(rd), op)
          else Some(cmp(l.compareTo(r), op))
        case _ => None
      }
  }

  private def cmp(c: Int, op: String): Boolean = op match {
    case "="  => c == 0
    case "!=" => c != 0
    case "<"  => c < 0
    case "<=" => c <= 0
    case ">"  => c > 0
    case ">=" => c >= 0
    case other => throw new IllegalArgumentException(s"unknown operator $other")
  }
}

/** Renders FILTER expressions as SQL, identically for DuckDB and Spark SQL
  * (both support TRY_CAST). `colOf` maps a variable to its SQL column expr.
  */
object SqlFilter {
  def toSql(f: FilterExpr, colOf: String => String): String = f match {
    case And(l, r) => s"(${toSql(l, colOf)} AND ${toSql(r, colOf)})"
    case Or(l, r)  => s"(${toSql(l, colOf)} OR ${toSql(r, colOf)})"
    case Not(e)    => s"(NOT ${toSql(e, colOf)})"
    case Cmp(lhs, rhs, op) =>
      val sqlOp = if (op == "!=") "<>" else op
      (lhs, rhs) match {
        case (Var(x), Const(c)) if FilterEval.isNumeric(c) =>
          s"TRY_CAST(${colOf(x)} AS DOUBLE) $sqlOp $c"
        case (Const(c), Var(x)) if FilterEval.isNumeric(c) =>
          s"$c $sqlOp TRY_CAST(${colOf(x)} AS DOUBLE)"
        case (Var(x), Const(c)) => s"${colOf(x)} $sqlOp '${escape(c)}'"
        case (Const(c), Var(x)) => s"'${escape(c)}' $sqlOp ${colOf(x)}"
        case (Var(x), Var(y))   => s"${colOf(x)} $sqlOp ${colOf(y)}"
        case (Const(a), Const(b)) => s"'${escape(a)}' $sqlOp '${escape(b)}'"
      }
  }
  private def escape(s: String): String = s.replace("'", "''")
}
