package repro.sparql

/** Compiles a [[Query]] to SQL over a single `triples(s, p, o)` table.
  *
  * The SQL is dialect-neutral between DuckDB and Spark SQL, so one string
  * serves two purposes:
  *   - fed to DuckDB through [[repro.Oracle]], it is the *correctness
  *     oracle* every engine is diffed against;
  *   - executed by Spark over a `triples` temp view, it is the baseline
  *     [[repro.core.ReferenceEngine]].
  *
  * A [[ReferenceSql.Layout]] generalizes the one table: S2RDF [24] compiles
  * through the same code with each pattern reading its VP or ExtVP view.
  */
object ReferenceSql {

  /** One triple pattern as the SQL reads it: the table it scans, and whether
    * that table has a `p` column (a VP or ExtVP view keeps only `s` and `o`).
    */
  final case class Scan(tp: TriplePattern, table: String, hasP: Boolean)

  /** Maps one BGP to its scans in join order. It is applied to each BGP on
    * its own (a group's required patterns, then each OPTIONAL's), so a scan
    * may read a table that is valid only against partner patterns of the
    * same BGP, as an ExtVP reduction is.
    */
  type Layout = Seq[TriplePattern] => Seq[Scan]

  /** Every pattern scans `table(s, p, o)`, in query order. */
  private def oneTable(table: String): Layout = _.map(Scan(_, table, hasP = true))

  def toSql(q: Query, table: String = "triples"): String = toSql(q, oneTable(table))

  def toSql(q: Query, layout: Layout): String = {
    val groupSqls = q.groups.map(g => groupSql(g, q.resultVars, layout))
    val body =
      if (groupSqls.sizeIs == 1) groupSqls.head
      else groupSqls.map(s => s"($s)").mkString(" UNION ALL ")
    val dist = if (q.distinct) "DISTINCT " else ""
    val cols = q.resultVars.mkString(", ")
    val sb = new StringBuilder(s"SELECT $dist$cols FROM ( $body ) __q")
    if (q.orderBy.nonEmpty)
      sb ++= " ORDER BY " + q.orderBy
        .map(k => s"${k.v} ${if (k.asc) "ASC" else "DESC"}")
        .mkString(", ")
    q.limit.foreach(n => sb ++= s" LIMIT $n")
    q.offset.foreach(n => sb ++= s" OFFSET $n")
    sb.toString
  }

  /** SQL for one conjunctive group, projecting exactly `resultVars`
    * (variables the group does not bind come out as NULL — only possible
    * through our validated UNION fragment, where branches bind equal sets).
    */
  private def groupSql(g: BasicGroup, resultVars: Seq[String], layout: Layout): String = {
    val base = bgpSelect(layout(g.patterns), g.filters, alias = "t")
    if (g.optionals.isEmpty) {
      val cols = resultVars.map(v => base.col(v).map(c => s"$c AS $v").getOrElse(s"NULL AS $v"))
      s"SELECT ${cols.mkString(", ")} FROM ${base.fromWhere}"
    } else {
      // base as derived table b, each optional group LEFT JOINed on shared vars
      val baseCols = base.vars.map(v => s"${base.col(v).get} AS $v").mkString(", ")
      val baseSql = s"(SELECT $baseCols FROM ${base.fromWhere}) b"
      val joins = new StringBuilder
      val boundBy = scala.collection.mutable.Map.empty[String, String] // var -> table alias
      base.vars.foreach(v => boundBy(v) = "b")
      g.optionals.zipWithIndex.foreach { case (opt, idx) =>
        val ob = bgpSelect(layout(opt), Vector.empty, alias = s"u${idx}_")
        val oAlias = s"o$idx"
        val oCols = ob.vars.map(v => s"${ob.col(v).get} AS $v").mkString(", ")
        val shared = ob.vars.filter(boundBy.contains)
        val on =
          if (shared.isEmpty) "1=1"
          else shared.map(v => s"${boundBy(v)}.$v = $oAlias.$v").mkString(" AND ")
        joins ++= s" LEFT JOIN (SELECT $oCols FROM ${ob.fromWhere}) $oAlias ON $on"
        ob.vars.foreach(v => if (!boundBy.contains(v)) boundBy(v) = oAlias)
      }
      val cols = resultVars
        .map(v => boundBy.get(v).map(a => s"$a.$v AS $v").getOrElse(s"NULL AS $v"))
        .mkString(", ")
      s"SELECT $cols FROM $baseSql${joins.toString}"
    }
  }

  /** FROM/WHERE of a plain BGP with filters; `col` maps var → column expr. */
  private final case class BgpSelect(
      vars: Vector[String],
      colMap: Map[String, String],
      fromWhere: String,
  ) { def col(v: String): Option[String] = colMap.get(v) }

  private def bgpSelect(
      scans: Seq[Scan],
      filters: Seq[FilterExpr],
      alias: String,
  ): BgpSelect = {
    require(scans.nonEmpty, "empty BGP")
    val colMap = scala.collection.mutable.LinkedHashMap.empty[String, String]
    val conds = Vector.newBuilder[String]
    scans.zipWithIndex.foreach { case (Scan(tp, _, hasP), i) =>
      val a = s"$alias$i"
      val positions =
        if (hasP) Seq(("s", tp.s), ("p", tp.p), ("o", tp.o))
        else Seq(("s", tp.s), ("o", tp.o))
      positions.foreach {
        case (c, Var(v)) =>
          val expr = s"$a.$c"
          colMap.get(v) match {
            case Some(prev) => conds += s"$prev = $expr"
            case None       => colMap(v) = expr
          }
        case (c, Const(v)) => conds += s"$a.$c = '${v.replace("'", "''")}'"
      }
    }
    filters.foreach(f => conds += SqlFilter.toSql(f, colMap.apply))
    val from = scans.zipWithIndex.map { case (sc, i) => s"${sc.table} $alias$i" }.mkString(", ")
    val where = conds.result() match {
      case Vector() => ""
      case cs       => " WHERE " + cs.mkString(" AND ")
    }
    BgpSelect(colMap.keys.toVector, colMap.toMap, s"$from$where")
  }
}
