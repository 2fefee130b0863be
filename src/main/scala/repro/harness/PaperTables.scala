package repro.harness

import repro.engines.Engines

/** The paper's evaluation artifacts — Table I (taxonomy) and Table II
  * (additional characteristics) — as data, plus renderers that regenerate
  * them from the implemented engines' self-reported metadata.
  */
object PaperTables {

  val abstractions: Seq[String] = Seq("RDD", "DataFrames", "Spark SQL", "GraphX", "GraphFrames")
  val dataModels: Seq[String] = Seq("The Triple Model", "The Graph Model")

  /** Table I as printed in the paper: (abstraction, data model) → citations. */
  val paperTableI: Map[(String, String), Set[String]] = Map(
    ("RDD", "The Triple Model")         -> Set("[7]", "[13]", "[21]"),
    ("RDD", "The Graph Model")          -> Set("[5]"),
    ("DataFrames", "The Triple Model")  -> Set("[21]"),
    ("Spark SQL", "The Triple Model")   -> Set("[24]"),
    ("GraphX", "The Graph Model")       -> Set("[23]", "[16]", "[12]"),
    ("GraphFrames", "The Graph Model")  -> Set("[4]"),
  ).withDefaultValue(Set.empty)

  /** Table II rows as printed in the paper. */
  final case class TableIIRow(
      citation: String,
      queryProcessing: String,
      optimization: Boolean,
      partitioning: String,
      fragment: String,
  )
  val paperTableII: Seq[TableIIRow] = Seq(
    TableIIRow("[7]",  "RDD API",           optimization = false, "Hash / Query Aware",  "BGP+"),
    TableIIRow("[13]", "RDD API",           optimization = true,  "Vertical",            "BGP+"),
    TableIIRow("[24]", "Spark SQL",         optimization = true,  "Extended Vertical",   "BGP+"),
    TableIIRow("[21]", "Hybrid",            optimization = true,  "Hash-sbj",            "BGP"),
    TableIIRow("[23]", "Graph Iterations",  optimization = false, "Default",             "BGP+"),
    TableIIRow("[16]", "Graph Iterations",  optimization = true,  "Default",             "BGP"),
    TableIIRow("[12]", "Graph Iterations",  optimization = true,  "Default",             "BGP"),
    TableIIRow("[4]",  "Subgraph Matching", optimization = true,  "Default",             "BGP"),
    TableIIRow("[5]",  "Custom",            optimization = true,  "Hash-sbj",            "BGP"),
  )

  private def modelLabel(m: String): String =
    if (m == "Triple") "The Triple Model" else "The Graph Model"

  /** Our Table I, derived from the engines' metadata. */
  def measuredTableI(): Map[(String, String), Set[String]] =
    Engines.surveyed()
      .flatMap(e => e.info.abstractions.map(a => (a, modelLabel(e.info.dataModel)) -> e.info.citation))
      .groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
      .withDefaultValue(Set.empty)

  /** Our Table II, derived from the engines' metadata (paper row order). */
  def measuredTableII(): Seq[TableIIRow] = {
    val byCitation = Engines.surveyed().map(e => e.info.citation -> e.info).toMap
    paperTableII.map(_.citation).map { c =>
      val i = byCitation(c)
      TableIIRow(c, i.queryProcessing, i.optimization, i.partitioning, i.sparqlFragment)
    }
  }

  def renderTableI(t: Map[(String, String), Set[String]]): String = {
    val header = f"${"Abstraction"}%-12s | ${"The Triple Model"}%-18s | ${"The Graph Model"}%-18s"
    val rows = abstractions.map { a =>
      def cell(m: String) = t((a, m)).toSeq.sorted.mkString(", ")
      f"$a%-12s | ${cell("The Triple Model")}%-18s | ${cell("The Graph Model")}%-18s"
    }
    (header +: ("-" * header.length) +: rows).mkString("\n")
  }

  def renderTableII(rows: Seq[TableIIRow]): String = {
    val header =
      f"${"System"}%-6s | ${"Query Processing"}%-17s | ${"Optimization"}%-12s | ${"Partitioning"}%-19s | SPARQL"
    val body = rows.map { r =>
      f"${r.citation}%-6s | ${r.queryProcessing}%-17s | ${if (r.optimization) "Yes" else "No"}%-12s | ${r.partitioning}%-19s | ${r.fragment}"
    }
    (header +: ("-" * header.length) +: body).mkString("\n")
  }
}
