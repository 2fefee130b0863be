package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Bindings.Binding
import repro.sparql.{BasicGroup, Query, TriplePattern}

/** The BGP+ driver shared by the engines whose answers are `RDD[Binding]`
  * (HAQWA, SPARQLGX, S2X, SubgraphMatch, Spar(k)ql, SparkRDF).
  *
  * The surveyed systems differ in storage, planner and Spark abstraction,
  * all of which sit behind `matchBgp`. The rest is the same in every one of
  * them and lives here once: per UNION branch, its BGP, then FILTER, then
  * each OPTIONAL as a left join; the branches' union; then the solution
  * modifiers.
  */
abstract class BindingEngine extends SparqlEngine {

  /** Every solution of one conjunctive list of triple patterns, each binding
    * all of the patterns' variables.
    */
  protected def matchBgp(patterns: Vector[TriplePattern]): RDD[Binding]

  final override protected def answer(q: Query): DataFrame = {
    val union = q.groups.map(evalGroup).reduce(_ union _)
    Results.applyModifiers(Results.toDf(SparkSession.active, union, q.resultVars), q)
  }

  private def evalGroup(g: BasicGroup): RDD[Binding] = {
    val required = Bindings.applyFilters(matchBgp(g.patterns), g.filters)
    g.optionals.foldLeft((required, g.requiredVars.toSet)) { case ((acc, accVars), opt) =>
      val optVars = opt.flatMap(_.vars).toSet
      (Bindings.leftJoin(acc, matchBgp(opt), (accVars intersect optVars).toSeq.sorted), accVars ++ optVars)
    }._1
  }
}
