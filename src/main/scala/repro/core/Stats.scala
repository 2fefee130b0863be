package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.sparql.TriplePattern

/** Dataset statistics used for join reordering, as the survey describes for
  * SPARQLGX ("counts all distinct subjects, predicates and objects"), S2RDF
  * (table sizes) and the hybrid study (cardinality-based greedy planning).
  */
final case class Stats(
    total: Long,
    distinctS: Long,
    distinctP: Long,
    distinctO: Long,
    predicateCounts: Map[String, Long],
) {

  /** Estimated cardinality of one triple pattern under independence +
    * uniformity assumptions — the standard textbook estimate the surveyed
    * systems' statistics modules boil down to.
    */
  def estimate(tp: TriplePattern): Double = {
    var card = Stats.predicateSize(predicateCounts, tp).toDouble
    if (!tp.s.isVar) card /= math.max(1L, distinctS).toDouble
    if (!tp.o.isVar) card /= math.max(1L, distinctO).toDouble
    card
  }

  /** Reorder patterns by ascending estimated cardinality, keeping the plan
    * connected (see [[Stats.greedyOrder]]).
    */
  def reorder(patterns: Seq[TriplePattern]): Seq[TriplePattern] =
    Stats.greedyOrder(patterns)(estimate)
}

object Stats {

  /** Greedy connected join order: the cheapest pattern first, then always
    * the cheapest pattern sharing a variable with those placed, so no
    * cartesian product is introduced while a connected pattern is left.
    * Ties keep the input order.
    */
  def greedyOrder(patterns: Seq[TriplePattern])(cost: TriplePattern => Double): Seq[TriplePattern] = {
    val remaining = scala.collection.mutable.ArrayBuffer(patterns: _*)
    val ordered = Vector.newBuilder[TriplePattern]
    var bound = Set.empty[String]
    while (remaining.nonEmpty) {
      val connected = remaining.filter(_.varSet.intersect(bound).nonEmpty)
      val next = (if (connected.nonEmpty) connected else remaining).minBy(cost)
      ordered += next
      bound ++= next.varSet
      remaining -= next
    }
    ordered.result()
  }

  /** The triples a pattern's predicate admits, from [[predicateCounts]]:
    * its count, or every triple when the predicate is a variable.
    */
  def predicateSize(counts: Map[String, Long], tp: TriplePattern): Long =
    tp.predConst.fold(counts.values.sum)(counts.getOrElse(_, 0L))

  /** Two aggregates, the totals and [[predicateCounts]], in five Spark
    * jobs (adaptive execution runs each shuffle map stage as a job of its
    * own) — matches SPARQLGX's preprocessing step.
    */
  def compute(triples: DataFrame): Stats = {
    val counts = triples.agg(
      count(lit(1)) as "n",
      countDistinct(col("s")) as "ds",
      countDistinct(col("p")) as "dp",
      countDistinct(col("o")) as "do",
    ).head()
    Stats(counts.getLong(0), counts.getLong(1), counts.getLong(2), counts.getLong(3),
      predicateCounts(triples))
  }

  /** Triples per predicate, in one aggregate (two Spark jobs): the VP
    * table sizes of SPARQLGX and S2RDF, the predicate frequencies of
    * GraphFrames [4] and SparkRDF.
    */
  def predicateCounts(triples: DataFrame): Map[String, Long] =
    triples.groupBy("p").count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
}
