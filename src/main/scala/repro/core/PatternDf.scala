package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.sparql.{Const, TriplePattern, Var}

/** DataFrame-level triple-pattern algebra shared by the DataFrame and
  * GraphFrames engines.
  */
object PatternDf {

  /** Evaluate a single triple pattern over a triples DataFrame (columns
    * s, p, o), producing one column per distinct variable of the pattern.
    */
  def matchPattern(triples: DataFrame, tp: TriplePattern): DataFrame = {
    var df = triples
    val positions = Seq(("s", tp.s), ("p", tp.p), ("o", tp.o))
    // constant restrictions
    positions.foreach {
      case (c, Const(v)) => df = df.where(col(c) === lit(v))
      case _             =>
    }
    // repeated-variable equality
    val varPos = positions.collect { case (c, Var(n)) => (n, c) }
    varPos.groupBy(_._1).values.filter(_.sizeIs > 1).foreach { dups =>
      dups.sliding(2).foreach {
        case Seq((_, c1), (_, c2)) => df = df.where(col(c1) === col(c2))
        case _                     =>
      }
    }
    val proj: Seq[Column] =
      varPos.distinctBy(_._1).map { case (n, c) => col(c).as(n) }
    df.select(proj: _*)
  }

  /** Natural join on shared columns; cross join when none are shared. */
  def joinBindings(l: DataFrame, r: DataFrame): DataFrame = {
    val shared = l.columns.toSeq intersect r.columns.toSeq
    if (shared.isEmpty) l.crossJoin(r) else l.join(r, shared, "inner")
  }
}
