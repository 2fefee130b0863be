package repro.core

import scala.reflect.ClassTag
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import repro.sparql.{Const, FilterExpr, FilterEval, Term, TriplePattern, Var}

/** RDD-level solution-binding algebra shared by the RDD-based engines
  * (SPARQLGX, HAQWA, SparkRDF, and the GraphX engines' assembly phase).
  *
  * A binding is a Map from variable name to value. Bag semantics —
  * duplicates are preserved, exactly as SPARQL (and the oracle) require.
  */
object Bindings {

  type Binding = Map[String, String]

  /** Match one triple pattern against raw triples. Handles constants in any
    * position and repeated variables within the pattern (enforced equal).
    */
  def matchPattern(triples: RDD[(String, String, String)], tp: TriplePattern): RDD[Binding] =
    triples.flatMap { case (s, p, o) => bindTriple(tp, s, p, o) }

  /** Bind a single triple to a pattern, if it matches. */
  def bindTriple(tp: TriplePattern, s: String, p: String, o: String): Option[Binding] =
    unify(tp.s, s, Map.empty).flatMap(unify(tp.p, p, _)).flatMap(unify(tp.o, o, _))

  /** Extend `b` so that term `t` denotes value `v`: a constant must equal
    * `v`, a bound variable must already hold `v`, a free variable is bound
    * to `v`.
    */
  def unify(t: Term, v: String, b: Binding): Option[Binding] = t match {
    case Const(c) => Option.when(c == v)(b)
    case Var(n) =>
      b.get(n) match {
        case Some(prev) => Option.when(prev == v)(b)
        case None       => Some(b + (n -> v))
      }
  }

  /** Keyed binding joins shuffle into one partition per core, whatever the
    * operands' partition counts: SparkRDF's dynamic pre-partitioning, as
    * the rule for every engine.
    */
  private def perCore(rdd: RDD[_]): HashPartitioner =
    new HashPartitioner(rdd.sparkContext.defaultParallelism)

  /** Natural join on the given key variables; cartesian when keys is empty. */
  def joinOn(l: RDD[Binding], r: RDD[Binding], keys: Seq[String]): RDD[Binding] =
    if (keys.isEmpty) l.cartesian(r).map { case (a, b) => a ++ b }
    else
      l.keyBy(b => keys.map(b))
        .join(r.keyBy(b => keys.map(b)), perCore(l))
        .map { case (_, (a, b)) => a ++ b }

  /** Natural join, inferring shared variables from the two sides' schemas. */
  def join(l: RDD[Binding], lVars: Set[String], r: RDD[Binding], rVars: Set[String]): RDD[Binding] =
    joinOn(l, r, (lVars intersect rVars).toSeq.sorted)

  /** OPTIONAL: keep every left binding, extend where the right side
    * matches on the shared variables. As in SQL, an unbound key never
    * joins: a left binding that an earlier OPTIONAL left without a key
    * variable is kept unextended. The right side is a BGP's solutions, so
    * it binds every key.
    */
  def leftJoin(l: RDD[Binding], r: RDD[Binding], keys: Seq[String]): RDD[Binding] = {
    require(keys.nonEmpty, "OPTIONAL without shared variables is unsupported")
    l.keyBy(b => keys.map(b.get))
      .leftOuterJoin(r.keyBy(b => keys.map(b.get)), perCore(l))
      .map {
        case (_, (a, Some(b))) => a ++ b
        case (_, (a, None))    => a
      }
  }

  /** Driver/executor-local join of two small binding tables on their shared
    * variables — used by the GraphX engines for per-vertex table merges.
    */
  def mergeLocal(a: Seq[Binding], b: Seq[Binding]): Seq[Binding] =
    for {
      x <- a; y <- b
      if y.forall { case (k, v) => x.get(k).forall(_ == v) }
    } yield x ++ y

  /** The GraphX engines' per-vertex merge: join two tables of sub-results on
    * the vertex, [[mergeLocal]] each pair, and drop vertices left with no
    * binding. The join keeps the operands' partitioner, so two tables of
    * one graph merge without a shuffle.
    */
  def mergeTables[K: ClassTag](l: RDD[(K, Seq[Binding])], r: RDD[(K, Seq[Binding])]): RDD[(K, Seq[Binding])] =
    l.join(r).mapValues { case (a, b) => mergeLocal(a, b) }.filter(_._2.nonEmpty)

  def applyFilters(rdd: RDD[Binding], filters: Seq[FilterExpr]): RDD[Binding] =
    if (filters.isEmpty) rdd
    else rdd.filter(b => filters.forall(f => FilterEval.eval(f, b.get)))

  /** Join a sequence of pattern-binding RDDs left-to-right, keying each join
    * on the variables shared with everything joined so far (cartesian when
    * none — SPARQLGX's "cross product" case).
    */
  def joinAll(parts: Seq[(RDD[Binding], Set[String])]): RDD[Binding] = {
    require(parts.nonEmpty)
    parts.tail.foldLeft(parts.head) { case ((acc, accVars), (next, nextVars)) =>
      (join(acc, accVars, next, nextVars), accVars ++ nextVars)
    }._1
  }
}
