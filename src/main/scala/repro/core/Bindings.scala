package repro.core

import scala.annotation.tailrec
import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.graphx.VertexRDD
import org.apache.spark.rdd.{CoGroupedRDD, RDD}
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

  /** Keyed binding joins co-group into one partition per core, whatever
    * the operands' partition counts: SparkRDF's dynamic pre-partitioning,
    * as the rule for every engine. A store hash-partitioned by it on a
    * variable's value joins on that variable without a shuffle.
    */
  def perCore(sc: SparkContext): HashPartitioner = new HashPartitioner(sc.defaultParallelism)

  /** An operand of [[joinAll]]: solutions, each binding all of `vars`. */
  sealed trait Operand {
    def rows: RDD[Binding]
    def vars: Set[String]
  }

  /** Solutions in whatever partitioning they arrive. */
  final case class Rows(rows: RDD[Binding], vars: Set[String]) extends Operand

  /** Solutions keyed by their value of `key`. A join on `key` alone reads
    * `byKey` in place when it is partitioned by [[perCore]].
    */
  final case class Keyed(byKey: RDD[(String, Binding)], key: String, vars: Set[String]) extends Operand {
    def rows: RDD[Binding] = byKey.values
  }

  /** OPTIONAL: keep every left binding, extend where the right side
    * matches on the shared variables. As in SQL, an unbound key never
    * joins: a left binding that an earlier OPTIONAL left without a key
    * variable is kept unextended. The right side is a BGP's solutions, so
    * it binds every key.
    */
  def leftJoin(l: RDD[Binding], r: RDD[Binding], keys: Seq[String]): RDD[Binding] = {
    require(keys.nonEmpty, "OPTIONAL without shared variables is unsupported")
    coGroup(Seq(keyBy(l, keys), keyBy(r, keys)))(gs => if (gs(1).isEmpty) gs(0).iterator else product(gs))
  }

  /** Join left to right, keying each operand on the variables it shares
    * with everything joined before it (cartesian when none: SPARQLGX's
    * "cross product" case). A maximal run of operands that share the same
    * key is one co-group, so each operand is shuffled at most once per
    * join level, and a [[Keyed]] operand partitioned on that key not at
    * all.
    */
  def joinAll(parts: Seq[Operand]): RDD[Binding] = {
    require(parts.nonEmpty)
    @tailrec def go(acc: Operand, rest: Seq[Operand]): RDD[Binding] = rest match {
      case Seq() => acc.rows
      case next +: _ =>
        val key = (acc.vars intersect next.vars).toSeq.sorted
        val run = if (key.isEmpty) Seq(next) else sameKeyRun(rest, acc.vars, key.toSet)
        val joined =
          if (key.isEmpty) cartesian(acc.rows, next.rows)
          else coGroup((acc +: run).map(keyedOn(key)))(product)
        go(Rows(joined, run.foldLeft(acc.vars)(_ ++ _.vars)), rest.drop(run.size))
    }
    go(parts.head, parts.tail)
  }

  /** The longest prefix of `ops` whose every operand shares exactly `key`
    * with `seen` and the operands before it.
    */
  private def sameKeyRun(ops: Seq[Operand], seen: Set[String], key: Set[String]): Seq[Operand] = ops match {
    case op +: rest if (seen intersect op.vars) == key => op +: sameKeyRun(rest, seen ++ op.vars, key)
    case _                                             => Seq.empty
  }

  /** The operand keyed by its values of `key`, as [[keyBy]] keys it: a
    * [[Keyed]] operand on that one variable is used as it is.
    */
  private def keyedOn(key: Seq[String])(op: Operand): RDD[_ <: (Any, Binding)] = op match {
    case Keyed(byKey, k, _) if key == Seq(k) => byKey
    case _                                   => keyBy(op.rows, key)
  }

  /** Bindings keyed by their values of `keys`: a one-variable key is the
    * value itself, a longer one the list of values. An unbound variable
    * keys as null, which no solution that binds it matches.
    */
  private def keyBy(rows: RDD[Binding], keys: Seq[String]): RDD[(Any, Binding)] = keys match {
    case Seq(k) => rows.map(b => (b.getOrElse(k, null): Any, b))
    case _ =>
      val ks = keys.toList
      rows.map(b => (ks.map(b.getOrElse(_, null)), b))
  }

  /** Co-groups keyed operands into [[perCore]] partitions and expands each
    * key's groups, one per operand in order, with `f`.
    */
  private def coGroup(keyed: Seq[RDD[_ <: (Any, Binding)]])(
      f: Array[Iterable[Binding]] => Iterator[Binding]): RDD[Binding] =
    new CoGroupedRDD[Any](keyed, perCore(keyed.head.sparkContext))
      .flatMap { case (_, groups) => f(groups.asInstanceOf[Array[Iterable[Binding]]]) }

  /** Every combination of one binding per group (bag semantics); the
    * groups share no variable but the key.
    */
  private def product(groups: Array[Iterable[Binding]]): Iterator[Binding] =
    groups.foldLeft(Iterator.single(Map.empty: Binding))((acc, g) => acc.flatMap(a => g.iterator.map(a ++ _)))

  private def cartesian(l: RDD[Binding], r: RDD[Binding]): RDD[Binding] =
    l.cartesian(r).map { case (a, b) => a ++ b }

  /** Driver/executor-local join of two small binding tables on their shared
    * variables — used by the GraphX engines for per-vertex table merges.
    */
  def mergeLocal(a: Seq[Binding], b: Seq[Binding]): Seq[Binding] =
    for {
      x <- a; y <- b
      if y.forall { case (k, v) => x.get(k).forall(_ == v) }
    } yield x ++ y

  /** The GraphX engines' per-vertex merge: [[mergeLocal]] the two tables
    * of each vertex in both, and drop vertices left with no binding. Both
    * tables index the vertices of one graph, so the join zips their
    * partitions.
    */
  def mergeTables(l: VertexRDD[Seq[Binding]], r: VertexRDD[Seq[Binding]]): VertexRDD[Seq[Binding]] =
    l.innerJoin(r)((_, a, b) => mergeLocal(a, b)).filter(_._2.nonEmpty)

  def applyFilters(rdd: RDD[Binding], filters: Seq[FilterExpr]): RDD[Binding] =
    if (filters.isEmpty) rdd
    else rdd.filter(b => filters.forall(f => FilterEval.eval(f, b.get)))
}
