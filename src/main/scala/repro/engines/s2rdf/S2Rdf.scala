package repro.engines.s2rdf

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.sparql._

/** S2RDF [24] (Schätzle et al., PVLDB 2016), as described by the survey:
  *
  *   - storage: **ExtVP** — an extended vertical partitioning. For every
  *     pair of predicates (p1, p2) and correlation SS (subject-subject),
  *     OS (object-subject), SO (subject-object), the semi-join reduction
  *     of VP_p1 against VP_p2 is precomputed; at query time a triple
  *     pattern reads the smallest applicable reduction instead of its full
  *     VP table, which shrinks join inputs (the paper's 10,000 → 10
  *     comparisons example).
  *   - a **selectivity factor** SF = |ExtVP| / |VP| with a threshold:
  *     "all ExtVP tables above this threshold are not considered" (they
  *     would not pay for their storage).
  *   - query processing: SPARQL → algebra → **Spark SQL** string (Jena ARQ
  *     in the original; our parser here), executed by Catalyst. The string
  *     is [[ReferenceSql]]'s, with each BGP laid out over VP/ExtVP views.
  *   - optimization: sub-queries with the most bound variables first; ties
  *     broken by smallest table size.
  *
  * Statistics (all pairwise semi-join sizes) are computed eagerly at load
  * in three aggregate jobs; table *contents* are materialized lazily and
  * memoized — a laptop-scale concession documented in DESIGN.md.
  */
final class S2Rdf(sfThreshold: Double = 0.75) extends SparqlEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[24]",
    name = "S2RDF",
    dataModel = "Triple",
    abstractions = Seq("Spark SQL"),
    queryProcessing = "Spark SQL",
    optimization = true,
    partitioning = "Extended Vertical",
    sparqlFragment = "BGP+",
  )

  private var spark: SparkSession = _
  private var triples: DataFrame = _
  private val triplesView = uniqueView("s2rdf_triples")
  /** The (s, o) table of a predicate with no triples. */
  private val emptyVpView = uniqueView("vp_empty")
  private var vpSizes: Map[String, Long] = Map.empty
  /** (corr, p1, p2) → |ExtVP_corr(p1|p2)| for all predicate pairs. */
  private var extSizes: Map[(String, String, String), Long] = Map.empty
  private val materialized = scala.collection.mutable.Map.empty[(String, String, String), String]

  private def sanitize(p: String): String = p.map(c => if (c.isLetterOrDigit) c else '_')

  override protected def build(df: DataFrame): Unit = {
    spark = df.sparkSession
    triples = df
    triples.createOrReplaceTempView(triplesView)
    vpSizes = Stats.predicateCounts(triples)
    triples.select("s", "o").limit(0).createOrReplaceTempView(emptyVpView)
    vpSizes.keys.foreach { p =>
      triples.where(col("p") === p).select("s", "o")
        .createOrReplaceTempView(vpView(p))
    }
    // Pairwise semi-join statistics, one aggregate job per correlation.
    val t1 = triples.as("t1")
    val subj = triples.select(col("p") as "p2", col("s") as "k").distinct().as("t2")
    val obj  = triples.select(col("p") as "p2", col("o") as "k").distinct().as("t2")
    def sizes(joinKey: String, right: DataFrame, samePredicate: Boolean): Map[(String, String), Long] = {
      val on = col(s"t1.$joinKey") === col("t2.k")
      t1.join(right, if (samePredicate) on else on && col("t1.p") =!= col("t2.p2"))
        .groupBy(col("t1.p"), col("t2.p2")).count()
        .collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    }
    // ExtVP_SS(p|p) is VP_p itself; OS and SO reduce a predicate by itself
    // too, as a path ?a p ?b . ?b p ?c does
    extSizes =
      sizes("s", subj, samePredicate = false).map { case ((a, b), n) => ("SS", a, b) -> n } ++
      sizes("o", subj, samePredicate = true).map { case ((a, b), n) => ("OS", a, b) -> n } ++
      sizes("s", obj, samePredicate = true).map { case ((a, b), n) => ("SO", a, b) -> n }
  }

  private def vpView(p: String): String = uniqueView(s"vp_${sanitize(p)}")

  /** Lazily materialize ExtVP_corr(p1|p2) as a temp view; memoized. The
    * semi-join broadcasts p2's join column: a shuffle inside a cached plan
    * keeps `spark.sql.shuffle.partitions` partitions, since adaptive
    * execution does not coalesce it, so a shuffled semi-join would run
    * more tasks per stage than there are cores.
    */
  private def extView(corr: String, p1: String, p2: String): String =
    materialized.getOrElseUpdate((corr, p1, p2), {
      val name = uniqueView(s"extvp_${corr.toLowerCase}_${sanitize(p1)}__${sanitize(p2)}")
      val (leftKey, rightKey) = corr match {
        case "SS" => ("s", "s")
        case "OS" => ("o", "s")
        case "SO" => ("s", "o")
      }
      val left = triples.where(col("p") === p1).select("s", "o")
      val keys = triples.where(col("p") === p2).select(col(rightKey) as "k")
      left.join(broadcast(keys), left(leftKey) === keys("k"), "leftsemi").cache().createOrReplaceTempView(name)
      name
    })

  /** Size of ExtVP if it exists, is a real reduction, and passes the SF
    * threshold; None otherwise.
    */
  private def extSizeIfUseful(corr: String, p1: String, p2: String): Option[Long] =
    for {
      n <- extSizes.get((corr, p1, p2))
      vp <- vpSizes.get(p1)
      if vp > 0 && n.toDouble / vp <= sfThreshold
    } yield n

  /** Choose the table for one pattern given its BGP: the smallest
    * applicable ExtVP reduction, else the VP table (an empty one for a
    * predicate absent from the data), else raw triples when the predicate
    * is a variable. Returns (view, size, hasPredicateColumn).
    */
  private def tableFor(tp: TriplePattern, bgp: Seq[TriplePattern]): (String, Long, Boolean) =
    tp.predConst match {
      case None => (triplesView, vpSizes.values.sum, true)
      case Some(p1) =>
        val candidates = for {
          other <- bgp if other != tp
          p2 <- other.predConst.toSeq
          (corr, shared) <- Seq(
            ("SS", tp.s.isVar && tp.s == other.s),
            ("OS", tp.o.isVar && tp.o == other.s),
            ("SO", tp.s.isVar && tp.s == other.o),
          ) if shared
          n <- extSizeIfUseful(corr, p1, p2).toSeq
        } yield (corr, p2, n)
        candidates.sortBy(_._3).headOption match {
          case Some((corr, p2, n))          => (extView(corr, p1, p2), n, false)
          case None if vpSizes.contains(p1) => (vpView(p1), vpSizes(p1), false)
          case None                         => (emptyVpView, 0L, false)
        }
    }

  /** S2RDF's layout of one BGP: each pattern reads the table [[tableFor]]
    * picks, in the survey's join order: most bound variables (i.e.
    * constants) first, ties by ascending table size.
    */
  private val layout: ReferenceSql.Layout = bgp =>
    bgp.map(tp => (tp, tableFor(tp, bgp)))
      .sortBy { case (tp, (_, size, _)) => (-tp.terms.count(!_.isVar), size) }
      .map { case (tp, (view, _, hasP)) => ReferenceSql.Scan(tp, view, hasP) }

  /** The Spark SQL string S2RDF runs for `q`; public for white-box tests. */
  def toSql(q: Query): String = ReferenceSql.toSql(q, layout)

  override protected def answer(q: Query): DataFrame = spark.sql(toSql(q))

  /** (corr, p1, p2) → (|ExtVP_corr(p1|p2)|, |VP_p1|) for every predicate
    * pair, whatever the SF threshold admits; public for white-box tests.
    */
  def reductionStats: Map[(String, String, String), (Long, Long)] =
    extSizes.map { case ((c, p1, p2), n) => (c, p1, p2) -> (n, vpSizes.getOrElse(p1, 0L)) }
}
