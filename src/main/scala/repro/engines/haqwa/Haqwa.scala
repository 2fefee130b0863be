package repro.engines.haqwa

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.rdf.Dictionary
import repro.sparql._

/** HAQWA [7] (Curé et al., ISWC 2015 P&D) — "a hash-based and query
  * workload aware distributed RDF store", per the survey:
  *
  *   - *encoding*: string values are dictionary-encoded to integers
  *     ("minimizes data volume and makes processing more efficient").
  *   - *fragmentation step 1*: hash partitioning on triple **subjects**,
  *     into one partition per core (`defaultParallelism`) — star-shaped
  *     (sub-)queries are then evaluated locally inside each partition, with
  *     no shuffle.
  *   - *fragmentation step 2*: allocation guided by a *frequent-query
  *     workload* — for each workload query, triples needed by the non-seed
  *     fragments are **replicated** into the partitions holding the seed
  *     fragment's subjects, so the whole query evaluates locally.
  *   - *query processing*: the query is decomposed into local sub-queries
  *     (star fragments); a seed fragment anchors evaluation; SPARQL maps
  *     onto the RDD API (join / filter / count).
  *
  * Both steps run once, in `build()`, into one [[Haqwa.Fragment]] per
  * partition. A BGP (a query's, or an OPTIONAL's) canonically equal to a
  * workload query runs fully partition-local; every other BGP falls back
  * to locally-evaluated star fragments joined with shuffles. FILTER,
  * OPTIONAL and UNION are the shared driver's ([[repro.core.BindingEngine]]).
  */
final class Haqwa(workload: Seq[Query] = Seq.empty) extends BindingEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[7]",
    name = "HAQWA",
    dataModel = "Triple",
    abstractions = Seq("RDD"),
    queryProcessing = "RDD API",
    optimization = false,
    partitioning = "Hash / Query Aware",
    sparqlFragment = "BGP+",
  )

  import Haqwa.{ETerm, ETp, Fragment}

  private var spark: SparkSession = _
  private var dict: Broadcast[Dictionary] = _
  /** One subject-indexed [[Fragment]] per hash partition. */
  private var store: RDD[Fragment] = _
  private var workloadShapes: Set[Vector[String]] = Set.empty

  /** Canonical form of a BGP: variables renamed by first appearance, so
    * workload membership is structural, not name-based.
    */
  private def canonical(ps: Seq[TriplePattern]): Vector[String] = {
    val names = scala.collection.mutable.LinkedHashMap.empty[String, String]
    def c(t: Term): String = t match {
      case Var(n)   => names.getOrElseUpdate(n, s"?${names.size}")
      case Const(v) => v
    }
    ps.map(tp => s"${c(tp.s)} ${c(tp.p)} ${c(tp.o)}").toVector
  }

  override protected def build(triples: DataFrame): Unit = {
    spark = triples.sparkSession
    val sc = spark.sparkContext
    dict = sc.broadcast(Dictionary(triples.rdd.flatMap(r => Seq(r.getString(0), r.getString(1), r.getString(2)))))
    val bc = dict // local: the closure must not capture the engine
    val partitioner = Bindings.perCore(sc)
    // Step 1: the triples, encoded, keyed by subject id and hash-partitioned
    val base = triples.rdd
      .map { r =>
        val ids = bc.value
        (ids.id(r.getString(0)).get, (ids.id(r.getString(1)).get, ids.id(r.getString(2)).get))
      }
      .partitionBy(partitioner)

    // Step 2: workload-aware allocation. A workload query is registered
    // for the local path when each of its non-seed fragments hangs off the
    // seed by a subject-object link (x p y)(y q z); then every (y q z) is
    // co-located with the partition of x, by one join over the registered
    // queries' link predicates.
    val linkPreds = workload.filter(_.isPlainBgp).flatMap { q =>
      val seed +: rest = Shapes.stars(q.groups.head.patterns)
      val links = rest.map { frag =>
        for {
          fragSubjVar <- frag.head.s.varName
          link <- seed.find(_.o == Var(fragSubjVar))
          predId <- link.predConst.flatMap(bc.value.id)
        } yield predId
      }
      if (links.forall(_.isDefined)) { workloadShapes += canonical(q.groups.head.patterns); links.flatten }
      else Seq.empty
    }.toSet
    val replicated =
      if (linkPreds.isEmpty) sc.emptyRDD[(Long, (Long, Long, Long))]
      else base
        .join(base.filter(t => linkPreds(t._2._1)).map { case (x, (_, y)) => (y, x) }) // (y, ((p2, z), x))
        .map { case (y, ((p2, z), x)) => (x, (y, p2, z)) }
    store = base
      .zipPartitions(replicated.partitionBy(partitioner), preservesPartitioning = true) { (baseIt, replIt) =>
        val own = baseIt.toSeq.groupMap(_._1)(_._2)
        // the same triple may be replicated for several seeds in this
        // partition, or already live here: dedupe (RDF graphs are sets)
        val replicas = replIt.map(_._2).filterNot(t => own.contains(t._1))
          .toSeq.distinct.groupMap(_._1)(t => (t._2, t._3))
        Iterator.single(Fragment(own, replicas))
      }
      .persist(StorageLevel.MEMORY_AND_DISK)
    store.count()
  }

  private def encodeTp(tp: TriplePattern): Option[ETp] = {
    def e(t: Term): Option[ETerm] = t match {
      case Var(n)   => Some(Right(n))
      case Const(v) => dict.value.id(v).map(Left(_))
    }
    for (s <- e(tp.s); p <- e(tp.p); o <- e(tp.o)) yield ETp(s, p, o)
  }

  private def decode(rdd: RDD[Map[String, Long]]): RDD[Binding] = {
    val bc = dict // local: the closure must not capture the engine
    rdd.map(_.map { case (k, id) => k -> bc.value.value(id) })
  }

  /** Every solution of `ps`, evaluated inside each partition's fragment
    * (subjects are co-located by the hash fragmentation, so no shuffle
    * happens).
    */
  private def evalLocally(ps: Seq[TriplePattern]): RDD[Binding] = {
    val encoded = ps.map(encodeTp)
    if (encoded.exists(_.isEmpty)) spark.sparkContext.emptyRDD[Binding]
    else {
      val eps = encoded.flatten.toList
      decode(store.mapPartitions(_.flatMap(_.matchAll(eps))))
    }
  }

  override protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] =
    if (workloadShapes.contains(canonical(ps))) evalLocally(Shapes.stars(ps).flatten)
    else Bindings.joinAll(Shapes.stars(ps).map(f => Bindings.Rows(evalLocally(f), f.flatMap(_.vars).toSet)))
}

/** Executor-side helpers: kept on the companion so Spark closures never
  * capture the (non-serializable) engine instance.
  */
object Haqwa {
  /** A pattern position: Left(id) = encoded constant, Right(name) = variable. */
  type ETerm = Either[Long, String]
  final case class ETp(s: ETerm, p: ETerm, o: ETerm)

  /** One partition's store, indexed by subject: `own` holds the triples of
    * the subjects hashed here, `replicas` the triples the workload
    * replicated here (their subjects live elsewhere).
    */
  final case class Fragment(own: Map[Long, Seq[(Long, Long)]], replicas: Map[Long, Seq[(Long, Long)]]) {

    /** Backtracking BGP evaluation over this fragment. Patterns must be
      * ordered so every pattern after the first in its star fragment has
      * its subject bound (`Shapes.stars`, seed first, gives that). A constant
      * or unbound subject ranges over `own` only, so each match is seeded
      * in one partition; a bound subject is looked up in `own`, then in
      * `replicas`.
      */
    def matchAll(ps: List[ETp], b: Map[String, Long] = Map.empty): Iterator[Map[String, Long]] = ps match {
      case Nil => Iterator.single(b)
      case tp :: rest =>
        val subjects: Iterator[(Long, Seq[(Long, Long)])] = tp.s match {
          case Left(id)                  => own.get(id).map(id -> _).iterator
          case Right(v) if b.contains(v) => val s = b(v); own.get(s).orElse(replicas.get(s)).map(s -> _).iterator
          case Right(_)                  => own.iterator
        }
        for {
          (s, pos) <- subjects
          (p, o)   <- pos.iterator
          b1       <- unify(tp.s, s, b).flatMap(unify(tp.p, p, _)).flatMap(unify(tp.o, o, _)).iterator
          m        <- matchAll(rest, b1)
        } yield m
    }
  }

  private def unify(t: ETerm, v: Long, b: Map[String, Long]): Option[Map[String, Long]] =
    t match {
      case Left(id) => if (id == v) Some(b) else None
      case Right(n) =>
        b.get(n) match {
          case Some(prev) => if (prev == v) Some(b) else None
          case None       => Some(b + (n -> v))
        }
    }
}
