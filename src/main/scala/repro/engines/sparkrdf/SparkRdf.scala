package repro.engines.sparkrdf

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.core.Bindings.Binding
import repro.rdf.RdfSynth
import repro.sparql._

/** SparkRDF [5] (Chen et al., WI-IAT 2015): "elastic discreted RDF graph
  * processing engine with distributed memory", per the survey:
  *
  *   - **MESG** (Multi-layer Elastic Sub-Graph) storage: level 1 splits a
  *     *class index* (triples with an `rdf:type` predicate, filed by object
  *     class) from a *relation index* (all other triples, filed by
  *     predicate); level 2 adds CR (class-relation) and RC (relation-class)
  *     indexes keyed by the subject's / object's class; level 3 adds CRC,
  *     combining subject class + predicate + object class;
  *   - **RDSG** (Resilient Discreted Semantic SubGraph): a distributed
  *     memory abstraction with generation / filter / prepartition / join
  *     operations built on the Spark API (no graph library — the survey
  *     files it under RDD);
  *   - query processing: the query becomes an ordered sequence of
  *     *variables*; per variable, its triple patterns are matched and
  *     joined on the shared variable, then evaluation moves to the next
  *     variable;
  *   - optimizations: each variable's class is pushed into the patterns
  *     that contain it (so `rdf:type` patterns are removed and unnecessary
  *     data is never read), and on-demand **dynamic pre-partitioning**
  *     hash-partitions operands on the join variable before each join, into
  *     one partition per core (`defaultParallelism`).
  */
final class SparkRdf extends BindingEngine {

  val info: EngineInfo = EngineInfo(
    citation = "[5]",
    name = "SparkRDF",
    dataModel = "Graph",
    abstractions = Seq("RDD"),
    queryProcessing = "Custom",
    optimization = true,
    partitioning = "Hash-sbj",
    sparqlFragment = "BGP",
  )

  private val TypeP = RdfSynth.TypeProperty

  /** An index row of a subject: (p, o, classes(s), classes(o)). */
  private type Row = (String, String, Set[String], Set[String])

  /** Class index: subject → its classes (from rdf:type triples). */
  private var classesOf: RDD[(String, Set[String])] = _
  /** CRC index: subject → its rows, one per non-type triple. */
  private var crc: RDD[(String, Row)] = _
  /** rdf:type triples as rows, read off the class index. */
  private var typeRows: RDD[(String, Row)] = _
  private var predSizes: Map[String, Long] = Map.empty

  /** The MESG indexes are keyed by subject and hash-partitioned by
    * [[Bindings.perCore]] (Table II's Hash-sbj), so a join on a subject
    * variable reads them in place.
    */
  override protected def build(triples: DataFrame): Unit = {
    val typeP = TypeP // local copy: closures must not capture the engine
    val bySubject = Bindings.perCore(triples.sparkSession.sparkContext)
    val raw = triples.rdd.map(r => (r.getString(0), r.getString(1), r.getString(2)))
    classesOf = raw.filter(_._2 == typeP)
      .map { case (s, _, c) => (s, c) }
      .groupByKey(bySubject).mapValues(_.toSet)
      .persist(StorageLevel.MEMORY_AND_DISK)
    typeRows = classesOf.flatMapValues(cs => cs.map(c => (typeP, c, cs, Set.empty[String])))
    // the object's classes first: the subject's join comes last and leaves
    // the rows hashed by subject, as the class index is
    crc = raw.filter(_._2 != typeP)
      .map { case (s, p, o) => (o, (s, p)) }
      .leftOuterJoin(classesOf, bySubject)
      .map { case (o, ((s, p), oc)) => (s, (p, o, oc.getOrElse(Set.empty[String]))) }
      .leftOuterJoin(classesOf, bySubject)
      .mapValues { case ((p, o, oc), sc) => (p, o, sc.getOrElse(Set.empty[String]), oc) }
      .persist(StorageLevel.MEMORY_AND_DISK)
    crc.count()
    predSizes = Stats.predicateCounts(triples)
  }

  /** Class constraints per variable, read off the query's rdf:type
    * patterns (constant class, variable instance) — these patterns are
    * then *removed* and their constraint pushed into the CRC lookups.
    */
  private def classConstraints(ps: Seq[TriplePattern]): (Map[String, Set[String]], Seq[TriplePattern]) = {
    val constraints = scala.collection.mutable.Map.empty[String, Set[String]]
    val rest = ps.filterNot {
      case TriplePattern(Var(x), Const(TypeP), Const(c)) =>
        constraints(x) = constraints.getOrElse(x, Set.empty) + c; true
      case _ => false
    }
    (constraints.toMap, rest)
  }

  /** Match one non-type pattern against the most specific MESG index the
    * variable classes allow (CRC / CR / RC / relation). The bindings stay
    * keyed and partitioned by subject, so a subject variable joins in place.
    */
  private def matchTp(tp: TriplePattern, constraints: Map[String, Set[String]]): Bindings.Operand = {
    val sReq: Set[String] = tp.s.varName.flatMap(constraints.get).getOrElse(Set.empty)
    val oReq: Set[String] = tp.o.varName.flatMap(constraints.get).getOrElse(Set.empty)
    val byPred = tp.predConst match {
      case Some(TypeP) => typeRows // rdf:type kept as pattern (var class etc.)
      case Some(p)     => crc.filter(_._2._1 == p)
      case None        => crc ++ typeRows
    }
    val bySubject = byPred.mapPartitions(_.flatMap { case (s, (p, o, sc, oc)) =>
      if (sReq.subsetOf(sc) && oReq.subsetOf(oc))
        Bindings.bindTriple(tp, s, p, o).map(s -> _)
      else None
    }, preservesPartitioning = true)
    tp.s match {
      case Var(x) => Bindings.Keyed(bySubject, x, tp.varSet)
      case _      => Bindings.Rows(bySubject.values, tp.varSet)
    }
  }

  /** The RDSGs are binding RDDs: one per pattern in variable order, then
    * the fully-constant guards, then the class-only variables, joined
    * left to right by [[Bindings.joinAll]], whose keyed joins are the
    * dynamic pre-partitioning — every operand hash-partitioned on the
    * shared variables, so "records sharing the same variable value will be
    * read into the same partition". An RDSG keyed by its subject variable
    * already is, so a subject star joins without a shuffle.
    */
  override protected def matchBgp(ps: Vector[TriplePattern]): RDD[Binding] = {
    val (constraints, tps) = classConstraints(ps)
    def est(tp: TriplePattern): Long = Stats.predicateSize(predSizes, tp)

    // variable order: ascending by the most selective pattern that mentions
    // the variable; then per variable, patterns ascending by size
    val varOrder = tps.flatMap(_.vars).distinct
      .sortBy(v => tps.filter(_.vars.contains(v)).map(est).min)
    val remaining = scala.collection.mutable.ArrayBuffer(tps: _*)
    val ordered = varOrder.flatMap { x =>
      val mine = remaining.filter(_.vars.contains(x)).sortBy(est)
      remaining --= mine
      mine
    }
    val patterns = ordered.map(matchTp(_, constraints))
    // fully-constant patterns join as zero-variable operands: a product
    // with their zero or one empty binding, on one partition
    val guards = remaining.map(tp => Bindings.Rows(matchTp(tp, constraints).rows.coalesce(1), Set.empty))
    // variables constrained by class only (no other pattern) come straight
    // from the class index
    val classOnly = constraints.keys.filterNot(v => tps.exists(_.vars.contains(v))).map { v =>
      val req = constraints(v)
      val members = classesOf.mapPartitions(_.collect {
        case (s, cs) if req.subsetOf(cs) => s -> (Map(v -> s): Binding)
      }, preservesPartitioning = true)
      Bindings.Keyed(members, v, Set(v))
    }
    Bindings.joinAll(patterns ++ guards ++ classOnly)
  }
}
