package repro.core

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.DataFrame
import repro.sparql.Query

/** Metadata each engine self-reports; Tables I and II of the paper are
  * regenerated from these values (see `repro.harness.PaperTables`).
  */
final case class EngineInfo(
    citation: String,            // e.g. "[7]"
    name: String,                // e.g. "HAQWA"
    dataModel: String,           // "Triple" | "Graph"
    abstractions: Seq[String],   // of: RDD, DataFrames, Spark SQL, GraphX, GraphFrames
    queryProcessing: String,     // Table II column
    optimization: Boolean,       // Table II column
    partitioning: String,        // Table II column
    sparqlFragment: String,      // "BGP" | "BGP+"
)

/** A surveyed RDF query system: load triples once, then answer SPARQL
  * queries as DataFrames whose string columns are the projected variables.
  */
trait SparqlEngine {
  def info: EngineInfo

  /** Ingest the dataset (string columns s, p, o) into storage the engine
    * owns. The input is coalesced to one partition per core at most and
    * materialized once as a local checkpoint, which cuts its lineage: the
    * engine's stores are built from that copy and inherit its partition
    * count (a store hashed by a key uses `defaultParallelism` too), and no
    * query re-evaluates the caller's plan, so the caller may unpersist it.
    */
  final def load(triples: DataFrame): Unit = {
    build(triples.coalesce(triples.sparkSession.sparkContext.defaultParallelism).localCheckpoint())
    loaded = true
  }

  /** Builds the storage layer the system prescribes from a materialized,
    * lineage-free copy of the triples.
    */
  protected def build(triples: DataFrame): Unit

  /** Answer a query: `load()` must have run, and `supports(q)` must hold. */
  final def execute(q: Query): DataFrame = {
    require(loaded, s"${info.name}: call load() before execute()")
    require(supports(q), s"${info.name} does not support this query (its fragment: ${info.sparqlFragment})")
    answer(q)
  }

  /** Answers a query `supports` accepts, from the store `build()` made. */
  protected def answer(q: Query): DataFrame

  /** Whether the engine's SPARQL fragment (paper Table II) covers `q`.
    * BGP systems take plain conjunctive patterns (+ solution modifiers);
    * BGP+ systems additionally take FILTER / OPTIONAL / UNION.
    */
  def supports(q: Query): Boolean =
    if (info.sparqlFragment == "BGP+") true else q.isPlainBgp

  /** A temp-view name unique to this instance, so engines loaded with
    * different data in one session never read each other's views.
    */
  protected final def uniqueView(base: String): String = s"${base}_$instanceId"

  private val instanceId: Long = SparqlEngine.instances.incrementAndGet()
  private var loaded = false
}

object SparqlEngine {
  private val instances = new AtomicLong
}
