package repro.rdf

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** String → integer dictionary encoding of an RDF dataset.
  *
  * HAQWA "performs an encoding of string values to integer ones on data,
  * which minimizes data volume and makes processing more efficient" — this
  * is that component, reusable by any engine.
  *
  * The dictionary covers every distinct value appearing in s, p or o.
  */
final case class Dictionary(
    idOf: Map[String, Long],                // value → id, on the driver (for encoding constants)
    encoded: RDD[(Long, Long, Long)],       // (sId, pId, oId)
    values: Broadcast[Map[Long, String]],   // id → value, broadcast once (for decoding results)
) {
  def valueOf: Map[Long, String] = values.value

  def encodeConst(v: String): Option[Long] = idOf.get(v)
}

object Dictionary {

  /** Ids 0, 1, … for the distinct strings of a one-column DataFrame,
    * assigned by sorted value order, so deterministic. The map lives on the
    * driver (broadcast where executors need it) — fine at the survey's data
    * scales here; a cluster deployment would keep it distributed.
    */
  def ids(values: DataFrame): Map[String, Long] =
    values.distinct().collect().map(_.getString(0)).sorted
      .zipWithIndex.map { case (v, i) => v -> i.toLong }.toMap

  /** Builds the dictionary and the encoded triples from a triples DataFrame
    * with string columns s, p, o.
    */
  def encode(triples: DataFrame): Dictionary = {
    val sc = triples.sparkSession.sparkContext
    val idOf = ids(triples.select("s").union(triples.select("p")).union(triples.select("o")))
    val bc = sc.broadcast(idOf)
    val encoded = triples.rdd.map { r =>
      val id = bc.value
      (id(r.getString(0)), id(r.getString(1)), id(r.getString(2)))
    }
    Dictionary(idOf, encoded, sc.broadcast(idOf.map(_.swap)))
  }
}
