package repro.rdf

import scala.collection.Searching.Found
import org.apache.spark.rdd.RDD

/** String → integer dictionary encoding of an RDF dataset.
  *
  * HAQWA "performs an encoding of string values to integer ones on data,
  * which minimizes data volume and makes processing more efficient" — this
  * is that component, and the Graph Model engines' vertex ids.
  *
  * One sorted array of distinct values: a value's id is its rank in it, so
  * ids are 0, 1, … and deterministic. It lives on the driver and is
  * broadcast as a whole where executors need it — fine at the survey's
  * data scales here; a cluster deployment would keep it distributed.
  */
final class Dictionary private (values: Array[String]) extends Serializable {

  def id(v: String): Option[Long] = values.search(v) match {
    case Found(i) => Some(i.toLong)
    case _        => None
  }

  def value(id: Long): String = values(id.toInt)
}

object Dictionary {

  /** The dictionary of the distinct strings of `values`. */
  def apply(values: RDD[String]): Dictionary = new Dictionary(values.distinct().collect().sorted)
}
