package perfbench

import java.sql.DriverManager
import org.apache.spark.sql.Row
import repro.sparql.{Query, ReferenceSql}
import scala.util.hashing.MurmurHash3

/** A result bag reduced to what the oracle gate compares: the lower-cased
  * column names, the row count and an order-independent fingerprint of the
  * canonical rows (a sum of 64-bit row hashes, so duplicates count).
  */
final case class Bag(cols: Seq[String], rows: Long, fingerprint: Long) {
  def describe: String = s"${rows} rows, fingerprint ${java.lang.Long.toHexString(fingerprint)}"
}

object Bag {

  /** The canonical value form of `repro.Oracle`: null as "∅", floating
    * point to six decimals, anything else by `toString`.
    */
  private def canonValue(v: Any): String = v match {
    case null                     => "∅"
    case d: Double                => f"$d%.6f"
    case f: Float                 => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
    case x                        => x.toString
  }

  private def rowHash(values: Seq[String]): Long = {
    val s = values.mkString("\u0001")
    (MurmurHash3.stringHash(s, 0x5eed).toLong << 32) ^ (MurmurHash3.stringHash(s, 0xbeef) & 0xffffffffL)
  }

  /** Bag of rows whose column `i` is read by `get(row, i)`; columns are
    * compared in name order, as `repro.Oracle` does.
    */
  def of[R](cols: Seq[String], rows: Iterator[R], get: (R, Int) => Any): Bag = {
    val lower = cols.map(_.toLowerCase)
    val order = lower.zipWithIndex.sortBy(_._1).map(_._2)
    var n = 0L
    var fp = 0L
    rows.foreach { r =>
      n += 1
      fp += rowHash(order.map(i => canonValue(get(r, i))))
    }
    Bag(lower.sorted, n, fp)
  }

  def ofSpark(cols: Seq[String], rows: Array[Row]): Bag =
    of[Row](cols, rows.iterator, (r, i) => r.get(i))
}

/** Expected bags from DuckDB: the triples go into an in-process DuckDB
  * table once, then each query's [[ReferenceSql]] text runs there.
  */
object OracleBags {

  def expected(triples: Array[Row], queries: Seq[(String, Query)]): Map[String, Bag] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      conn.createStatement.execute("CREATE TABLE triples (s VARCHAR, p VARCHAR, o VARCHAR)")
      val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", "triples")
      triples.foreach { r =>
        app.beginRow(); app.append(r.getString(0)); app.append(r.getString(1)); app.append(r.getString(2))
        app.endRow()
      }
      app.close()
      queries.map { case (name, q) =>
        val rs = conn.createStatement.executeQuery(ReferenceSql.toSql(q))
        val meta = rs.getMetaData
        val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val rows = Iterator.continually(rs).takeWhile(_.next()).map(r => cols.indices.map(i => r.getObject(i + 1)))
        name -> Bag.of[IndexedSeq[AnyRef]](cols, rows, (r, i) => r(i))
      }.toMap
    } finally conn.close()
  }
}
