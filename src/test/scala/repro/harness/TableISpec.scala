package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.engines.Engines

/** Reproduces **Table I** — "A taxonomy of the RDF query processing
  * approaches with respect to data model and Apache Spark abstraction" —
  * from the implemented engines' metadata, and asserts cell-by-cell
  * equality with the paper's table.
  */
class TableISpec extends AnyFunSuite {

  private val measured = PaperTables.measuredTableI()

  test("Table I: every cell matches the paper") {
    for {
      a <- PaperTables.abstractions
      m <- PaperTables.dataModels
    } assert(
      measured((a, m)) == PaperTables.paperTableI((a, m)),
      s"cell ($a, $m): ours=${measured((a, m))} paper=${PaperTables.paperTableI((a, m))}",
    )
  }

  test("Table I: all nine systems are classified") {
    assert(measured.values.flatten.toSet ==
      Set("[7]", "[13]", "[21]", "[24]", "[23]", "[16]", "[12]", "[4]", "[5]"))
  }

  test("Table I: [21] appears under both RDD and DataFrames") {
    assert(measured(("RDD", "The Triple Model")).contains("[21]"))
    assert(measured(("DataFrames", "The Triple Model")).contains("[21]"))
  }

  test("Table I: graph-model systems use graph APIs except SparkRDF") {
    assert(measured(("RDD", "The Graph Model")) == Set("[5]"))
    assert(measured(("GraphX", "The Graph Model")) == Set("[23]", "[16]", "[12]"))
    assert(measured(("GraphFrames", "The Graph Model")) == Set("[4]"))
  }

  test("render Table I (paper vs measured)") {
    println("=== Paper Table I ===")
    println(PaperTables.renderTableI(PaperTables.paperTableI))
    println("=== Measured Table I (from engine metadata) ===")
    println(PaperTables.renderTableI(measured))
  }
}
