package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.engines.Engines

/** Reproduces **Table II** — "Additional characteristics of the RDF query
  * processing approaches" — row-by-row from the implemented engines.
  */
class TableIISpec extends AnyFunSuite {

  private val measured = PaperTables.measuredTableII()

  for ((paperRow, ourRow) <- PaperTables.paperTableII.zip(measured)) {
    test(s"Table II row ${paperRow.citation} matches the paper") {
      assert(ourRow == paperRow)
    }
  }

  test("fragment column: engines enforce their declared fragment") {
    val engines = Engines.surveyed()
    val bgpOnly = engines.filter(_.info.sparqlFragment == "BGP")
    assert(bgpOnly.map(_.info.citation).toSet == Set("[21]", "[16]", "[12]", "[4]", "[5]"))
    val filtered = Battery.bgpPlus.find(_.name == "filter-gt").get.query
    bgpOnly.foreach(e => assert(!e.supports(filtered), e.info.name))
  }

  test("render Table II (paper vs measured)") {
    println("=== Paper Table II ===")
    println(PaperTables.renderTableII(PaperTables.paperTableII))
    println("=== Measured Table II (from engine metadata) ===")
    println(PaperTables.renderTableII(measured))
  }
}
