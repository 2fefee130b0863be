package repro.engines

import repro.core.{ReferenceEngine, SparqlEngine}
import repro.sparql.{Parser, Query}

/** Registry of the nine surveyed systems (paper Tables I & II order) plus
  * the reference baseline. Fresh instances per call — engines are stateful
  * after `load`.
  */
object Engines {

  /** HAQWA's frequent-query workload: one star and one 2-hop linear query
    * (the shapes its allocation step is designed around).
    */
  def defaultWorkload: Seq[Query] = Seq(
    Parser.parse("SELECT ?p ?n ?a WHERE { ?p name ?n . ?p age ?a }"),
    Parser.parse("SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }"),
  )

  /** The nine surveyed systems, in the paper's Table II row order. */
  def surveyed(): Seq[SparqlEngine] = Seq(
    new haqwa.Haqwa(defaultWorkload),
    new sparqlgx.SparqlGx(),
    new s2rdf.S2Rdf(),
    new hybrid.HybridJoin(),
    new s2x.S2X(),
    new graphxsgm.SubgraphMatch(),
    new sparkql.SparKql(),
    new gframes.GFramesEngine(),
    new sparkrdf.SparkRdf(),
  )

  def withReference(): Seq[SparqlEngine] = new ReferenceEngine() +: surveyed()
}
