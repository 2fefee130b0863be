package repro.harness

import repro.sparql.{Parser, Query, Shapes}

/** The shared query battery over the [[repro.rdf.RdfSynth]] vocabulary.
  *
  * Covers every query shape of the paper's Section II.B (star, linear,
  * snowflake, complex), constants in every triple position, variable
  * predicates, empty results, and — for BGP+ systems — FILTER, DISTINCT,
  * ORDER/LIMIT/OFFSET, UNION and OPTIONAL. Used by the per-engine contract
  * suites (each query diffed against the DuckDB oracle) and by the
  * assessment benches.
  */
object Battery {

  final case class Q(name: String, sparql: String) {
    lazy val query: Query = Parser.parse(sparql)
    def shape: Shapes.Shape = Shapes.classify(query)
  }

  /** Plain-BGP queries — the fragment every surveyed system supports. */
  val bgp: Vector[Q] = Vector(
    Q("single-type", "SELECT ?s WHERE { ?s rdf:type Person }"),
    Q("single-const-subject", "SELECT ?n WHERE { p5 name ?n }"),
    Q("star-2", "SELECT ?p ?n ?a WHERE { ?p name ?n . ?p age ?a }"),
    Q("star-3", "SELECT ?p ?n ?a ?c WHERE { ?p name ?n . ?p age ?a . ?p livesIn ?c }"),
    Q("star-const-object", "SELECT ?p ?n WHERE { ?p livesIn c3 . ?p name ?n }"),
    Q("linear-2", "SELECT ?a ?b ?c WHERE { ?a follows ?b . ?b follows ?c }"),
    Q("linear-3", "SELECT ?a ?b ?c ?d WHERE { ?a follows ?b . ?b follows ?c . ?c follows ?d }"),
    Q("snowflake",
      "SELECT ?p ?n ?pr ?l ?cat WHERE { ?p name ?n . ?p likes ?pr . ?pr label ?l . ?pr category ?cat }"),
    Q("path-then-star", "SELECT ?a ?b ?n WHERE { ?a follows ?b . ?b name ?n }"),
    Q("complex-cycle", "SELECT ?a ?b ?c WHERE { ?a follows ?b . ?a livesIn ?c . ?b livesIn ?c }"),
    Q("type-var-class", "SELECT ?x ?c WHERE { ?x rdf:type ?c }"),
    Q("var-predicate", "SELECT ?pr ?o WHERE { p7 ?pr ?o }"),
    Q("cross-product", "SELECT ?n ?cat WHERE { ?c cityName ?n . ?x category ?cat }"),
    Q("self-loop-empty", "SELECT ?x WHERE { ?x follows ?x }"),
    Q("missing-const-empty", "SELECT ?n WHERE { p999999999 name ?n }"),
    Q("missing-predicate-empty", "SELECT ?x ?y WHERE { ?x nosuchpredicate ?y }"),
    // a fully-constant pattern that matches nothing empties the answer,
    // even when the other variables are constrained only by their class
    Q("const-guard-empty", "SELECT ?x WHERE { ?x rdf:type City . p5 name nosuchname }"),
  )

  /** Queries needing BGP+ features (Table II's FILTER / AVG-style extras). */
  val bgpPlus: Vector[Q] = Vector(
    Q("filter-gt", "SELECT ?p ?a WHERE { ?p age ?a . FILTER(?a > 50) }"),
    Q("filter-range-and",
      "SELECT ?p ?n ?a WHERE { ?p age ?a . ?p name ?n . FILTER(?a >= 30 && ?a < 40) }"),
    Q("filter-string-ne", "SELECT ?p ?c WHERE { ?p livesIn ?c . FILTER(?c != c1) }"),
    Q("filter-or", "SELECT ?p ?a WHERE { ?p age ?a . FILTER(?a < 20 || ?a >= 79) }"),
    Q("filter-not", "SELECT ?p ?a WHERE { ?p age ?a . FILTER(!(?a < 70)) }"),
    // p7's objects are mostly not numbers: `?v < 70` is unknown for them,
    // and so is its negation, so the FILTER drops them (SPARQL and SQL);
    // p7's one number, its age, is under 70 in the test data
    Q("filter-not-mixed-empty", "SELECT ?pr ?v WHERE { p7 ?pr ?v . FILTER(!(?v < 70)) }"),
    Q("distinct-cities", "SELECT DISTINCT ?c WHERE { ?p livesIn ?c }"),
    Q("order-limit", "SELECT ?p ?n WHERE { ?p name ?n } ORDER BY ?n LIMIT 10"),
    Q("order-desc-offset",
      "SELECT ?p ?n WHERE { ?p name ?n } ORDER BY DESC(?n) LIMIT 5 OFFSET 3"),
    Q("union-edges", "SELECT ?x ?y WHERE { { ?x likes ?y } UNION { ?x follows ?y } }"),
    Q("optional-likes", "SELECT ?p ?n ?pr WHERE { ?p name ?n OPTIONAL { ?p likes ?pr } }"),
    Q("optional-after-filter",
      "SELECT ?p ?a ?pr WHERE { ?p age ?a . FILTER(?a < 25) OPTIONAL { ?p likes ?pr } }"),
    // the second OPTIONAL keys on ?pr, which the first leaves unbound for
    // persons who like nothing: as in SQL, an unbound key never joins
    Q("optional-chain",
      "SELECT ?p ?n ?pr ?l WHERE { ?p name ?n OPTIONAL { ?p likes ?pr } OPTIONAL { ?p age ?a . ?pr label ?l } }"),
  )

  val all: Vector[Q] = bgp ++ bgpPlus

  /** The shape-labelled subset the assessment bench times on every engine. */
  val shapes: Vector[Q] = Vector(
    bgp.find(_.name == "star-3").get,
    bgp.find(_.name == "linear-2").get,
    bgp.find(_.name == "snowflake").get,
    bgp.find(_.name == "complex-cycle").get,
  )
}
