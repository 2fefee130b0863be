package repro.rdf

import repro.SparkSpec

class DictionarySpec extends SparkSpec {

  private lazy val triples = RdfSynth.social(spark, sf = 0.005).cache()
  private lazy val rows = triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2)))
  /** Every distinct value of s, p or o, in sorted order. */
  private lazy val values = rows.flatMap { case (s, p, o) => Seq(s, p, o) }.distinct.sorted
  private lazy val dict = Dictionary(triples.rdd.flatMap(r => Seq(r.getString(0), r.getString(1), r.getString(2))))
  private lazy val encoded = rows.map { case (s, p, o) => (dict.id(s).get, dict.id(p).get, dict.id(o).get) }

  test("dictionary covers every distinct value") {
    assert(values.forall(dict.id(_).isDefined))
  }

  test("ids are dense and start at 0") {
    // a value's id is its rank in sorted value order
    assert(values.indices.forall(i => dict.id(values(i)).contains(i.toLong)))
  }

  test("id and value are inverse bijections") {
    assert(values.forall(v => dict.value(dict.id(v).get) == v))
    assert(values.indices.forall(i => dict.id(dict.value(i)).contains(i.toLong)))
  }

  test("encoded triples decode back to the original set") {
    assert(encoded.map { case (s, p, o) => (dict.value(s), dict.value(p), dict.value(o)) }.toSet == rows.toSet)
  }

  test("encoding preserves cardinality") {
    // distinct triples stay distinct: no two values share an id
    assert(encoded.distinct.length == rows.distinct.length)
  }

  test("id of an unknown value is None") {
    assert(dict.id("no-such-value-xyz").isEmpty)
    assert(dict.id("rdf:type").isDefined)
  }
}
