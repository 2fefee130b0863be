package repro.rdf

import repro.SparkSpec

class DictionarySpec extends SparkSpec {

  private lazy val triples = RdfSynth.social(spark, sf = 0.005).cache()
  private lazy val dict = Dictionary.encode(triples)

  test("dictionary covers every distinct value") {
    val values = triples.collect().flatMap(r => Seq(r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(dict.idOf.keySet == values)
  }

  test("ids are dense and start at 0") {
    val ids = dict.idOf.values.toSet
    assert(ids == (0L until ids.size.toLong).toSet)
  }

  test("idOf and valueOf are inverse bijections") {
    assert(dict.idOf.size == dict.valueOf.size)
    dict.idOf.foreach { case (v, id) => assert(dict.valueOf(id) == v) }
  }

  test("encoded triples decode back to the original set") {
    // decode on the driver, with the same id → value map the Dictionary
    // broadcasts for decoding on executors
    val decoded = dict.encoded.collect()
      .map { case (s, p, o) => (dict.valueOf(s), dict.valueOf(p), dict.valueOf(o)) }
      .toSet
    val original = triples.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet
    assert(decoded == original)
  }

  test("encoding preserves cardinality") {
    assert(dict.encoded.count() == triples.count())
  }

  test("encodeConst on unknown value is None") {
    assert(dict.encodeConst("no-such-value-xyz").isEmpty)
    assert(dict.encodeConst("rdf:type").isDefined)
  }
}
