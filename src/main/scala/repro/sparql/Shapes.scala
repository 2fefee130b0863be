package repro.sparql

/** Query-shape classification per the paper's Section II.B, and the one
  * place that knows a BGP's structure: its subject stars ([[stars]]) and
  * whether its term graph is a tree ([[isTree]]).
  *
  * - Star: only subject-subject joins (all patterns share one subject var).
  * - Linear: a chain of subject-object joins.
  * - Snowflake: several stars connected by subject-object links.
  * - Complex: anything else with ≥2 patterns; Single: one pattern.
  */
object Shapes {

  sealed trait Shape { def label: String }
  case object Single    extends Shape { val label = "single"    }
  case object Star      extends Shape { val label = "star"      }
  case object Linear    extends Shape { val label = "linear"    }
  case object Snowflake extends Shape { val label = "snowflake" }
  case object Complex   extends Shape { val label = "complex"   }

  def classify(patterns: Seq[TriplePattern]): Shape = {
    if (patterns.sizeIs <= 1) return Single
    if (isStar(patterns)) return Star
    if (isLinear(patterns)) return Linear
    if (isSnowflake(patterns)) return Snowflake
    Complex
  }

  def classify(q: Query): Shape = classify(q.groups.head.patterns)

  /** The patterns grouped by subject term, groups and patterns in order of
    * first appearance.
    */
  def stars(ps: Seq[TriplePattern]): Seq[Seq[TriplePattern]] =
    ps.map(_.s).distinct.map(s => ps.filter(_.s == s))

  /** The term graph (one node per subject or object term, one undirected
    * edge per pattern) is connected and has one edge fewer than it has
    * nodes. A self-loop or two patterns between the same two terms is a
    * cycle, so neither passes.
    */
  def isTree(ps: Seq[TriplePattern]): Boolean = {
    val nodes = ps.flatMap(tp => Seq(tp.s, tp.o)).distinct
    @annotation.tailrec
    def reach(seen: Set[Term]): Set[Term] = {
      val next = seen ++ ps.filter(tp => seen(tp.s) || seen(tp.o)).flatMap(tp => Seq(tp.s, tp.o))
      if (next.size == seen.size) seen else reach(next)
    }
    ps.sizeIs == nodes.size - 1 && reach(Set(nodes.head)).size == nodes.size
  }

  /** All patterns share the same subject variable. */
  private def isStar(ps: Seq[TriplePattern]): Boolean =
    stars(ps).sizeIs == 1 && ps.head.s.isVar

  /** Patterns form a chain v0 -p-> v1 -p-> v2 ... joined object-to-subject. */
  private def isLinear(ps: Seq[TriplePattern]): Boolean = {
    // every pattern's object is the next pattern's subject, in some order
    if (stars(ps).exists(_.sizeIs > 1)) return false
    val bySubj = ps.map(tp => tp.s -> tp).toMap
    // find the head: a pattern whose subject is no other pattern's object
    val objects = ps.map(_.o).toSet
    val heads = ps.filterNot(p => objects.contains(p.s))
    if (heads.sizeIs != 1) return false
    var cur = heads.head
    var count = 1
    while (count < ps.size) {
      bySubj.get(cur.o) match {
        case Some(nxt) => cur = nxt; count += 1
        case None      => return false
      }
    }
    true
  }

  /** Stars with variable subjects, connected via subject-object links into
    * an acyclic term graph — a cycle makes the query Complex.
    */
  private def isSnowflake(ps: Seq[TriplePattern]): Boolean =
    stars(ps).forall(_.head.s.isVar) && isTree(ps)
}
