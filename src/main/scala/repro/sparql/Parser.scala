package repro.sparql

/** Recursive-descent parser for the SPARQL subset (see [[Ast]]).
  *
  * Grammar (keywords case-insensitive):
  * {{{
  * query    := SELECT (DISTINCT)? ( '*' | ?var+ ) WHERE '{' body '}' modifier*
  * body     := unionBody | groupBody
  * unionBody:= '{' groupBody '}' (UNION '{' groupBody '}')+
  * groupBody:= ( triple | FILTER '(' expr ')' | OPTIONAL '{' triple* '}' )*
  * triple   := term term term '.'?
  * term     := ?var | "literal" | bareword          (IRIs written bare)
  * expr     := and ( '||' and )*
  * and      := unary ( '&&' unary )*
  * unary    := '!' unary | '(' expr ')' | term op term
  * op       := '=' | '!=' | '<' | '<=' | '>' | '>='
  * modifier := ORDER BY (ASC'('?v')'|DESC'('?v')'|?v)+ | LIMIT n | OFFSET n
  * }}}
  */
object Parser {

  def parse(input: String): Query = new P(tokenize(input)).query()

  /** Tokenizer. Quoted literals keep their quotes; bare words exclude
    * structural characters. Decimals are a single token so '.' stays the
    * triple terminator elsewhere.
    */
  private[sparql] def tokenize(s: String): Vector[String] = {
    val re = ("\"[^\"]*\"" +          // quoted literal
      "|\\?[A-Za-z_]\\w*" +           // variable
      "|-?\\d+\\.\\d+" +              // decimal number
      "|&&|\\|\\||!=|<=|>=" +         // multi-char operators
      "|[{}()=<>!.*]" +               // structural / single-char operators
      "|[^\\s{}()=<>!.&|?,]+"         // bare word (IRI, prefixed name, int)
      ).r
    re.findAllIn(s).toVector
  }

  private final class P(ts: Vector[String]) {
    private var i = 0
    private def peek: String = if (i < ts.length) ts(i) else ""
    private def next(): String = { val t = peek; i += 1; t }
    private def kw(t: String, k: String): Boolean = t.equalsIgnoreCase(k)
    private def expect(k: String): Unit = {
      val t = next()
      require(kw(t, k) || t == k, s"expected '$k' but found '$t' at token $i")
    }

    def query(): Query = {
      expect("SELECT")
      val distinct = if (kw(peek, "DISTINCT")) { next(); true } else false
      val projection = Vector.newBuilder[String]
      if (peek == "*") next()
      else {
        while (peek.startsWith("?")) projection += next().drop(1)
      }
      expect("WHERE"); expect("{")
      val groups =
        if (peek == "{") unionBody()
        else Vector(groupBody())
      expect("}")
      var orderBy = Vector.empty[OrderKey]
      var limit: Option[Int] = None
      var offset: Option[Int] = None
      while (i < ts.length) {
        if (kw(peek, "ORDER")) { next(); expect("BY"); orderBy = orderKeys() }
        else if (kw(peek, "LIMIT")) { next(); limit = Some(next().toInt) }
        else if (kw(peek, "OFFSET")) { next(); offset = Some(next().toInt) }
        else throw new IllegalArgumentException(s"unexpected token '$peek'")
      }
      val q = Query(projection.result(), distinct, groups, orderBy, limit, offset)
      validate(q); q
    }

    private def orderKeys(): Vector[OrderKey] = {
      val keys = Vector.newBuilder[OrderKey]
      var more = true
      while (more) {
        if (kw(peek, "ASC") || kw(peek, "DESC")) {
          val asc = kw(next(), "ASC")
          expect("("); val v = next(); expect(")")
          require(v.startsWith("?"), s"ORDER BY expects a variable, got '$v'")
          keys += OrderKey(v.drop(1), asc)
        } else if (peek.startsWith("?")) keys += OrderKey(next().drop(1), asc = true)
        else more = false
      }
      val out = keys.result()
      require(out.nonEmpty, "ORDER BY requires at least one key")
      out
    }

    private def unionBody(): Vector[BasicGroup] = {
      val groups = Vector.newBuilder[BasicGroup]
      expect("{"); groups += groupBody(); expect("}")
      require(kw(peek, "UNION"), s"expected UNION, found '$peek'")
      while (kw(peek, "UNION")) {
        next(); expect("{"); groups += groupBody(); expect("}")
      }
      groups.result()
    }

    private def groupBody(): BasicGroup = {
      val pats = Vector.newBuilder[TriplePattern]
      val filts = Vector.newBuilder[FilterExpr]
      val opts = Vector.newBuilder[Vector[TriplePattern]]
      while (peek.nonEmpty && peek != "}") {
        if (kw(peek, "FILTER")) {
          next(); expect("("); filts += expr(); expect(")")
          if (peek == ".") next()
        } else if (kw(peek, "OPTIONAL")) {
          next(); expect("{")
          val inner = Vector.newBuilder[TriplePattern]
          while (peek != "}") inner += triple()
          expect("}")
          if (peek == ".") next()
          opts += inner.result()
        } else pats += triple()
      }
      BasicGroup(pats.result(), filts.result(), opts.result())
    }

    private def triple(): TriplePattern = {
      val s = term(); val p = term(); val o = term()
      if (peek == ".") next()
      TriplePattern(s, p, o)
    }

    private def term(): Term = {
      val t = next()
      require(t.nonEmpty && t != "}" && t != "{" && t != ".",
        s"expected a term, found '$t'")
      if (t.startsWith("?")) Var(t.drop(1))
      else if (t.startsWith("\"")) Const(t.stripPrefix("\"").stripSuffix("\""))
      else Const(t)
    }

    private def expr(): FilterExpr = {
      var e = andExpr()
      while (peek == "||") { next(); e = Or(e, andExpr()) }
      e
    }
    private def andExpr(): FilterExpr = {
      var e = unary()
      while (peek == "&&") { next(); e = And(e, unary()) }
      e
    }
    private def unary(): FilterExpr = {
      if (peek == "!") { next(); Not(unary()) }
      else if (peek == "(") { next(); val e = expr(); expect(")"); e }
      else {
        val l = term()
        val op = next()
        require(Set("=", "!=", "<", "<=", ">", ">=")(op), s"bad operator '$op'")
        Cmp(l, term(), op)
      }
    }

    private def validate(q: Query): Unit = {
      val varSets = q.groups.map(_.allVars.toSet)
      for (p <- q.projection)
        require(varSets.exists(_.contains(p)), s"projected ?$p not bound anywhere")
      require(q.resultVars.nonEmpty, "the query binds no variables: there is no result column")
      if (q.groups.sizeIs > 1) {
        require(varSets.distinct.sizeIs == 1,
          "UNION branches must bind identical variable sets in this fragment")
      }
      for (g <- q.groups; f <- g.filters; v <- f.vars)
        require(g.requiredVars.contains(v), s"FILTER uses ?$v not bound in the group's BGP")
      for (g <- q.groups; o <- g.optionals)
        require(o.flatMap(_.vars).exists(g.requiredVars.contains),
          "OPTIONAL group must share at least one variable with the BGP")
    }
  }
}
