"""Declarative input language: line-oriented theory files with fields,
functions, named expressions, substitution tables, cover blocks and named
checks.  Expressions use infix notation with d^k(name) jets, a + suffix
for antifields (x+_1, c+), reserved eps / u / tau, exact rationals and
inv / log / pow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .coefficients import AffineExponent, Rat, quotient
from .curved import BElement, CanonicalSubstitution, USeries
from .expression import Expression, Term, _merge_runs, inverse_of, log_of, power_of
from .symbols import GradedSymbol, Kind, Theory, TheoryError

RESERVED_CALLS = {"d", "inv", "log", "pow", "D"}


class ParseError(TheoryError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" at line {line}" if line else ""
        where += f", column {column}" if column else ""
        super().__init__(message + where)


_TOKEN = re.compile(r"""
    (?P<num>\d+) |
    (?P<name>[A-Za-z][A-Za-z0-9]*(?:\+(?![A-Za-z0-9(-]))?(?:_[A-Za-z0-9]+)*) |
    (?P<op>[-+*/^(),\[\]]) |
    (?P<ws>\s+)
""", re.VERBOSE)


def tokenize(src: str, line_no: int = 0, offset: int = 0) -> list[tuple[str, str, int]]:
    """(kind, text, column) tokens of src, which starts `offset` characters
    into its line; columns count from the start of the line."""
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"bad character {src[pos]!r}", line_no, offset + pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), offset + pos + 1))
        pos = m.end()
    out.append(("end", "", offset + len(src) + 1))
    return out


class ExpressionParser:
    """Recursive descent over one expression source line."""

    def __init__(self, theory: Theory, src: str, line_no: int = 0, offset: int = 0):
        self.theory = theory
        self.tokens = tokenize(src, line_no, offset)
        self.i = 0
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: Optional[str] = None, value: Optional[str] = None):
        tok = self.tokens[self.i]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {value or kind}, got {tok[1]!r}",
                             self.line_no, tok[2])
        if value and tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}",
                             self.line_no, tok[2])
        self.i += 1
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", self.line_no, tok[2])
        return e

    def expr(self) -> Expression:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        out = self.term() * sign
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                nxt = self.term()
                out = out + (nxt if tok[1] == "+" else -nxt)
            else:
                return out

    def term(self) -> Expression:
        out = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                out = out * self.factor()
            elif tok[0] == "op" and tok[1] == "/":
                self.take()
                den = self.factor()
                out = out * _as_rational_inverse(den)
            else:
                return out

    def factor(self) -> Expression:
        base = self.atom()
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "^":
            self.take()
            neg = False
            t2 = self.peek()
            if t2[0] == "op" and t2[1] == "-":
                self.take()
                neg = True
            n = int(self.take("num")[1])
            if neg:
                return power_of(base, -n)
            return base ** n
        return base

    def atom(self) -> Expression:
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Expression.const(self.theory, int(tok[1]))
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            e = self.expr()
            self.take("op", ")")
            return e
        if tok[0] == "op" and tok[1] == "-":
            self.take()
            return -self.atom()
        if tok[0] != "name":
            raise ParseError(f"unexpected {tok[1]!r}", self.line_no, tok[2])
        name = self.take()[1]
        nxt = self.peek()
        if name == "D" and nxt[0] == "op" and nxt[1] == "[":
            return self.func_derivative()
        if nxt[0] == "op" and nxt[1] == "(" and name in RESERVED_CALLS:
            return self.call(name, 0, tok[2])
        if name == "d" and nxt[0] == "op" and nxt[1] == "^":
            self.take()
            order = int(self.take("num")[1])
            return self.call("d", order, tok[2])
        return self.symbol_or_function(name, tok[2])

    def call(self, name: str, jet_order: int, col: int) -> Expression:
        self.take("op", "(")
        if name == "d":
            inner = self.expr()
            self.take("op", ")")
            order = jet_order if jet_order else 1
            from .expression import iterated_total
            return iterated_total(inner, order)
        if name == "pow":
            base = self.expr()
            self.take("op", ",")
            exponent = self.expr_exponent()
            self.take("op", ")")
            return power_of(base, exponent)
        inner = self.expr()
        self.take("op", ")")
        if name == "inv":
            return inverse_of(inner)
        if name == "log":
            return log_of(inner)
        raise ParseError(f"unknown call {name}", self.line_no, col)

    def expr_exponent(self) -> AffineExponent:
        """A rational-affine function of the flow parameter."""
        out = self.exp_term()
        while True:
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                nxt = self.exp_term()
                if tok[1] == "-":
                    nxt = AffineExponent(-nxt.offset, -nxt.slope, nxt.param)
                out = out + nxt
            else:
                return out

    def exp_term(self) -> AffineExponent:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            q = int(tok[1])
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "/":
                self.take()
                _, digits, col = self.take("num")
                if int(digits) == 0:
                    raise ParseError("zero denominator in a rational exponent",
                                     self.line_no, col)
                q = quotient(q, int(digits))
                nxt = self.peek()
            if nxt[0] == "op" and nxt[1] == "*":
                self.take()
                return AffineExponent(0, sign * q, self._param())
            return AffineExponent(sign * q)
        return AffineExponent(0, sign, self._param())

    def _param(self) -> GradedSymbol:
        _, name, col = self.take("name")
        s = self.theory.maybe_symbol(name)
        if s is None or s.kind != Kind.FLOW_PARAM:
            raise ParseError(f"{name} is not a flow parameter", self.line_no, col)
        return s

    def symbol_or_function(self, name: str, col: int) -> Expression:
        if name == "eps":
            return Expression.symbol(self.theory, self.theory.epsilon)
        if name == "u":
            return Expression.symbol(self.theory, self.theory.u)
        s = self.theory.maybe_symbol(name)
        if s is not None:
            return Expression.symbol(self.theory, s)
        try:
            self.theory.function(name)
        except TheoryError:
            raise ParseError(f"unknown symbol {name}", self.line_no, col)
        return Expression.func(self.theory, name)

    def func_derivative(self) -> Expression:
        self.take("op", "[")
        args = [self.take("name")[1]]
        while self.peek()[0] == "op" and self.peek()[1] == ",":
            self.take()
            args.append(self.take("name")[1])
        self.take("op", "]")
        self.take("op", "(")
        fname = self.take("name")[1]
        self.take("op", ")")
        return Expression.func(self.theory, fname, args)


def _as_rational_inverse(e: Expression) -> Rat:
    if len(e.terms) == 1 and not e.terms[0].mono and not e.terms[0].atoms:
        return quotient(1, e.terms[0].coef)
    raise TheoryError("/ is reserved for rational literals; use inv(...)")


def parse_expression(theory: Theory, src: str, line_no: int = 0, offset: int = 0) -> Expression:
    """Parse src, which starts `offset` characters into line `line_no`."""
    return ExpressionParser(theory, src, line_no, offset).parse()


def to_useries(expr: Expression) -> USeries:
    """Split a parsed expression on powers of u and the eps generator."""
    theory = expr.theory
    u = theory.u
    buckets: dict[int, list[Term]] = {}
    for t in expr.terms:
        i = next((j for j, (s, _) in enumerate(t.mono) if s is u), None)
        if i is None:
            buckets.setdefault(0, []).append(t)
        else:
            # u is even, so dropping it and its two key fields keeps the
            # term canonical; the shorter keys may reorder a bucket
            buckets.setdefault(t.mono[i][1], []).append(Term(
                t.coef, t.atoms, t.mono[:i] + t.mono[i + 1:],
                t.key[:1 + 2 * i] + t.key[3 + 2 * i:]))
    return USeries(theory, {n: BElement.from_fused(Expression(theory, _merge_runs(ts)))
                            for n, ts in buckets.items()})


def from_useries(x: USeries) -> Expression:
    theory = x.theory
    u = Expression.symbol(theory, theory.u)
    return Expression.sum(theory, (u ** n * c.fused() for n, c in x.coeffs.items()))


# -- theory files -------------------------------------------------------------------


@dataclass
class CoverBlock:
    name: str
    bound: int
    chart_order: list[str] = field(default_factory=list)
    charts: dict[str, Theory] = field(default_factory=dict)
    nu: dict[str, dict[str, Expression]] = field(default_factory=dict)
    overlaps: list = field(default_factory=list)   # (names, theory, maps, mu_src)


@dataclass
class TheoryFile:
    name: str = "theory"
    theory: Theory = None
    expressions: dict[str, Expression] = field(default_factory=dict)
    substitutions: dict[str, CanonicalSubstitution] = field(default_factory=dict)
    covers: dict[str, CoverBlock] = field(default_factory=dict)
    checks: dict[str, dict] = field(default_factory=dict)


def parse_theory_file(source: str) -> TheoryFile:
    tf = TheoryFile()
    tf.theory = Theory("main")
    context = "theory"            # theory | cover | chart | overlap | subst
    cover: Optional[CoverBlock] = None
    current_chart: Optional[str] = None
    overlap_entry = None
    subst_name = None
    subst_maps: dict[GradedSymbol, Expression] = {}

    def ctx_theory() -> Theory:
        if context == "chart":
            return cover.charts[current_chart]
        if context == "overlap":
            return overlap_entry[1]
        return tf.theory

    lines = source.splitlines()
    for line_no, raw in enumerate(lines, 1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        try:
            if head == "theory":
                tf.name = words[1]
                tf.theory = Theory(words[1])
            elif head == "field":
                _parse_field(ctx_theory(), code, line_no)
            elif head == "function":
                _check_shape(_words(code), ("function", None, "args", None),
                             "function NAME args F1 F2 ...", line_no)
                ctx_theory().add_function(words[1], words[3:])
            elif head == "param":
                ctx_theory().add_flow_param(words[1])
            elif head == "oneform":
                ghost = int(words[words.index("ghost") + 1]) if "ghost" in words else 1
                ctx_theory().add_one_form(words[1], ghost=ghost)
            elif head == "expr":
                left, rhs, at = _split(code, "=")
                name = left.strip()[len("expr"):].strip()
                if not name or not rhs.strip():
                    raise ParseError("expr NAME = EXPRESSION", line_no)
                tf.expressions[name] = parse_expression(tf.theory, rhs, line_no, at)
            elif head == "subst":
                context = "subst"
                subst_name = words[1]
                subst_maps = {}
            elif head == "map":
                if context != "subst":
                    raise ParseError("map outside subst block", line_no)
                lhs, rhs, at = _split(code, "->")
                gen_name = lhs.strip()[len("map"):].strip()
                gen = tf.theory.maybe_symbol(gen_name)
                if gen is None:
                    raise ParseError(f"unknown symbol: {gen_name}", line_no,
                                     lhs.rindex(gen_name) + 1)
                subst_maps[gen] = parse_expression(tf.theory, rhs, line_no, at)
            elif head == "endsubst":
                tf.substitutions[subst_name] = CanonicalSubstitution(tf.theory, subst_maps)
                context = "theory"
            elif head == "cover":
                cover = _parse_cover(code, line_no)
                tf.covers[cover.name] = cover
                context = "cover"
            elif head == "chart":
                _in_cover(cover, code, ("chart", None), "chart NAME", line_no)
                current_chart = words[1]
                cover.chart_order.append(current_chart)
                cover.charts[current_chart] = Theory(current_chart)
                cover.nu[current_chart] = {}
                context = "chart"
            elif head == "nu":
                if context != "chart":
                    raise ParseError("nu outside chart block", line_no)
                lhs, rhs, at = _split(code, "=")
                th = cover.charts[current_chart]
                cover.nu[current_chart][lhs.strip()[len("nu"):].strip()] = \
                    parse_expression(th, rhs, line_no, at)
            elif head == "overlap":
                _in_cover(cover, code, ("overlap", None), "overlap NAME NAME ...", line_no)
                names = words[1:]
                th = Theory("^".join(sorted(names)))
                overlap_entry = (tuple(sorted(names)), th, {}, None)
                cover.overlaps.append(overlap_entry)
                context = "overlap"
            elif head == "from":
                if context != "overlap":
                    raise ParseError("from outside overlap block", line_no)
                left, maps_src, at = _split(code, ":")
                chart_name = left.strip()[len("from"):].strip()
                src_th = cover.charts[chart_name]
                dst_th = overlap_entry[1]
                images = {}
                for piece in maps_src.split(";"):
                    if piece.strip():
                        lhs, rhs, piece_at = _split(piece, "->")
                        images[lhs.strip()] = parse_expression(dst_th, rhs, line_no,
                                                               at + piece_at)
                    at += len(piece) + 1
                # antifields transform by the inverse-Jacobian etale rule
                from .varcalc import EtaleMap
                emap = EtaleMap(dst_th, src_th, images)
                overlap_entry[2][chart_name] = \
                    CanonicalSubstitution(src_th, emap.generator_images(), dst_th)
            elif head == "mu":
                if context != "overlap":
                    raise ParseError("mu outside overlap block", line_no)
                _, rhs, at = _split(code, "=")
                mu = parse_expression(overlap_entry[1], rhs, line_no, at)
                cover.overlaps[-1] = overlap_entry[:3] + (mu,)
                overlap_entry = cover.overlaps[-1]
            elif head == "endcover":
                context = "theory"
                cover = None
            elif head == "check":
                name, opts = _parse_check(code, line_no)
                tf.checks[name] = opts
            else:
                raise ParseError(f"unknown directive {head!r}", line_no)
        except TheoryError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), line_no) from exc
    return tf


def _split(code: str, sep: str) -> tuple[str, str, int]:
    """(left, right, offset): code split at its first sep, the right part
    without trailing space, and the number of characters of the line before
    it, so that parse errors count columns from the start of the line."""
    left, found, right = code.partition(sep)
    return left, right.rstrip(), len(left) + len(found)


_RATIONAL = (r"[-+]?\d+(/\d*[1-9]\d*)?", "an exact rational")
# check kind -> (required keys, {every other key it reads, and any required
# key whose value is checked: (pattern of its value, what the value is), or
# None for a name looked up when the check runs})
_CHECK_KINDS = {
    "mc": (("expr",), {"mode": ("B|F", "B or F")}),
    "bracket": (("left", "right", "expect"), {"with": ("soloviev|bv", "soloviev or bv")}),
    "normalize": (("expr", "expect"), {}),
    "flow": (("generator", "applyto"), {"direction": ("-?1", "1 or -1"), "at": _RATIONAL,
                                        "param": None, "expect": None}),
    "verify-endpoint": (("start", "family", "generator"), {"param": None, "expect": None}),
    "twist": (("base", "w"), {"expect": None}),
    "rank": (("expr", "expect"), {"expect": (r"[-+]?\d+", "an integer")}),
    "total-derivative": (("expr",), {"expect": ("yes|no", "yes or no"),
                                     "expect-const": _RATIONAL}),
    "canonical": (("subst",), {}),
    "tw-mc": (("cover",), {}),
}


def _words(code: str) -> list[tuple[str, int]]:
    """The words of a line, each with the column it starts at."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _check_shape(words: list[tuple[str, int]], shape: tuple, usage: str, line_no: int):
    """Refuse a line whose leading words break the shape (a keyword, or None
    for any word): the usage is the error, at the first word that differs,
    or just past the line's end when a word is missing."""
    for i, want in enumerate(shape):
        if i == len(words):
            word, col = words[-1]
            raise ParseError(usage, line_no, col + len(word))
        if want is not None and words[i][0] != want:
            raise ParseError(usage, line_no, words[i][1])


def _parse_check(code: str, line_no: int) -> tuple[str, dict]:
    """The name and options of a `check NAME KIND key=value ...` line, with
    each key its kind needs present, every key one its kind reads, and each
    value its kind checks well-formed."""
    words = _words(code)
    if len(words) < 3:
        raise ParseError("check NAME KIND key=value ...", line_no)
    (name, _), (kind, kind_col) = words[1:3]
    if kind not in _CHECK_KINDS:
        raise ParseError(f"unknown check kind {kind!r}", line_no, kind_col)
    required, values = _CHECK_KINDS[kind]
    opts = {}
    for w, col in words[3:]:
        k, eq, v = w.partition("=")
        if not eq:
            raise ParseError(f"{kind} check: expected key=value, got {w!r}", line_no, col)
        if k in opts:
            raise ParseError(f"{kind} check: repeated key {k!r}", line_no, col)
        if k not in required and k not in values:
            raise ParseError(f"{kind} check reads no key {k!r}", line_no, col)
        if values.get(k) and not re.fullmatch(values[k][0], v):
            raise ParseError(f"{kind} check: {k} must be {values[k][1]}, got {v!r}",
                             line_no, col)
        opts[k] = v
    for k in required:
        if k not in opts:
            raise ParseError(f"{kind} check needs {k}=...", line_no, kind_col)
    opts["kind"] = kind
    return name, opts


def _parse_cover(code: str, line_no: int) -> CoverBlock:
    """The block opened by a `cover NAME [bound INT]` line; the bound is 3
    when not given."""
    words = _words(code)
    usage = "cover NAME [bound INT]"
    _check_shape(words, ("cover", None), usage, line_no)
    if len(words) == 2:
        return CoverBlock(words[1][0], 3)
    _check_shape(words, ("cover", None, "bound", None), usage, line_no)
    if len(words) > 4:
        raise ParseError(usage, line_no, words[4][1])
    bound, col = words[3]
    if not re.fullmatch(r"\d+", bound):
        raise ParseError(f"cover bound must be a nonnegative integer, got {bound!r}",
                         line_no, col)
    return CoverBlock(words[1][0], int(bound))


def _in_cover(cover: Optional[CoverBlock], code: str, shape: tuple, usage: str,
              line_no: int):
    """Refuse a `chart` or `overlap` line outside a cover block, at its first
    word, or one whose leading words break the shape."""
    words = _words(code)
    if cover is None:
        raise ParseError(f"{words[0][0]} outside cover block", line_no, words[0][1])
    _check_shape(words, shape, usage, line_no)


def _parse_field(theory: Theory, code: str, line_no: int):
    words = _words(code)
    _check_shape(words, ("field", None, "ghost", None, "parity", None),
                 "field NAME ghost INT parity even|odd", line_no)
    ghost = int(words[3][0])
    parity = {"even": 0, "odd": 1}.get(words[5][0])
    if parity is None:
        raise ParseError("parity must be even or odd", line_no, words[5][1])
    theory.add_field(words[1][0], ghost, parity)


def build_cover(block: CoverBlock):
    """Instantiate a CoverNerve from a parsed cover block."""
    from .thomwhitney import CoverNerve
    nerve = CoverNerve(dict(block.charts), dimension_bound=block.bound)
    for names, th, maps, mu in block.overlaps:
        nerve.declare_overlap(frozenset(names), th, maps, mu=mu)
    return nerve
