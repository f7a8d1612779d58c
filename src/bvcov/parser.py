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
from .expression import Expression, Term, _merge_runs, inverse_of, iterated_total, log_of, power_of
from .symbols import GradedSymbol, Kind, Theory, TheoryError
from .varcalc import EtaleMap

RESERVED_CALLS = {"d", "inv", "log", "pow", "D"}


class ParseError(TheoryError):
    def __init__(self, message: str, line: int, column: int):
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
                out = out * _as_rational_inverse(self.factor(), self.line_no, tok[2])
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


def _as_rational_inverse(e: Expression, line_no: int, col: int) -> Rat:
    if len(e.terms) == 1 and not e.terms[0].mono and not e.terms[0].atoms:
        return quotient(1, e.terms[0].coef)
    raise ParseError("/ is reserved for rational literals; use inv(...)", line_no, col)


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
    charts: dict[str, Theory] = field(default_factory=dict)
    nu: dict[str, dict[str, Expression]] = field(default_factory=dict)
    overlaps: list = field(default_factory=list)   # [names, theory, maps, mu]


@dataclass
class TheoryFile:
    name: str = "theory"
    theory: Theory = None
    expressions: dict[str, Expression] = field(default_factory=dict)
    substitutions: dict[str, CanonicalSubstitution] = field(default_factory=dict)
    covers: dict[str, CoverBlock] = field(default_factory=dict)
    checks: dict[str, dict] = field(default_factory=dict)


# directive -> (usage, the block its line must be in, or None for anywhere).
# The usage is both the error message and the shape of the line's words: a
# lower-case word stands for itself, a|b is one of those words, any other
# word (NAME, INT, key=value) is any word, `X ...` is zero or more X, [...]
# is an optional tail, and a separator (=, -> or :) ends the shape: the rest
# of the line is expression text.  INT is a placeholder, not a checked
# type, and `param` has no usage: the benchmark's front-door workload pins
# the ValueError of a non-integer field ghost and the IndexError of a bare
# `param` as known defects.
_DIRECTIVES = {
    "theory": ("theory NAME", None),
    "field": ("field NAME ghost INT parity even|odd", None),
    "function": ("function NAME args F1 F2 ...", None),
    "param": (None, None),
    "oneform": ("oneform NAME [ghost INT]", None),
    "expr": ("expr NAME = EXPRESSION", None),
    "subst": ("subst NAME", None),
    "map": ("map NAME -> EXPRESSION", "subst"),
    "endsubst": ("endsubst", "subst"),
    "cover": ("cover NAME [bound INT]", None),
    "chart": ("chart NAME", "cover"),
    "nu": ("nu FIELD = EXPRESSION", "chart"),
    "overlap": ("overlap CHART CHART ...", "cover"),
    "from": ("from CHART : FIELD -> EXPRESSION ; ...", "overlap"),
    "mu": ("mu = EXPRESSION", "overlap"),
    "endcover": ("endcover", "cover"),
    "check": ("check NAME KIND key=value ...", None),
}


def _shape(usage: str) -> tuple:
    """(allowed, required, repeats, separator) of a usage: the words each
    word of a line may be (None for any word), how many words a line needs,
    whether more may follow, and the separator ending the shape."""
    words = usage.split()
    sep = next((w for w in words if w in ("=", "->", ":")), None)
    words = words[:words.index(sep)] if sep else words
    repeats = words[-1] == "..."
    words = words[:-2] if repeats else words
    required = next((i for i, w in enumerate(words) if w.startswith("[")), len(words))
    allowed = [tuple(w.split("|")) if w.replace("|", "").isalpha() and w.islower() else None
               for w in (w.strip("[]") for w in words)]
    return allowed, required, repeats, sep


_SHAPES = {d: _shape(usage) for d, (usage, _) in _DIRECTIVES.items() if usage}


def _words(code: str) -> list[tuple[str, int]]:
    """The words of a line, each with the column it starts at."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _match(shape: tuple, words: list[tuple[str, int]], usage: str, line_no: int):
    """Refuse words that break the shape: at the first wrong or extra word,
    or just past the last word when one is missing."""
    allowed, required, repeats, _ = shape
    for i, want in enumerate(allowed):
        if i == len(words):
            if i == required:
                return
            word, col = words[-1]
            raise ParseError(usage, line_no, col + len(word))
        if want is not None and words[i][0] not in want:
            message = f"{words[i - 1][0]} must be {' or '.join(want)}" if want[1:] else usage
            raise ParseError(message, line_no, words[i][1])
    if len(words) > len(allowed) and not repeats:
        raise ParseError(usage, line_no, words[len(allowed)][1])


def parse_theory_file(source: str) -> TheoryFile:
    tf = TheoryFile(theory=Theory("main"))
    blocks: tuple[str, ...] = ()      # the open blocks: subst, or cover [chart|overlap]
    local: Optional[Theory] = None    # the open chart's or overlap's theory
    cover = subst = chart = overlap = None
    for line_no, raw in enumerate(source.splitlines(), 1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        head = code.split(None, 1)[0]
        if head not in _DIRECTIVES:
            raise ParseError(f"unknown directive {head!r}", line_no, code.index(head) + 1)
        usage, block = _DIRECTIVES[head]
        if block is not None and block not in blocks:
            raise ParseError(f"{head} outside {block} block", line_no, code.index(head) + 1)
        shape = _SHAPES.get(head)
        sep = shape and shape[3]
        left, found, rhs = code.partition(sep) if sep else (code, "", "")
        if sep and not (found and rhs.strip()):
            raise ParseError(usage, line_no, len(code.rstrip()) + 1)
        words, at, rhs = _words(left), len(left) + len(found), rhs.rstrip()
        if shape:
            _match(shape, words, usage, line_no)
        here = local or tf.theory
        try:
            if head == "theory":
                tf.name = words[1][0]
                tf.theory = Theory(tf.name)
            elif head == "field":
                here.add_field(words[1][0], int(words[3][0]), ("even", "odd").index(words[5][0]))
            elif head == "function":
                here.add_function(words[1][0], [w for w, _ in words[3:]])
            elif head == "param":
                here.add_flow_param(words[1][0])
            elif head == "oneform":
                ghost = _optional_int(words, 1, r"[-+]?\d+", "an integer", line_no)
                here.add_one_form(words[1][0], ghost=ghost)
            elif head == "expr":
                tf.expressions[words[1][0]] = parse_expression(tf.theory, rhs, line_no, at)
            elif head == "subst":
                subst = tf.substitutions[words[1][0]] = CanonicalSubstitution(tf.theory, {})
                blocks, local = ("subst",), None
            elif head == "map":
                name, col = words[1]
                gen = subst.theory.maybe_symbol(name)
                if gen is None:
                    raise ParseError(f"unknown symbol: {name}", line_no, col)
                subst.images[gen] = parse_expression(subst.theory, rhs, line_no, at)
            elif head == "cover":
                bound = _optional_int(words, 3, r"\d+", "a nonnegative integer", line_no)
                cover = tf.covers[words[1][0]] = CoverBlock(words[1][0], bound)
                blocks, local = ("cover",), None
            elif head == "chart":
                chart = words[1][0]
                local = cover.charts[chart] = Theory(chart)
                cover.nu[chart] = {}
                blocks = ("cover", "chart")
            elif head == "nu":
                name, col = words[1]
                s = local.maybe_symbol(name)
                if s is None or s.kind != Kind.FIELD_JET:
                    raise ParseError(f"{name} is not a field of chart {chart}", line_no, col)
                cover.nu[chart][name] = parse_expression(local, rhs, line_no, at)
            elif head == "overlap":
                for name, col in words[1:]:
                    if name not in cover.charts:
                        raise ParseError(f"{name} is not a chart of cover {cover.name}",
                                         line_no, col)
                names = tuple(sorted(w for w, _ in words[1:]))
                local = Theory("^".join(names))
                overlap = [names, local, {}, None]
                cover.overlaps.append(overlap)
                blocks = ("cover", "overlap")
            elif head == "from":
                name, col = words[1]
                if name not in overlap[0]:
                    raise ParseError(f"{name} is not a chart of overlap {' '.join(overlap[0])}",
                                     line_no, col)
                images = {}
                for piece in rhs.split(";"):
                    if piece.strip():
                        lhs, arrow, image = piece.partition("->")
                        if not arrow:
                            raise ParseError(usage, line_no, at + len(piece.rstrip()) + 1)
                        images[lhs.strip()] = parse_expression(local, image.rstrip(), line_no,
                                                               at + len(lhs) + 2)
                    at += len(piece) + 1
                # antifields transform by the inverse-Jacobian etale rule
                chart_th = cover.charts[name]
                overlap[2][name] = CanonicalSubstitution(
                    chart_th, EtaleMap(local, chart_th, images).generator_images(), local)
            elif head == "mu":
                overlap[3] = parse_expression(local, rhs, line_no, at)
            elif head in ("endsubst", "endcover"):
                blocks, local = (), None
            else:
                name, opts = _parse_check(words, line_no)
                tf.checks[name] = opts
        except TheoryError as exc:
            if isinstance(exc, ParseError):
                raise
            # at the word the error names, else at the name the line declares
            about = [col for w, col in words[1:] if w in str(exc).split()]
            about.append(words[min(1, len(words) - 1)][1])
            raise ParseError(str(exc), line_no, about[0]) from exc
    return tf


def _optional_int(words: list, default: int, pattern: str, what: str, line_no: int) -> int:
    """The INT of a line's optional `[KEY INT]` tail, or the default."""
    value, col = words[3] if len(words) == 4 else (str(default), 0)
    if not re.fullmatch(pattern, value):
        raise ParseError(f"{words[0][0]} {words[2][0]} must be {what}, got {value!r}", line_no, col)
    return int(value)


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


def _parse_check(words: list[tuple[str, int]], line_no: int) -> tuple[str, dict]:
    """The name and options of a `check NAME KIND key=value ...` line, with
    each key its kind needs present, every key one its kind reads, and each
    value its kind checks well-formed."""
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


def build_cover(block: CoverBlock):
    """Instantiate a CoverNerve from a parsed cover block."""
    from .thomwhitney import CoverNerve
    nerve = CoverNerve(dict(block.charts), dimension_bound=block.bound)
    for names, th, maps, mu in block.overlaps:
        nerve.declare_overlap(frozenset(names), th, maps, mu=mu)
    return nerve
