"""Exact graded-supercommutative expression engine.

An expression is a finite sum of terms; a term is an exact rational
coefficient (an int when integral, else a Fraction), a product of even
ghost-0 coefficient atoms (function symbols, log, pow) and a monomial over
graded symbols in the theory's canonical order.  Odd symbols (parity +
form degree odd) square to zero and reordering tracks the Koszul sign.
Everything is immutable.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coefficients import AffineExponent, Atom, FuncAtom, LogAtom, PowerAtom, Rat, rational
from .symbols import EVEN, GradedSymbol, Kind, Theory, TheoryError

Mono = tuple[tuple[GradedSymbol, int], ...]
Atoms = tuple[tuple[Atom, int], ...]
RawTerm = tuple[Rat, Sequence[tuple[Atom, int]], Sequence[tuple[GradedSymbol, int]]]


class GradingError(TheoryError):
    pass


def _atoms_key(atoms: Atoms) -> tuple:
    return tuple((a.key(), e) for a, e in atoms)


def _term_key(theory: Theory, atoms: Atoms, mono: Mono) -> tuple:
    """Canonical term order: the atom keys, then the monomial's sort keys.
    Flat, (atom keys, sort key, exponent, sort key, exponent, ...) with the
    symbol's cached (kind, rank, jet) tuple as its sort key: every symbol
    adds exactly two fields, the i-th symbol's at 1 + 2*i, so it orders like
    the nested (atom keys, (sort key, exponent), ...) and costs one tuple."""
    key = [_atoms_key(atoms)]
    for s, e in mono:
        key.append(theory.sort_key(s))
        key.append(e)
    return tuple(key)


class Term:
    """One canonical term; `key` is its `_term_key`, set when it is built.
    Every coefficient passes through here and is stored in canonical form
    (`coefficients.rational`): an int when integral, else a Fraction."""

    __slots__ = ("coef", "atoms", "mono", "key")

    def __init__(self, coef: Rat, atoms: Atoms, mono: Mono, key: tuple):
        self.coef = coef if coef.__class__ is int else rational(coef)
        self.atoms = atoms
        self.mono = mono
        self.key = key

    def sign_degree(self) -> int:
        return sum(s.sign_degree * e for s, e in self.mono) % 2

    def ghost(self) -> int:
        return sum(s.ghost * e for s, e in self.mono)

    def parity(self) -> int:
        return sum(s.parity * e for s, e in self.mono) % 2

    def form_degree(self) -> int:
        return sum(s.form_degree * e for s, e in self.mono)


class Expression:
    """Canonical sum of Koszul-signed terms over one theory context."""

    __slots__ = ("theory", "terms")

    def __init__(self, theory: Theory, terms: tuple[Term, ...]):
        self.theory = theory
        self.terms = terms

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(theory: Theory) -> "Expression":
        return Expression(theory, ())

    @staticmethod
    def const(theory: Theory, q) -> "Expression":
        q = rational(q)
        if q == 0:
            return Expression.zero(theory)
        return _single(theory, q, (), ())

    @staticmethod
    def symbol(theory: Theory, s: GradedSymbol, power: int = 1) -> "Expression":
        if power < 0:
            raise TheoryError(f"negative exponent on {s.name}")
        if power != 1:
            if power and s.sign_degree:
                return Expression.zero(theory)
            return _single(theory, 1, (), ((s, power),) if power else ())
        # interned per theory like the symbols: products reuse its (s, 1) pair
        unit = theory._units.get(s)
        if unit is None:
            unit = theory._units[s] = _single(theory, 1, (), ((s, 1),))
        return unit

    @staticmethod
    def of(theory: Theory, name: str, jet: int = 0) -> "Expression":
        return Expression.symbol(theory, theory.symbol(name, jet))

    @staticmethod
    def func(theory: Theory, name: str, deriv: Sequence[str] = ()) -> "Expression":
        theory.function(name)
        atom = FuncAtom(name, tuple(sorted(deriv)))
        return _single(theory, 1, ((atom, 1),), ())

    @staticmethod
    def sum(theory: Theory, pieces: Iterable) -> "Expression":
        """Canonical sum of expressions (ints and Fractions are coerced) in
        one pass; the way to accumulate, where `out = out + piece` in a loop
        would re-merge the growing sum once per piece."""
        terms: list[Term] = []
        for p in pieces:
            terms.extend(_coerce(theory, p).terms)
        return Expression(theory, _merge_runs(terms))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Expression") -> "Expression":
        other = _coerce(self.theory, other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Expression(self.theory, _merge_two(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Expression":
        return Expression(self.theory,
                          tuple(Term(-t.coef, t.atoms, t.mono, t.key) for t in self.terms))

    def __sub__(self, other) -> "Expression":
        return self + (-_coerce(self.theory, other))

    def __rsub__(self, other) -> "Expression":
        return _coerce(self.theory, other) + (-self)

    def __mul__(self, other) -> "Expression":
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            if q == 0:
                return Expression.zero(self.theory)
            if q == 1:
                return self
            return Expression(self.theory,
                              tuple(Term(t.coef * q, t.atoms, t.mono, t.key)
                                    for t in self.terms))
        other = _coerce(self.theory, other)
        return Expression(self.theory, _product(self.theory, self.terms, other.terms))

    def __rmul__(self, other) -> "Expression":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return _coerce(self.theory, other).__mul__(self)

    def __pow__(self, n: int) -> "Expression":
        if n < 0:
            raise TheoryError("negative expression power; use inverse()")
        out = Expression.const(self.theory, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Expression.const(self.theory, other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.key() == other.key()

    def key(self) -> tuple:
        return tuple((t.coef, _atoms_key(t.atoms),
                      tuple(((s.name, s.jet_order), e) for s, e in t.mono))
                     for t in self.terms)

    def is_structural_zero(self) -> bool:
        return not self.terms

    # -- grading ----------------------------------------------------------

    def grade(self):
        """(ghost, parity, form_degree) common to all terms, else None."""
        if not self.terms:
            return (0, EVEN, 0)
        g = (self.terms[0].ghost(), self.terms[0].parity(), self.terms[0].form_degree())
        for t in self.terms[1:]:
            if (t.ghost(), t.parity(), t.form_degree()) != g:
                return None
        return g

    def sign_degree(self) -> Optional[int]:
        if not self.terms:
            return 0
        s = self.terms[0].sign_degree()
        for t in self.terms[1:]:
            if t.sign_degree() != s:
                return None
        return s

    def sigma_parts(self) -> list[tuple[int, "Expression"]]:
        """Split into (sign_degree, homogeneous part)."""
        buckets: dict[int, list[Term]] = {}
        for t in self.terms:
            buckets.setdefault(t.sign_degree(), []).append(t)
        return [(s, Expression(self.theory, tuple(ts))) for s, ts in sorted(buckets.items())]

    # -- structure queries --------------------------------------------------

    def symbols(self) -> set[GradedSymbol]:
        out = set()
        for t in self.terms:
            for s, _ in t.mono:
                out.add(s)
        return out

    def constant_part(self) -> Rat:
        for t in self.terms:
            if not t.mono and not t.atoms:
                return t.coef
        return 0

    def __repr__(self) -> str:
        from .printer import render
        return render(self)


def _coerce(theory: Theory, v) -> Expression:
    if isinstance(v, Expression):
        if v.theory is not theory:
            raise TheoryError("mixed theory contexts")
        return v
    if isinstance(v, (int, Fraction)):
        return Expression.const(theory, v)
    raise TypeError(f"cannot coerce {v!r} to Expression")


# -- atom base interning ---------------------------------------------------


def intern_base(expr: Expression) -> str:
    """Register an even ghost-0 polynomial expression as a log/pow base."""
    if expr.is_structural_zero():
        raise TheoryError("log/pow/inverse of zero")
    g = expr.grade()
    if g is None or g != (0, EVEN, 0):
        raise GradingError("log/pow/inverse argument must be even, ghost 0, form 0")
    for t in expr.terms:
        for a, _ in t.atoms:
            if not isinstance(a, FuncAtom):
                raise TheoryError("log/pow base must be polynomial (no nested log/pow)")
        for s, _ in t.mono:
            if s.jet_order != 0:
                raise TheoryError("log/pow base must depend on 0-jets only")
            if s.sign_degree != 0:
                raise TheoryError("log/pow base must be built from even generators")
    from .printer import render
    key = render(expr)
    expr.theory._atom_bases.setdefault(key, expr)
    return key


def base_expression(theory: Theory, key: str) -> Expression:
    base = theory._atom_bases.get(key)
    if base is None:
        raise TheoryError(f"unknown atom base: {key}")
    return base


def _clear_denominators(expr: Expression):
    """(cleared, multiplier): cleared = expr * multiplier is free of
    negative integer powers; multiplier is a product of pow atoms."""
    need: dict[str, int] = {}
    for t in expr.terms:
        for a, _ in t.atoms:
            if isinstance(a, PowerAtom) and a.exponent.is_constant:
                n = a.exponent.constant_value()
                if n < 0 and isinstance(n, int):
                    need[a.base_key] = max(need.get(a.base_key, 0), -n)
    if not need:
        return expr, None
    extra = tuple((PowerAtom(k, AffineExponent.const(n)), 1)
                  for k, n in sorted(need.items()))
    cleared = Expression(expr.theory, _merge_runs(
        [c for t in expr.terms
         for c in _normalize_term(expr.theory, t.coef, t.atoms + extra, t.mono)]))
    return cleared, extra


def power_of(expr: Expression, exponent) -> Expression:
    """pow(expr, exponent) as an expression (merges trivial cases; an
    argument with inverse powers is cleared first, so rational-function
    pivots stay in the fraction field)."""
    exp = AffineExponent.of(exponent)
    theory = expr.theory
    if exp.is_constant:
        n = exp.constant_value()
        if n == 0:
            return Expression.const(theory, 1)
        if isinstance(n, int) and n >= 1:
            return expr ** n
        if isinstance(n, int) and n < 0:
            cleared, extra = _clear_denominators(expr)
            if extra is not None:
                out = power_of(cleared, n)
                mult = Expression(theory, _normalize_term(theory, 1, extra, ()))
                for _ in range(-n):
                    out = out * mult
                return out
    key = intern_base(expr)
    atom = PowerAtom(key, exp)
    return _single(theory, 1, ((atom, 1),), ())


def inverse_of(expr: Expression) -> Expression:
    return power_of(expr, -1)


def log_of(expr: Expression) -> Expression:
    key = intern_base(expr)
    return _single(expr.theory, 1, ((LogAtom(key), 1),), ())


# -- normalization ----------------------------------------------------------


def _single_symbol_base(theory: Theory, key: str) -> Optional[GradedSymbol]:
    """s when the pow base `key` is one unit generator s: coefficient 1, no
    atom, s at exponent 1; else None."""
    terms = base_expression(theory, key).terms
    if len(terms) == 1:
        t = terms[0]
        if t.coef == 1 and not t.atoms and len(t.mono) == 1 and t.mono[0][1] == 1:
            return t.mono[0][0]
    return None


def _normalize_term(theory: Theory, coef: Rat, atoms: Sequence[tuple[Atom, int]],
                    mono: Mono) -> tuple[Term, ...]:
    """Fold the atoms of a term whose monomial is canonical: equal atoms add
    exponents, and so do pow atoms of one base; a single-symbol base folds
    into its even symbol, and a compound base at a positive integer power is
    multiplied out.  Returns the canonical terms, sorted by key."""
    if coef == 0:
        return ()
    counts: dict[tuple, list] = {}
    powers: dict[str, AffineExponent] = {}
    for a, e in atoms:
        if e == 0:
            continue
        if isinstance(a, PowerAtom):
            cur = powers.get(a.base_key, AffineExponent.const(0))
            add = a.exponent
            for _ in range(e):
                cur = cur + add
            powers[a.base_key] = cur
        else:
            k = a.key()
            if k in counts:
                counts[k][1] += e
            else:
                counts[k] = [a, e]

    # a single-symbol base takes its symbol's exponent out of the monomial
    # (removing an even factor keeps the order); a positive integer
    # power comes back in as a product
    mono_d = dict(mono)
    factors: list[Expression] = []
    final_powers: list[tuple[Atom, int]] = []
    for key in sorted(powers):
        exp = powers[key]
        s = _single_symbol_base(theory, key)
        if s is not None and s in mono_d:
            exp = exp + mono_d.pop(s)
        if exp.is_constant:
            n = exp.constant_value()
            if n == 0:
                continue
            if isinstance(n, int) and n >= 1:
                factors.append(Expression.symbol(theory, s, n) if s is not None
                               else base_expression(theory, key) ** n)
                continue
        final_powers.append((PowerAtom(key, exp), 1))

    atom_list = sorted([(a, e) for a, e in counts.values()] + final_powers,
                       key=lambda ae: ae[0].key())
    out = _single(theory, coef, tuple(atom_list), tuple(mono_d.items()))
    for f in factors:
        out = out * f
    return out.terms


# The one accumulator: sums of canonical expressions merge their key-sorted
# term tuples, two operands by a pairwise merge (about twice as fast as
# `_merge_runs` on the 1-6-term operands of most additions), many by
# `_merge_runs`.


def _merge_two(a: Sequence[Term], b: Sequence[Term]) -> tuple[Term, ...]:
    """Merge two key-sorted canonical term tuples, adding equal keys."""
    out: list[Term] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        kx, ky = x.key, y.key
        if kx < ky:
            out.append(x)
            i += 1
        elif ky < kx:
            out.append(y)
            j += 1
        else:
            c = x.coef + y.coef
            if c:
                out.append(Term(c, x.atoms, x.mono, kx))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


_KEY = attrgetter("key")


def _merge_runs(terms: list[Term]) -> tuple[Term, ...]:
    """Canonical sum of a list of canonical terms: a stable sort on the
    keys (timsort merges a concatenation of k sorted runs in O(n log k)),
    then one pass adding equal keys."""
    terms.sort(key=_KEY)
    out: list[Term] = []
    prev = None
    for t in terms:
        k = t.key
        if k == prev:
            last = out[-1]
            out[-1] = Term(last.coef + t.coef, last.atoms, last.mono, k)
        else:
            out.append(t)
            prev = k
    return tuple(t for t in out if t.coef)


def _single(theory: Theory, coef, atoms: Atoms, mono: Mono) -> Expression:
    """The expression of one term that is canonical as written."""
    return Expression(theory, (Term(coef, atoms, mono, _term_key(theory, atoms, mono)),))


# Products of canonical terms.  Two terms multiply by merging: their atom
# tuples by atom key (equal atoms add exponents) and their monomials by sort
# key, where a symbol in both factors adds exponents if even and kills the
# product if odd.  The Koszul sign of sorting t1.mono + t2.mono is the
# parity of crossings: each odd symbol of t2 crosses the odd symbols of t1
# not yet placed.  This crossing count is the engine's one Koszul sign.  The
# merged product is canonical unless `_collides` finds a pow atom twice, two
# pow atoms of one base, or a single-symbol pow base beside its own symbol:
# no canonical term holds any of these, so only the product can, and
# `_normalize_term` folds it (single-symbol pow bases into the monomial,
# compound integer powers multiplied out).  The term order is not
# multiplicative (x < y but x*x > x*y), so the products are sorted once by
# `_merge_runs` rather than heap-merged.  `_merge_pair` is the one term
# product: it reads both factors in place, so a unit generator (dt_i, u,
# eps, t_j, a raised jet) is a run of length one.


def _collides(theory: Theory, t: Term) -> bool:
    """Whether the merged product t of two canonical terms needs
    `_normalize_term`.  Atom keys of pow atoms start with 2, so pow atoms
    sort last, those of one base next to each other, and a term whose last
    atom is no pow atom is canonical."""
    atoms = t.atoms
    if not (atoms and isinstance(atoms[-1][0], PowerAtom)):
        return False
    prev = None
    for a, e in reversed(atoms):
        if not isinstance(a, PowerAtom):
            return False
        if e > 1 or a.base_key == prev:
            return True
        prev = a.base_key
        s = _single_symbol_base(theory, prev)
        if s is not None and any(x is s for x, _ in t.mono):
            return True
    return False


def _merge_atoms(a1: Atoms, k1: tuple, a2: Atoms, k2: tuple) -> tuple[Atoms, tuple]:
    """Merge two canonical atom tuples and their atom keys."""
    atoms: list = []
    keys: list = []
    i = j = 0
    n1, n2 = len(a1), len(a2)
    while i < n1 and j < n2:
        x, y = k1[i][0], k2[j][0]
        if x < y:
            atoms.append(a1[i])
            keys.append(k1[i])
            i += 1
        elif y < x:
            atoms.append(a2[j])
            keys.append(k2[j])
            j += 1
        else:
            e = a1[i][1] + a2[j][1]
            atoms.append((a1[i][0], e))
            keys.append((x, e))
            i += 1
            j += 1
    atoms += a1[i:]
    atoms += a2[j:]
    keys += k1[i:]
    keys += k2[j:]
    return tuple(atoms), tuple(keys)


def _merge_pair(coef, t1: Term, odd_left: int, t2: Term) -> Optional[Term]:
    """The merged product of two canonical terms, with coefficient `coef`
    before the Koszul sign, before any atom fold; None when it vanishes.
    `odd_left` counts t1's odd symbols.  A two-way merge of the monomials
    in place, reading the i-th symbol's sort key at key[1 + 2*i]."""
    if not t2.atoms:
        atoms, akey = t1.atoms, t1.key[0]
    elif not t1.atoms:
        atoms, akey = t2.atoms, t2.key[0]
    else:
        atoms, akey = _merge_atoms(t1.atoms, t1.key[0], t2.atoms, t2.key[0])
    m1, m2, k1, k2 = t1.mono, t2.mono, t1.key, t2.key
    if not m2:
        return Term(coef, atoms, m1, k1 if akey is k1[0] else (akey,) + k1[1:])
    if not m1:
        return Term(coef, atoms, m2, k2 if akey is k2[0] else (akey,) + k2[1:])
    mono: list = []
    key: list = [akey]
    negative = False
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        se1, se2 = m1[i], m2[j]
        s1, s2 = se1[0], se2[0]
        if s1 is s2:
            if s1.sign_degree:
                return None
            e = se1[1] + se2[1]
            mono.append((s1, e))
            key += (k1[1 + 2 * i], e)
            i += 1
            j += 1
        else:
            x, y = k1[1 + 2 * i], k2[1 + 2 * j]
            if x < y:
                mono.append(se1)
                key += (x, se1[1])
                odd_left -= s1.sign_degree
                i += 1
            else:
                mono.append(se2)
                key += (y, se2[1])
                if s2.sign_degree and odd_left & 1:
                    negative = not negative
                j += 1
    mono += m1[i:]
    key += k1[1 + 2 * i:]
    mono += m2[j:]
    key += k2[1 + 2 * j:]
    return Term(-coef if negative else coef, atoms, tuple(mono), tuple(key))


def _form_rows(form: Sequence[Term]) -> tuple[tuple[Term, ...], tuple[tuple, ...]]:
    """A form whose terms hold only simplex generators (t_i, dt_i) and no
    atom, prepared for `_splice_forms`: (its terms, and per term its
    coefficient, monomial, key fields after the atom key, and the parity of
    its odd symbols)."""
    return tuple(form), tuple((t.coef, t.mono, t.key[1:],
                               sum(s.sign_degree for s, _ in t.mono) & 1) for t in form)


def _splice_forms(theory: Theory, form: tuple, value: Sequence[Term]) -> list[Term]:
    """The terms of form * value, before they are summed, for a form laid
    out by `_form_rows`.  A value term without a simplex generator has none
    of the form's symbols, so each form term's monomial goes whole into the
    slot where the value term's first symbol of kind >= SIMPLEX_T would
    start, its key fields likewise, the atoms are the value term's, and the
    sign is the parity of the form term's odd symbols times that of the
    value's odd symbols before the slot.  A spliced term is folded when it
    `_collides`, as a simplex generator meets its single-symbol pow base.
    A value term with a simplex generator in its monomial is multiplied by
    `_product`."""
    terms, rows = form
    out: list[Term] = []
    for t in value:
        mono, key = t.mono, t.key
        n = len(mono)
        i = odd = 0
        while i < n and key[1 + 2 * i][0] < Kind.SIMPLEX_T:
            odd += mono[i][0].sign_degree
            i += 1
        if i < n and key[1 + 2 * i][0] <= Kind.SIMPLEX_DT:
            out += _product(theory, terms, (t,))
            continue
        head_m, tail_m = mono[:i], mono[i:]
        head_k, tail_k = key[:1 + 2 * i], key[1 + 2 * i:]
        for coef, fm, fk, fodd in rows:
            coef *= t.coef
            p = Term(-coef if fodd and odd & 1 else coef, t.atoms,
                     head_m + fm + tail_m, head_k + fk + tail_k)
            if _collides(theory, p):
                out += _normalize_term(theory, p.coef, p.atoms, p.mono)
            else:
                out.append(p)
    return out


def _product(theory: Theory, left: Sequence[Term], right: Sequence[Term]) -> tuple[Term, ...]:
    """Canonical product of two canonical term tuples: every pair of terms
    through `_merge_pair`, a product that `_collides` folded by
    `_normalize_term`, then one `_merge_runs`."""
    out: list[Term] = []
    for t1 in left:
        odd1 = sum(s.sign_degree for s, _ in t1.mono)
        for t2 in right:
            t = _merge_pair(t1.coef * t2.coef, t1, odd1, t2)
            if t is None:
                continue
            if _collides(theory, t):
                out += _normalize_term(theory, t.coef, t.atoms, t.mono)
            else:
                out.append(t)
    return _merge_runs(out)


# The bracket's multiply-accumulate.  A Soloviev bracket is a double sum of
# products whose pairs collapse onto few monomials, so its pairs are summed
# on packed keys and only the surviving monomials become terms.  Each
# distinct operand's terms are packed once per call into one int: the
# exponent of every even symbol and of every atom in a fixed-width field
# sized from the call's largest exponent (so two exponents add without a
# carry), and above those fields a bitmask of the odd symbols in canonical
# order.  A pair with a common odd bit vanishes.  Otherwise its product's
# key is the sum of the keys, and its Koszul sign is `_merge_pair`'s
# crossing count taken on the masks: the parity of the pairs of an odd bit
# of the left term above an odd bit of the right one.  Each surviving
# monomial is built by `_merge_pair` from the first pair that produced it.
# The key holds a pow atom like any atom, so every pair of a key merges to
# the same product, which `_collides` tests and `_normalize_term` folds
# once for all of them.


def _pack(terms: Sequence[Term], fields: dict, width: int, bits: dict) -> list[tuple]:
    """One row per term: (packed key, odd mask, below, coef, term),
    where bit i of `below` is the parity of the term's odd bits under i."""
    rows = []
    odd_shift = len(fields) * width
    for t in terms:
        key = mask = below = 0
        for s, e in t.mono:
            if s.sign_degree:
                j = bits[s]
                mask |= 1 << j
                below ^= ~((2 << j) - 1)
            else:
                key += e << (fields[s] * width)
        for ak, e in t.key[0]:
            key += e << (fields[ak] * width)
        rows.append((key + (mask << odd_shift), mask, below, t.coef, t))
    return rows


def _multiply_accumulate(theory: Theory, jobs: Sequence[tuple]) -> tuple[Term, ...]:
    """The canonical sum of sign * left * right over the jobs (left terms,
    right terms, sign +-1); equal to summing the signed `_product`s."""
    if not jobs:
        return ()
    operands = {}
    for left, right, _ in jobs:
        operands[id(left)] = left
        operands[id(right)] = right
    fields: dict = {}
    odd: set = set()
    top = 1
    for terms in operands.values():
        for t in terms:
            for s, e in t.mono:
                if s.sign_degree:
                    odd.add(s)
                else:
                    fields.setdefault(s, len(fields))
                    if e > top:
                        top = e
            for ak, e in t.key[0]:
                fields.setdefault(ak, len(fields))
                if e > top:
                    top = e
    width = (2 * top).bit_length()
    bits = {s: j for j, s in enumerate(sorted(odd, key=theory.sort_key))}
    rows = {i: _pack(terms, fields, width, bits) for i, terms in operands.items()}

    acc: dict[int, list] = {}
    for left, right, sign in jobs:
        right_rows = rows[id(right)]
        for k1, o1, _, c1, t1 in rows[id(left)]:
            c1 *= sign
            for k2, o2, below2, c2, t2 in right_rows:
                if o1 & o2:
                    continue
                negative = (o1 & below2).bit_count() & 1
                c = -c1 * c2 if negative else c1 * c2
                k = k1 + k2
                got = acc.get(k)
                if got is None:
                    acc[k] = [c, negative, t1, o1, t2]
                else:
                    got[0] += c
    out: list[Term] = []
    for c, negative, t1, o1, t2 in acc.values():
        if c:
            # _merge_pair applies the first pair's sign to what it is given
            t = _merge_pair(-c if negative else c, t1, o1.bit_count(), t2)
            if _collides(theory, t):
                out += _normalize_term(theory, t.coef, t.atoms, t.mono)
            else:
                out.append(t)
    return _merge_runs(out)


def normalize(theory: Theory, raw: Iterable[RawTerm]) -> Expression:
    """Public entry: canonical form of a list of signed raw monomials.  Each
    monomial is multiplied out symbol by symbol, so the product gives its
    Koszul sign; its atoms are folded once, all together, so that exponents
    of one pow base add before an integer power is multiplied out."""
    terms: list[Term] = []
    for coef, atoms, mono in raw:
        product = Expression.const(theory, coef)
        for s, e in mono:
            product = product * Expression.symbol(theory, s, e)
        for t in product.terms:
            terms += _normalize_term(theory, t.coef, atoms, t.mono)
    return Expression(theory, _merge_runs(terms))


# -- derivatives -------------------------------------------------------------

# Lowering one exponent of a canonical term, or removing a factor, keeps it
# canonical: the remaining factors stay in order.  These build the result
# from the term's own key, where the i-th symbol's two fields sit at 1 + 2*i.


def _lower_symbol(t: Term, i: int, coef) -> Term:
    """t with coefficient `coef` and the exponent of its i-th symbol lowered
    by one (the symbol dropped at exponent 1)."""
    s, e = t.mono[i]
    k, at = t.key, 1 + 2 * i
    if e > 1:
        return Term(coef, t.atoms, t.mono[:i] + ((s, e - 1),) + t.mono[i + 1:],
                    k[:at + 1] + (e - 1,) + k[at + 2:])
    return Term(coef, t.atoms, t.mono[:i] + t.mono[i + 1:], k[:at] + k[at + 2:])


def _lower_atom(t: Term, j: int, coef) -> Term:
    """t with coefficient `coef` and the exponent of its j-th atom lowered by
    one (the atom dropped at exponent 1)."""
    a, e = t.atoms[j]
    ak = t.key[0]
    if e > 1:
        atoms = t.atoms[:j] + ((a, e - 1),) + t.atoms[j + 1:]
        akey = ak[:j] + ((ak[j][0], e - 1),) + ak[j + 1:]
    else:
        atoms = t.atoms[:j] + t.atoms[j + 1:]
        akey = ak[:j] + ak[j + 1:]
    return Term(coef, atoms, t.mono, (akey,) + t.key[1:])


def split_powers(expr: Expression, sym: GradedSymbol) -> dict[int, Expression]:
    """{n: c_n} with expr = sum_n c_n sym^n and each c_n free of sym, keyed
    in order of first appearance.  sym is even or sorts after every other
    symbol (u, eps), so taking it out of a term takes no sign; dropping it
    and its two key fields keeps the term canonical, but the shorter keys
    may reorder a part, so each part is sorted again."""
    parts: dict[int, list[Term]] = {}
    for t in expr.terms:
        i = next((j for j, (s, _) in enumerate(t.mono) if s is sym), None)
        if i is None:
            parts.setdefault(0, []).append(t)
        else:
            parts.setdefault(t.mono[i][1], []).append(Term(
                t.coef, t.atoms, t.mono[:i] + t.mono[i + 1:],
                t.key[:1 + 2 * i] + t.key[3 + 2 * i:]))
    return {n: Expression(expr.theory, _merge_runs(ts)) for n, ts in parts.items()}


def _atom_gradient(theory: Theory, atom: Atom) -> dict[GradedSymbol, Expression]:
    """{s: d(atom)/ds} over the symbols s the atom depends on, nonzero
    entries only: the 0-jet symbols of its arguments or base, and the flow
    parameter of a pow exponent (d/dtau pow(E, a*tau + b) = a*log(E)*pow(E,
    a*tau + b)).  This is the one place an atom is differentiated; every
    derivation reads it through `_atom_partials`.  Memoized per theory in an
    append-only table, keyed by the atom alone because the entries are read
    off the atom's own argument list, base and exponent, never off the
    theory's field list, so a field registered later cannot belong to an
    atom already in the table.  Atoms are even, so no Koszul bookkeeping is
    needed here."""
    key = atom.key()
    grad = theory._atom_gradients.get(key)
    if grad is not None:
        return grad
    if isinstance(atom, FuncAtom):
        grad = {theory.symbol(arg): _single(theory, 1, ((atom.differentiated(arg), 1),), ())
                for arg in theory.function(atom.func).args}
    else:
        base = base_expression(theory, atom.base_key)
        # a base is a polynomial in 0-jets and function symbols
        deps = {s for t in base.terms for s, _ in t.mono}
        for t in base.terms:
            for a, _ in t.atoms:
                deps.update(_atom_gradient(theory, a))
        grad = {}
        outer = None
        for s in sorted(deps, key=theory.sort_key):
            dbase = partial_derivative(base, s)
            if not dbase.is_structural_zero():
                if outer is None:
                    outer = _outer_derivative(theory, atom)
                grad[s] = outer * dbase
        tau = atom.exponent.param if isinstance(atom, PowerAtom) else None
        if tau is not None:
            # the log(E) term is nonzero and the base's share holds no log(E)
            d = _single(theory, atom.exponent.slope, ((LogAtom(atom.base_key), 1), (atom, 1)), ())
            grad[tau] = grad[tau] + d if tau in grad else d
    theory._atom_gradients[key] = grad
    return grad


def _outer_derivative(theory: Theory, atom: Atom) -> Expression:
    """The chain-rule factor of a log or pow atom: d(atom) = factor * d(base)
    for any derivation d."""
    if isinstance(atom, LogAtom):
        return inverse_of(base_expression(theory, atom.base_key))
    # pow(E, r): r * pow(E, r-1) * dE
    r = atom.exponent
    shifted = Expression(theory, _normalize_term(
        theory, 1, ((PowerAtom(atom.base_key, r - 1), 1),), ()))
    lin = Expression.const(theory, r.offset)
    if r.param is not None and r.slope != 0:
        lin = lin + Expression.symbol(theory, r.param) * r.slope
    return lin * shifted


def _is_jet(s: GradedSymbol) -> bool:
    return s.kind in (Kind.FIELD_JET, Kind.ANTIFIELD_JET)


def _atom_partials(theory: Theory, t: Term, keep: Callable[[GradedSymbol], bool],
                   coef) -> Iterator[tuple[GradedSymbol, tuple[Term, ...]]]:
    """(s, terms) per atom of t and per generator s with keep(s) that the
    atom depends on: the chain-rule share of d/ds of t, with t's coefficient
    replaced by `coef`.  This is the one reader of `_atom_gradient`; atoms
    are even, so no sign enters."""
    for j, (a, e) in enumerate(t.atoms):
        head = None
        for s, da in _atom_gradient(theory, a).items():
            if keep(s):
                if head is None:
                    head = (_lower_atom(t, j, coef * e),)
                yield s, _product(theory, head, da.terms)


def _gradient(expr: Expression, keep: Callable[[GradedSymbol], bool]) -> dict[GradedSymbol, Expression]:
    """{s: graded left partial d(expr)/ds} for every generator s with keep(s)
    and a nonzero partial, in one pass over the terms.  This is the one place
    a symbol is lowered with its Koszul prefix sign: an odd symbol has
    exponent 1 and passes the odd symbols before it, an even one brings down
    its exponent.  Atoms follow by the chain rule, `_atom_partials`, so for
    a flow parameter this is the full d/dtau, pow exponents included.  Every
    derivation reads it."""
    theory = expr.theory
    acc: dict[GradedSymbol, list[Term]] = {}
    for t in expr.terms:
        prefix = 0
        for i, (sym, e) in enumerate(t.mono):
            sd = sym.sign_degree
            if keep(sym):
                coef = -t.coef if sd == 1 and prefix % 2 else t.coef * e
                acc.setdefault(sym, []).append(_lower_symbol(t, i, coef))
            prefix += sd * e
        if t.atoms:
            for s, terms in _atom_partials(theory, t, keep, t.coef):
                acc.setdefault(s, []).extend(terms)
    out: dict[GradedSymbol, Expression] = {}
    for s, ts in acc.items():
        merged = _merge_runs(ts)
        if merged:
            out[s] = Expression(theory, merged)
    return out


def partial_derivative(expr: Expression, s: GradedSymbol) -> Expression:
    """Graded left partial derivative with respect to any generator; for a
    flow parameter this is the full d/dtau, pow exponents included."""
    d = _gradient(expr, lambda x: x is s).get(s)
    return Expression.zero(expr.theory) if d is None else d


def jet_gradient(expr: Expression) -> dict[GradedSymbol, Expression]:
    """{s: partial_derivative(expr, s)} for every field or antifield jet s
    with a nonzero partial."""
    return _gradient(expr, _is_jet)


def jet_partial(expr: Expression, s: GradedSymbol) -> Expression:
    """partial() restricted to jet symbols, per the public contract."""
    if not _is_jet(s):
        raise TheoryError(f"partial expects a jet symbol, got {s.name}")
    return partial_derivative(expr, s)


def total_derivative(expr: Expression) -> Expression:
    """Total t-derivative D = sum over jets s of s_{+1} d/ds: raises jet
    orders by one; kills constants, flow parameters and simplex generators.

    One pass over the terms, then one `_merge_runs`.  A jet s_k at exponent
    e in slot i becomes e * s_k^(e-1) * s_{k+1} in place: the sort key of
    s_{k+1} is (kind, rank, k+1), right after s_k's, so no symbol lies
    between them, and D is even, so no sign enters.  If slot i+1 already
    holds s_{k+1}, its exponent rises by one (even) or the term vanishes
    (odd).  The atoms' share is `_atom_partials`' times s_{+1}, by
    `_product`."""
    theory = expr.theory
    out: list[Term] = []
    for t in expr.terms:
        mono, key, coef = t.mono, t.key, t.coef
        n = len(mono)
        # jets sort first, kinds FIELD_JET and ANTIFIELD_JET
        for i, (s, e) in enumerate(mono):
            if s.kind > Kind.ANTIFIELD_JET:
                break
            b = theory.jet_bump(s)
            # s_k^(e-1), if e > 1, then s_{k+1}^f in slots i to j - 1
            f, j = 1, i + 1
            if j < n and mono[j][0] is b:
                if b.sign_degree:
                    continue
                f += mono[j][1]
                j += 1
            at = 1 + 2 * i
            if e > 1:
                out.append(Term(coef * e, t.atoms, mono[:i] + ((s, e - 1), (b, f)) + mono[j:],
                                key[:at + 1] + (e - 1, theory.sort_key(b), f) + key[1 + 2 * j:]))
            else:
                out.append(Term(coef, t.atoms, mono[:i] + ((b, f),) + mono[j:],
                                key[:at] + (theory.sort_key(b), f) + key[1 + 2 * j:]))
        if t.atoms:
            for s, terms in _atom_partials(theory, t, _is_jet, coef):
                out += _product(theory, Expression.symbol(theory, theory.jet_bump(s)).terms,
                                terms)
    return Expression(theory, _merge_runs(out))


def iterated_total(expr: Expression, k: int) -> Expression:
    """D^k(expr); D^0 is the identity, and a negative order is refused."""
    if k < 0:
        raise TheoryError(f"negative total-derivative order {k}")
    for _ in range(k):
        expr = total_derivative(expr)
    return expr


def substitute_param(expr: Expression, param: GradedSymbol, value) -> Expression:
    """Evaluate a flow parameter at an exact rational value; refuses a
    log/pow base that mentions the parameter, which it cannot evaluate."""
    value = rational(value)
    terms: list[Term] = []
    for t in expr.terms:
        coef = t.coef
        mono = []
        for sym, e in t.mono:
            if sym is param:
                coef *= value ** e
            else:
                mono.append((sym, e))
        atoms = []
        for a, e in t.atoms:
            if not isinstance(a, FuncAtom) and \
                    param in base_expression(expr.theory, a.base_key).symbols():
                raise TheoryError(f"cannot evaluate {param.name} inside the base of {a}")
            if isinstance(a, PowerAtom) and a.exponent.param is param:
                atoms.append((PowerAtom(a.base_key, a.exponent.substitute(value)), e))
            else:
                atoms.append((a, e))
        # dropping an even symbol keeps the monomial canonical
        terms += _normalize_term(expr.theory, coef, atoms, tuple(mono))
    return Expression(expr.theory, _merge_runs(terms))


def odd_derivation(expr: Expression, images: dict[GradedSymbol, Expression]) -> Expression:
    """The odd derivation X = sum_s images[s] d/ds (graded left partials):
    each key symbol goes to its image and every other generator to zero;
    atoms follow by the chain rule.  Each image must be odd relative to its
    key (sign degree |s| + 1), else X is not an odd derivation and
    TheoryError is raised.

    Each image multiplies its partial by `_product`, and one `_merge_runs`
    sums everything."""
    theory = expr.theory
    for s, img in images.items():
        if img.terms and img.sign_degree() != 1 - s.sign_degree:
            raise TheoryError(f"odd_derivation: the image of {s.name} is not odd relative to it")
    out: list[Term] = []
    for s, ds in _gradient(expr, images.__contains__).items():
        out += _product(theory, images[s].terms, ds.terms)
    return Expression(theory, _merge_runs(out))


# -- zero decision -----------------------------------------------------------


def is_zero(expr: Expression) -> bool:
    """Exact zero test; clears integer-power denominators (pow(E, -n)) by
    multiplying through, which is valid since bases are invertible by
    construction."""
    if not expr.terms:
        return True
    cleared, extra = _clear_denominators(expr)
    # clearing only raises exponents, so no negative integer powers remain
    return extra is not None and not cleared.terms


def equal(a: Expression, b: Expression) -> bool:
    return is_zero(a - b)


# -- substitution homomorphisms ----------------------------------------------


def apply_substitution(expr: Expression, images: dict[GradedSymbol, Expression],
                       target: Theory) -> Expression:
    """Algebra homomorphism sending each 0-jet generator to its image and
    commuting with the total derivative (jets map to derivatives of the
    image).  Generators without an image must exist in the target theory
    under the same name; eps and u go to the target's own.  Atoms are
    rebuilt: function symbols require their arguments to map to plain
    coordinates.

    A term with no atoms whose generators all have no image and keep their
    sort key and sign degree in the target is relabeled in place: its
    factors keep their order, so its key and sign stand and no product is
    taken.  Every other term is multiplied out factor by factor.  Whether a
    symbol keeps them is decided once per source and target theory, in the
    target's relabel table; whether it has an image, on each call."""
    source = expr.theory
    terms: list[Term] = []
    jet_cache: dict[tuple[str, int], Expression] = {}
    relabels = target._relabels.get(source)
    if relabels is None:
        relabels = target._relabels[source] = {}

    def namesake(sym: GradedSymbol) -> GradedSymbol:
        """The target's 0-jet symbol of sym's base name, or its own
        structural eps or u."""
        if sym.kind == Kind.EPSILON:
            return target.epsilon
        return target.u if sym.kind == Kind.U_PARAM else target.symbol(sym.base)

    def relabel(sym: GradedSymbol) -> Optional[GradedSymbol]:
        """sym's namesake in the target when sym has no image and keeps its
        sort key and sign degree there, else None."""
        if images and (source.symbol(sym.base) if _is_jet(sym) else sym) in images:
            return None
        got = relabels.get(sym, False)
        if got is False:
            ts = namesake(sym)
            if sym.jet_order and ts.kind == sym.kind:
                ts = target.jet(sym.base, sym.jet_order)
            keeps = ts.sign_degree == sym.sign_degree and \
                target.sort_key(ts) == source.sort_key(sym)
            got = relabels[sym] = ts if keeps else None
        return got

    def image_of(sym: GradedSymbol) -> Expression:
        key = (sym.base, sym.jet_order)
        got = jet_cache.get(key)
        if got is not None:
            return got
        base0 = sym if sym.jet_order == 0 else source.symbol(sym.base, 0)
        img = images.get(base0)
        if img is None:
            img = Expression.symbol(target, namesake(sym))
        val = iterated_total(img, sym.jet_order)
        jet_cache[key] = val
        return val

    for t in expr.terms:
        if not t.atoms:
            mono = []
            for sym, e in t.mono:
                ts = relabel(sym)
                if ts is None:
                    break
                mono.append((ts, e))
            else:
                terms.append(Term(t.coef, (), tuple(mono), t.key))
                continue
        piece = Expression.const(target, t.coef)
        for a, e in t.atoms:
            pa = _map_atom(a, images, source, target)
            for _ in range(e):
                piece = piece * pa
        for sym, e in t.mono:
            if _is_jet(sym):
                val = image_of(sym)
            else:
                img = images.get(sym)
                val = img if img is not None else Expression.symbol(target, namesake(sym))
            for _ in range(e):
                piece = piece * val
        terms.extend(piece.terms)
    return Expression(target, _merge_runs(terms))


def _map_atom(atom: Atom, images, source: Theory, target: Theory) -> Expression:
    if isinstance(atom, FuncAtom):
        decl = source.function(atom.func)
        for arg in decl.args:
            s = source.symbol(arg)
            img = images.get(s)
            if img is not None:
                ts = target.maybe_symbol(arg)
                identity = ts is not None and img == Expression.symbol(target, ts)
                if not identity:
                    raise TheoryError(
                        f"cannot transport function symbol {atom.func} along a "
                        f"substitution moving its argument {arg}")
        target.function(atom.func)
        return _single(target, 1, ((atom, 1),), ())
    base = base_expression(source, atom.base_key)
    new_base = apply_substitution(base, images, target)
    if isinstance(atom, LogAtom):
        return log_of(new_base)
    return power_of(new_base, atom.exponent)


def embed(expr: Expression, target: Theory) -> Expression:
    """Re-normalize an expression in a larger theory sharing symbol names."""
    return apply_substitution(expr, {}, target)
