"""A reference graded-supercommutative jet algebra, written from the
definitions and sharing no code with `bvcov`: it imports nothing from the
package (`test_hygiene.py` checks that), so a sign convention the engine
gets wrong cannot be shared by its oracle.

A generator is a jet variable `(base, k)`: the k-th total derivative of the
field or antifield named `base`, with the parity of its base.  A polynomial
is a dict from monomials to nonzero `Fraction`s, and a monomial is a pair
`(even, odd)`: `even` a sorted tuple of (generator, exponent) pairs and
`odd` a tuple of distinct odd generators in sorted order.  The order is
Python's on the `(base, k)` tuples, unrelated to the engine's canonical
order.  A monomial written in any order is brought to that form by adjacent
transpositions, each swap of two odd generators flipping the sign, and an
odd generator met twice kills it.  Nothing else carries a sign: even
generators commute with everything.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

Var = tuple[str, int]
Mono = tuple[tuple[tuple[Var, int], ...], tuple[Var, ...]]
Poly = dict[Mono, Fraction]


class JetAlgebra:
    """The jet algebra of fields paired with their antifields: `pairs` lists
    (field, antifield, parity of the field); an antifield has the opposite
    parity."""

    def __init__(self, pairs: list[tuple[str, str, int]]):
        self.pairs = [(f, a) for f, a, _ in pairs]
        self.parity = {}
        for f, a, p in pairs:
            self.parity[f] = p
            self.parity[a] = 1 - p

    def odd(self, v: Var) -> bool:
        return self.parity[v[0]] == 1

    # -- polynomials ------------------------------------------------------

    def written(self, coef, factors) -> Poly:
        """coef times the product of (generator, exponent) factors in the
        order written."""
        coef = Fraction(coef)
        even: dict[Var, int] = {}
        odd: list[Var] = []
        for v, e in factors:
            if e == 0:
                continue
            if not self.odd(v):
                even[v] = even.get(v, 0) + e
            elif e > 1:
                return {}
            else:
                odd.append(v)
        # bubble sort: every adjacent swap of two odd generators is one
        # transposition of the product
        for i in range(len(odd)):
            for j in range(len(odd) - 1 - i):
                if odd[j] > odd[j + 1]:
                    odd[j], odd[j + 1] = odd[j + 1], odd[j]
                    coef = -coef
        if len(set(odd)) < len(odd) or coef == 0:
            return {}
        return {(tuple(sorted(even.items())), tuple(odd)): coef}

    def raw(self, terms) -> Poly:
        """The sum of written products (coef, factors)."""
        return self.add(*(self.written(c, f) for c, f in terms))

    @staticmethod
    def add(*polys: Poly) -> Poly:
        out: Poly = {}
        for p in polys:
            for m, c in p.items():
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c != 0}

    @staticmethod
    def scale(p: Poly, q) -> Poly:
        return {m: c * q for m, c in p.items() if c * q != 0}

    @staticmethod
    def factors(m: Mono) -> list[tuple[Var, int]]:
        """The monomial written out: its even part, then its odd part."""
        even, odd = m
        return list(even) + [(v, 1) for v in odd]

    def mul(self, p: Poly, q: Poly) -> Poly:
        """The product: each pair of monomials written side by side."""
        return self.add(*(self.written(c1 * c2, self.factors(m1) + self.factors(m2))
                          for m1, c1 in p.items() for m2, c2 in q.items()))

    # -- derivations ------------------------------------------------------

    def _partial(self, p: Poly, v: Var, left: bool) -> Poly:
        """The graded partial by v: an odd v is moved to the front (left)
        or the back (right) of its monomial, one transposition per odd
        generator it passes, and removed; an even v brings down its
        exponent."""
        out = []
        for (even, odd), c in p.items():
            if v in odd:
                i = odd.index(v)
                passed = i if left else len(odd) - 1 - i
                out.append(self.written(c * (-1) ** passed,
                                        list(even) + [(w, 1) for w in odd if w != v]))
            else:
                e = dict(even).get(v, 0)
                if e:
                    rest = [(w, f - (w == v)) for w, f in even]
                    out.append(self.written(c * e, rest + [(w, 1) for w in odd]))
        return self.add(*out)

    def left_partial(self, p: Poly, v: Var) -> Poly:
        return self._partial(p, v, left=True)

    def right_partial(self, p: Poly, v: Var) -> Poly:
        return self._partial(p, v, left=False)

    def total(self, p: Poly, n: int = 1) -> Poly:
        """D^n, D the even derivation (base, k) -> (base, k + 1): each
        factor of a monomial in turn is replaced in place by its D."""
        for _ in range(n):
            out = []
            for m, c in p.items():
                fs = self.factors(m)
                for i, ((base, k), e) in enumerate(fs):
                    lowered = [((base, k), e - 1)] if e > 1 else []
                    out.append(self.written(c * e, fs[:i] + lowered
                                            + [((base, k + 1), 1)] + fs[i + 1:]))
            p = self.add(*out)
        return p

    @staticmethod
    def jet_orders(p: Poly) -> set[int]:
        return {v[1] for (even, odd) in p for v in [w for w, _ in even] + list(odd)}

    def soloviev(self, f: Poly, g: Poly) -> Poly:
        """The Soloviev antibracket: over each field a with antifield a+ and
        jet orders k, l, D^l(f d/da_k) D^k(d/da+_l g) minus the same with a
        and a+ exchanged; f is differentiated from the right, g from the
        left."""
        out = []
        for field, anti in self.pairs:
            for left, right, sign in ((field, anti, 1), (anti, field, -1)):
                for k in self.jet_orders(f):
                    df = self.right_partial(f, (left, k))
                    if not df:
                        continue
                    for ell in self.jet_orders(g):
                        dg = self.left_partial(g, (right, ell))
                        if dg:
                            out.append(self.scale(self.mul(self.total(df, ell),
                                                           self.total(dg, k)), sign))
        return self.add(*out)

    def euler(self, p: Poly, k: int, base: str, left: bool = True) -> Poly:
        """The order-k Euler operator: over jet orders j >= k, C(j, k) times
        (-D)^(j-k) of the left (or right) partial by (base, j); k = 0 is the
        variational derivative."""
        return self.add(*(self.scale(self.total(self._partial(p, (base, j), left), j - k),
                                     comb(j, k) * (-1) ** (j - k))
                          for j in self.jet_orders(p) if j >= k))

    def bv(self, f: Poly, g: Poly) -> Poly:
        """The integrand of the BV antibracket, built as the Soloviev bracket
        is: over each field a with antifield a+, the right variational
        derivative of f by a times the left one of g by a+, minus the same
        with a and a+ exchanged."""
        out = []
        for field, anti in self.pairs:
            for a, b, sign in ((field, anti, 1), (anti, field, -1)):
                out.append(self.scale(self.mul(self.euler(f, 0, a, left=False),
                                               self.euler(g, 0, b)), sign))
        return self.add(*out)
