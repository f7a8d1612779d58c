"""The expression engine against the reference algebra of
`reference_algebra.py`, which shares no code with it: sums, products,
`normalize`, graded left partials, the total derivative, the Euler
operators, the Soloviev and BV brackets and the bracket of u-series of
resolution elements, compared as maps from monomials
to coefficients matched by symbol name, on seeded atom-free inputs with odd
symbols and jets up to order 2.  Atoms never enter a sign; the pinned `pow`
cases of `test_expression.py` cover their fold."""

import random
from fractions import Fraction

from bvcov.curved import BElement, u_bracket
from bvcov.expression import Expression, normalize, partial_derivative, total_derivative
from bvcov.symbols import Theory
from bvcov.varcalc import bv_antibracket, euler, soloviev
from conftest import eps_parts, u_parts, u_series
from reference_algebra import EPS, JetAlgebra

# (field, antifield, parity of the field); the reference's odd order sorts
# by name (c < q+ < r+ < th), unlike the engine's fields-then-antifields
# order (th < c < q+ < r+)
PAIRS = [("q", "q+", 0), ("th", "th+", 1), ("r", "r+", 0), ("c", "c+", 1)]
BASES = [name for f, a, _ in PAIRS for name in (f, a)]
JETS = (0, 1, 2)


def _setup():
    t = Theory("reference")
    for field, _, parity in PAIRS:
        t.add_field(field, parity, parity)
    symbols = [t.symbol(b, k) for b in BASES for k in JETS]
    return t, symbols, JetAlgebra(PAIRS)


_COEFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def _raws(seed: int, count: int):
    """`count` seeded raw inputs: 1-5 terms of 1-4 factors (symbol index,
    exponent 1, or 2 one time in four), odd squares and repeated symbols
    among them."""
    rng = random.Random(seed)
    n = len(BASES) * len(JETS)
    return [[(rng.choice(_COEFS), [(rng.randrange(n), rng.choice((1, 1, 1, 2)))
                                   for _ in range(rng.randint(1, 4))])
             for _ in range(rng.randint(1, 5))] for _ in range(count)]


def _pair(t, symbols, ref, raw):
    """The engine's and the reference's normalization of the same raw
    monomials, written in the order drawn."""
    engine = normalize(t, [(c, (), tuple((symbols[i], e) for i, e in m)) for c, m in raw])
    reference = ref.raw([(c, [((symbols[i].base, symbols[i].jet_order), e) for i, e in m])
                         for c, m in raw])
    return engine, reference


def _read(ref: JetAlgebra, e: Expression) -> dict:
    """An engine expression as a reference polynomial: each canonical term
    read as the product of its symbols in the engine's order."""
    assert all(not t.atoms for t in e.terms)
    return ref.raw([(t.coef, [((s.base, s.jet_order), k) for s, k in t.mono]) for t in e.terms])


def test_normalize_sums_and_products_match_the_reference():
    t, symbols, ref = _setup()
    raws = _raws(1, 600)
    for ra, rb, rc in zip(raws[0::3], raws[1::3], raws[2::3]):
        (a, A), (b, B), (c, C) = (_pair(t, symbols, ref, r) for r in (ra, rb, rc))
        assert _read(ref, a) == A and _read(ref, b) == B
        assert _read(ref, a + b) == ref.add(A, B)
        assert _read(ref, a - b) == ref.add(A, ref.scale(B, -1))
        assert _read(ref, Expression.sum(t, [a, b, -a, c, b])) == ref.add(B, C, B)
        assert _read(ref, a * b) == ref.mul(A, B)
        assert _read(ref, b * a) == ref.mul(B, A)
        assert _read(ref, a * b * c) == ref.mul(A, ref.mul(B, C))


def test_partials_and_total_derivative_match_the_reference():
    t, symbols, ref = _setup()
    for raw in _raws(2, 300):
        f, F = _pair(t, symbols, ref, raw)
        for s in symbols:
            assert _read(ref, partial_derivative(f, s)) == \
                ref.left_partial(F, (s.base, s.jet_order)), (raw, s)
        assert _read(ref, total_derivative(f)) == ref.total(F), raw
        assert _read(ref, total_derivative(total_derivative(f))) == ref.total(F, 2), raw


def test_soloviev_matches_the_reference():
    t, symbols, ref = _setup()
    raws = _raws(3, 400)
    for rf, rg in zip(raws[0::2], raws[1::2]):
        (f, F), (g, G) = _pair(t, symbols, ref, rf), _pair(t, symbols, ref, rg)
        assert _read(ref, soloviev(f, g)) == ref.soloviev(F, G), (rf, rg)
        assert _read(ref, soloviev(f, f)) == ref.soloviev(F, F), rf


def test_euler_operators_match_the_reference():
    t, symbols, ref = _setup()
    for raw in _raws(4, 300):
        f, F = _pair(t, symbols, ref, raw)
        for base in BASES:
            for k in JETS:
                assert _read(ref, euler(f, k, base)) == ref.euler(F, k, base), (raw, base, k)


def test_bv_antibracket_matches_the_reference():
    t, symbols, ref = _setup()
    raws = _raws(5, 400)
    for rf, rg in zip(raws[0::2], raws[1::2]):
        (f, F), (g, G) = _pair(t, symbols, ref, rf), _pair(t, symbols, ref, rg)
        assert _read(ref, bv_antibracket(f, g)) == ref.bv(F, G), (rf, rg)
        assert _read(ref, bv_antibracket(f, f)) == ref.bv(F, F), rf


def _series(t, symbols, ref, raws):
    """An engine element of B[[u]] and its reference u-series from four raw
    inputs: the body and the eps part of the u^0 coefficient, then of the
    u^1 one."""
    parts = [_pair(t, symbols, ref, r) for r in raws]
    return (u_series(t, {n: parts[2 * n][0] + BElement.of_eps(parts[2 * n + 1][0])
                         for n in (0, 1)}),
            {n: (parts[2 * n][1], parts[2 * n + 1][1]) for n in (0, 1)})


def test_u_bracket_matches_the_reference():
    """The eps rule of the bracket: the engine's bracket of fused
    coefficients against the reference's, with eps an odd central
    generator."""
    t, symbols, ref = _setup()
    raws = _raws(6, 8 * 40)
    for i in range(0, len(raws), 8):
        (a, A), (b, B) = _series(t, symbols, ref, raws[i:i + 4]), \
            _series(t, symbols, ref, raws[i + 4:i + 8])
        for x, y, X, Y in ((a, b, A, B), (b, a, B, A), (a, a, A, A)):
            got, want = u_parts(u_bracket(x, y)), ref.u_bracket(X, Y)
            for n in set(got) | set(want):
                body, eps = eps_parts(got.get(n, Expression.zero(t)))
                assert (_read(ref, body), _read(ref, eps)) == want.get(n, ({}, {})), \
                    (raws[i:i + 8], n)


def test_reference_signs_pinned():
    """The reference's own conventions on small cases: odd generators
    anticommute and square to zero, a left and a right partial differ by
    the sign of the generators passed, D is an even derivation, the Euler
    operators take (-D)^(j-k) and the brackets pair a field with its
    antifield."""
    ref = JetAlgebra(PAIRS)
    th, c, q, cp = ("th", 0), ("c", 0), ("q", 0), ("c+", 0)
    assert ref.written(1, [(th, 1), (c, 1)]) == ref.written(-1, [(c, 1), (th, 1)]) \
        == {((), (c, th)): -1}
    assert ref.written(1, [(th, 1), (q, 2), (th, 1)]) == {}
    f = ref.written(3, [(q, 2), (th, 1), (c, 1)])
    assert ref.left_partial(f, th) == ref.written(3, [(q, 2), (c, 1)])
    assert ref.right_partial(f, th) == ref.written(-3, [(q, 2), (c, 1)])
    assert ref.left_partial(f, q) == ref.written(6, [(q, 1), (th, 1), (c, 1)])
    assert ref.total(ref.written(1, [(th, 1), (c, 1)])) == \
        ref.add(ref.written(1, [(("th", 1), 1), (c, 1)]), ref.written(1, [(th, 1), (("c", 1), 1)]))
    # a field pairs with its antifield, {c, c+} = 1 = {q, q+}, and graded
    # antisymmetry gives {c+, c} = -1
    assert ref.soloviev(ref.written(1, [(c, 1)]), ref.written(1, [(cp, 1)])) == {((), ()): 1}
    assert ref.soloviev(ref.written(1, [(cp, 1)]), ref.written(1, [(c, 1)])) == {((), ()): -1}
    assert ref.soloviev(ref.written(1, [(q, 1)]), ref.written(1, [(("q+", 0), 1)])) == \
        {((), ()): 1}
    # euler by q of q_1^2 is -D(2 q_1) at k = 0 and 2 q_1 at k = 1; the BV
    # integrand of c and c+ is 1, as the Soloviev bracket's
    q1 = ("q", 1)
    assert ref.euler(ref.written(1, [(q1, 2)]), 0, "q") == ref.written(-2, [(("q", 2), 1)])
    assert ref.euler(ref.written(1, [(q1, 2)]), 1, "q") == ref.written(2, [(q1, 1)])
    assert ref.bv(ref.written(1, [(c, 1)]), ref.written(1, [(cp, 1)])) == {((), ()): 1}
    # eps is odd and central: [q+ eps, q^2] = -[q+, q^2] eps = 2 q eps, and
    # [c+ eps, c] = [c+, c] eps = -eps is a constant eps part, so zero; the
    # powers of u add
    qp = ref.written(1, [(("q+", 0), 1)])
    assert ref.u_bracket({0: ({}, qp)}, {1: (ref.written(1, [(q, 2)]), {})}) == \
        {1: ({}, ref.written(2, [(q, 1)]))}
    assert ref.u_bracket({0: ({}, ref.written(1, [(cp, 1)]))}, {0: (ref.written(1, [(c, 1)]), {})}) \
        == {0: ({}, {})}
    assert ref.total(ref.written(1, [(q, 1), (EPS, 1)])) == ref.written(1, [(q1, 1), (EPS, 1)])
