import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bvcov import parser, varcalc
from bvcov.coefficients import FuncAtom
from bvcov.curved import BElement, b_bracket, u_bracket
from bvcov.symbols import Kind, Theory, TheoryError
from bvcov.expression import (Expression, base_expression, inverse_of, is_zero,
                              iterated_total, jet_gradient, jet_partial, log_of,
                              normalize, partial_derivative, power_of,
                              total_derivative)
from bvcov.varcalc import (EtaleMap, EvolutionaryVectorField, RescalingError,
                           _check_polynomial_in_jets, _jet_degree_parts,
                           _matrix_right_inverse, _signed_identity_holds,
                           ad_expansion, bv_antibracket, euler,
                           functional_equal, hamiltonian_vf,
                           is_total_derivative, prolong, soloviev)
from conftest import (HomogeneousSampler, antifield_counting_field, eps_parts, u_parts,
                      u_series)
from dense_oracle import dense_etale_images, dense_right_inverse, dense_signed_identity, keys

THEORIES = Path(__file__).resolve().parent.parent / "theories"


def sgn(b):
    return -1 if b % 2 else 1


def test_euler_examples(particle_theory, E):
    pe = E("p_1") * total_derivative(E("x_1"))
    assert euler(pe, 0, "x_1") == -E("p_1", 1)
    assert euler(pe, 1, "x_1") == E("p_1")
    assert euler(pe, 2, "x_1").is_structural_zero()


def test_prolongation(particle_theory, E):
    t = particle_theory
    one = prolong(t, {t.symbol("x_1"): Expression.const(t, 1)})
    assert one.apply(E("x_1", 2)).is_structural_zero()
    assert one.apply(E("x_1")) == Expression.const(t, 1)
    # rescaling generator reproduces jet-degree counting on monomials
    resc = prolong(t, {s: Expression.symbol(t, s)
                       for f, a in t.field_pairs() for s in (f, a)})
    m = E("p_1") * E("x_1", 1) * E("c+") * E("e+", 2)
    assert resc.apply(m) == 4 * m


def test_prolong_commutes_with_total_derivative(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=31)
    t = particle_theory
    for _ in range(10):
        comps = {}
        for f, a in t.field_pairs():
            if s.rng.random() < 0.4:
                e = s.expression()
                if (e.sign_degree() + f.sign_degree) % 2 == 0:
                    comps[f] = e
        if not comps:
            continue
        try:
            v = prolong(t, comps)
            v.sign_degree()
        except TheoryError:
            continue
        f = s.expression()
        assert is_zero(v.apply(total_derivative(f)) - total_derivative(v.apply(f)))


def test_soloviev_golden_flow_values(particle_theory, E):
    y = sum((E("c") * E(f"x+_{m}") * E(f"p+_{m}") for m in (1, 2)),
            Expression.zero(particle_theory))
    assert soloviev(y, E("x_1")) == E("c") * E("p+_1")
    assert soloviev(y, E("p_1")) == -(E("c") * E("x+_1"))
    assert soloviev(y, E("c+")) == E("x+_1") * E("p+_1") + E("x+_2") * E("p+_2")
    for name in ("e", "e+", "c", "x+_1", "p+_2"):
        assert soloviev(y, E(name)).is_structural_zero()
    assert soloviev(E("x_1"), E("x_1")).is_structural_zero()


def test_bracket_axioms_random(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=7)
    for _ in range(40):
        f, g, h = s.expression(), s.expression(), s.expression()
        pf, pg = f.sign_degree(), g.sign_degree()
        # antisymmetry (axiom d)
        assert is_zero(soloviev(g, f)
                       + soloviev(f, g) * sgn((pf + 1) * (pg + 1)))
        # shifted Jacobi (axiom e, full graded exponent)
        assert is_zero(soloviev(f, soloviev(g, h))
                       - soloviev(soloviev(f, g), h)
                       - soloviev(g, soloviev(f, h)) * sgn((pf + 1) * (pg + 1)))
        # linearity over the total derivative
        br = total_derivative(soloviev(f, g))
        assert is_zero(soloviev(total_derivative(f), g) - br)
        assert is_zero(soloviev(f, total_derivative(g)) - br)


def test_bv_equals_soloviev_mod_d(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=8)
    for _ in range(25):
        f, g = s.expression(), s.expression()
        diff = bv_antibracket(f, g) - soloviev(f, g)
        flag, c, _ = is_total_derivative(diff)
        assert flag and c == 0
    one = Expression.const(particle_theory, 1)
    assert bv_antibracket(one, s.expression()).is_structural_zero()


def test_hamiltonian_morphism_and_descent(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=9)
    for _ in range(15):
        f, g = s.expression(), s.expression()
        lhs = hamiltonian_vf(f).commutator(hamiltonian_vf(g))
        rhs = hamiltonian_vf(soloviev(f, g))
        for sym in set(lhs.components) | set(rhs.components):
            assert is_zero(lhs.component(sym) - rhs.component(sym))
        v1 = hamiltonian_vf(f)
        v2 = hamiltonian_vf(f + total_derivative(g))
        for sym in set(v1.components) | set(v2.components):
            assert is_zero(v1.component(sym) - v2.component(sym))


def test_hamiltonian_of_d_element(particle_theory, E):
    from bvcov.curved import d_element
    t = particle_theory
    D = d_element(t)
    v = hamiltonian_vf(D)
    # acts as +/- the total derivative on generators, hence kills functionals
    signs = set()
    for f, a in t.field_pairs():
        for gen in (f, a):
            comp = v.component(gen)
            jet1 = Expression.symbol(t, t.jet(gen.name, 1))
            if is_zero(comp - jet1):
                signs.add(1)
            elif is_zero(comp + jet1):
                signs.add(-1)
            else:
                raise AssertionError(f"H_D is not +-d on {gen.name}")
    assert len(signs) == 1
    s = HomogeneousSampler(t, seed=10)
    f = s.expression()
    flag, c, _ = is_total_derivative(soloviev(D, f))
    assert flag and c == 0


def ad_apply(f: Expression, g: Expression) -> Expression:
    """soloviev(f, g) computed through the ad-expansion (resummation oracle)."""
    return Expression.sum(f.theory, (iterated_total(vf.apply(g), k)
                                     for k, vf in enumerate(ad_expansion(f))))


def test_ad_expansion(particle_theory, E):
    s = HomogeneousSampler(particle_theory, seed=12)
    for _ in range(10):
        f, g = s.expression(), s.expression()
        assert is_zero(ad_apply(f, g) - soloviev(f, g))
    # no antifields, no field derivatives: only the k = 0 term
    f0 = E("x_1") * E("p_1") * E("c")
    fields = ad_expansion(f0)
    assert len(fields) == 1
    # f = D: ad(D) = d o pr(xi+ d^a) - d
    from bvcov.curved import d_element
    t = particle_theory
    D = d_element(t)
    nplus = antifield_counting_field(t)
    for _ in range(6):
        g = s.expression()
        lhs = soloviev(D, g)
        rhs = total_derivative(nplus.apply(g)) - total_derivative(g)
        assert is_zero(lhs - rhs)


def test_recursion_lemma_instances(particle_theory):
    # t_k built as in the morphism proof vanish individually
    s = HomogeneousSampler(particle_theory, seed=13)
    for _ in range(6):
        f, g = s.expression(), s.expression()
        h = soloviev(f, g)
        fk = ad_expansion(f)
        gk = ad_expansion(g)
        hk = ad_expansion(h)
        kmax = max(len(fk) + len(gk) - 2, len(hk) - 1)
        probe = s.expression()
        for k in range(kmax + 1):
            acc = None
            for ell in range(k + 1):
                if ell < len(fk) and k - ell < len(gk):
                    term = fk[ell].commutator(gk[k - ell])
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = EvolutionaryVectorField(particle_theory, {})
            if k < len(hk):
                acc = acc - hk[k]
            assert is_zero(acc.apply(probe))


def test_total_derivative_decision(particle_theory, E):
    t = particle_theory
    f = total_derivative(E("c") * E("p_1") * E("p+_1"))
    flag, c, g = is_total_derivative(f)
    assert flag and c == 0
    assert is_zero(f - total_derivative(g))
    assert is_total_derivative(E("p_1") * E("x_1", 1))[0] is False
    assert is_total_derivative(Expression.const(t, 7)) == (True, Fraction(7), 0) \
        or is_total_derivative(Expression.const(t, 7))[:2] == (True, Fraction(7))


def test_witness_roundtrip_with_constant(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=14)
    for _ in range(30):
        g = s.expression()
        f = total_derivative(g) + Expression.const(particle_theory, 5)
        flag, c, w = is_total_derivative(f)
        assert flag and c == 5
        assert is_zero(f - Expression.const(particle_theory, 5)
                       - total_derivative(w))


def test_total_derivative_rejects_atoms(particle_theory, E):
    from bvcov.expression import inverse_of
    with pytest.raises(RescalingError):
        is_total_derivative(inverse_of(E("e")) * E("p_1"))


def test_functional_equality(particle_theory, E):
    f = E("p_1") * E("x_1", 1)
    assert functional_equal(f, f + total_derivative(E("x_1") * E("p_1")))
    assert not functional_equal(f, f + Expression.const(particle_theory, 1))


# -- etale maps ---------------------------------------------------------------


def quadratic_map(src: Theory, tgt: Theory) -> EtaleMap:
    images = {
        "X": Expression.of(src, "x_1") + Expression.of(src, "x_1") ** 2,
        "P": Expression.of(src, "p_1"),
    }
    return EtaleMap(src, tgt, images)


@pytest.fixture
def etale_pair():
    src = Theory("src")
    src.add_field("x_1", 0, 0)
    src.add_field("p_1", 0, 0)
    tgt = Theory("tgt")
    tgt.add_field("X", 0, 0)
    tgt.add_field("P", 0, 0)
    return src, tgt


def test_etale_identity(etale_pair):
    src, _ = etale_pair
    same = Theory("same")
    same.add_field("x_1", 0, 0)
    same.add_field("p_1", 0, 0)
    m = EtaleMap(src, same, {"x_1": Expression.of(src, "x_1"),
                             "p_1": Expression.of(src, "p_1")})
    s = HomogeneousSampler(same, seed=15)
    for _ in range(5):
        e = s.expression()
        back = m.pullback(e)
        # identity renaming: same canonical rendering in the source theory
        from bvcov.printer import render
        assert render(back) == render(e)


def test_etale_bracket_invariance_quadratic(etale_pair):
    src, tgt = etale_pair
    m = quadratic_map(src, tgt)
    s = HomogeneousSampler(tgt, seed=16, max_jet=1, max_factors=2, max_terms=2)
    for _ in range(12):
        f, g = s.expression(), s.expression()
        lhs = soloviev(m.pullback(f), m.pullback(g))
        rhs = m.pullback(soloviev(f, g))
        assert is_zero(lhs - rhs)


def test_etale_linear_rescale(etale_pair):
    src, tgt = etale_pair
    m = EtaleMap(src, tgt, {"X": 2 * Expression.of(src, "x_1"),
                            "P": Expression.of(src, "p_1")})
    assert m.pullback(Expression.of(tgt, "X+")) == \
        Fraction(1, 2) * Expression.of(src, "x+_1")
    f, g = Expression.of(tgt, "X"), Expression.of(tgt, "X+")
    assert is_zero(soloviev(m.pullback(f), m.pullback(g))
                   - m.pullback(soloviev(f, g)))


def test_etale_commutes_with_d(etale_pair):
    src, tgt = etale_pair
    m = quadratic_map(src, tgt)
    s = HomogeneousSampler(tgt, seed=17, max_jet=1, max_factors=2, max_terms=2)
    for _ in range(8):
        f = s.expression()
        assert is_zero(m.pullback(total_derivative(f))
                       - total_derivative(m.pullback(f)))


def test_etale_rejects_singular_jacobian(etale_pair):
    src, tgt = etale_pair
    with pytest.raises(TheoryError):
        EtaleMap(src, tgt, {"X": Expression.of(src, "x_1"),
                            "P": Expression.of(src, "x_1")})


# -- the sparse inversion against the dense oracle ---------------------------


def _inverse_outcome(invert, theory, mat):
    """An inversion's result as keys, or the text of the error it raised."""
    try:
        return keys(invert(theory, mat))
    except TheoryError as exc:
        return f"raised: {exc}"


def _random_sparse_matrix(rng: random.Random, t: Theory, n: int,
                          nilpotent: bool = True) -> list[list[Expression]]:
    """An even invertible-looking diagonal and about a quarter of the other
    entries nonzero, rows shuffled: constants, function atoms, polynomial
    entries, odd entries and, if `nilpotent`, even nilpotent ones, whose
    inverse the engine refuses."""
    x, th, eta = (Expression.of(t, s) for s in ("x", "th", "eta"))
    f = Expression.func(t, "f")
    even = [lambda c: Expression.const(t, c), lambda c: f * c + 1, lambda c: x * c]
    kinds = even + [lambda c: th * c] + [lambda c: th * eta * c + c] * nilpotent

    def entry(choices):
        return rng.choice(choices)(rng.choice((1, -1, 2, Fraction(1, 3), -3)))

    zero = Expression.zero(t)
    mat = [[entry(even) if i == j else entry(kinds) if rng.random() < 0.25 else zero
            for j in range(n)] for i in range(n)]
    rng.shuffle(mat)
    return mat


def test_sparse_inverse_matches_dense_oracle_on_random_matrices():
    t = Theory("random_matrices")
    t.add_field("x", 0, 0)
    t.add_field("th", 1, 1)
    t.add_field("eta", -1, 1)
    t.add_function("f", ["x"])
    rng = random.Random(30)
    outcomes = {"inverted": 0, "singular": 0, "raised": 0}
    for i in range(200):
        n = rng.randint(1, 6)
        singular = i % 5 == 0
        mat = _random_sparse_matrix(rng, t, n, nilpotent=not singular)
        if singular:      # a zero row or column leaves some column without a pivot
            k = rng.randrange(n)
            for j in range(n):
                if i % 10 == 0:
                    mat[k][j] = Expression.zero(t)
                else:
                    mat[j][k] = Expression.zero(t)
        want = _inverse_outcome(dense_right_inverse, t, mat)
        assert _inverse_outcome(_matrix_right_inverse, t, mat) == want, i
        if singular:
            assert want is None, i
        if want is None:
            outcomes["singular"] += 1
        elif isinstance(want, str):
            outcomes["raised"] += 1
        else:
            outcomes["inverted"] += 1
            inv = _matrix_right_inverse(t, mat)
            assert _signed_identity_holds(t, mat, inv) == dense_signed_identity(t, mat, inv), i
    # the sample reaches every branch: inverses, missing pivots and refusals
    assert min(outcomes.values()) > 0, outcomes
    assert outcomes["inverted"] >= 100, outcomes


def test_cylinder_overlap_etale_maps_match_dense_oracle(monkeypatch):
    made = []

    class Recording(EtaleMap):
        def __init__(self, source, target, images):
            super().__init__(source, target, images)
            made.append((source, target, images, self))

    monkeypatch.setattr(parser, "EtaleMap", Recording)
    parser.parse_theory_file((THEORIES / "cylinder_flux.bvt").read_text(encoding="utf-8"))
    assert len(made) == 2    # the overlap's maps from U0 and from U1
    for source, target, images, emap in made:
        want = dense_etale_images(source, target, images)
        got = emap.generator_images()
        assert list(got) == list(want)
        assert [e.key() for e in got.values()] == [e.key() for e in want.values()]


def test_corrupted_etale_inverse_is_caught(monkeypatch, etale_pair):
    src, tgt = etale_pair

    def flipped(theory, mat):
        inv = _matrix_right_inverse(theory, mat)
        inv[0][0] = -inv[0][0]
        return inv

    monkeypatch.setattr(varcalc, "_matrix_right_inverse", flipped)
    with pytest.raises(TheoryError, match="Jacobian inverse check failed"):
        quadratic_map(src, tgt)


# -- the bracket kernel against the double sum it replaces -------------------
#
# `_soloviev_bruteforce` is the Soloviev loop the engine ran before it
# differentiated each operand once into jet tables, unchanged but for
# `_max_jet`, the jet-order scan it took from `Expression`: per sigma
# part, paired index and jet order it takes the partials again and
# re-derives their total derivatives.  `_b_bracket_bruteforce` and
# `_u_bracket_bruteforce` compose it as `b_bracket` and `u_bracket` did
# before eps was fused: the three-term formula on the parts f + g*eps,
# with its hand-written signs.


def _max_jet(e: Expression, base: str) -> int:
    """Highest jet order of `base` occurring anywhere in the expression,
    including dependence through function symbols and log/pow bases
    (which live at jet order 0); -1 when absent.  The oracles scan jet
    orders with it; the engine reads jet tables instead."""
    m = -1
    for t in e.terms:
        for s, _ in t.mono:
            if s.base == base and s.jet_order > m:
                m = s.jet_order
        if m < 0:
            for a, _ in t.atoms:
                if isinstance(a, FuncAtom):
                    if base in e.theory.function(a.func).args:
                        m = 0
                        break
                else:
                    if _max_jet(base_expression(e.theory, a.base_key), base) >= 0:
                        m = 0
                        break
    return m


def _soloviev_bruteforce(f: Expression, g: Expression) -> Expression:
    theory = f.theory
    pieces = []
    for sf, fp in f.sigma_parts():
        for field, anti in theory.field_pairs():
            pref = -1 if ((sf + 1) * field.parity) % 2 else 1
            mirror = pref * (-1 if sf % 2 else 1)
            # field-derivatives of f against antifield-derivatives of g
            kmax = _max_jet(fp, field.base)
            for k in range(kmax + 1):
                dfk = jet_partial(fp, theory.jet(field.base, k))
                if dfk.is_structural_zero():
                    continue
                lmax = _max_jet(g, anti.base)
                dl = dfk
                for ell in range(lmax + 1):
                    if ell > 0:
                        dl = total_derivative(dl)
                    dgl = jet_partial(g, theory.jet(anti.base, ell))
                    if dgl.is_structural_zero():
                        continue
                    pieces.append((dl * iterated_total(dgl, k)) * pref)
            # antifield-derivatives of f against field-derivatives of g
            kmax = _max_jet(fp, anti.base)
            for k in range(kmax + 1):
                dfk = jet_partial(fp, theory.jet(anti.base, k))
                if dfk.is_structural_zero():
                    continue
                lmax = _max_jet(g, field.base)
                dl = dfk
                for ell in range(lmax + 1):
                    if ell > 0:
                        dl = total_derivative(dl)
                    dgl = jet_partial(g, theory.jet(field.base, ell))
                    if dgl.is_structural_zero():
                        continue
                    pieces.append((dl * iterated_total(dgl, k)) * mirror)
    return Expression.sum(theory, pieces)


def _b_bracket_bruteforce(a: Expression, b: Expression) -> Expression:
    (fa, ga), (fb, gb) = eps_parts(a), eps_parts(b)
    body = _soloviev_bruteforce(fa, fb)
    eps = _soloviev_bruteforce(fa, gb)
    for sf1, part in fb.sigma_parts():
        eps = eps + _soloviev_bruteforce(ga, part) * (-1 if (sf1 + 1) % 2 else 1)
    return body + BElement.of_eps(eps)


def _u_bracket_bruteforce(a: Expression, b: Expression) -> Expression:
    out = {}
    for na, ca in u_parts(a).items():
        for nb, cb in u_parts(b).items():
            v = _b_bracket_bruteforce(ca, cb)
            out[na + nb] = out[na + nb] + v if na + nb in out else v
    return u_series(a.theory, out)


def _bracket_pools():
    """A theory with even and odd fields and a function symbol; its jets up
    to order 2, a flow parameter (a scalar to the bracket), and atoms:
    function descendants, log, rational pow, inverse of a compound base, a
    pow of a single symbol, which folds into the monomial, and the log of a
    base holding the function symbol."""
    t = Theory("kernel")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    t.add_field("th", 1, 1)
    t.add_function("F", ["q", "r"])
    tau = t.add_flow_param("tau")
    q, r = Expression.of(t, "q"), Expression.of(t, "r")
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",)), FuncAtom("F", ("q", "r"))]
    for e in (log_of(q + 1), power_of(q + 1, Fraction(1, 2)), inverse_of(q - r),
              power_of(q, Fraction(1, 2)), log_of(Expression.func(t, "F") + 1)):
        (atom, _), = e.terms[0].atoms
        atoms.append(atom)
    jets = [t.symbol(n, j) for j in (0, 1, 2) for n in ("q", "q+", "r", "r+", "th", "th+")]
    return t, atoms, jets + [tau]


_KERNEL_RAW_TERM = st.tuples(
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 2)), max_size=1),
    st.lists(st.tuples(st.integers(0, 18), st.integers(1, 2)), min_size=1, max_size=3))


def _kernel_builder(t, atoms, symbols):
    def build(raw):
        return normalize(t, [(c, tuple((atoms[i], e) for i, e in a),
                              tuple((symbols[i], e) for i, e in m)) for c, a, m in raw])
    return build


def _terms(e: Expression) -> list:
    return [(x.coef, x.atoms, x.mono, x.key) for x in e.terms]


def _u_terms(x: Expression) -> list:
    return [(n, *map(_terms, eps_parts(c))) for n, c in u_parts(x).items()]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_soloviev_matches_bruteforce(data):
    """soloviev agrees term by term, in order, with the double sum: odd
    symbols, jets up to order 2, inhomogeneous operands (both sigma parts),
    function, log and pow atoms, and an empty right operand."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    f = build(data.draw(st.lists(_KERNEL_RAW_TERM, min_size=1, max_size=5)))
    g = build(data.draw(st.lists(_KERNEL_RAW_TERM, min_size=1, max_size=5)))
    for a, b in ((f, g), (g, f), (f + g, f + g)):
        assert _terms(soloviev(a, b)) == _terms(_soloviev_bruteforce(a, b))
    empty = Expression.zero(t)
    assert soloviev(f, empty).is_structural_zero()
    assert soloviev(empty, f).is_structural_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_b_and_u_bracket_match_bruteforce(data):
    """b_bracket and u_bracket, with each operand differentiated once per
    call, agree term by term with their compositions from the double sum,
    u-power by u-power; also [S, S], where both sides share one set of
    tables."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    terms = st.lists(_KERNEL_RAW_TERM, min_size=1, max_size=3)

    def element():
        return build(data.draw(terms)) + BElement.of_eps(build(data.draw(terms)))

    a, b = element(), element()
    for x, y in ((a, b), (a + b, a + b)):
        got, want = b_bracket(x, y), _b_bracket_bruteforce(x, y)
        assert [*map(_terms, eps_parts(got))] == [*map(_terms, eps_parts(want))]
    powers = st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)
    x = u_series(t, {n: element() for n in data.draw(powers)})
    y = u_series(t, {n: element() for n in data.draw(powers)})
    assert _u_terms(u_bracket(x, y)) == _u_terms(_u_bracket_bruteforce(x, y))
    s = x + y
    assert _u_terms(u_bracket(s, s)) == _u_terms(_u_bracket_bruteforce(s, s))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jet_gradient_matches_partials(data):
    """jet_gradient(e)[s] is partial_derivative(e, s) for every field and
    antifield jet s, and s is absent exactly when that partial is zero."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    e = build(data.draw(st.lists(_KERNEL_RAW_TERM, max_size=5)))
    grad = jet_gradient(e)
    jets = [t.jet(n, j) for n in ("q", "r", "th", "q+", "r+", "th+") for j in range(4)]
    assert set(grad) <= set(jets)
    for s in jets:
        d = partial_derivative(e, s)
        if d.is_structural_zero():
            assert s not in grad, s
        else:
            assert _terms(grad[s]) == _terms(d), s


def test_atom_gradients_see_later_fields():
    """An atom's memoized gradient is read off its own base, so a field
    registered after the table was filled is neither missed nor invented."""
    t = Theory("later")
    t.add_field("q", 0, 0)
    q = Expression.of(t, "q")
    before = log_of(q + 1) * Expression.of(t, "q+")
    assert set(jet_gradient(before)) == {t.symbol("q"), t.symbol("q+")}
    t.add_field("z", 0, 0)
    z = Expression.of(t, "z")
    after = before * log_of(q + z) + log_of(q + 1) * z
    grad = jet_gradient(after)
    for name in ("q", "q+", "z", "z+"):
        s = t.symbol(name)
        d = partial_derivative(after, s)
        assert (s in grad) == (not d.is_structural_zero())
        if s in grad:
            assert _terms(grad[s]) == _terms(d)
    assert t.symbol("z") in grad


def test_u_bracket_differentiates_each_coefficient_once(monkeypatch):
    """[S, S] on a k-coefficient series takes one jet gradient per sigma part
    of the fused element, whatever k is, and [S, T] one more for T."""
    from bvcov import varcalc
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    rng = random.Random(3)

    def part():
        return build([(rng.choice([1, -1, 2]), [], [(rng.randrange(18), 1)
                                                     for _ in range(rng.randint(1, 3))])
                      for _ in range(3)])

    calls = []
    real = varcalc.jet_gradient
    monkeypatch.setattr(varcalc, "jet_gradient", lambda e: calls.append(e) or real(e))
    for k in (2, 4, 8):
        S = u_series(t, {n: part() + BElement.of_eps(part()) for n in range(k)})
        parts = len(S.sigma_parts())
        del calls[:]
        u_bracket(S, S)
        assert len(calls) == parts <= 2
        T = u_series(t, {n: part() + BElement.of_eps(part()) for n in range(k)})
        del calls[:]
        u_bracket(S, T)
        assert len(calls) == parts + 1


# -- the other variational operators against the loops they replace ----------
#
# Before every operator read one jet table per operand, the Euler operators
# scanned `max_jet` and took one `jet_partial` per jet order, and the
# brackets and fields below called them per sigma part and base.  These are
# those loops, unchanged but for the names of the oracles they call.


def _euler_bruteforce(expr: Expression, k: int, base_name: str) -> Expression:
    if k < 0:
        raise TheoryError("euler order must be nonnegative")
    theory = expr.theory
    pieces: list[Expression] = []
    kmax = _max_jet(expr, base_name)
    for ell in range(0, kmax - k + 1):
        pd = jet_partial(expr, theory.jet(base_name, k + ell))
        if pd.is_structural_zero():
            continue
        sgn = -1 if ell % 2 else 1
        pieces.append(iterated_total(pd, ell) * (comb(k + ell, k) * Fraction(sgn)))
    return Expression.sum(theory, pieces)


def _bv_antibracket_bruteforce(f: Expression, g: Expression) -> Expression:
    theory = f.theory
    pieces: list[Expression] = []
    for sf, fp in f.sigma_parts():
        for field, anti in theory.field_pairs():
            pref = -1 if ((sf + 1) * field.parity) % 2 else 1
            mirror = pref * (-1 if sf % 2 else 1)
            da_f = _euler_bruteforce(fp, 0, field.base)
            if not da_f.is_structural_zero():
                db_g = _euler_bruteforce(g, 0, anti.base)
                if not db_g.is_structural_zero():
                    pieces.append((da_f * db_g) * pref)
            du_f = _euler_bruteforce(fp, 0, anti.base)
            if not du_f.is_structural_zero():
                db_g = _euler_bruteforce(g, 0, field.base)
                if not db_g.is_structural_zero():
                    pieces.append((du_f * db_g) * mirror)
    return Expression.sum(theory, pieces)


def _euler_field_bruteforce(f: Expression, k: int) -> EvolutionaryVectorField:
    theory = f.theory
    pieces = {}
    for sf, fp in f.sigma_parts():
        for field, anti in theory.field_pairs():
            pref = -1 if ((sf + 1) * field.parity) % 2 else 1
            mirror = pref * (-1 if sf % 2 else 1)
            d_a = _euler_bruteforce(fp, k, field.base)
            if not d_a.is_structural_zero():
                pieces.setdefault(anti, []).append(d_a * pref)
            d_u = _euler_bruteforce(fp, k, anti.base)
            if not d_u.is_structural_zero():
                pieces.setdefault(field, []).append(d_u * mirror)
    return EvolutionaryVectorField(
        theory, {s: Expression.sum(theory, ps) for s, ps in pieces.items()})


def _ad_expansion_bruteforce(f: Expression) -> list[EvolutionaryVectorField]:
    kmax = 0
    for t in f.terms:
        for s, _ in t.mono:
            if s.kind in (Kind.FIELD_JET, Kind.ANTIFIELD_JET):
                kmax = max(kmax, s.jet_order)
    fields = [_euler_field_bruteforce(f, k) for k in range(kmax + 1)]
    while len(fields) > 1 and fields[-1].is_zero():
        fields.pop()
    return fields


def _apply_bruteforce(vf: EvolutionaryVectorField, expr: Expression) -> Expression:
    pieces: list[Expression] = []
    for s0, comp in vf.components.items():
        kmax = _max_jet(expr, s0.base)
        if kmax < 0:
            continue
        dk = comp
        for k in range(kmax + 1):
            if k > 0:
                dk = total_derivative(dk)
            pd = jet_partial(expr, vf.theory.jet(s0.base, k))
            if not pd.is_structural_zero():
                pieces.append(dk * pd)
    return Expression.sum(vf.theory, pieces)


def _is_total_derivative_bruteforce(f: Expression):
    theory = f.theory
    _check_polynomial_in_jets(f)
    obstruction = None
    for field, anti in theory.field_pairs():
        for base in (field.base, anti.base):
            vd = _euler_bruteforce(f, 0, base)
            if not is_zero(vd):
                obstruction = (base, vd)
                break
        if obstruction:
            break
    c = f.constant_part()
    if obstruction is not None:
        return (False, c, None)
    parts = _jet_degree_parts(f)
    g = Expression.zero(theory)
    for m, fm in sorted(parts.items()):
        if m == 0:
            continue
        scale = Fraction(1, m)
        for field, anti in theory.field_pairs():
            for base in (field.base, anti.base):
                kmax = _max_jet(fm, base)
                sym0 = Expression.symbol(theory, theory.symbol(base, 0))
                for k in range(1, kmax + 1):
                    dk = _euler_bruteforce(fm, k, base)
                    if dk.is_structural_zero():
                        continue
                    g = g + iterated_total(sym0 * dk, k - 1) * scale
    if not is_zero(f - Expression.const(theory, c) - total_derivative(g)):
        raise AssertionError("homotopy witness failed to reproduce the input")
    return (True, c, g)


def _vf_terms(v: EvolutionaryVectorField) -> list:
    return [(s, _terms(e)) for s, e in v.components.items()]


_BASES = ("q", "r", "th", "q+", "r+", "th+")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_euler_and_brackets_match_bruteforce(data):
    """euler for every order and base, bv_antibracket, hamiltonian_vf and
    ad_expansion agree term by term and in order with the per-order loops,
    on the kernel test's inputs (odd symbols, jets up to order 2, both sigma
    parts, function, log and pow atoms)."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    f = build(data.draw(st.lists(_KERNEL_RAW_TERM, max_size=5)))
    g = build(data.draw(st.lists(_KERNEL_RAW_TERM, max_size=5)))
    for e in (f, g, f + g):
        for base in _BASES:
            for k in range(4):
                assert _terms(euler(e, k, base)) == _terms(_euler_bruteforce(e, k, base))
    for a, b in ((f, g), (g, f), (f + g, f)):
        assert _terms(bv_antibracket(a, b)) == _terms(_bv_antibracket_bruteforce(a, b))
    assert _vf_terms(hamiltonian_vf(f)) == _vf_terms(_euler_field_bruteforce(f, 0))
    got, want = ad_expansion(f + g), _ad_expansion_bruteforce(f + g)
    assert [_vf_terms(v) for v in got] == [_vf_terms(v) for v in want]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vector_field_apply_matches_bruteforce(data):
    """EvolutionaryVectorField.apply on one jet table of its argument agrees
    term by term with the per-component, per-order loop."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    terms = st.lists(_KERNEL_RAW_TERM, max_size=3)
    names = data.draw(st.lists(st.sampled_from(_BASES), unique=True, max_size=4))
    vf = EvolutionaryVectorField(t, {t.symbol(n): build(data.draw(terms)) for n in names})
    for _ in range(2):
        e = build(data.draw(st.lists(_KERNEL_RAW_TERM, max_size=5)))
        assert _terms(vf.apply(e)) == _terms(_apply_bruteforce(vf, e))


# jet polynomials only: the decision procedure refuses atoms and parameters
_POLY_RAW_TERM = st.tuples(
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    st.just([]),
    st.lists(st.tuples(st.integers(0, 17), st.integers(1, 2)), max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_is_total_derivative_matches_bruteforce(data):
    """The flag, the constant and the witness agree term by term with the
    per-order loop, on random jet polynomials and on total derivatives plus
    a constant, and the witness re-derives its input."""
    t, atoms, symbols = _bracket_pools()
    build = _kernel_builder(t, atoms, symbols)
    f = build(data.draw(st.lists(_POLY_RAW_TERM, max_size=5)))
    c = data.draw(st.sampled_from([0, 3, Fraction(-1, 2)]))
    for e in (f, total_derivative(f) + c, total_derivative(f + total_derivative(f))):
        flag, const, w = is_total_derivative(e)
        flag0, const0, w0 = _is_total_derivative_bruteforce(e)
        assert (flag, const) == (flag0, const0)
        assert (w is None) == (w0 is None)
        if w is not None:
            assert _terms(w) == _terms(w0)
            assert is_zero(e - Expression.const(t, const) - total_derivative(w))
    assert is_total_derivative(total_derivative(f) + c)[:2] == (True, Fraction(c))
