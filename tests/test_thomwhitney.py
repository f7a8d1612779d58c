import gc
import itertools
import random
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bvcov.symbols import Theory, TheoryError
from bvcov.coefficients import AffineExponent, FuncAtom
from bvcov.expression import (Expression, _map_atom, _is_jet, apply_substitution, embed,
                              inverse_of, is_zero, iterated_total, log_of, normalize, power_of)
from bvcov.parser import build_cover, parse_theory_file
from bvcov.curved import (BElement, CanonicalSubstitution, TruncatedFlowError, _grade,
                          d_element, du, u_bracket, u_coefficient, u_element)
from bvcov.aksz import TargetChart, build_covariant_theory
from bvcov.thomwhitney import (CechCochain, CoverNerve, Refinement, TWElement,
                               _restrict_along, cech_delta, collapse, form_differential,
                               gauge_equivalence_check, global_covariant_theory,
                               global_mc_check, simplicial_pullback, tw_bracket,
                               tw_differential, tw_gauge_flow, whitney,
                               whitney_commutes)
from conftest import eps_parts, u_parts, u_series


def shared_theory():
    t = Theory("shared")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    t.add_field("th", 1, 1)
    return t


def atlas(bound):
    t = shared_theory()
    nerve = CoverNerve({"A": t, "B": t, "C": t}, dimension_bound=bound)
    for k in (2, 3):
        for combo in itertools.combinations(["A", "B", "C"], k):
            nerve.declare_overlap(frozenset(combo), t,
                                  {c: CanonicalSubstitution(t, {}, t) for c in combo})
    return nerve, t


@pytest.fixture
def atlas3():
    return atlas(3)


def sampler(t, seed):
    rng = random.Random(seed)

    def rand_val():
        out = Expression.zero(t)
        for _ in range(rng.randint(1, 2)):
            term = Expression.const(t, rng.choice([1, -1, 2]))
            for _ in range(rng.randint(1, 2)):
                term = term * Expression.of(
                    t, rng.choice(["q", "r", "th", "q+", "r+", "th+"]),
                    rng.randint(0, 1))
            out = out + term
        return out
    return rand_val


def test_simplicial_pullback_examples(atlas3):
    nerve, t = atlas3
    # degeneracy s0: [1] -> [0] collapses t_0 + t_1 to 1
    th1 = nerve.simplex_theory(("A", "A"), 1)
    th0 = nerve.simplex_theory(("A",), 0)
    val = nerve.t_symbol(th1, 0, 1) + nerve.t_symbol(th1, 1, 1)
    moved = simplicial_pullback(nerve, [0, 0], 1, 1, val, ("A", "A"), th1)
    assert is_zero(moved - Expression.const(th1, 1))
    # face pullback commutes with the form differential on random forms
    rng = random.Random(9)
    th2 = nerve.simplex_theory(("A", "B", "C"), 2)
    for f in ([0, 1], [0, 2], [1, 2]):
        for _ in range(3):
            e = Expression.const(th2, rng.randint(1, 3))
            for i in (1, 2):
                if rng.random() < 0.6:
                    e = e * nerve.t_symbol(th2, i, 2)
                if rng.random() < 0.4:
                    e = e * nerve.dt_symbol(th2, i, 2)
            v = e
            dst = nerve.simplex_theory(("A", "B"), 1)
            lhs = simplicial_pullback(nerve, f, 1, 2, form_differential(v),
                                      ("A", "B", "C"), dst)
            rhs = form_differential(simplicial_pullback(
                nerve, f, 1, 2, v, ("A", "B", "C"), dst))
            assert is_zero(lhs - rhs)


def test_form_differential_reaches_every_simplex_coordinate():
    # the count of simplex coordinates has no cap: t_70 maps to dt_70
    t = Theory("D70")
    for i in range(1, 71):
        t.add_simplex_coordinate(f"t_{i}")
        t.add_one_form(f"dt_{i}")
    v = Expression.of(t, "t_1") * Expression.of(t, "t_70")
    want = Expression.of(t, "dt_1") * Expression.of(t, "t_70") \
        + Expression.of(t, "t_1") * Expression.of(t, "dt_70")
    assert is_zero(form_differential(v) - want)


def test_cech_delta(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 10)
    c0 = CechCochain(nerve, 0, {(a,): rand_val() for a in "ABC"})
    d1 = cech_delta(c0)
    # (delta nu)_{ab} = nu_b - nu_a under identity restrictions
    va = c0.values[("A",)]
    vb = c0.values[("B",)]
    got = d1.values[("A", "B")]
    assert is_zero(got - (vb - va))
    assert all(is_zero(v) for v in cech_delta(d1).values.values())


def test_whitney_formula_and_commutation(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 11)
    vals = {(a,): rand_val() for a in "ABC"}
    c0 = CechCochain(nerve, 0, vals)
    w0 = whitney(c0)
    # k = 0: w(nu) on (a0...ak) is sum t_{a_i} nu_{a_i}
    T = ("A", "B")
    th = nerve.simplex_theory(T, 1)
    want = nerve.t_symbol(th, 0, 1) * _embed(vals[("A",)], th) \
        + nerve.t_symbol(th, 1, 1) * _embed(vals[("B",)], th)
    assert is_zero(w0.value(T) - want)
    assert whitney_commutes(c0).is_zero()
    c1 = CechCochain(nerve, 1, {p: rand_val() for p in itertools.combinations("ABC", 2)})
    assert whitney_commutes(c1).is_zero()
    # w of the zero cochain vanishes
    z = CechCochain(nerve, 1, {})
    assert whitney(z).is_zero()
    # whitney images are simplicial (equalizer condition) and normalized,
    # checked on the full path, where no value is derived by a pullback;
    # the cap stops both checks at 150 of the 525 generating arrows
    for w in (_whitney_bruteforce(c0), _whitney_bruteforce(c1)):
        rep = check_simplicial(w, max_checks=150)
        assert not rep.bad
        assert (rep.checked, rep.total) == (150, 525)


def _embed(e, th):
    from bvcov.expression import embed
    return embed(e, th)


# The full path: Thom-Whitney elements with a value computed on every
# admissible tuple, degenerate ones included, the oracle for the elements
# of `bvcov.thomwhitney`, which compute on the nondegenerate tuples and
# derive the rest by pullback.

def _whitney_bruteforce(c):
    """The Whitney map as a sum over every position tuple, one restriction
    and one scale per position, on every admissible tuple: the oracle for
    `whitney`."""
    nerve = c.nerve
    k = c.degree
    out = {}
    for T in nerve.tuples():
        m = len(T) - 1
        theory = nerve.simplex_theory(T, m)
        acc = Expression.zero(theory)
        for positions in itertools.product(range(m + 1), repeat=k + 1):
            sign, v = c.value(tuple(T[i] for i in positions))
            if sign == 0 or v is None:
                continue
            moved = nerve.restrict(v, tuple(sorted(set(T[i] for i in positions))),
                                   T, theory)
            for j in range(k + 1):
                form = Expression.const(theory, 1 if j % 2 == 0 else -1)
                form = form * nerve.t_symbol(theory, positions[j], m)
                for r in range(k + 1):
                    if r != j:
                        form = form * nerve.dt_symbol(theory, positions[r], m)
                acc = acc + form * moved * Fraction(sign, k + 1)
        out[T] = acc
    return TWElement(nerve, out)


@dataclass
class SimplicialReport:
    """Arrows (T, f) that break the equalizer condition; `checked` of the
    `total` generating arrows were tested, fewer when the cap was hit."""
    bad: list[tuple]
    checked: int
    total: int


def check_simplicial(SS: TWElement, max_checks: int = 400) -> SimplicialReport:
    """Equalizer condition on the generating arrows of the simplex category:
    the form pullback of the value on a tuple agrees with the restricted
    value on the reindexed tuple.  Tests the first `max_checks` arrows."""
    nerve = SS.nerve
    arrows = []
    for T in nerve.tuples():
        m = len(T) - 1
        if m >= 1:
            for i in range(m + 1):
                arrows.append((T, [j for j in range(m + 1) if j != i]))      # faces
        if len(T) + 1 <= nerve.dimension_bound + 1:
            for i in range(m + 1):
                arrows.append((T, list(range(i + 1)) + list(range(i, m + 1))))  # degeneracies
    tested = arrows[:max_checks]
    bad = []
    for T, f in tested:
        m = len(T) - 1
        src = tuple(T[j] for j in f)       # T o f, the reindexed tuple
        k = len(f) - 1
        theory = nerve.simplex_theory(T, k)
        # form pullback of the long-tuple value along f: [k] -> [m]
        lhs = simplicial_pullback(nerve, f, k, m, SS.value(T), T, theory)
        rhs = nerve.restrict(SS.value(src), src, T, theory)
        if not is_zero(lhs - rhs):
            bad.append((T, f))
    return SimplicialReport(bad, len(tested), len(arrows))


def _tw_curvature_full(nerve):
    out = {}
    for T in nerve.tuples():
        theory = nerve.simplex_theory(T, len(T) - 1)
        out[T] = u_element(theory) * d_element(theory)
    return TWElement(nerve, out)


def _whitney_commutes_full(c):
    internal = CechCochain(c.nerve, c.degree, {
        T: du(v) * (-1) ** c.degree for T, v in c.values.items()})
    return tw_differential(_whitney_bruteforce(c)) - (
        _whitney_bruteforce(cech_delta(c)) + _whitney_bruteforce(internal))


def _global_covariant_full(nerve, local):
    out = _whitney_bruteforce(CechCochain(nerve, 0, {
        (a,): local[a] for a in nerve.chart_names}))
    mu = {tuple(sorted(key)): BElement.of_eps(ctx.mu)
          for key, ctx in nerve.overlaps.items() if len(key) == 2 and ctx.mu is not None}
    return out + _whitney_bruteforce(CechCochain(nerve, 1, mu)) if mu else out


def _global_mc_full(SS):
    """(residual on every admissible tuple, the tuples where it is nonzero)."""
    residual = tw_differential(SS) + tw_bracket(SS, SS) * Fraction(1, 2) \
        + _tw_curvature_full(SS.nerve)
    return residual.values, [T for T, v in residual.values.items() if not is_zero(v)]


def _assert_same_terms(got, want, where):
    assert got.theory is want.theory, where
    assert got == want, where
    assert repr(got) == repr(want), where


def _assert_matches_full_path(fast, full):
    """`fast` stores the nondegenerate tuples only, and its value on every
    admissible tuple, derived or stored, is the full path's term for term."""
    nerve = fast.nerve
    assert list(fast.values) == nerve.nondegenerate_tuples()
    assert list(full.values) == nerve.tuples()
    for T in nerve.tuples():
        _assert_same_terms(fast.value(T), full.values[T], T)


def test_tuples_collapse_to_their_nondegenerate_face():
    assert collapse(("A",)) == (("A",), [0])
    assert collapse(("A", "B", "A")) == (("A", "B", "A"), [0, 1, 2])
    assert collapse(("A", "A", "B", "B", "B", "A")) == (("A", "B", "A"), [0, 0, 1, 1, 1, 2])
    # tuples computed per Whitney map: 21 of 39 at bound 2, 45 of 120 at 3
    for bound, computed, admissible in ((1, 9, 12), (2, 21, 39), (3, 45, 120)):
        nerve, _ = atlas(bound)
        assert (len(nerve.nondegenerate_tuples()), len(nerve.tuples())) == \
            (computed, admissible)
        assert all(collapse(T)[0] == T for T in nerve.nondegenerate_tuples())
    nerve, _, _ = cylinder()
    assert (len(nerve.nondegenerate_tuples()), len(nerve.tuples())) == (8, 30)


def _atlas_cochains(bound):
    nerve, t = atlas(bound)
    rand_val = sampler(t, 20 + bound)
    return [CechCochain(nerve, degree, {
        T: u_series(t, {0: rand_val() + BElement.of_eps(rand_val()),
                        1: BElement.of_body(rand_val())})
        for T in itertools.combinations("ABC", degree + 1)}) for degree in (0, 1, 2)]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_whitney_matches_bruteforce_on_atlas(bound):
    for c in _atlas_cochains(bound):
        _assert_matches_full_path(whitney(c), _whitney_bruteforce(c))


def _splice_chart():
    """A chart with an even field q, an odd field th, an odd ghost -1 field
    b whose antifield b+ is an even pow base, a function F(q) and tau; its
    0- and 1-jets and tau, and atoms: F, F_q, log(b+), pow(b+, 2 tau - 1/2)
    and a compound inverse."""
    t = Theory("splice")
    t.add_field("q", 0, 0)
    t.add_field("th", 1, 1)
    t.add_field("b", -1, 1)
    t.add_function("F", ["q"])
    tau = t.add_flow_param("tau")
    bp = Expression.of(t, "b+")
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",))]
    for e in (log_of(bp), power_of(bp, AffineExponent(Fraction(-1, 2), 2, tau)),
              inverse_of(Expression.of(t, "q") + bp)):
        (atom, _), = e.terms[0].atoms
        atoms.append(atom)
    symbols = [t.symbol(n, j) for n in ("q", "th", "b", "q+", "th+", "b+") for j in (0, 1)]
    return t, atoms, symbols + [tau, t.u, t.epsilon]


def _chart_values(t, atoms, symbols, rng, count):
    """`count` seeded nonzero values over a chart: odd and even generators,
    u and eps powers, tau, function, log and pow atoms."""
    out = []
    while len(out) < count:
        v = normalize(t, [(rng.choice([1, -1, 2, Fraction(1, 3)]),
                           tuple((rng.choice(atoms), rng.randint(1, 2))
                                 for _ in range(rng.randint(0, 1)) if atoms),
                           tuple((rng.choice(symbols), rng.randint(1, 2))
                                 for _ in range(rng.randint(0, 4))))
                          for _ in range(rng.randint(1, 4))])
        if v.terms:
            out.append(v)
    return out


def test_whitney_splice_matches_the_product(monkeypatch):
    """`_splice_forms` on the prepared rows of a face form w (`rows`, and
    `negated` and `differential`, the rows of -w and of its form
    differential dw) gives `_product`'s terms, key and coefficient with w,
    -w and dw, for every face form of the atlas at bounds 2 and 3 and of
    the cylinder nerve, times seeded chart values; a value term with a
    simplex generator in its monomial or as a single-symbol pow base takes
    `_product`, and no other one does."""
    from bvcov import expression
    from bvcov.expression import _merge_runs, _product, _splice_forms
    rng = random.Random(26)
    chart, atoms, symbols = _splice_chart()
    three = CoverNerve({"A": chart, "B": chart, "C": chart})
    for k in (2, 3):
        for combo in itertools.combinations("ABC", k):
            three.declare_overlap(frozenset(combo), chart,
                                  {c: CanonicalSubstitution(chart, {}, chart) for c in combo})
    cyl = cylinder()[0]
    OV = cyl.overlaps[frozenset({"U0", "U1"})].theory
    cases = [(three, 2, chart, atoms, symbols), (three, 3, chart, atoms, symbols),
             (cyl, 3, OV, [], [OV.symbol(n, j) for n in ("x", "p", "x+", "p+") for j in (0, 1)]
              + [OV.u, OV.epsilon])]
    calls = []
    real = expression._product
    spliced = fallbacks = 0
    for nerve, bound, base, pool_atoms, pool in cases:
        nerve.dimension_bound = bound
        values = _chart_values(base, pool_atoms, pool, rng, 6)
        for degree in range(bound + 1):
            for T, theory, faces in nerve.whitney_faces(degree):
                moved = [embed(v, theory) for v in values]
                plain = len(moved)
                if len(T) > 1:
                    t1, dt1 = Expression.of(theory, "t_1"), Expression.of(theory, "dt_1")
                    moved += [moved[0] * t1 + moved[1], moved[2] * dt1,
                              power_of(t1, Fraction(1, 2)) * moved[3] + moved[4]]
                for _, face in faces:
                    w = face.form
                    for rows, form in ((face.rows, w), (face.negated, -w),
                                       (face.differential, form_differential(w))):
                        for i, v in enumerate(moved):
                            monkeypatch.setattr(expression, "_product",
                                                lambda *a: calls.append(1) or real(*a))
                            got = _merge_runs(_splice_forms(theory, rows, v.terms))
                            monkeypatch.undo()
                            assert [(x.coef, x.atoms, x.mono, x.key) for x in got] == \
                                [(x.coef, x.atoms, x.mono, x.key)
                                 for x in _product(theory, form.terms, v.terms)], (T, i)
                            if i < plain:
                                assert not calls, (T, i)
                                spliced += len(form.terms) * len(v.terms)
                            else:
                                assert calls, (T, i)
                                fallbacks += 1
                            del calls[:]
    assert spliced > 15000 and fallbacks > 1500


def test_whitney_takes_no_product(monkeypatch):
    """Once the nerve holds its Whitney forms, `whitney` on the atlas, whose
    restrictions relabel, multiplies no two expressions."""
    for c in _atlas_cochains(2):
        whitney(c)
        calls = []
        real = Expression.__mul__
        monkeypatch.setattr(Expression, "__mul__", lambda *a: calls.append(1) or real(*a))
        w = whitney(c)
        monkeypatch.undo()
        assert calls == [] and not w.is_zero()


def test_whitney_faces_follow_the_overlaps_and_the_bound():
    """The nerve's Whitney data is keyed by degree and dimension bound and
    dropped when an overlap is declared: after a Whitney map, a new overlap
    or a new bound gives the full path's values on every admissible tuple.
    An overlap cannot be declared again, nor one of a single chart."""
    t = shared_theory()
    nerve = CoverNerve({"A": t, "B": t, "C": t}, dimension_bound=2)
    rand_val = sampler(t, 31)
    values = {T: rand_val() for T in [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"),
                                      ("B", "C"), ("A", "B", "C")]}

    def declare(names):
        nerve.declare_overlap(frozenset(names), t,
                              {c: CanonicalSubstitution(t, {}, t) for c in names})

    def check():
        for degree in (0, 1, 2):
            c = CechCochain(nerve, degree, {T: v for T, v in values.items()
                                            if len(T) == degree + 1 and nerve.nonempty(T)})
            _assert_matches_full_path(whitney(c), _whitney_bruteforce(c))

    declare("AB")
    check()
    declare("BC")
    check()
    for names in ("AC", "ABC"):
        declare(names)
    check()
    for bound in (1, 3, 2):
        nerve.dimension_bound = bound
        check()
    for names, message in (("BA", "overlap A B is already declared"),
                           ("A", "an overlap needs at least two charts")):
        with pytest.raises(TheoryError, match=message):
            declare(names)


def test_simplex_theory_refuses_a_chart_name_of_the_nerve():
    """A chart or overlap that declares a t_<i> or dt_<i> name is refused
    with that name; before, the name was skipped and the check failed on
    an unknown dt_<i>, or on the form differential, far from the cause."""
    for name in ("t_1", "t_4", "dt_3"):
        t = shared_theory()
        clashing = Theory("U")
        clashing.add_field(name, 0, 0)
        for chart, overlap in ((clashing, t), (t, clashing)):
            nerve = CoverNerve({"A": chart, "B": t}, dimension_bound=1)
            nerve.declare_overlap({"A", "B"}, overlap, {
                "A": CanonicalSubstitution(chart, {}, overlap),
                "B": CanonicalSubstitution(t, {}, overlap)})
            with pytest.raises(TheoryError, match=f"^U declares {name}, a name reserved "
                               "for the simplex generators of the nerve$"):
                whitney(CechCochain(nerve, 0, {}))


def test_a_second_whitney_map_builds_no_form(monkeypatch):
    """The Whitney forms of one degree are built once per nerve, one per
    simplex theory and increasing positions, and a second map of that
    degree builds none."""
    nerve, t = atlas(2)
    rand_val = sampler(t, 32)
    built = []
    real = CoverNerve._whitney_form
    monkeypatch.setattr(CoverNerve, "_whitney_form", lambda self, theory, positions, m:
                        built.append((theory, positions)) or real(self, theory, positions, m))
    # at bound 2 the simplex theories are 3 points, 3 edges and 4 triangles,
    # 3 of them on two charts (ABA), where 2 of the 3 position pairs pick
    # distinct charts: 3 + 3 * 2 + 3 = 12 forms in degree 1, and 3 + 3 * 2
    # + 4 * 3 = 21 in degree 0
    for degree, count in ((1, 12), (1, 0), (0, 21), (1, 0), (0, 0)):
        c = CechCochain(nerve, degree, {T: rand_val()
                                        for T in itertools.combinations("ABC", degree + 1)})
        del built[:]
        whitney(c)
        assert len(built) == len(set(built)) == count, degree


@pytest.mark.parametrize("bound", [1, 2])
def test_whitney_commutes_matches_full_path_on_atlas(bound):
    # not at bound 3, where the full path's differential of random values
    # on all 120 tuples takes seconds
    for c in _atlas_cochains(bound):
        _assert_matches_full_path(whitney_commutes(c), _whitney_commutes_full(c))


def _whitney_commutes_by_maps(c):
    """The cochain-map residual as the composite of the maps it checks,
    d_TW w(c) - w(delta c) - w((-1)^k d_u c): the oracle for the spliced
    residual of `whitney_commutes`."""
    internal = CechCochain(c.nerve, c.degree, {
        T: du(v) * (-1) ** c.degree for T, v in c.values.items()})
    return tw_differential(whitney(c)) - whitney(cech_delta(c)) - whitney(internal)


def _twisted_atlas(bound):
    """The atlas with chart A restricted to each overlap along q -> q +
    q+ th+, which is not a d_u map, so the cochain-map residual of a
    cochain with a value on A does not vanish."""
    t = shared_theory()
    twist = {t.symbol("q"): Expression.of(t, "q") + Expression.of(t, "q+") * Expression.of(t, "th+")}
    nerve = CoverNerve({"A": t, "B": t, "C": t}, dimension_bound=bound)
    for k in (2, 3):
        for combo in itertools.combinations("ABC", k):
            nerve.declare_overlap(frozenset(combo), t, {
                c: CanonicalSubstitution(t, twist if c == "A" else {}, t) for c in combo})
    return nerve, t


def _assert_same_residual(got, want) -> int:
    """got and want agree term by term on every nondegenerate tuple; the
    number of tuples where they do not vanish."""
    assert list(got.values) == list(want.values) == got.nerve.nondegenerate_tuples()
    for T, v in want.values.items():
        _assert_same_terms(got.values[T], v, T)
    return sum(not is_zero(v) for v in want.values.values())


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_whitney_commutes_matches_the_maps_on_atlas(bound):
    """The spliced residual is the maps' term by term, key and coefficient:
    zero on the atlas, whose restrictions commute with d_u, and nonzero on
    many tuples of the twisted atlas, whose cochains have u and eps parts."""
    for c in _atlas_cochains(bound):
        assert _assert_same_residual(whitney_commutes(c), _whitney_commutes_by_maps(c)) == 0
    nerve, t = _twisted_atlas(bound)
    rand_val = sampler(t, 40 + bound)
    nonzero = 0
    for _ in range(8):
        for degree in (0, 1, 2):
            c = CechCochain(nerve, degree, {
                T: u_series(t, {0: rand_val() + BElement.of_eps(rand_val()),
                                1: BElement.of_body(rand_val())})
                for T in itertools.combinations("ABC", degree + 1)})
            nonzero += _assert_same_residual(whitney_commutes(c), _whitney_commutes_by_maps(c))
    # 230 of the 72 cochains' 1,800 tuple residuals
    assert nonzero == {1: 16, 2: 70, 3: 144}[bound]


def test_whitney_commutes_matches_the_maps_on_cylinder():
    """On the cylinder, whose U1 restricts along x -> x + 3, for its local
    theories as a 0-cochain and its mu as a 1-cochain, with the cocycle mu
    and with the broken mu + x^2."""
    for nerve, local, _ in _cylinders():
        for c in (CechCochain(nerve, 0, {(a,): local[a] for a in nerve.chart_names}),
                  CechCochain(nerve, 1, {("U0", "U1"): BElement.of_eps(
                      nerve.overlaps[frozenset({"U0", "U1"})].mu)})):
            _assert_same_residual(whitney_commutes(c), _whitney_commutes_by_maps(c))


def test_a_second_cochain_map_check_takes_no_whitney_map(monkeypatch):
    """Once the nerve holds its face forms and their differentials, a
    cochain-map check builds no Whitney image, takes no Thom-Whitney
    differential and no form differential."""
    from bvcov import thomwhitney
    nerve, t = atlas(2)
    rand_val = sampler(t, 33)
    for degree in (0, 1, 2):
        c = CechCochain(nerve, degree, {T: rand_val()
                                        for T in itertools.combinations("ABC", degree + 1)})
        assert whitney_commutes(c).is_zero()
        calls = []
        for name in ("whitney", "tw_differential", "form_differential"):
            real = getattr(thomwhitney, name)
            monkeypatch.setattr(thomwhitney, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        assert whitney_commutes(c).is_zero()
        monkeypatch.undo()
        assert calls == [], degree


def _cylinders():
    """The cylinder with its cocycle mu, and with mu + x^2, which breaks the
    global Maurer-Cartan equation."""
    return [cylinder(), cylinder(mu_extra=lambda OV: Expression.of(OV, "x") ** 2)]


def test_whitney_matches_bruteforce_on_cylinder():
    # U1 restricts by y -> x + 3, and the 1-cochain carries mu
    for nerve, local, _ in _cylinders():
        for c in (CechCochain(nerve, 0, {(a,): local[a] for a in nerve.chart_names}),
                  CechCochain(nerve, 1, {("U0", "U1"): BElement.of_eps(
                      nerve.overlaps[frozenset({"U0", "U1"})].mu)})):
            _assert_matches_full_path(whitney(c), _whitney_bruteforce(c))


def test_global_mc_matches_full_path_on_cylinder():
    """Residuals are computed on the 8 nondegenerate tuples, and reported
    on all 30 admissible ones term for term as the full path computes them,
    with the same failing tuples in the same order."""
    for (nerve, local, _), broken in zip(_cylinders(), (False, True)):
        SS, full = global_covariant_theory(nerve, local), _global_covariant_full(nerve, local)
        _assert_matches_full_path(SS, full)
        report = global_mc_check(SS)
        residuals, failing = _global_mc_full(full)
        assert len(report.residuals) == len(nerve.tuples()) == 30
        assert list(report.residuals) == list(residuals)
        for T, want in residuals.items():
            _assert_same_terms(report.residuals[T], want, T)
        assert report.failing == failing
        assert report.ok == (not failing) == (not broken)


# `apply_substitution` relabels a term in place when none of its
# generators moves; the product path below, every term multiplied out
# factor by factor, is its oracle.

def _substitution_by_products(expr, images, target):
    def image_of(sym):
        base0 = expr.theory.symbol(sym.base) if _is_jet(sym) else sym
        img = images.get(base0)
        if img is None:
            img = Expression.of(target, sym.base if _is_jet(sym) else sym.name)
        return iterated_total(img, sym.jet_order)

    pieces = []
    for t in expr.terms:
        piece = Expression.const(target, t.coef)
        for a, e in t.atoms:
            pa = _map_atom(a, images, expr.theory, target)
            for _ in range(e):
                piece = piece * pa
        for sym, e in t.mono:
            for _ in range(e):
                piece = piece * image_of(sym)
        pieces.append(piece)
    return Expression.sum(target, pieces)


def _chart(name, fields):
    t = Theory(name)
    for f in fields:
        t.add_field(f, *{"q": (0, 0), "th": (1, 1)}[f])
    t.add_function("F", ["q"])
    t.add_flow_param("tau")
    return t


def _draw(data, theory, names):
    """An expression over the jets (orders 0 to 2) of the named generators
    and tau when declared, with a function symbol when declared, its
    derivative and a log atom."""
    symbols = [theory.symbol(n, j) for n in names for j in (0, 1, 2)] + \
        [s for s in (theory.maybe_symbol("tau"),) if s is not None]
    (log, _), = log_of(Expression.of(theory, names[0]) + 1).terms[0].atoms
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",)), log] if theory.functions() else [log]
    raw = data.draw(st.lists(st.tuples(
        st.sampled_from([1, -2, Fraction(1, 3)]),
        st.lists(st.tuples(st.integers(0, len(atoms) - 1), st.integers(1, 2)), max_size=1),
        st.lists(st.tuples(st.integers(0, len(symbols) - 1), st.integers(1, 2)), max_size=4)),
        max_size=6))
    return normalize(theory, [(c, tuple((atoms[i], e) for i, e in a),
                               tuple((symbols[i], e) for i, e in m)) for c, a, m in raw])


def _assert_substitution_matches(got, expr, images, target):
    want = _substitution_by_products(expr, images, target)
    assert got.theory is target
    assert [(t.coef, t.atoms, t.mono, t.key) for t in got.terms] == \
        [(t.coef, t.atoms, t.mono, t.key) for t in want.terms]
    assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitution_relabels_as_the_product_path(data):
    """apply_substitution agrees term by term with the product path when it
    embeds a chart value into a fused simplex theory, in the atlas's
    identity restriction, into a theory that registers the fields in
    another order (where it must multiply out), and along the cylinder's
    y -> x + 3."""
    chart = _chart("A", ("q", "th"))
    nerve = CoverNerve({"A": chart, "B": chart}, dimension_bound=2)
    nerve.declare_overlap({"A", "B"}, chart,
                          {c: CanonicalSubstitution(chart, {}, chart) for c in "AB"})
    names = ("q", "th", "q+", "th+")
    e = _draw(data, chart, names)
    fused = nerve.simplex_theory(("A", "B", "A"), 2)
    _assert_substitution_matches(embed(e, fused), e, {}, fused)
    # the identity restriction embeds each part of the value
    fused = nerve.simplex_theory(("A", "B"), 1)
    x = e + BElement.of_eps(_draw(data, chart, names))
    moved = u_coefficient(nerve.restrict(x, ("A", "B"), ("A", "B"), fused), 0)
    for got, part in zip(eps_parts(moved), eps_parts(u_coefficient(x, 0))):
        _assert_substitution_matches(got, part, {}, fused)
    # th before q: every term with a field changes its order
    swapped = _chart("A", ("th", "q"))
    _assert_substitution_matches(embed(e, swapped), e, {}, swapped)
    # the cylinder restricts U1 along y -> x + 3
    tf = parse_theory_file((Path(__file__).resolve().parent.parent / "theories"
                            / "cylinder_flux.bvt").read_text())
    cyl = build_cover(tf.covers["cylinder_flux"])
    sub = cyl.overlaps[frozenset({"U0", "U1"})].from_chart["U1"]
    f = _draw(data, sub.theory, ("y", "p", "y+", "p+"))
    _assert_substitution_matches(apply_substitution(f, sub.images, sub.target), f,
                                 sub.images, sub.target)
    fused = cyl.simplex_theory(("U0", "U1"), 1)
    images = {g: embed(img, fused) for g, img in sub.images.items()}
    moved = eps_parts(u_coefficient(_restrict_along(sub, f, fused), 0))[0]
    _assert_substitution_matches(moved, f, images, fused)


def _substitution_per_call(expr, images, target):
    """`apply_substitution` deciding every relabel afresh, with an empty
    relabel table on the target."""
    kept = target._relabels
    target._relabels = weakref.WeakKeyDictionary()
    try:
        return apply_substitution(expr, images, target)
    finally:
        target._relabels = kept


def test_relabel_table_matches_the_per_call_path(monkeypatch):
    """Every substitution and embedding of the library models' pipelines and
    of the cylinder's global check, made with the relabel tables they fill,
    gives the terms, key and coefficient of the same call with an empty
    table, and of the product path."""
    from bvcov import expression
    from bvcov.models import MODEL_BUILDERS, build_model, spinning_pipeline
    real = expression.apply_substitution
    calls = []

    def recording(expr, images, target):
        got = real(expr, images, target)
        calls.append((expr, dict(images), target, got))
        return got
    for module in [m for n, m in sys.modules.items() if n.startswith("bvcov") and m]:
        if getattr(module, "apply_substitution", None) is real:
            monkeypatch.setattr(module, "apply_substitution", recording)
    for name in MODEL_BUILDERS:
        for dim in (1, 2):
            model = build_model(name, dim)
            if model.charge is not None and (dim, name) != (2, "curved-spinning-particle"):
                spinning_pipeline(model)
    nerve, local, _ = cylinder()
    assert global_mc_check(global_covariant_theory(nerve, local)).ok
    monkeypatch.undo()
    pairs = {(expr.theory, target) for expr, _, target, _ in calls}
    assert len(calls) > 400 and len(pairs) > 15
    for expr, images, target, got in calls:
        want = _substitution_per_call(expr, images, target)
        assert [(t.coef, t.atoms, t.mono, t.key) for t in got.terms] == \
            [(t.coef, t.atoms, t.mono, t.key) for t in want.terms]
        _assert_substitution_matches(got, expr, images, target)
    # a symbol that the table relabels is still moved by a call giving it an image
    t, other = shared_theory(), shared_theory()
    e = Expression.of(t, "q") * Expression.of(t, "th", 1) + Expression.of(t, "q", 1)
    embed(e, other)
    images = {t.symbol("q"): Expression.of(other, "r") + 1}
    _assert_substitution_matches(apply_substitution(e, images, other), e, images, other)


def test_relabel_table_keeps_no_source_theory_alive():
    """A theory embedded into another and then dropped is collected, and
    its entry leaves the target's relabel table."""
    target = shared_theory()
    source = shared_theory()
    e = Expression.of(source, "q") * Expression.of(source, "th+", 1) + 2
    moved = embed(e, target)
    assert moved == Expression.of(target, "q") * Expression.of(target, "th+", 1) + 2
    assert list(target._relabels) == [source]
    gone = weakref.ref(source)
    del source, e
    gc.collect()
    assert gone() is None and len(target._relabels) == 0


def test_whitney_k1_display(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 12)
    mu = {p: rand_val() for p in itertools.combinations("ABC", 2)}
    w1 = whitney(CechCochain(nerve, 1, mu))
    T = ("A", "B", "C")
    th = nerve.simplex_theory(T, 2)
    acc = Expression.zero(th)
    for (i, j), key in (((0, 1), ("A", "B")), ((0, 2), ("A", "C")),
                        ((1, 2), ("B", "C"))):
        ti, tj = nerve.t_symbol(th, i, 2), nerve.t_symbol(th, j, 2)
        dti, dtj = nerve.dt_symbol(th, i, 2), nerve.dt_symbol(th, j, 2)
        form = ti * dtj - tj * dti
        acc = acc + form * _embed(mu[key], th)
    assert is_zero(w1.value(T) - acc)


def test_tw_bracket_reduction_and_jacobi(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 13)

    def rand_tw():
        return whitney(CechCochain(nerve, 0, {
            (a,): rand_val() for a in "ABC"}))

    a, b, c = rand_tw(), rand_tw(), rand_tw()
    # on a vertex the bracket is the resolution bracket
    va, vb = a.value(("A",)), b.value(("A",))
    assert is_zero(tw_bracket(a, b).value(("A",)) - u_bracket(va, vb))
    # graded Jacobi on sign-homogeneous samples
    for x, y, z in ((a, b, c),):
        sx = _sigma(x)
        sy = _sigma(y)
        if sx is None or sy is None:
            continue
        sign = -1 if ((sx + 1) * (sy + 1)) % 2 else 1
        j = tw_bracket(x, tw_bracket(y, z)) \
            - tw_bracket(tw_bracket(x, y), z) \
            - tw_bracket(y, tw_bracket(x, z)) * sign
        assert j.is_zero()


def _sigma(x):
    sig = None
    for v in x.values.values():
        for c in u_parts(v).values():
            g = _grade(c)
            if g is None:
                return None
            if sig is None:
                sig = g[1]
            elif sig != g[1]:
                return None
    return sig


def test_tw_differential_squares_to_curvature(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 14)
    from bvcov.thomwhitney import tw_curvature
    x = whitney(CechCochain(nerve, 0, {
        (a,): rand_val() for a in "ABC"}))
    lhs = tw_differential(tw_differential(x))
    rhs = tw_bracket(tw_curvature(nerve), x)
    assert (lhs - rhs).is_zero()
    # and the bracket is graded-antisymmetric on homogeneous samples
    y = whitney(CechCochain(nerve, 0, {
        (a,): rand_val() for a in "ABC"}))
    sx, sy = _sigma(x), _sigma(y)
    if sx is not None and sy is not None:
        sign = -1 if ((sx + 1) * (sy + 1)) % 2 else 1
        assert (tw_bracket(y, x) + tw_bracket(x, y) * sign).is_zero()


def test_whitney_injective_on_samples(atlas3):
    nerve, t = atlas3
    rand_val = sampler(t, 15)
    vals = {p: rand_val() for p in itertools.combinations("ABC", 2)}
    w = whitney(CechCochain(nerve, 1, vals))
    assert not w.is_zero()
    zero = whitney(CechCochain(nerve, 1, {
        p: Expression.zero(t) for p in itertools.combinations("ABC", 2)}))
    assert zero.is_zero()


def cylinder(A0=Fraction(2), A1=Fraction(5), shift=Fraction(3),
             mu_extra=None):
    def chart(name):
        t = Theory(name)
        t.add_field("x", 0, 0)
        t.add_field("p", 0, 0)
        return t

    U0, U1, OV = chart("U0"), chart("U1"), chart("U01")
    nerve = CoverNerve({"U0": U0, "U1": U1}, dimension_bound=3)
    r0 = CanonicalSubstitution(U0, {U0.symbol("x"): Expression.of(OV, "x"),
                                    U0.symbol("p"): Expression.of(OV, "p")}, OV)
    r1 = CanonicalSubstitution(U1, {U1.symbol("x"): Expression.of(OV, "x") + shift,
                                    U1.symbol("p"): Expression.of(OV, "p")}, OV)
    mu = (A1 - A0) * Expression.of(OV, "x")
    if mu_extra is not None:
        mu = mu + mu_extra(OV)
    nerve.declare_overlap({"U0", "U1"}, OV, {"U0": r0, "U1": r1}, mu=mu)
    local = {
        "U0": build_covariant_theory(TargetChart(U0, {"x": Expression.of(U0, "p") + A0})),
        "U1": build_covariant_theory(TargetChart(U1, {"x": Expression.of(U1, "p") + A1})),
    }
    return nerve, local, (U0, U1, OV)


def test_cylinder_global_mc():
    nerve, local, _ = cylinder()
    SS = global_covariant_theory(nerve, local)
    rep = global_mc_check(SS)
    assert rep.ok
    rep = check_simplicial(_global_covariant_full(nerve, local), max_checks=250)
    assert not rep.bad
    assert rep.checked == rep.total == 130


def test_single_chart_reduces_to_local_mc():
    t = Theory("solo")
    t.add_field("x", 0, 0)
    t.add_field("p", 0, 0)
    nerve = CoverNerve({"U": t}, dimension_bound=2)
    S = build_covariant_theory(TargetChart(t, {"x": Expression.of(t, "p")}))
    SS = global_covariant_theory(nerve, {"U": S})
    assert global_mc_check(SS).ok


def test_broken_mu_detected_and_localized():
    nerve, local, _ = cylinder(mu_extra=lambda OV: Expression.of(OV, "x") ** 2)
    SS = global_covariant_theory(nerve, local)
    rep = global_mc_check(SS)
    assert not rep.ok
    assert ("U0", "U1") in rep.failing
    # vertices still satisfy the local equation
    assert ("U0",) not in rep.failing and ("U1",) not in rep.failing


def test_locally_constant_cocycle_dies_in_whitney():
    # constant multiples of eps vanish: w(mu eps) of constant mu is zero
    nerve, local, (U0, U1, OV) = cylinder()
    const_mu = CechCochain(nerve, 1, {("U0", "U1"): BElement.of_eps(Expression.const(OV, 7))})
    assert whitney(const_mu).is_zero()


def _constant_shift():
    """The cylinder under a constant shift of nu and the homotopy nu_tilde
    relating the two: (nerve, nu0, mu0, nu1, mu1, nu_tilde, build)."""
    nerve, local, (U0, U1, OV) = cylinder()
    A0, A1, shift = Fraction(2), Fraction(5), Fraction(3)
    pairkey = frozenset({"U0", "U1"})

    def build(nu, mu):
        loc = {name: build_covariant_theory(TargetChart(
            {"U0": U0, "U1": U1}[name], nu[name])) for name in ("U0", "U1")}
        for key, val in mu.items():
            nerve.overlaps[key].mu = val
        return global_covariant_theory(nerve, loc)

    nu0 = {"U0": {"x": Expression.of(U0, "p") + A0},
           "U1": {"x": Expression.of(U1, "p") + A1}}
    mu0 = {pairkey: (A1 - A0) * Expression.of(OV, "x")}
    k0, k1 = Fraction(7), Fraction(-4)
    nu_tilde = {"U0": k0 * Expression.of(U0, "x"),
                "U1": k1 * Expression.of(U1, "x")}
    nu1 = {"U0": {"x": Expression.of(U0, "p") + A0 + k0},
           "U1": {"x": Expression.of(U1, "p") + A1 + k1}}
    mu1 = {pairkey: mu0[pairkey] + k1 * (Expression.of(OV, "x") + shift)
           - k0 * Expression.of(OV, "x")}
    return nerve, nu0, mu0, nu1, mu1, nu_tilde, build


def test_gauge_equivalence_constant_shift():
    nerve, nu0, mu0, nu1, mu1, nu_tilde, build = _constant_shift()
    U0, U1 = nerve.charts["U0"], nerve.charts["U1"]
    rep = gauge_equivalence_check(nerve, nu0, mu0, nu1, mu1, nu_tilde, build)
    assert rep.ok
    # zero homotopy: nothing moves
    rep0 = gauge_equivalence_check(nerve, nu0, mu0, nu0, mu0,
                                   {"U0": Expression.zero(U0),
                                    "U1": Expression.zero(U1)}, build)
    assert rep0.ok


def _tw_gauge_flow_bruteforce(x, y, max_order=12):
    """The Thom-Whitney gauge flow's loop before it shared `orbit`, unchanged
    but for its name."""
    w = tw_differential(y) + tw_bracket(x, y)
    out = x
    coeff = Fraction(1)
    for n in range(max_order):
        if w.is_zero():
            return out
        coeff = coeff / (n + 1)
        out = out + w * coeff
        w = tw_bracket(y, w) * Fraction(-1)
    raise TheoryError("Thom-Whitney gauge flow did not terminate")


def _shift_flow_data():
    nerve, nu0, mu0, nu1, mu1, nu_tilde, build = _constant_shift()
    y = whitney(CechCochain(nerve, 0, {
        (a,): BElement.of_eps(nu_tilde[a]) for a in nerve.chart_names}))
    return build(nu0, mu0), y


def _tw_terms(x: TWElement) -> dict:
    return {T: [(n, *([(t.coef, t.atoms, t.mono) for t in part.terms]
                      for part in eps_parts(c)))
                for n, c in u_parts(v).items()]
            for T, v in x.values.items()}


def test_tw_gauge_flow_matches_bruteforce():
    SS0, y = _shift_flow_data()
    assert _tw_terms(tw_gauge_flow(SS0, y)) == _tw_terms(_tw_gauge_flow_bruteforce(SS0, y))
    zero = y * 0
    assert _tw_terms(tw_gauge_flow(SS0, zero)) == _tw_terms(SS0)


def test_tw_gauge_flow_truncation_is_a_flow_error():
    """The cap reports truncation as every flow cap does (exit 3 in the CLI),
    not as a usage error."""
    SS0, y = _shift_flow_data()
    with pytest.raises(TruncatedFlowError):
        tw_gauge_flow(SS0, y, max_order=1)


def test_tw_gauge_flow_cap_boundary():
    """A zero at index m of the bracket orbit needs max_order > m; the
    default cap is 12."""
    import inspect
    assert inspect.signature(tw_gauge_flow).parameters["max_order"].default == 12
    SS0, y = _shift_flow_data()
    w, m = tw_differential(y) + tw_bracket(SS0, y), 0
    while not w.is_zero():
        w, m = tw_bracket(y, w) * Fraction(-1), m + 1
    assert m >= 1
    tw_gauge_flow(SS0, y, max_order=m + 1)
    with pytest.raises(TruncatedFlowError):
        tw_gauge_flow(SS0, y, max_order=m)


def test_refinement_preserves_global_mc():
    nerve, local, (U0, U1, OV) = cylinder()
    SS = global_covariant_theory(nerve, local)
    assert global_mc_check(SS).ok
    # a 3-chart refinement: V0, V1 inside U0, V2 inside U1
    def chart(name):
        t = Theory(name)
        t.add_field("x", 0, 0)
        t.add_field("p", 0, 0)
        return t

    V = {n: chart(n) for n in ("V0", "V1", "V2")}
    OVs = {}
    fine = CoverNerve(V, dimension_bound=3)
    chart_map = {"V0": "U0", "V1": "U0", "V2": "U1"}
    restrictions = {}
    for name, th in V.items():
        src = {"V0": U0, "V1": U0, "V2": U1}[name]
        restrictions[frozenset({name})] = CanonicalSubstitution(
            src, {src.symbol("x"): Expression.of(th, "x"),
                  src.symbol("p"): Expression.of(th, "p")}, th)
    for pair in (("V0", "V1"), ("V0", "V2"), ("V1", "V2")):
        th = chart("^".join(pair))
        OVs[pair] = th
        maps = {}
        for member in pair:
            mth = V[member]
            maps[member] = CanonicalSubstitution(
                mth, {mth.symbol("x"): Expression.of(th, "x"),
                      mth.symbol("p"): Expression.of(th, "p")}, th)
        fine.declare_overlap(frozenset(pair), th, maps)
        # restriction from the matching coarse context
        c0, c1 = chart_map[pair[0]], chart_map[pair[1]]
        if c0 == c1:
            src = U0
        else:
            src = OV
        restrictions[frozenset(pair)] = CanonicalSubstitution(
            src, {src.symbol("x"): Expression.of(th, "x"),
                  src.symbol("p"): Expression.of(th, "p")}, th)
    ref = Refinement(fine, chart_map, restrictions)
    SSf = ref.transport(SS)
    rep = global_mc_check(SSf)
    assert rep.ok
    # the transport reads degenerate coarse tuples, (V0, V1) -> (U0, U0),
    # through their pullbacks; the full path restricts stored values
    full = _global_covariant_full(nerve, local)
    _assert_matches_full_path(SSf, TWElement(fine, {
        T: _restrict_along(restrictions[frozenset(T)],
                           full.values[tuple(chart_map[a] for a in T)],
                           fine.simplex_theory(T, len(T) - 1))
        for T in fine.tuples()}))
