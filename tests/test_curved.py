import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcov.symbols import Kind, Theory, TheoryError
from bvcov.coefficients import AffineExponent, FuncAtom, LogAtom
from bvcov.expression import (Expression, _single, base_expression, embed, inverse_of,
                              is_zero, log_of, normalize, partial_derivative, power_of,
                              substitute_param, total_derivative)
from bvcov.curved import (BElement, CanonicalSubstitution, FlowClosureError,
                          FlowSeries, TruncatedFlowError, _grade, _psi_closed,
                          antifield_rank, b_bracket, b_differential, bch,
                          canonical_substitution_check, complete_to_b, curvature,
                          d_element, du, flow_substitution,
                          gauge_flow_closed, gauge_flow_series, iota, mc_check,
                          u_bracket, u_element, verify_flow_endpoint)
from bvcov.varcalc import soloviev
from conftest import HomogeneousSampler, antifield_counting_field, eps_parts, u_parts, u_series
from paper_intro import intro_action


def sgn(b):
    return -1 if b % 2 else 1


@pytest.fixture
def bc_theory():
    t = Theory("bc")
    t.add_field("b", -1, 1)
    t.add_field("c", 1, 1)
    return t


def rand_belements(theory, seed, count):
    s = HomogeneousSampler(theory, seed=seed)
    out = []
    for _ in range(count):
        out.append(s.expression() + BElement.of_eps(s.expression()))
    return out


def test_b_differential(particle_theory):
    t = particle_theory
    f = Expression.of(t, "x_1") * Expression.of(t, "p_1")
    assert is_zero(b_differential(BElement.of_body(f)))
    g_even = Expression.of(t, "x_1") * Expression.of(t, "p_1")
    assert b_differential(BElement.of_eps(g_even)) == \
        BElement.of_body(total_derivative(g_even))
    for x in rand_belements(t, 41, 10):
        assert is_zero(b_differential(b_differential(x)))


def test_eps_part_mod_constants(particle_theory):
    t = particle_theory
    x = BElement.of_eps(Expression.of(t, "x_1") + 7)
    assert eps_parts(x)[1] == Expression.of(t, "x_1")


def test_soloviev2_leibniz(particle_theory):
    t = particle_theory
    els = rand_belements(t, 42, 8)
    for i in range(0, 8, 2):
        a, b = els[i], els[i + 1]
        ga = _grade(a)
        if ga is None:
            continue
        lhs = b_differential(b_bracket(a, b))
        rhs = b_bracket(b_differential(a), b) \
            + b_bracket(a, b_differential(b)) * sgn(ga[1] + 1)
        assert is_zero(lhs - rhs)


def test_b_bracket_restriction_and_eps_only(particle_theory):
    t = particle_theory
    s = HomogeneousSampler(t, seed=43)
    f, g = s.expression(), s.expression()
    from bvcov.varcalc import soloviev
    assert eps_parts(b_bracket(BElement.of_body(f), BElement.of_body(g)))[0] == soloviev(f, g)
    # [f0 + g0 eps, g1 eps-only] has only the eps part [f0, g1]
    g0, g1 = s.expression(), s.expression()
    res = b_bracket(f + BElement.of_eps(g0), BElement.of_eps(g1))
    body, eps = eps_parts(res)
    assert is_zero(body)
    assert is_zero(eps - _strip(soloviev(f, g1)))


def _strip(e):
    from bvcov.curved import _strip_eps_constant
    return _strip_eps_constant(e)


def test_iota_identities(particle_theory):
    t = particle_theory
    x1 = Expression.of(t, "x_1")
    body, eps = eps_parts(iota(BElement.of_body(x1)))
    assert is_zero(eps + x1) and is_zero(body)
    xp = Expression.of(t, "x+_1")
    assert is_zero(iota(BElement.of_body(xp)))
    D = d_element(t)
    for x in rand_belements(t, 44, 8):
        assert is_zero(iota(iota(x)))
        lhs = b_differential(iota(x)) + iota(b_differential(x))
        rhs = b_bracket(BElement.of_body(D), x)
        assert is_zero(lhs - rhs)


def _iota_by_prolongation(x: Expression) -> Expression:
    """iota through the general prolongation of N+, one sigma part at a
    time: the oracle for `iota`'s diagonal antifield weight."""
    nplus = antifield_counting_field(x.theory)
    return BElement.of_eps(Expression.sum(x.theory, (
        (nplus.apply(part) - part) * sgn(sf) for sf, part in eps_parts(x)[0].sigma_parts())))


def _iota_pools():
    """A theory with an even field q, an odd field th and an odd ghost -1
    field b, whose antifield b+ is even of ghost 0 and so can be a log or
    pow base, as in the gravity couplings; its symbols up to jet order 2
    and tau, and atoms: a function symbol and its derivative, log(b+),
    pow(b+, 2 tau - 1/2), and a compound base with an antifield."""
    t = Theory("iota")
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
    symbols = [t.symbol(n, j) for n in ("q", "th", "b", "q+", "th+", "b+") for j in (0, 1, 2)]
    return t, atoms, symbols + [tau]


_IOTA_TERM = st.tuples(
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 2)), max_size=2),
    st.lists(st.tuples(st.integers(0, 18), st.integers(1, 2)), max_size=4))


@settings(max_examples=150, deadline=None)
@given(st.lists(_IOTA_TERM, max_size=6))
def test_iota_matches_prolongation_oracle(raw):
    """iota agrees term by term with (N+ f - f) taken through the general
    prolongation, on bodies with odd and even sigma parts, jets up to order
    2, function atoms, log(b+) and pow(b+, a tau + b) atoms and constant
    terms."""
    t, atoms, symbols = _iota_pools()
    body = normalize(t, [(c, tuple((atoms[i], e) for i, e in a),
                          tuple((symbols[i], e) for i, e in m)) for c, a, m in raw])
    x = BElement.of_body(body)
    got, want = iota(x), _iota_by_prolongation(x)
    assert eps_parts(got)[0].is_structural_zero()
    assert [(u.coef, u.atoms, u.mono, u.key) for u in eps_parts(got)[1].terms] == \
        [(u.coef, u.atoms, u.mono, u.key) for u in eps_parts(want)[1].terms]
    assert repr(got) == repr(want)


def _du_by_public_operations(x: Expression) -> tuple[Expression, Expression]:
    """(d_u x, iota x) from public operations only: d = D o d/deps, and
    iota(f + g eps) = (-1)^sigma (N+ f - f) eps per sigma part of f, with
    N+ f = sum over the antifield jets s of s * df/ds."""
    t = x.theory
    f = eps_parts(x)[0]
    antifields = {s for s in f.symbols() if s.kind == Kind.ANTIFIELD_JET} | \
        {a for _, a in t.field_pairs()}

    def nplus(part):
        return Expression.sum(t, (Expression.symbol(t, s) * partial_derivative(part, s)
                                  for s in sorted(antifields, key=t.sort_key)))

    iota_x = BElement.of_eps(Expression.sum(t, (
        (nplus(part) - part) * sgn(sf) for sf, part in f.sigma_parts())))
    d = total_derivative(partial_derivative(x, t.epsilon))
    return d + u_element(t) * iota_x, iota_x


def test_du_and_iota_match_public_operations():
    """d_u and iota, one pass over the terms, agree term by term with d/deps,
    D, partial derivatives and products, on seeded elements with u powers,
    eps terms, constant eps terms (eps, tau*eps, u*eps), jets up to order
    2, function atoms, log(b+) and pow(b+, a tau + b) atoms."""
    t, atoms, symbols = _iota_pools()
    pool = symbols + [t.u, t.u, t.epsilon, t.epsilon]
    tau = t.symbol("tau")
    rng = random.Random(26)
    constants = [Expression.symbol(t, s) * Expression.symbol(t, t.epsilon)
                 for s in (tau, t.u)] + [Expression.symbol(t, t.epsilon)]
    eps_terms = 0
    for _ in range(80):
        x = normalize(t, [(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
                           tuple((atoms[rng.randrange(len(atoms))], rng.randint(1, 2))
                                 for _ in range(rng.randint(0, 2))),
                           tuple((pool[rng.randrange(len(pool))], rng.randint(1, 2))
                                 for _ in range(rng.randint(0, 4))))
                          for _ in range(rng.randint(1, 6))])
        x = x + rng.choice(constants) * rng.choice([0, 1, 3])
        eps_terms += len(eps_parts(x)[1].terms)
        want_du, want_iota = _du_by_public_operations(x)
        for got, want in ((du(x), want_du), (iota(x), want_iota)):
            assert [(u.coef, u.atoms, u.mono, u.key) for u in got.terms] == \
                [(u.coef, u.atoms, u.mono, u.key) for u in want.terms]
    assert eps_terms > 50


def test_curvature_axioms():
    """Bianchi, d_u(uD) = 0, and d_u^2 = ad(uD) on the theory of each
    library model and on a fused simplex theory of a cover."""
    from bvcov.models import MODEL_BUILDERS, build_model
    from bvcov.thomwhitney import CoverNerve
    theories = [build_model(name, 1).theory for name in sorted(MODEL_BUILDERS)]
    chart = build_model("flat-particle", 1).theory
    theories.append(CoverNerve({"A": chart}).simplex_theory(("A", "A"), 1))
    assert len(theories) == 7
    for t in theories:
        uD = curvature(t)
        assert uD == u_element(t) * d_element(t)
        assert is_zero(du(uD))                 # Bianchi
        for x in rand_belements(t, 45, 4):
            lhs = du(du(x))
            rhs = u_bracket(uD, x)
            assert is_zero(lhs - rhs), t.name    # d_u^2 = ad(uD)


def test_x_u_master_equation(bc_theory):
    t = bc_theory
    c, b1 = Expression.of(t, "c"), Expression.of(t, "b", 1)
    X = u_series(t, {0: BElement.of_body(c * b1),
                     1: Expression.of(t, "b+") * Expression.of(t, "c+")
                     + BElement.of_eps(Expression.of(t, "c+") * c)})
    assert mc_check(X).ok
    # MC solutions square the twisted differential to zero on probes
    s = HomogeneousSampler(t, seed=46)
    for _ in range(5):
        y = s.expression() + BElement.of_eps(s.expression())
        dxy = du(y) + u_bracket(X, y)
        ddxy = du(dxy) + u_bracket(X, dxy)
        assert is_zero(ddxy)


def test_flat_particle_f_mode_and_completion(particle_theory):
    t = particle_theory
    _, S0, D = intro_action(t, 2)
    S = u_series(t, {0: BElement.of_body(S0 + Expression.of(t, "c") * D),
                     1: BElement.of_body(Expression.of(t, "c+"))})
    assert mc_check(S, "F").ok
    SB = complete_to_b(S)
    assert mc_check(SB).ok
    # S0-only truncation fails, with the residual reported
    S_only = u_series(t, {0: u_parts(S)[0]})
    rep = mc_check(S_only, "F")
    assert not rep.ok and not is_zero(rep.residual)


def test_mc_grading_guard(particle_theory):
    t = particle_theory
    bad = Expression.of(t, "c")
    with pytest.raises(TheoryError):
        mc_check(bad)


def test_mc_check_refuses_an_unknown_mode(particle_theory):
    t = particle_theory
    S = u_element(t) * Expression.of(t, "c+")
    assert mc_check(S, "B").ok == mc_check(S).ok
    with pytest.raises(TheoryError, match="mode must be 'B' or 'F'"):
        mc_check(S, "C")


def test_mc_check_refuses_eps_in_f_mode_before_any_work(particle_theory, monkeypatch):
    """F mode has no resolution: an input with an eps part is refused, with
    its message, before the residual is built."""
    from bvcov import curved
    t = particle_theory
    S = u_element(t) * Expression.of(t, "c+") \
        + BElement.of_eps(Expression.of(t, "c") * Expression.of(t, "x_1"))
    assert mc_check(S).ok is False
    monkeypatch.setattr(curved, "u_bracket", lambda *args: pytest.fail("bracket taken"))
    monkeypatch.setattr(curved, "curvature", lambda *args: pytest.fail("curvature built"))
    with pytest.raises(TheoryError, match="^F-mode input must have no eps part$"):
        mc_check(S, "F")


def test_flow_tables_golden(particle_theory):
    t = particle_theory
    tau = t.add_flow_param("tau")
    c = Expression.of(t, "c")
    y = sum((c * Expression.of(t, f"x+_{m}") * Expression.of(t, f"p+_{m}")
             for m in (1, 2)), Expression.zero(t))
    sub = flow_substitution(t, y, tau, direction=+1)
    tsym = Expression.symbol(t, tau)
    assert sub.image(t.symbol("x_1")) == Expression.of(t, "x_1") \
        + tsym * c * Expression.of(t, "p+_1")
    assert sub.image(t.symbol("p_1")) == Expression.of(t, "p_1") \
        - tsym * c * Expression.of(t, "x+_1")
    assert sub.image(t.symbol("c+")) == Expression.of(t, "c+") \
        + tsym * (Expression.of(t, "x+_1") * Expression.of(t, "p+_1")
                  + Expression.of(t, "x+_2") * Expression.of(t, "p+_2"))
    for name in ("e", "e+", "c", "x+_1", "x+_2", "p+_1", "p+_2"):
        assert sub.image(t.symbol(name)) == Expression.of(t, name)
    # Psi: exponential closure in power/log atoms
    e = Expression.of(t, "e")
    ypsi = log_of(e) * Expression.of(t, "c+") * c
    subp = flow_substitution(t, ypsi, tau, direction=+1)
    p1 = CanonicalSubstitution(
        t, {g: substitute_param(v, tau, 1) for g, v in subp.images.items()})
    assert p1.image(t.symbol("c")) == inverse_of(e) * c
    assert p1.image(t.symbol("c+")) == e * Expression.of(t, "c+")
    assert p1.image(t.symbol("e+")) == Expression.of(t, "e+") \
        + inverse_of(e) * Expression.of(t, "c+") * c
    assert not canonical_substitution_check(p1)


def test_flow_rejects_bare_rational_eigenvalue(particle_theory):
    from bvcov.curved import FlowClosureError
    t = particle_theory
    tau = t.symbol("tau") if t.maybe_symbol("tau") else t.add_flow_param("tau")
    y = Expression.of(t, "e") * Expression.of(t, "c+") * Expression.of(t, "c")
    with pytest.raises(FlowClosureError):
        flow_substitution(t, y, tau)


def test_gauge_flow_series_trivial_and_closed(bc_theory):
    t = bc_theory
    X = u_series(t, {0: BElement.of_body(Expression.of(t, "c")
                                         * Expression.of(t, "b", 1)),
                     1: Expression.of(t, "b+") * Expression.of(t, "c+")
                     + BElement.of_eps(Expression.of(t, "c+") * Expression.of(t, "c"))})
    # dy = 0 and [x, y] = 0: the flow is constant
    y0 = Expression.zero(t)
    fs = gauge_flow_series(X, y0)
    assert fs.exact and fs.at(1) == X
    with pytest.raises(TheoryError):
        gauge_flow_series(X, Expression.of(t, "c"))


def test_gauge_flow_preserves_mc(particle_theory):
    t = particle_theory
    _, S0, D = intro_action(t, 2)
    c = Expression.of(t, "c")
    S = complete_to_b(u_series(t, {0: BElement.of_body(S0 + c * D),
                                   1: BElement.of_body(Expression.of(t, "c+"))}))
    y = c * Expression.of(t, "x+_1") * Expression.of(t, "p+_1")
    fs = gauge_flow_series(S, y)
    assert fs.exact
    assert mc_check(fs.at(1)).ok
    assert mc_check(fs.at(Fraction(1, 3))).ok


def test_gauge_flow_closed_x_u(bc_theory):
    # the corrected tau-family for the bc block flowing by log(b+)c+c
    t = bc_theory
    tau = t.add_flow_param("tau")
    c, cp, bp = (Expression.of(t, n) for n in ("c", "c+", "b+"))
    X = u_series(t, {0: BElement.of_body(c * Expression.of(t, "b", 1)),
                     1: bp * cp + BElement.of_eps(cp * c)})
    y = log_of(bp) * cp * c
    family, cert = gauge_flow_closed(X, y, tau)
    assert cert.ok and cert.initial_ok
    # endpoint as displayed: c(b+ db + c+ dc) + u c+
    endpoint = cert.endpoint
    want = u_series(t, {0: BElement.of_body(
        c * (bp * Expression.of(t, "b", 1) + cp * Expression.of(t, "c", 1))),
        1: BElement.of_body(cp)})
    assert is_zero(endpoint - want)
    assert mc_check(endpoint).ok
    # the u-part of the family carries pow(b+, 1-tau) and (1-tau) c+ c eps
    from bvcov.expression import power_of
    from bvcov.coefficients import AffineExponent
    u1 = u_parts(family)[1]
    exp_body = power_of(bp, AffineExponent(Fraction(1), Fraction(-1), tau)) * cp
    body, eps = eps_parts(u1)
    assert is_zero(body - exp_body)
    one_minus = Expression.const(t, 1) - Expression.symbol(t, tau)
    assert is_zero(eps - one_minus * cp * c)


def test_gauge_flow_closed_drops_the_constant_eps_terms_it_makes(particle_theory):
    """x+ moves x by a multiple of tau, so its substitution takes x*eps to
    x*eps plus a constant multiple of eps, which vanishes in the
    resolution: the certified family and its endpoint are x*eps."""
    t = particle_theory
    tau = t.add_flow_param("tau")
    x = BElement.of_eps(Expression.of(t, "x_1"))
    family, cert = gauge_flow_closed(x, Expression.of(t, "x+_1"), tau)
    assert cert.ok and cert.initial_ok
    assert family == x and cert.endpoint == x


def test_verify_flow_endpoint_reports(bc_theory):
    t = bc_theory
    tau = t.add_flow_param("tau")
    X = u_series(t, {0: BElement.of_body(Expression.of(t, "c")
                                         * Expression.of(t, "b", 1)),
                     1: Expression.of(t, "b+") * Expression.of(t, "c+")
                     + BElement.of_eps(Expression.of(t, "c+") * Expression.of(t, "c"))})
    y = Expression.zero(t)
    rep = verify_flow_endpoint(X, X, y, tau)
    assert rep.ok and rep.initial_ok and is_zero(rep.endpoint - X)
    shifted = X + Expression.symbol(t, tau) * Expression.of(t, "b", 1) \
        * Expression.of(t, "b+")
    rep2 = verify_flow_endpoint(X, shifted, y, tau)
    assert not rep2.ok
    # at tau = 0 a pow atom becomes 1: the constant multiple of eps it
    # leaves vanishes in the resolution
    lone = power_of(Expression.of(t, "b+"), AffineExponent(0, 1, tau)) \
        * Expression.symbol(t, t.epsilon)
    assert verify_flow_endpoint(Expression.zero(t), lone, y, tau).initial_ok


def test_truncated_flow_refuses_endpoint(bc_theory):
    t = bc_theory
    cp, bp, c = (Expression.of(t, n) for n in ("c+", "b+", "c"))
    X = u_series(t, {0: BElement.of_body(c * Expression.of(t, "b", 1)),
                     1: bp * cp + BElement.of_eps(cp * c)})
    y = log_of(bp) * cp * c
    fs = gauge_flow_series(X, y, max_order=4)
    assert not fs.exact
    with pytest.raises(TruncatedFlowError):
        fs.endpoint()


def test_closed_generator_flow_matches_exponential_oracle(particle_theory):
    # a closed generator, d_u y = 0: the gauge flow is the exponential
    # exp(-ad y), summed directly as the oracle
    t = particle_theory
    s = HomogeneousSampler(t, seed=47, max_jet=1, max_factors=2, max_terms=2)
    y = Expression.of(t, "x+_1") * Expression.of(t, "p_1")
    assert is_zero(du(y))
    for _ in range(6):
        x = s.expression()
        fs = gauge_flow_series(x, y)
        assert fs.exact
        flowed = fs.at(1)
        oracle = Expression.zero(t)
        term = x
        k = 0
        while not is_zero(term):
            oracle = oracle + term * Fraction(1, _fact(k) if k else 1)
            term = u_bracket(y, term) * Fraction(-1)
            k += 1
            assert k < 12
        assert is_zero(flowed - oracle)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_non_canonical_substitution_reports_pair(particle_theory):
    t = particle_theory
    broken = CanonicalSubstitution(t, {
        t.symbol("x_1"): 2 * Expression.of(t, "x_1")})   # x scaled, x+ not
    assert ("x_1", "x+_1") in canonical_substitution_check(broken)


def test_bch_trivial_cases(particle_theory):
    t = particle_theory
    c = Expression.of(t, "c")
    y = c * Expression.of(t, "x+_1") * Expression.of(t, "p+_1")
    z0 = Expression.zero(t)
    res = bch(y, z0, order=4)
    assert is_zero(res.series - y)
    # commuting generators add
    z = c * Expression.of(t, "x+_2") * Expression.of(t, "p+_2")
    assert is_zero(u_bracket(y, z))
    res2 = bch(y, z, order=4)
    assert is_zero(res2.series - (y + z))


def test_antifield_rank(particle_theory):
    t = particle_theory
    _, S0, D = intro_action(t, 2)
    c = Expression.of(t, "c")
    S = u_series(t, {0: BElement.of_body(S0 + c * D)})
    assert antifield_rank(S) == 1
    assert antifield_rank(S0) == 0
    two = Expression.of(t, "x+_1") * Expression.of(t, "p+_1") * Expression.of(t, "e")
    assert antifield_rank(two) == 2


# -- the exp(ad) loops against the one orbit loop ------------------------------
#
# The gauge flows, the substitution flow and bch each ran their own loop
# over the iterated brackets before they shared `orbit`.  These are those
# loops, unchanged but for their names; the flows must agree with them term
# by term on the flow fixtures above.


def _base(theory, key):
    return base_expression(theory, key)


def _log(theory, base_key):
    return _single(theory, Fraction(1), ((LogAtom(base_key), 1),), ())


def _gauge_flow_series_bruteforce(x, y, max_order=24):
    for n, c in u_parts(y).items():
        g = _grade(c)
        if g is None or g[1] != 1 or g[0] != -1 - 2 * n:
            raise TheoryError("gauge generator must be odd of ghost number -1")
    w = du(y) + u_bracket(x, y)
    steps = []
    index = None
    for n in range(max_order):
        if is_zero(w):
            index = n
            break
        steps.append(w)
        w = u_bracket(y, w) * Fraction(-1)
    return FlowSeries(x, steps, index)


def _proportionality_bruteforce(v1, v0):
    if v0.is_structural_zero() or v1.is_structural_zero():
        return None
    if len(v1.terms) != len(v0.terms):
        return None
    theory = v1.theory
    t1 = v1.terms[0]
    log_keys = {a.base_key for a, _ in t1.atoms if isinstance(a, LogAtom)}
    candidates = []
    for t0 in v0.terms:
        if t0.mono != t1.mono or t0.coef == 0:
            continue
        q = Fraction(t1.coef, t0.coef)
        candidates.append((q, None))
        for key in log_keys:
            candidates.append((q, key))
    for q, key in candidates:
        factor = Expression.const(theory, q)
        if key is not None:
            factor = factor * _log(theory, key)
        if is_zero(v1 - factor * v0):
            return (q, key)
    return None


def _exp_ad_on_bruteforce(theory, y, start, tau, direction, max_iter):
    terms = [start]
    v = start
    for n in range(1, max_iter + 1):
        v = soloviev(y, v) * direction
        if is_zero(v):
            tsym = Expression.symbol(theory, tau)
            acc = Expression.const(theory, 1)
            pieces = []
            for k, w in enumerate(terms):
                pieces.append(acc * w * Fraction(1, math.factorial(k)))
                acc = acc * tsym
            return Expression.sum(theory, pieces)
        prop = _proportionality_bruteforce(v, terms[-1])
        if prop is not None and len(terms) == 1:
            q, base_key = prop
            if base_key is None:
                if q == 0:
                    return start
                raise FlowClosureError(
                    "eigenvalue is a bare rational: exp(q*tau) is not exactly "
                    "representable")
            exp_factor = power_of(
                _base(theory, base_key), AffineExponent(Fraction(0), q, tau))
            return exp_factor * start
        terms.append(v)
    raise FlowClosureError(
        "flow does not close polynomially or in power/log form; refusing to "
        "truncate silently")


def _gauge_flow_closed_bruteforce(x, y, tau, max_iter=12):
    theory = x.theory
    sub = flow_substitution(theory, y, tau, direction=-1)
    family = _strip(sub.apply(x))
    w = du(y)
    if not is_zero(w):
        t = Expression.symbol(theory, tau)
        acc = Expression.const(theory, 1)
        v = w
        n = 0
        while not is_zero(v):
            if n >= max_iter:
                raise FlowClosureError(
                    "d_u(y) source brackets do not terminate; closed flow "
                    "unavailable")
            acc = acc * t
            family = family + acc * v * Fraction(1, math.factorial(n + 1))
            v = u_bracket(y, v) * Fraction(-1)
            n += 1
    cert = verify_flow_endpoint(x, family, y, tau)
    if not cert:
        raise FlowClosureError("closed gauge flow failed ODE certification")
    return family, cert


def _ad_pow_bruteforce(y, z, n):
    out = z
    for _ in range(n):
        out = u_bracket(y, out)
    return out


def _u_proportionality_bruteforce(v1, v0):
    ratio = None
    p1, p0, zero = u_parts(v1), u_parts(v0), Expression.zero(v1.theory)
    for n in set(p1) | set(p0):
        for e1, e0 in zip(eps_parts(p1.get(n, zero)), eps_parts(p0.get(n, zero))):
            if e0.is_structural_zero():
                if e1.is_structural_zero():
                    continue
                return None
            this = _proportionality_bruteforce(e1, e0)
            if this is None:
                return None
            if ratio is None:
                ratio = this
            elif ratio != this:
                return None
    return ratio


def _bch_closed_bruteforce(y, z):
    """The closed-form tail of bch: (closed form, hypothesis checked)."""
    theory = y.theory
    closed = None
    hyp = False
    v1 = u_bracket(y, z)
    prop = _u_proportionality_bruteforce(v1, z)
    if prop is not None:
        q, base_key = prop
        if base_key is not None and q.denominator == 1:
            hyp = all(is_zero(u_bracket(z, _ad_pow_bruteforce(y, z, n))) for n in range(3))
            if hyp:
                closed = y + _psi_closed(theory, int(q), base_key, z)
    return closed, hyp


def _terms(e):
    return [(x.coef, x.atoms, x.mono, x.key) for x in e.terms]


def _u_terms(x):
    return [(n, *map(_terms, eps_parts(c))) for n, c in u_parts(x).items()]


def _flow_fixtures(particle, bc):
    """(x, y, max_order) for the series: a flow of a master-equation
    solution that terminates, flows of sampled starts, one that the cap
    truncates and a zero generator."""
    t = particle
    _, S0, D = intro_action(t, 2)
    c = Expression.of(t, "c")
    S = complete_to_b(u_series(t, {0: BElement.of_body(S0 + c * D),
                                   1: BElement.of_body(Expression.of(t, "c+"))}))
    y = c * Expression.of(t, "x+_1") * Expression.of(t, "p+_1")
    out = [(S, y, 24)]
    s = HomogeneousSampler(t, seed=47, max_jet=1, max_factors=2, max_terms=2)
    for _ in range(3):
        out.append((s.expression(), y, 24))
    cp, bp, cb = (Expression.of(bc, n) for n in ("c+", "b+", "c"))
    X = u_series(bc, {0: BElement.of_body(cb * Expression.of(bc, "b", 1)),
                      1: bp * cp + BElement.of_eps(cp * cb)})
    out.append((X, log_of(bp) * cp * cb, 4))
    out.append((X, Expression.zero(bc), 24))
    return out


def test_gauge_flow_series_matches_bruteforce(particle_theory, bc_theory):
    exact = set()
    for x, y, cap in _flow_fixtures(particle_theory, bc_theory):
        got = gauge_flow_series(x, y, max_order=cap)
        want = _gauge_flow_series_bruteforce(x, y, max_order=cap)
        assert (got.exact, got.termination_index) == (want.exact, want.termination_index)
        assert [_u_terms(w) for w in got.steps] == [_u_terms(w) for w in want.steps]
        exact.add(got.exact)
    assert exact == {True, False}


def test_flow_substitution_matches_bruteforce(particle_theory):
    t = particle_theory
    tau = t.add_flow_param("tau")
    c, e = Expression.of(t, "c"), Expression.of(t, "e")
    polynomial = sum((c * Expression.of(t, f"x+_{m}") * Expression.of(t, f"p+_{m}")
                      for m in (1, 2)), Expression.zero(t))
    for y in (polynomial, log_of(e) * Expression.of(t, "c+") * c,
              Expression.of(t, "p_1") * Expression.of(t, "x+_1") * c):
        for direction in (1, -1):
            sub = flow_substitution(t, y, tau, direction=direction)
            for fld, anti in t.field_pairs():
                for gen in (fld, anti):
                    want = _exp_ad_on_bruteforce(t, y, Expression.symbol(t, gen), tau,
                                                 direction, 12)
                    assert _terms(sub.image(gen)) == _terms(want), gen.name
    bare = e * Expression.of(t, "c+") * c
    with pytest.raises(FlowClosureError):
        flow_substitution(t, bare, tau)
    with pytest.raises(FlowClosureError):
        _exp_ad_on_bruteforce(t, bare, Expression.of(t, "c"), tau, 1, 12)


def test_gauge_flow_closed_matches_bruteforce(bc_theory):
    t = bc_theory
    tau = t.add_flow_param("tau")
    c, cp, bp = (Expression.of(t, n) for n in ("c", "c+", "b+"))
    X = u_series(t, {0: BElement.of_body(c * Expression.of(t, "b", 1)),
                     1: bp * cp + BElement.of_eps(cp * c)})
    y = log_of(bp) * cp * c
    family, cert = gauge_flow_closed(X, y, tau)
    want, want_cert = _gauge_flow_closed_bruteforce(X, y, tau)
    assert _u_terms(family) == _u_terms(want)
    assert _u_terms(cert.endpoint) == _u_terms(want_cert.endpoint)


def test_bch_closed_form_matches_bruteforce():
    from bvcov.models import flat_particle
    from bvcov.symbols import product_theory
    model = flat_particle(2)
    bc = Theory("bc")
    bc.add_field("b", -1, 1)
    bc.add_field("c", 1, 1)
    prod = product_theory("Mbc", model.theory, bc)
    S1 = u_parts(embed(model.series, prod))[1]
    c, bp, cp = (Expression.of(prod, n) for n in ("c", "b+", "c+"))
    y = log_of(bp) * cp * c
    closed_seen = 0
    for z in (c * S1, cp * c, S1, Expression.zero(prod)):
        res = bch(y, z, order=1)
        closed, hyp = _bch_closed_bruteforce(y, z)
        assert res.hypothesis_checked == hyp
        assert (res.closed_form is None) == (closed is None)
        if closed is not None:
            assert _u_terms(res.closed_form) == _u_terms(closed)
            closed_seen += 1
    assert closed_seen >= 1


def test_proportionality_over_pairs_matches_bruteforce(bc_theory):
    """One ratio for the fused pair (v1, v0), as the loop over their u-power
    and eps parts found it: a common rational or log multiple, none when two
    parts disagree or one side of a part pair is zero, and both-zero part
    pairs skipped."""
    from bvcov.curved import _proportionality
    t = bc_theory
    c, cp, bp = (Expression.of(t, n) for n in ("c", "c+", "b+"))
    lam = log_of(bp)
    z = u_series(t, {0: cp * c + BElement.of_eps(bp * c), 1: BElement.of_body(bp * cp * c)})
    cases = [z * 2, lam * 3 * z, lam * z + cp * c,
             u_series(t, {0: cp * c * 2 + BElement.of_eps(bp * c * 3),
                          1: BElement.of_body(bp * cp * c * 2)}),
             u_series(t, {0: cp * c * 2 + BElement.of_eps(bp * c * 2)}), z * 0, z + z]
    for v1 in cases:
        for v0 in (z, z * 0):
            # bch passes the fused pair; the oracle pairs its parts
            assert _proportionality(v1, v0) == _u_proportionality_bruteforce(v1, v0)
    assert _proportionality(cp * c * 2 + bp * c * 3, cp * c + bp * c) is None


def _coefficients(s: Expression) -> list:
    return [t.coef for c in u_parts(s).values() for part in eps_parts(c)
            for t in part.terms]


def test_coefficient_divisions_are_exact(bc_theory):
    """Integral coefficients are stored as ints, so `/` on two of them would
    give a float: the ratio `_proportionality` finds and the 1/(n+1)! of
    `FlowSeries.at` are exact rationals in canonical form."""
    from bvcov.curved import _proportionality
    t = bc_theory
    c, cp, bp = (Expression.of(t, n) for n in ("c", "c+", "b+"))
    x = cp * c
    assert type(x.terms[0].coef) is int
    q, key = _proportionality(x * 3, x * 2)
    assert (q, key) == (Fraction(3, 2), None) and type(q) is Fraction
    q, key = _proportionality(x * 4, x * 2)
    assert (q, key) == (2, None) and type(q) is int
    lam = log_of(bp)
    q, key = _proportionality(lam * x * 3, x * 2)
    assert (q, key) == (Fraction(3, 2), lam.terms[0].atoms[0][0].base_key)
    assert type(q) is Fraction
    steps = [c * 2, bp * c * 3, bp * bp * c * 4]
    flow = FlowSeries(x, steps, len(steps))
    for value, want in ((1, [2, Fraction(3, 2), Fraction(2, 3)]),
                        (2, [4, 6, Fraction(16, 3)]),
                        (Fraction(1, 2), [1, Fraction(3, 8), Fraction(1, 12)])):
        got = flow.at(value)
        assert got == x + c * want[0] + bp * c * want[1] + bp * bp * c * want[2]
        coefs = _coefficients(got)
        assert set(map(type, coefs)) <= {int, Fraction}
        assert all(type(q) is int or q.denominator != 1 for q in coefs)
        assert set(want) <= set(coefs)


def test_flow_caps_pin_their_boundaries(particle_theory, bc_theory):
    """Each cap keeps its default and its boundary: the smallest cap that
    lets the orbit reach its zero succeeds, and one less truncates with a
    TruncatedFlowError or a FlowClosureError, never silently."""
    import inspect
    for fn, name, default in ((gauge_flow_series, "max_order", 24),
                              (gauge_flow_closed, "max_iter", 12),
                              (flow_substitution, "max_iter", 12)):
        assert inspect.signature(fn).parameters[name].default == default
    # gauge_flow_series: the zero at index m needs max_order > m
    x, y, _ = _flow_fixtures(particle_theory, bc_theory)[0]
    m = gauge_flow_series(x, y).termination_index
    assert m >= 2
    assert gauge_flow_series(x, y, max_order=m + 1).exact
    short = gauge_flow_series(x, y, max_order=m)
    assert not short.exact and len(short.steps) == m
    with pytest.raises(TruncatedFlowError):
        short.endpoint()
    # flow_substitution: a zero at index m of a generator's orbit needs
    # max_iter >= m; with log(e) c+ c, c and c+ are power/log eigenvectors
    # after one bracket and the orbit of e+ vanishes at index 2
    t = particle_theory
    tau = t.add_flow_param("tau")
    c = Expression.of(t, "c")
    poly = Expression.of(t, "p_1") * Expression.of(t, "x+_1") * c \
        + Expression.of(t, "p_2") * Expression.of(t, "p+_1") * c
    deepest = max(len(_exp_ad_orbit(t, poly, gen, tau)) for f, a in t.field_pairs()
                  for gen in (f, a))
    assert deepest >= 2
    flow_substitution(t, poly, tau, max_iter=deepest)
    with pytest.raises(FlowClosureError):
        flow_substitution(t, poly, tau, max_iter=deepest - 1)
    eigen = log_of(Expression.of(t, "e")) * Expression.of(t, "c+") * c
    flow_substitution(t, eigen, tau, max_iter=2)
    with pytest.raises(FlowClosureError):
        flow_substitution(t, eigen, tau, max_iter=1)
    # gauge_flow_closed: a source orbit with its zero at index m needs
    # max_iter >= m
    b = bc_theory
    btau = b.add_flow_param("tau")
    cb, cp, bp = (Expression.of(b, n) for n in ("c", "c+", "b+"))
    X = u_series(b, {0: BElement.of_body(cb * Expression.of(b, "b", 1)),
                     1: bp * cp + BElement.of_eps(cp * cb)})
    yb = log_of(bp) * cp * cb
    source, k = du(yb), 0
    while not is_zero(source):
        source, k = u_bracket(yb, source) * Fraction(-1), k + 1
    assert k >= 1
    gauge_flow_closed(X, yb, btau, max_iter=k)
    with pytest.raises(FlowClosureError):
        gauge_flow_closed(X, yb, btau, max_iter=k - 1)


def _exp_ad_orbit(t, y, gen, tau):
    """The orbit of a generator under the flow's bracket, up to its zero."""
    v, out = Expression.symbol(t, gen), []
    while not is_zero(v):
        out.append(v)
        v = soloviev(y, v)
        assert len(out) < 12
    return out
