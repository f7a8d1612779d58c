"""The acceptance gate: every criterion is an exact symbolic-zero check
(no tolerances anywhere) and prints one PASS/FAIL line."""

import itertools
from fractions import Fraction

from bvcov.symbols import Theory
from bvcov.expression import (Expression, embed, inverse_of, is_zero, log_of,
                              partial_derivative, total_derivative)
from bvcov.curved import (BElement, CanonicalSubstitution, antifield_rank,
                          b_bracket, b_differential, bch, canonical_substitution_check,
                          d_element, du, iota, mc_check, u_bracket, u_element)
from bvcov.varcalc import (EtaleMap, functional_equal, hamiltonian_vf,
                           is_total_derivative, soloviev)
from bvcov.aksz import couple_gravity, x_u_series
from bvcov.models import (build_model, couple_with_potential, flat_particle,
                          flat_spinning_particle, intro_theory, magnetic_particle,
                          spinning_pipeline, curved_spinning_particle)
from conftest import HomogeneousSampler, eps_parts, u_parts
from paper_intro import (_with_worldline_form, composite_form, intro_action,
                         intro_transformations)

N = 2
ETA = [Fraction(1)] * N


def report(num, label, ok):
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num}: {label}"


def _sum(t, gen):
    return sum(gen, Expression.zero(t))


def test_criterion_01_intro_flow_table():
    t = intro_theory(N)
    S, S0, D = intro_action(t, N)
    tr = intro_transformations(t, N)
    tau = tr["tau"]
    sub = tr["phi_flow"]

    def E(nm, j=0):
        return Expression.of(t, nm, j)

    c = E("c")
    ts = Expression.symbol(t, tau)
    rng = range(1, N + 1)
    table_ok = True
    for m in rng:
        table_ok &= sub.image(t.symbol(f"x_{m}")) == E(f"x_{m}") + ts * c * E(f"p+_{m}")
        table_ok &= sub.image(t.symbol(f"p_{m}")) == E(f"p_{m}") - ts * c * E(f"x+_{m}")
        table_ok &= sub.image(t.symbol(f"x+_{m}")) == E(f"x+_{m}")
        table_ok &= sub.image(t.symbol(f"p+_{m}")) == E(f"p+_{m}")
    table_ok &= sub.image(t.symbol("e")) == E("e")
    table_ok &= sub.image(t.symbol("e+")) == E("e+")
    table_ok &= sub.image(t.symbol("c")) == c
    table_ok &= sub.image(t.symbol("c+")) == E("c+") + ts * _sum(
        t, (E(f"x+_{m}") * E(f"p+_{m}") for m in rng))

    d = total_derivative
    phi_tau = CanonicalSubstitution(t, dict(sub.images))
    S1 = c * D
    xdx = _sum(t, (E(f"x+_{m}") * d(E(f"x_{m}")) for m in rng))
    pdp = _sum(t, (E(f"p+_{m}") * d(E(f"p_{m}")) for m in rng))
    xp_pairs = _sum(t, (E(f"x+_{m}") * E(f"p+_{m}") for m in rng))
    disp_S0 = S0 - ts * c * (xdx + pdp) \
        + ts * d(c * _sum(t, (E(f"p+_{m}") * E(f"p_{m}") for m in rng))) \
        + ts * ts * c * d(c) * xp_pairs \
        + ts * E("e") * c * _sum(t, (E(f"p_{m}") * E(f"x+_{m}") for m in rng))
    disp_S1 = S1 - ts * c * d(c) * xp_pairs
    expansions_ok = is_zero(phi_tau.apply(S0) - disp_S0) and \
        is_zero(phi_tau.apply(S1) - disp_S1)
    report(1, "intro flow table and tau-expansions", table_ok and expansions_ok)


def test_criterion_02_xi_endpoint():
    t = intro_theory(N)
    S, S0, D = intro_action(t, N)
    tr = intro_transformations(t, N)
    xi = tr["xi"]
    canonical = not canonical_substitution_check(xi)
    XiS = xi.apply(S)

    def E(nm, j=0):
        return Expression.of(t, nm, j)

    d = total_derivative
    rng = range(1, N + 1)
    pxp = _sum(t, (E(f"p_{k}") * E(f"x+_{k}") for k in rng))
    ppp = _sum(t, (E(f"p_{k}") * E(f"p+_{k}") for k in rng))
    display = S0 + E("c") * (pxp - d(E("e+"))) \
        + d(E("c") * (ppp + E("e") * E("e+")))
    # the printed form holds with an explicit total-derivative witness; the
    # functional-level display (including the u-part) is exact
    witness = inverse_of(E("e")) * E("c") * ppp \
        - E("c") * (ppp + E("e") * E("e+"))
    display_ok = is_zero(XiS - display - d(witness))
    exact_form = S0 + E("c") * (pxp - d(E("e+"))) \
        + d(inverse_of(E("e")) * E("c") * ppp)
    frozen_ok = is_zero(XiS - exact_form)
    u_ok = is_zero(xi.image(t.symbol("c+"))
                   - (E("e") * E("c+") + _sum(t, (E(f"x+_{k}") * E(f"p+_{k}")
                                                  for k in rng))))
    report(2, "Xi endpoint", canonical and display_ok and frozen_ok and u_ok)


def test_criterion_03_master_equations():
    ok = True
    # (a) flat particle, functional level
    t = intro_theory(N)
    S, S0, D = intro_action(t, N)
    Su = S + u_element(t) * Expression.of(t, "c+")
    ok &= mc_check(Su, "F").ok
    # (b) X_u and (c) Xi_u in the resolution
    for name in ("bc-system", "betagamma-system"):
        model = build_model(name)
        ok &= mc_check(model.series).ok
    # (d) the flat spinning action with its u-extension: the transported
    # eps parts are explicit master-equation witnesses (the action has
    # inverse-graviton coefficients, so the rescaling decision procedure
    # does not apply); the u^0 part is the displayed action exactly
    rep = spinning_pipeline(flat_spinning_particle(N))
    ok &= dict(rep.checks)["physical-master-equation"]
    ok &= is_zero(eps_parts(u_parts(rep.series)[0])[0]
                  - intro_action(rep.series.theory, N, spinning=True)[0])
    # (e) every builder output in the model library
    for name, dim in [("flat-particle", N), ("magnetic-particle", N),
                      ("bc-system", 0), ("betagamma-system", 0),
                      ("flat-spinning-particle", N),
                      ("curved-spinning-particle", 1)]:
        model = build_model(name, dim)
        ok &= mc_check(model.series).ok
    report(3, "master equations", ok)


def test_criterion_04_composite_identities():
    t = intro_theory(N)
    S, S0, D = intro_action(t, N)
    tr = intro_transformations(t, N)
    XiS = tr["xi"].apply(S)

    def E(nm, j=0):
        return Expression.of(t, nm, j)

    d = total_derivative
    rng = range(1, N + 1)
    ppp = _sum(t, (E(f"p_{k}") * E(f"p+_{k}") for k in rng))
    display = S0 + E("c") * (_sum(t, (E(f"p_{k}") * E(f"x+_{k}") for k in rng))
                             - d(E("e+"))) \
        + d(E("c") * (ppp + E("e") * E("e+")))
    wt = _with_worldline_form(t)
    coeff = partial_derivative(composite_form(wt, N, ETA), wt.symbol("dt"))
    ok = functional_equal(embed(display, wt), coeff)
    # chain back to the computed transform through the explicit witness
    witness = inverse_of(E("e")) * E("c") * ppp - E("c") * (ppp + E("e") * E("e+"))
    ok &= is_zero(XiS - display - d(witness))

    ts = intro_theory(N, spinning=True)
    Spsi = intro_action(ts, N, spinning=True)[0]
    trs = intro_transformations(ts, N, spinning=True)
    XiSs = trs["xi"].apply(Spsi)

    def Es(nm, j=0):
        return Expression.of(ts, nm, j)

    S0s = _sum(ts, (Es(f"p_{k}") * d(Es(f"x_{k}"))
                    + Fraction(1, 2) * Es(f"psi_{k}") * d(Es(f"psi_{k}"))
                    for k in rng)) \
        - Fraction(1, 2) * Es("e") * _sum(ts, (Es(f"p_{k}") ** 2 for k in rng)) \
        + _sum(ts, (Es("chi") * Es(f"p_{k}") * Es(f"psi_{k}") for k in rng))
    disp_s = S0s - Es("c") * (d(Es("e+")) - _sum(ts, (Es(f"p_{k}") * Es(f"x+_{k}")
                                                      for k in rng))) \
        - Es("gamma") * (d(Es("chi+"))
                         - _sum(ts, (Es(f"p_{k}") * Es(f"psi+_{k}") for k in rng))
                         + _sum(ts, (Es(f"psi_{k}") * Es(f"x+_{k}") for k in rng))
                         + 2 * Es("chi") * Es("e+")) \
        + Es("gamma") ** 2 * Es("c+")
    witness_s = inverse_of(Es("e")) * Es("c") * (
        _sum(ts, (Es(f"p_{k}") * Es(f"p+_{k}") for k in rng))
        + Fraction(1, 2) * _sum(ts, (Es(f"psi_{k}") * Es(f"psi+_{k}") for k in rng))
        + Es("gamma") * Es("gamma+"))
    ok &= is_zero(XiSs - disp_s - d(witness_s))
    wts = _with_worldline_form(ts)
    coeff_s = partial_derivative(composite_form(wts, N, ETA, spinning=True),
                                 wts.symbol("dt"))
    ok &= functional_equal(embed(disp_s, wts), coeff_s)
    report(4, "composite-field identities", ok)


def test_criterion_05_theorem_particle():
    model = flat_particle(N)
    rep = couple_gravity(model.series)
    report(5, "gravity coupling theorem", rep.ok)


def test_criterion_06_bch_closed_form():
    model = flat_particle(N)
    t = model.theory
    from bvcov.symbols import product_theory
    bc = Theory("bc")
    bc.add_field("b", -1, 1)
    bc.add_field("c", 1, 1)
    prod = product_theory("Mbc", t, bc)
    Sp = embed(model.series, prod)
    c = Expression.of(prod, "c")
    bp = Expression.of(prod, "b+")
    cp = Expression.of(prod, "c+")
    y = log_of(bp) * cp * c
    S1 = u_parts(Sp)[1]
    z = c * S1
    res = bch(y, z, order=6)
    ok = res.hypothesis_checked and res.closed_form is not None
    # closed form equals the displayed [log(b+)/(b+ - 1)](c(S1 + X1) - c+c)
    X1 = u_parts(x_u_series(prod))[1]
    target = c * (S1 + X1) - cp * c
    factor = log_of(bp) * inverse_of(bp - Expression.const(prod, 1))
    ok &= is_zero(res.closed_form - factor * target)
    # series branch: order k is psi_k (-log b+)^k z with psi the Taylor
    # coefficients of x/(1 - e^{-x})
    psi = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
           Fraction(-1, 720), Fraction(0), Fraction(1, 30240)]
    lam = log_of(bp)
    series_want = y
    acc = Expression.const(prod, 1)
    for k in range(0, 7):
        if k > 0:
            acc = acc * (-lam)
        if psi[k] != 0:
            series_want = series_want + acc * z * psi[k]
    ok &= is_zero(res.series - series_want)
    # the generating identity behind the closed form, through order 6:
    # (e^lam - 1) * sum_k psi_k (-lam)^k = lam + O(lam^7)
    ok &= _formal_generating_identity(psi)
    report(6, "BCH closed form and series", ok)


def _formal_generating_identity(psi) -> bool:
    # polynomials in lam as coefficient lists over Fraction
    def mul(a, b, cut=8):
        out = [Fraction(0)] * cut
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j < cut:
                    out[i + j] += ai * bj
        return out

    fact = [1]
    for k in range(1, 9):
        fact.append(fact[-1] * k)
    explam = [Fraction(1, fact[k]) for k in range(8)]
    em1 = explam[:]
    em1[0] -= 1
    series = [Fraction(0)] * 8
    for k in range(7):
        series[k] = psi[k] * (-1) ** k
    prod = mul(em1, series)
    want = [Fraction(0)] * 8
    want[1] = Fraction(1)
    return prod[:7] == want[:7]


def test_criterion_07_corollary_and_magnetic():
    ok = couple_with_potential(flat_particle(N)).ok
    mag = magnetic_particle(N)
    ok &= couple_with_potential(mag).ok
    # the magnetic S_1 contains (1/2) F_{mu nu} p+^mu p+^nu
    t = mag.theory
    flat_part = _sum(t, (Expression.of(t, f"x+_{k}") * Expression.of(t, f"p+_{k}")
                         for k in range(1, N + 1)))
    f_term = Expression.zero(t)
    for mu in range(1, N + 1):
        for nu in range(1, N + 1):
            if mu == nu:
                continue
            F = Expression.func(t, f"A_{nu}", [f"x_{mu}"]) \
                - Expression.func(t, f"A_{mu}", [f"x_{nu}"])
            f_term = f_term + Fraction(1, 2) * F * Expression.of(t, f"p+_{mu}") \
                * Expression.of(t, f"p+_{nu}")
    ok &= is_zero(eps_parts(u_parts(mag.series)[1])[0] - flat_part - f_term)
    report(7, "potential twist corollary and magnetic model", ok)


def test_criterion_08_spinning_pipeline():
    model = flat_spinning_particle(N)
    rep = spinning_pipeline(model)
    ok = rep.ok and antifield_rank(rep.series) == 2
    # the physical action is the intro's master-equation solution, exactly
    phys = rep.series.theory
    want = intro_action(phys, N, spinning=True)[0]
    ok &= is_zero(eps_parts(u_parts(rep.series)[0])[0] - want)
    ok &= is_zero(eps_parts(u_parts(rep.series)[1])[0] - Expression.of(phys, "c+"))
    # and the intro transformation carries it to the AKSZ form (criterion 4
    # checked the displays; here the pipeline and intro routes agree)
    tr = intro_transformations(phys, N, spinning=True)
    XiS = tr["xi"].apply(want)
    ok &= functional_equal_via_witness(phys, XiS, N)
    # curved model: the general display, term for term (corrected reading)
    mc_model = curved_spinning_particle(1)
    repc = spinning_pipeline(mc_model)
    ok &= all(passed for label, passed in repc.checks if label.startswith("stage-"))
    ok &= antifield_rank(repc.series) == 2
    ok &= _curved_display_matches(mc_model, repc)
    report(8, "spinning pipeline", ok)


def functional_equal_via_witness(phys, XiS, n) -> bool:
    def E(nm, j=0):
        return Expression.of(phys, nm, j)

    d = total_derivative
    rng = range(1, n + 1)
    S0s = _sum(phys, (E(f"p_{k}") * d(E(f"x_{k}"))
                      + Fraction(1, 2) * E(f"psi_{k}") * d(E(f"psi_{k}"))
                      for k in rng)) \
        - Fraction(1, 2) * E("e") * _sum(phys, (E(f"p_{k}") ** 2 for k in rng)) \
        + _sum(phys, (E("chi") * E(f"p_{k}") * E(f"psi_{k}") for k in rng))
    disp = S0s - E("c") * (d(E("e+")) - _sum(phys, (E(f"p_{k}") * E(f"x+_{k}")
                                                    for k in rng))) \
        - E("gamma") * (d(E("chi+"))
                        - _sum(phys, (E(f"p_{k}") * E(f"psi+_{k}") for k in rng))
                        + _sum(phys, (E(f"psi_{k}") * E(f"x+_{k}") for k in rng))
                        + 2 * E("chi") * E("e+")) \
        + E("gamma") ** 2 * E("c+")
    witness = inverse_of(E("e")) * E("c") * (
        _sum(phys, (E(f"p_{k}") * E(f"p+_{k}") for k in rng))
        + Fraction(1, 2) * _sum(phys, (E(f"psi_{k}") * E(f"psi+_{k}") for k in rng))
        + E("gamma") * E("gamma+"))
    return is_zero(XiS - disp - d(witness))


def _curved_display_matches(model, rep) -> bool:
    from bvcov.expression import partial_derivative
    from bvcov.symbols import antifield_name
    phys = rep.series.theory
    n = model.dim

    def E(nm, j=0):
        return Expression.of(phys, nm, j)

    d = total_derivative
    rng = range(1, n + 1)
    Q = embed(model.charge, phys)
    QQ = embed(model.chart.poisson_bracket(model.charge, model.charge), phys)
    S0 = embed(_sum(model.theory,
                    ((-1 if f.parity else 1) * model.chart.nu[f.name]
                     * Expression.of(model.theory, f.name, 1)
                     for f in model.chart.fields)), phys)
    Dm = _sum(phys, (E(f"x+_{k}") * d(E(f"x_{k}")) + E(f"p+_{k}") * d(E(f"p_{k}"))
                     + E(f"psi+_{k}") * d(E(f"psi_{k}")) for k in rng))
    pi = model.chart.poisson_tensor()
    gq = Expression.zero(model.theory)
    for a, fa in enumerate(model.chart.fields):
        for b2, fb in enumerate(model.chart.fields):
            if pi[a][b2].is_structural_zero():
                continue
            dq = partial_derivative(model.charge, fb)
            if dq.is_structural_zero():
                continue
            gq = gq + Expression.of(model.theory, antifield_name(fa.name)) \
                * pi[a][b2] * dq
    S1body = embed(eps_parts(u_parts(model.series)[1])[0], phys)
    expected = S0 - Fraction(1, 2) * E("e") * QQ - E("chi") * Q \
        + E("c") * (Dm - E("chi") * d(E("chi+")) + E("gamma+") * d(E("gamma"))
                    - E("e") * d(E("e+")) + E("c+") * d(E("c"))) \
        + E("gamma") * (-embed(gq, phys) + 2 * E("e+") * E("chi")) \
        - E("gamma") * d(E("chi+")) \
        + inverse_of(E("e")) * E("gamma") ** 2 * (E("c+") - S1body
                                                  - E("chi") * E("gamma+"))
    return is_zero(eps_parts(u_parts(rep.series)[0])[0] - expected)


def test_criterion_09_bracket_axioms_bulk():
    ok = True
    rounds = 0
    for theory_name, builder in (("particle", lambda: intro_theory(1)),
                                 ("spinning", lambda: intro_theory(1, spinning=True))):
        t = builder()
        s = HomogeneousSampler(t, seed=hash(theory_name) % 1000,
                               max_jet=1, max_factors=2, max_terms=2)
        for _ in range(500):
            f, g, h = s.expression(), s.expression(), s.expression()
            pf, pg = f.sign_degree(), g.sign_degree()
            sign = -1 if ((pf + 1) * (pg + 1)) % 2 else 1
            ok &= is_zero(soloviev(g, f) + soloviev(f, g) * sign)
            ok &= is_zero(soloviev(f, soloviev(g, h))
                          - soloviev(soloviev(f, g), h)
                          - soloviev(g, soloviev(f, h)) * sign)
            ok &= is_zero(soloviev(total_derivative(f), g)
                          - total_derivative(soloviev(f, g)))
            rounds += 1
            if not ok:
                break
    # morphism and etale invariance on their own 500-sample runs
    t = intro_theory(1)
    s = HomogeneousSampler(t, seed=77, max_jet=1, max_factors=2, max_terms=2)
    src = Theory("src")
    src.add_field("a", 0, 0)
    src.add_field("b", 0, 0)
    tgt = Theory("tgt")
    tgt.add_field("A", 0, 0)
    tgt.add_field("B", 0, 0)
    emap = EtaleMap(src, tgt, {
        "A": Expression.of(src, "a") + Expression.of(src, "a") ** 2,
        "B": Expression.of(src, "b")})
    s2 = HomogeneousSampler(tgt, seed=78, max_jet=1, max_factors=2, max_terms=2)
    for _ in range(500):
        f, g = s.expression(), s.expression()
        lhs = hamiltonian_vf(f).commutator(hamiltonian_vf(g))
        rhs = hamiltonian_vf(soloviev(f, g))
        for sym in set(lhs.components) | set(rhs.components):
            ok &= is_zero(lhs.component(sym) - rhs.component(sym))
        ff, gg = s2.expression(), s2.expression()
        ok &= is_zero(soloviev(emap.pullback(ff), emap.pullback(gg))
                      - emap.pullback(soloviev(ff, gg)))
        if not ok:
            break
    # morphism on the spinning worldline theory as well
    ts = intro_theory(1, spinning=True)
    s3 = HomogeneousSampler(ts, seed=79, max_jet=1, max_factors=2, max_terms=2)
    for _ in range(500):
        f, g = s3.expression(), s3.expression()
        lhs = hamiltonian_vf(f).commutator(hamiltonian_vf(g))
        rhs = hamiltonian_vf(soloviev(f, g))
        for sym in set(lhs.components) | set(rhs.components):
            ok &= is_zero(lhs.component(sym) - rhs.component(sym))
        if not ok:
            break
    report(9, "bracket axioms at scale", ok)


def test_criterion_10_theorem_faithful():
    t = intro_theory(1)
    s = HomogeneousSampler(t, seed=99, max_jet=1, max_factors=3, max_terms=3)
    ok = True
    for _ in range(200):
        g = s.expression()
        f = total_derivative(g) + Expression.const(t, 5)
        flag, c, w = is_total_derivative(f)
        ok &= flag and c == 5
        ok &= is_zero(f - Expression.const(t, 5) - total_derivative(w))
        if not ok:
            break
    report(10, "total-derivative decision with witness", ok)


def test_criterion_11_thom_whitney():
    from test_thomwhitney import cylinder, sampler, shared_theory
    from bvcov.thomwhitney import (CechCochain, CoverNerve, global_covariant_theory,
                                   global_mc_check, whitney_commutes)
    # 3-chart nerve with random 0- and 1-cochains
    t = shared_theory()
    nerve = CoverNerve({"A": t, "B": t, "C": t}, dimension_bound=3)
    for k in (2, 3):
        for combo in itertools.combinations(["A", "B", "C"], k):
            nerve.declare_overlap(frozenset(combo), t,
                                  {c: CanonicalSubstitution(t, {}, t)
                                   for c in combo})
    rand_val = sampler(t, 101)
    ok = True
    for _ in range(3):
        c0 = CechCochain(nerve, 0, {(a,): rand_val() for a in "ABC"})
        ok &= whitney_commutes(c0).is_zero()
        c1 = CechCochain(nerve, 1, {p: rand_val() for p in itertools.combinations("ABC", 2)})
        ok &= whitney_commutes(c1).is_zero()
    # cylinder with flux; broken cocycle; gauge equivalence; refinement
    nerve2, local, (U0, U1, OV) = cylinder()
    SS = global_covariant_theory(nerve2, local)
    ok &= global_mc_check(SS).ok
    nerve3, local3, _ = cylinder(mu_extra=lambda ov: Expression.of(ov, "x") ** 2)
    bad = global_mc_check(global_covariant_theory(nerve3, local3))
    ok &= (not bad.ok) and ("U0", "U1") in bad.failing
    import test_thomwhitney as tw_tests
    tw_tests.test_gauge_equivalence_constant_shift()
    tw_tests.test_refinement_preserves_global_mc()
    report(11, "Thom-Whitney construction", ok)


def test_criterion_12_curved_context_self_tests():
    ok = True
    for mk in (lambda: intro_theory(1), lambda: intro_theory(1, spinning=True),
               lambda: build_model("bc-system").theory):
        t = mk()
        D = BElement.of_body(d_element(t))
        uD = u_element(t) * D
        gens = []
        for f, a in t.field_pairs():
            for g in (f, a):
                gens.append(BElement.of_body(Expression.symbol(t, g)))
                gens.append(BElement.of_eps(Expression.symbol(t, g)))
        for g in gens:
            ok &= is_zero(du(du(g)) - u_bracket(uD, g))
            ok &= is_zero(iota(iota(g)))
            lhs = b_differential(iota(g)) + iota(b_differential(g))
            ok &= is_zero(lhs - b_bracket(D, g))
    report(12, "curved-context identities on generators", ok)
