from fractions import Fraction

import pytest

from bvcov import aksz
from bvcov.symbols import Theory, TheoryError
from bvcov.expression import (Expression, embed, inverse_of, is_zero,
                              partial_derivative, total_derivative)
from bvcov.curved import (antifield_rank, canonical_substitution_check, mc_check,
                          u_bracket, u_element)
from bvcov.aksz import (SymplecticError, TargetChart, TwistObstruction,
                        build_covariant_theory, couple_gravity, twist,
                        x_u_series, xi_u_series)
from bvcov.models import (apply_relations, bc_system, betagamma_system,
                          build_model, couple_with_potential,
                          curved_spinning_particle, flat_particle,
                          flat_spinning_particle, intro_theory,
                          lichnerowicz_check, magnetic_particle,
                          spinning_pipeline)
from bvcov.varcalc import EtaleMap, functional_equal
from conftest import HomogeneousSampler, eps_parts, u_parts, u_series
from dense_oracle import dense_poisson_tensor, dense_two_form, keys
from paper_intro import (_with_worldline_form, composite_form, intro_action,
                         intro_transformations)


def test_two_form_examples():
    m = flat_particle(1)
    om = m.chart.two_form()
    # nu = p dx: omega_{x p} = -1, omega_{p x} = +1, zero elsewhere
    assert om[0][1] == Expression.const(m.theory, -1)
    assert om[1][0] == Expression.const(m.theory, 1)
    assert om[0][0].is_structural_zero() and om[1][1].is_structural_zero()
    # nu = -c db gives the odd symplectic pairing
    bc = bc_system()
    ombc = bc.chart.two_form()
    assert not ombc[0][1].is_structural_zero()
    # exact one-form on an even coordinate: omega = 0 and inversion fails
    t = Theory("flatline")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    exact = TargetChart(t, {"q": Expression.const(t, 3)})   # nu = 3 dq = d(3q)
    with pytest.raises(SymplecticError):
        exact.poisson_tensor()


def test_invert_symplectic_outputs():
    m = flat_particle(2)
    S1 = u_parts(m.series)[1]
    want = sum((Expression.of(m.theory, f"x+_{k}") * Expression.of(m.theory, f"p+_{k}")
                for k in (1, 2)), Expression.zero(m.theory))
    assert is_zero(eps_parts(S1)[0] - want)
    mag = magnetic_particle(2)
    F12 = Expression.func(mag.theory, "A_2", ["x_1"]) \
        - Expression.func(mag.theory, "A_1", ["x_2"])
    flat_part = sum((Expression.of(mag.theory, f"x+_{k}")
                     * Expression.of(mag.theory, f"p+_{k}") for k in (1, 2)),
                    Expression.zero(mag.theory))
    extra = F12 * Expression.of(mag.theory, "p+_1") * Expression.of(mag.theory, "p+_2")
    assert is_zero(eps_parts(u_parts(mag.series)[1])[0] - flat_part - extra)


def test_jacobi_residuals():
    assert not magnetic_particle(2).chart.jacobi_residual()
    assert not magnetic_particle(3).chart.jacobi_residual()
    # a genuinely non-Poisson bivector on three even coordinates
    t = Theory("three")
    for n in ("x", "y", "z"):
        t.add_field(n, 0, 0)
    chart = TargetChart(t, {"x": Expression.of(t, "y")})
    zero = Expression.zero(t)
    z = Expression.of(t, "z")
    bad = [[zero, z, zero], [-z, zero, Expression.of(t, "y")],
           [zero, -Expression.of(t, "y"), zero]]
    assert chart.jacobi_residual(bad)


def test_poisson_bracket_examples():
    m = flat_particle(2)
    t = m.theory
    x1, p1, p2 = (Expression.of(t, n) for n in ("x_1", "p_1", "p_2"))
    assert m.chart.poisson_bracket(x1, p1) == Expression.const(t, 1)
    assert m.chart.poisson_bracket(x1, p2).is_structural_zero()
    f = x1 * p1
    assert m.chart.poisson_bracket(f, f).is_structural_zero()
    mag = magnetic_particle(2)
    F12 = Expression.func(mag.theory, "A_2", ["x_1"]) \
        - Expression.func(mag.theory, "A_1", ["x_2"])
    got = mag.chart.poisson_bracket(Expression.of(mag.theory, "p_1"),
                                    Expression.of(mag.theory, "p_2"))
    assert is_zero(got - F12)


def test_poisson_axioms_random():
    m = flat_spinning_particle(1)
    s = HomogeneousSampler(m.theory, seed=51, max_jet=0, max_factors=2,
                           max_terms=2)

    def base_expr():
        while True:
            e = s.expression()
            if all(sym.jet_order == 0 and sym.kind.name == "FIELD_JET"
                   for sym in e.symbols()):
                return e

    for _ in range(14):
        f, g, h = base_expr(), base_expr(), base_expr()
        pf, pg = f.sign_degree(), g.sign_degree()
        pb = m.chart.poisson_bracket
        assert is_zero(pb(f, g) + pb(g, f) * (-1 if (pf * pg) % 2 else 1))
        lhs = pb(f, pb(g, h))
        rhs = pb(pb(f, g), h) + pb(g, pb(f, h)) * (-1 if (pf * pg) % 2 else 1)
        assert is_zero(lhs - rhs)


def test_builders_all_models_pass_mc():
    for name, dim in [("flat-particle", 2), ("magnetic-particle", 2),
                      ("bc-system", 0), ("betagamma-system", 0),
                      ("flat-spinning-particle", 2),
                      ("curved-spinning-particle", 1)]:
        model = build_model(name, dim)
        rep = mc_check(model.series)
        assert rep.ok, name


def test_known_block_series():
    bc = bc_system()
    assert is_zero(bc.series - x_u_series(bc.theory))
    bg = betagamma_system()
    assert is_zero(bg.series - xi_u_series(bg.theory))


def test_builder_coordinate_independence():
    # same one-form in a quadratically related coordinate system
    src = Theory("xi")
    src.add_field("x", 0, 0)
    src.add_field("p", 0, 0)
    tgt = Theory("eta")
    tgt.add_field("X", 0, 0)
    tgt.add_field("P", 0, 0)
    x, p = Expression.of(src, "x"), Expression.of(src, "p")
    jac = Expression.const(src, 1) + 2 * x
    m = EtaleMap(src, tgt, {"X": x + x * x, "P": p * inverse_of(jac)})
    s_src = build_covariant_theory(TargetChart(src, {"x": p}))
    s_tgt = build_covariant_theory(
        TargetChart(tgt, {"X": Expression.of(tgt, "P")}))
    moved = u_series(src, {n: m.pullback(c) for n, c in u_parts(s_tgt).items()})
    assert is_zero(moved - s_src)


def test_nu_exactness_ambiguity():
    # nu' = nu + d(mu): same functional classes for S_0 and S_1
    t1 = Theory("a")
    t1.add_field("x", 0, 0)
    t1.add_field("p", 0, 0)
    t2 = Theory("b")
    t2.add_field("x", 0, 0)
    t2.add_field("p", 0, 0)
    S = build_covariant_theory(TargetChart(t1, {"x": Expression.of(t1, "p")}))
    mu = Expression.of(t2, "x") * Expression.of(t2, "p")
    Sprime = build_covariant_theory(TargetChart(t2, {
        "x": Expression.of(t2, "p") + partial_derivative(mu, t2.symbol("x")),
        "p": partial_derivative(mu, t2.symbol("p"))}))
    moved = u_parts(embed(Sprime, t1))
    assert functional_equal(eps_parts(moved[0])[0], eps_parts(u_parts(S)[0])[0])
    assert functional_equal(eps_parts(moved[1])[0], eps_parts(u_parts(S)[1])[0])


def test_fused_generators_keep_their_keys_in_a_product():
    """u and eps sort alike in every theory, so the gravity product, which
    interned neither, takes an element of `magnetic-particle` term by term:
    each key stands, and each atom-free term is relabeled in place, keeping
    its key tuple."""
    from bvcov.aksz import gravity_product
    m = magnetic_particle(2)
    S = m.series
    prod, _, Sp = gravity_product(S, "bc", "bc")
    assert Sp.theory is prod
    for name in ("u", "epsilon"):
        assert prod.sort_key(getattr(prod, name)) == S.theory.sort_key(getattr(S.theory, name))
    assert [t.key for t in Sp.terms] == [t.key for t in S.terms]
    assert all(got.key is t.key for got, t in zip(Sp.terms, S.terms) if not t.atoms)
    assert repr(Sp) == repr(S)


def test_twist_cv_and_guards():
    m = flat_particle(1)
    bcth = Theory("bc")
    bcth.add_field("b", -1, 1)
    bcth.add_field("c", 1, 1)
    from bvcov.symbols import product_theory
    prod = product_theory("p", m.theory, bcth)
    T = embed(m.series, prod) + x_u_series(prod)
    V = Fraction(1, 2) * Expression.of(prod, "p_1") ** 2
    W = Expression.of(prod, "c") * V
    out = twist(T, W)
    assert mc_check(out).ok
    # wrong grading is rejected before any evaluation
    with pytest.raises(TwistObstruction):
        twist(T, Expression.of(prod, "x_1"))


def test_twist_closed_form_display():
    # the twisted theory equals S_0 + W eps
    # + (u/2)(xi+ - dW/u - nu eps) pi (xi+ - dW/u - nu eps), expanded by
    # u-grade; the 1/u part is a multiple of {W,W} and must cancel
    from bvcov.symbols import product_theory
    from bvcov.expression import partial_derivative
    from bvcov.symbols import antifield_name
    m = flat_spinning_particle(1)
    bg = Theory("betagamma")
    bg.add_field("beta", -1, 0)
    bg.add_field("gamma", 1, 0)
    bcth = Theory("bc")
    bcth.add_field("b", -1, 1)
    bcth.add_field("c", 1, 1)
    prod = product_theory("all", m.theory, bg, bcth)
    # one chart for the whole product target
    nu = {f.name: embed(m.chart.nu[f.name], prod) for f in m.chart.fields}
    nu["beta"] = Expression.of(prod, "gamma")
    nu["b"] = -Expression.of(prod, "c")
    chart = TargetChart(prod, nu)
    S = build_covariant_theory(chart)
    QQ = embed(m.chart.poisson_bracket(m.charge, m.charge), prod)
    Q = embed(m.charge, prod)
    W = Fraction(1, 2) * Expression.of(prod, "c") * QQ \
        + Expression.of(prod, "gamma") * Q \
        - Expression.of(prod, "b") * Expression.of(prod, "gamma") ** 2
    got = twist(S, W)

    pi = chart.poisson_tensor()
    epss = Expression.symbol(prod, prod.epsilon)
    fields = chart.fields
    A = [Expression.of(prod, antifield_name(f.name)) - chart.nu[f.name] * epss
         for f in fields]
    B = [partial_derivative(W, f) for f in fields]
    u1 = Expression.zero(prod)
    u0 = Expression.zero(prod)
    um1 = Expression.zero(prod)
    half = Fraction(1, 2)
    for a in range(len(fields)):
        for b2 in range(len(fields)):
            if pi[a][b2].is_structural_zero():
                continue
            u1 = u1 + half * (A[a] * pi[a][b2] * A[b2])
            u0 = u0 - half * (B[a] * pi[a][b2] * A[b2] + A[a] * pi[a][b2] * B[b2])
            um1 = um1 + half * (B[a] * pi[a][b2] * B[b2])
    assert is_zero(um1)     # the {W,W} obstruction term
    s0 = sum(((-1 if f.parity else 1) * chart.nu[f.name]
              * Expression.of(prod, f.name, 1) for f in fields),
             Expression.zero(prod))
    want = s0 + W * epss + u0 + u_element(prod) * u1
    assert is_zero(got - want)


def test_twist_obstruction_without_b_term():
    # the supertwist minus its b gamma^2 term has {W, W} != 0
    m = flat_spinning_particle(1)
    bg = Theory("betagamma")
    bg.add_field("beta", -1, 0)
    bg.add_field("gamma", 1, 0)
    bcth = Theory("bc")
    bcth.add_field("b", -1, 1)
    bcth.add_field("c", 1, 1)
    from bvcov.symbols import product_theory
    prod = product_theory("sg", m.theory, bg, bcth)
    T = embed(m.series, prod) + xi_u_series(prod) + x_u_series(prod)
    QQ = embed(m.chart.poisson_bracket(m.charge, m.charge), prod)
    Q = embed(m.charge, prod)
    W_bad = Fraction(1, 2) * Expression.of(prod, "c") * QQ \
        + Expression.of(prod, "gamma") * Q
    with pytest.raises(TwistObstruction):
        twist(T, W_bad)


def test_couple_gravity_flat_and_betagamma():
    m = flat_particle(2)
    rep = couple_gravity(m.series)
    assert rep.ok
    bg = betagamma_system()
    rep2 = couple_gravity(bg.series)
    assert rep2.ok


def test_couple_gravity_guard():
    m = flat_particle(1)
    bad = m.series + u_series(m.theory, {2: u_parts(m.series)[1]})
    with pytest.raises(TheoryError):
        couple_gravity(bad)


def test_corollary_with_potential_flat_and_magnetic():
    assert couple_with_potential(flat_particle(2)).ok
    assert couple_with_potential(magnetic_particle(2)).ok


def test_spinning_pipeline_matches_intro_action():
    m = flat_spinning_particle(1)
    rep = spinning_pipeline(m)
    assert rep.ok and antifield_rank(rep.series) == 2
    phys = rep.series.theory
    got = eps_parts(u_parts(rep.series)[0])[0]
    assert is_zero(got - intro_action(phys, 1, spinning=True)[0])
    assert is_zero(eps_parts(u_parts(rep.series)[1])[0] - Expression.of(phys, "c+"))
    assert eps_parts(u_parts(rep.series)[1])[1].is_structural_zero()


def test_spinning_pipeline_general_signature():
    # eta bookkeeping: a non-unit indefinite diagonal flows through the whole
    # pipeline and still lands on the eta-weighted action
    eta = [Fraction(2), Fraction(-3)]
    m = flat_spinning_particle(2, eta=eta)
    rep = spinning_pipeline(m)
    assert rep.ok and antifield_rank(rep.series) == 2
    want = intro_action(rep.series.theory, 2, eta=eta, spinning=True)[0]
    assert is_zero(eps_parts(u_parts(rep.series)[0])[0] - want)
    assert couple_with_potential(flat_particle(2, eta=eta)).ok


def _master_equation_with_witness_loop(S: Expression, transported_d: Expression) -> bool:
    """Oracle: the hand-rolled body residual, u-power by u-power."""
    from bvcov.curved import d_element
    phys = S.theory
    corr = transported_d - d_element(phys)
    half = Fraction(1, 2)
    zero = Expression.zero(phys)
    parts = u_parts(S)
    bodies = u_series(phys, {n: eps_parts(c)[0] for n, c in parts.items()})
    check = u_parts(u_bracket(bodies, bodies) * half)
    for n in sorted(set(check) | set(parts) | {1}):
        residual = eps_parts(check.get(n, zero))[0]
        if n == 1:
            residual = residual + d_element(phys) + corr
        # body component of the resolved equation: + (-1)^sigma d(eps_n)
        for sg, part in eps_parts(parts.get(n, zero))[1].sigma_parts():
            residual = residual + total_derivative(part) * (-1 if sg % 2 else 1)
        if not is_zero(residual):
            return False
    return True


def test_master_equation_with_witness_matches_loop(monkeypatch):
    """The witness check built from u_bracket and d_u agrees with the
    hand-rolled loop on the renamed spinning solutions, and fails closed on
    both routes when the eps witnesses are dropped."""
    from bvcov import models
    seen = []
    real = models._master_equation_with_witness
    monkeypatch.setattr(models, "_master_equation_with_witness",
                        lambda S, d: seen.append((S, d)) or real(S, d))
    for m in (flat_spinning_particle(1), flat_spinning_particle(2),
              curved_spinning_particle(1)):
        assert dict(spinning_pipeline(m).checks)["physical-master-equation"]
    assert len(seen) == 3
    for S, d in seen:
        assert real(S, d) and _master_equation_with_witness_loop(S, d)
        bare = u_series(S.theory, {n: eps_parts(c)[0] for n, c in u_parts(S).items()})
        assert bare != S
        assert not real(bare, d) and not _master_equation_with_witness_loop(bare, d)


# a non-unit indefinite frame metric for the eta-taking builders
ETA = [Fraction(2), Fraction(-3)]


def test_eta_reaches_magnetic_coupling():
    m = magnetic_particle(2, eta=ETA)
    assert m.eta == ETA
    assert couple_with_potential(m).ok


def test_eta_built_series_solve_master_equation():
    for m in (curved_spinning_particle(2, eta=ETA),
              build_model("magnetic-particle", 2, eta=ETA)):
        assert m.eta == ETA
        assert mc_check(m.series).ok


def test_eta_intro_particle_and_spinning_xi():
    t = intro_theory(2)
    S, _, _ = intro_action(t, 2, eta=ETA)
    Su = S + u_element(t) * Expression.of(t, "c+")
    assert mc_check(Su, "F").ok
    ts = intro_theory(2, spinning=True)
    assert not canonical_substitution_check(
        intro_transformations(ts, 2, eta=ETA, spinning=True)["xi"])


def test_spinning_supertwist_obstruction_free():
    # {W, W} = 0 for W = c{Q,Q}/2 + gamma Q - b gamma^2 (flat and curved)
    for model in (flat_spinning_particle(1), curved_spinning_particle(1)):
        rep = spinning_pipeline(model)
        assert all(passed for label, passed in rep.checks if label.startswith("stage-"))
        assert antifield_rank(rep.series) == 2


def test_intro_xi_endpoint_and_composites_particle():
    n = 2
    t = intro_theory(n)
    S, S0, D = intro_action(t, n)
    tr = intro_transformations(t, n)
    assert not canonical_substitution_check(tr["xi"])
    XiS = tr["xi"].apply(S)

    def E(nm, j=0):
        return Expression.of(t, nm, j)

    d = total_derivative
    rng = range(1, n + 1)
    pxp = sum((E(f"p_{k}") * E(f"x+_{k}") for k in rng), Expression.zero(t))
    ppp = sum((E(f"p_{k}") * E(f"p+_{k}") for k in rng), Expression.zero(t))
    display = S0 + E("c") * (pxp - d(E("e+"))) \
        + d(E("c") * (ppp + E("e") * E("e+")))
    # computed endpoint: same functional, with an explicit derivative witness
    witness = inverse_of(E("e")) * E("c") * ppp \
        - E("c") * (ppp + E("e") * E("e+"))
    assert is_zero(XiS - display - d(witness))
    # the transformed series coefficient of u is exact as displayed
    got_u = tr["xi"].image(t.symbol("c+"))
    want_u = E("e") * E("c+") + sum((E(f"x+_{k}") * E(f"p+_{k}") for k in rng),
                                    Expression.zero(t))
    assert is_zero(got_u - want_u)
    # worldline composite identity, decided by the derivative test
    wt = _with_worldline_form(t)
    coeff = partial_derivative(composite_form(wt, n, m_eta(n)), wt.symbol("dt"))
    assert functional_equal(embed(display, wt), coeff)


def m_eta(n):
    return [Fraction(1)] * n


def test_intro_xi_endpoint_and_composites_spinning():
    n = 2
    t = intro_theory(n, spinning=True)
    S = intro_action(t, n, spinning=True)[0]
    tr = intro_transformations(t, n, spinning=True)
    assert not canonical_substitution_check(tr["xi"])
    XiS = tr["xi"].apply(S)

    def E(nm, j=0):
        return Expression.of(t, nm, j)

    d = total_derivative
    rng = range(1, n + 1)
    S0 = sum((E(f"p_{k}") * d(E(f"x_{k}"))
              + Fraction(1, 2) * E(f"psi_{k}") * d(E(f"psi_{k}")) for k in rng),
             Expression.zero(t)) \
        - Fraction(1, 2) * E("e") * sum((E(f"p_{k}") ** 2 for k in rng),
                                        Expression.zero(t)) \
        + sum((E("chi") * E(f"p_{k}") * E(f"psi_{k}") for k in rng),
              Expression.zero(t))
    display = S0 \
        - E("c") * (d(E("e+")) - sum((E(f"p_{k}") * E(f"x+_{k}") for k in rng),
                                     Expression.zero(t))) \
        - E("gamma") * (d(E("chi+"))
                        - sum((E(f"p_{k}") * E(f"psi+_{k}") for k in rng),
                              Expression.zero(t))
                        + sum((E(f"psi_{k}") * E(f"x+_{k}") for k in rng),
                              Expression.zero(t))
                        + 2 * E("chi") * E("e+")) \
        + E("gamma") ** 2 * E("c+")
    witness = inverse_of(E("e")) * E("c") * (
        sum((E(f"p_{k}") * E(f"p+_{k}") for k in rng), Expression.zero(t))
        + Fraction(1, 2) * sum((E(f"psi_{k}") * E(f"psi+_{k}") for k in rng),
                               Expression.zero(t))
        + E("gamma") * E("gamma+"))
    assert is_zero(XiS - display - d(witness))
    wt = _with_worldline_form(t)
    coeff = partial_derivative(composite_form(wt, n, m_eta(n), spinning=True),
                               wt.symbol("dt"))
    assert functional_equal(embed(display, wt), coeff)


def test_desk_scale_dimension_four():
    # the whole pipeline family stays fast at the n = 4 desk scale
    m4 = flat_particle(4)
    assert couple_gravity(m4.series).ok
    rep = spinning_pipeline(flat_spinning_particle(3))
    assert rep.ok and antifield_rank(rep.series) == 2
    assert couple_with_potential(magnetic_particle(4)).ok


def test_lichnerowicz_flagged():
    """Today's residuals of {Q,Q} against the curved-frame display, pinned
    exactly.  At dim 1 no relation applies, and the one term left is twice
    {Q,Q} = -thinv_1_1^2 p_1^2: the display is -{Q,Q}, its sign opposite
    to the chart's psi convention.  At dim 2 the 4 residual terms holding A
    are its F part, 3 F_12 det(thinv) psi_1 psi_2: the bracket's 2 F_12
    det(thinv) psi_1 psi_2 less the display's -F_12 det(thinv) psi_1 psi_2."""
    m = curved_spinning_particle(1)
    t = m.theory
    rep = lichnerowicz_check(m)
    want = -2 * Expression.func(t, "thinv_1_1") ** 2 * Expression.of(t, "p_1") ** 2
    assert rep.status == "needs-relations" and rep.residual == want
    QQ = m.chart.poisson_bracket(m.charge, m.charge)
    assert rep.residual == QQ * 2
    m = curved_spinning_particle(2)
    t = m.theory
    rep = lichnerowicz_check(m)
    assert rep.status == "needs-relations" and len(rep.residual.terms) == 26

    def F(name, *deriv):
        return Expression.func(t, name, deriv)
    f_part = Expression(t, tuple(term for term in rep.residual.terms
                                 if any(a.func in ("A_1", "A_2") for a, _ in term.atoms)))
    assert f_part == 3 * (F("A_2", "x_1") - F("A_1", "x_2")) \
        * (F("thinv_1_1") * F("thinv_2_2") - F("thinv_1_2") * F("thinv_2_1")) \
        * Expression.of(t, "psi_1") * Expression.of(t, "psi_2")
    assert len(f_part.terms) == 4


def test_relation_rewriting_cartan():
    m = curved_spinning_particle(2)
    t = m.theory
    atom = Expression.func(t, "th_1_1", ["x_2"])   # disordered: d_2 theta^1_1
    rewritten = apply_relations(atom)
    assert rewritten != atom
    ordered = Expression.func(t, "th_1_2", ["x_1"])
    assert apply_relations(ordered) == ordered


def test_relations_apply_in_a_product_theory():
    """A product theory copies its parts' rewrite rules, whose values live
    in the part; they are embedded before use, so rewriting commutes with
    the embedding."""
    from bvcov.aksz import ghost_pair
    from bvcov.symbols import product_theory
    t = curved_spinning_particle(2).theory
    prod = product_theory("p", t, ghost_pair("bc"))
    F = Expression.func(t, "th_1_1", ["x_2"]) * Expression.of(t, "p_1")
    c = Expression.of(prod, "c")
    assert apply_relations(F) != F
    assert apply_relations(embed(F, prod) * c) == embed(apply_relations(F), prod) * c


# -- the sparse symplectic inversion against the dense oracle ---------------


LIBRARY_CHARTS = [(build, dim) for build in (flat_particle, magnetic_particle,
                                              flat_spinning_particle, curved_spinning_particle)
                  for dim in (1, 2, 3, 4)] + [(bc_system, None), (betagamma_system, None)]


def _fresh_chart(build, dim) -> TargetChart:
    """The library chart of a model, rebuilt so nothing is cached on it."""
    model = build() if dim is None else build(dim)
    return TargetChart(model.theory, model.chart.nu)


@pytest.mark.parametrize("build,dim", LIBRARY_CHARTS,
                         ids=[f"{b.__name__}-{d}" for b, d in LIBRARY_CHARTS])
def test_sparse_two_form_and_poisson_tensor_match_dense_oracle(build, dim):
    chart = _fresh_chart(build, dim)
    assert keys(chart.two_form()) == keys(dense_two_form(chart))
    want = dense_poisson_tensor(chart)
    assert want not in (None, False)
    assert keys(chart.poisson_tensor()) == keys(want)


@pytest.mark.parametrize("build,dim", [(flat_particle, 3), (flat_spinning_particle, 3),
                                       (bc_system, None), (betagamma_system, None)])
def test_constant_poisson_tensor_is_the_exact_inverse(build, dim):
    """pi^{ab} = (-1)^{pa(a)} (omega^-1)^{ab} against sympy's exact inverse."""
    sympy = pytest.importorskip("sympy")
    chart = _fresh_chart(build, dim)
    omega = chart.two_form()
    for row in omega:
        for e in row:
            assert all(not t.mono and not t.atoms for t in e.terms)
    inv = sympy.Matrix([[sympy.Rational(str(e.constant_part())) for e in row]
                        for row in omega]).inv()
    pi = chart.poisson_tensor()
    for a, fa in enumerate(chart.fields):
        for b in range(len(chart.fields)):
            q = inv[a, b] * (-1 if fa.parity else 1)
            assert pi[a][b] == Expression.const(chart.theory, Fraction(int(q.p), int(q.q)))


def _corrupted_inverse(corrupt):
    """A stand-in for the inverse that `poisson_tensor` receives: the true
    inverse with `corrupt(inv, omega)` applied."""
    true_inverse = aksz._matrix_right_inverse

    def invert(theory, omega):
        inv = true_inverse(theory, omega)
        corrupt(inv, omega)
        return inv
    return invert


def _drop_diagonal_producer(inv, omega):
    b = next(b for b in range(len(inv)) if inv[0][b].terms and omega[b][0].terms)
    inv[0][b] = Expression.zero(omega[0][0].theory)


def _flip_off_diagonal(inv, omega):
    a, b = next((a, b) for a in range(len(inv)) for b in range(len(inv))
                if a != b and inv[a][b].terms)
    inv[a][b] = -inv[a][b]


def _add_spurious_entry(inv, omega):
    a, b = next((a, b) for a in range(len(inv)) for b in range(len(inv))
                if not inv[a][b].terms
                and any(c != a and omega[b][c].terms for c in range(len(inv))))
    inv[a][b] = Expression.const(omega[0][0].theory, 1)


@pytest.mark.parametrize("corrupt", [_drop_diagonal_producer, _flip_off_diagonal,
                                     _add_spurious_entry])
def test_post_check_catches_a_corrupted_inverse(monkeypatch, corrupt):
    chart = _fresh_chart(magnetic_particle, 2)
    monkeypatch.setattr(aksz, "_matrix_right_inverse", _corrupted_inverse(corrupt))
    with pytest.raises(SymplecticError, match="post-check"):
        chart.poisson_tensor()


def test_symmetry_check_catches_an_asymmetric_inverse(monkeypatch):
    """omega = [[0, 1], [2, 0]] is not antisymmetric, so its inverse passes
    the signed-identity post-check and fails the symmetry check."""
    t = Theory("skewless")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    chart = TargetChart(t, {"q": Expression.of(t, "r")})
    zero, one, two = (Expression.const(t, k) for k in (0, 1, 2))
    monkeypatch.setattr(chart, "two_form", lambda: [[zero, one], [two, zero]])
    with pytest.raises(SymplecticError, match="symmetry check failed"):
        chart.poisson_tensor()


def test_poisson_tensor_multiplies_only_nonzero_entries(monkeypatch):
    """omega of the dim-8 flat spinning particle has 24 nonzeros of 576; the
    dense inversion and post-checks made 17,280 products here."""
    model = flat_spinning_particle(8)
    chart = TargetChart(model.theory, model.chart.nu)
    calls = 0
    mul = Expression.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Expression, "__mul__", counting)
    chart.poisson_tensor()
    assert calls < 240


def _xp_theory() -> Theory:
    t = Theory("xypq")
    for name in ("x", "y", "p", "q"):
        t.add_field(name, 0, 0)
    return t


def test_target_chart_refuses_a_nu_key_that_is_not_a_coordinate():
    t = _xp_theory()
    p, q, x = (Expression.of(t, n) for n in ("p", "q", "x"))
    with pytest.raises(SymplecticError, match="nu_z: z is not a coordinate"):
        TargetChart(t, {"x": p, "y": q, "z": x})


def test_target_chart_refuses_a_nu_component_of_another_theory():
    t, other = _xp_theory(), _xp_theory()
    with pytest.raises(SymplecticError, match="nu_y belongs to another theory"):
        TargetChart(t, {"x": Expression.of(t, "p"), "y": Expression.of(other, "q")})
