"""The worked-model library: particle and spinning-particle charts with
flat or curved/magnetic backgrounds, and the gravity and supergravity gauge
sequences.

Index ranges are expanded eagerly at construction (concrete dimension n);
the frame metric eta is a numeric symmetric invertible diagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .expression import (Expression, Term, _lower_atom, embed, is_zero,
                         partial_derivative)
from .curved import (CanonicalSubstitution, _body, canonical_substitution_check, d_element,
                     du, gauge_flow_series, mc_check, u_bracket, u_coefficient, u_element)
from .aksz import (PipelineReport, TargetChart, build_covariant_theory, ghost_pair,
                   gravity_product, log_flow, minimal_coupling, twist, x_u_series,
                   xi_u_series)
from .symbols import Theory, TheoryError, product_theory



@dataclass
class ModelSpec:
    """A chart from the library plus the data feeding the gauge pipelines."""

    name: str
    dim: int
    chart: TargetChart
    series: Expression
    eta: Optional[list[Fraction]] = None
    potential: Optional[Expression] = None      # V for the particle twist
    charge: Optional[Expression] = None         # odd ghost-0 Q, for a spinning particle

    @property
    def theory(self) -> Theory:
        return self.chart.theory


def _diag_eta(n: int, eta) -> list[Fraction]:
    if eta is None:
        return [Fraction(1)] * n
    eta = [Fraction(v) for v in eta]
    if len(eta) != n or any(v == 0 for v in eta):
        raise TheoryError("eta must be a nonsingular diagonal of length n")
    return eta


def _phase_space(name: str, n: int, spinning: bool = False,
                 magnetic: bool = False) -> Theory:
    """The fields x_m and p_m, then psi_a for a spinning particle, then the
    electromagnetic potentials A_m(x) for a magnetic background."""
    t = Theory(name)
    for prefix, parity in [("x", 0), ("p", 0)] + [("psi", 1)] * spinning:
        for m in range(1, n + 1):
            t.add_field(f"{prefix}_{m}", 0, parity)
    if magnetic:
        xs = [f"x_{m}" for m in range(1, n + 1)]
        for m in range(1, n + 1):
            t.add_function(f"A_{m}", xs)
    return t


def _chart(t: Theory, n: int, magnetic: bool,
           psi_scale: Sequence[Fraction] = ()) -> TargetChart:
    """nu = p dx, or (p + A) dx in a magnetic background, plus
    psi_scale_a psi_a dpsi_a for a spinning particle."""
    nu = {}
    for m in range(1, n + 1):
        nu[f"x_{m}"] = Expression.of(t, f"p_{m}")
        if magnetic:
            nu[f"x_{m}"] = nu[f"x_{m}"] + Expression.func(t, f"A_{m}")
    for a, scale in enumerate(psi_scale, 1):
        nu[f"psi_{a}"] = scale * Expression.of(t, f"psi_{a}")
    return TargetChart(t, nu)


def _particle(name: str, theory: str, n: int, eta, magnetic: bool) -> ModelSpec:
    eta = _diag_eta(n, eta)
    t = _phase_space(theory, n, magnetic=magnetic)
    chart = _chart(t, n, magnetic)
    V = Fraction(1, 2) * Expression.sum(t, (
        (Fraction(1) / eta[m - 1]) * Expression.of(t, f"p_{m}") ** 2 for m in range(1, n + 1)))
    return ModelSpec(name, n, chart, build_covariant_theory(chart), eta=eta, potential=V)


def flat_particle(n: int = 2, eta=None) -> ModelSpec:
    return _particle("flat-particle", "particle", n, eta, magnetic=False)


def magnetic_particle(n: int = 2, eta=None) -> ModelSpec:
    """Particle in an electromagnetic background: nu = (p + A) dx with an
    opaque potential A_mu(x); the field strength enters as derivative
    descendants of A."""
    return _particle("magnetic-particle", "magnetic", n, eta, magnetic=True)


def bc_system() -> ModelSpec:
    t = ghost_pair("bc")
    chart = TargetChart(t, {"b": -Expression.of(t, "c")})
    return ModelSpec("bc-system", 0, chart, build_covariant_theory(chart))


def betagamma_system() -> ModelSpec:
    t = ghost_pair("betagamma")
    chart = TargetChart(t, {"beta": Expression.of(t, "gamma")})
    return ModelSpec("betagamma-system", 0, chart, build_covariant_theory(chart))


def flat_spinning_particle(n: int = 2, eta=None) -> ModelSpec:
    eta = _diag_eta(n, eta)
    t = _phase_space("spinning", n, spinning=True)
    # intro convention: nu = -(1/2) eta psi dpsi gives S_0 containing
    # +(1/2) psi dpsi, and Q = -psi^mu p_mu lands the pipeline on the
    # displayed flat action; the curved-frame section differs by psi -> -psi
    chart = _chart(t, n, False, [Fraction(-1, 2) * v for v in eta])
    Q = -Expression.sum(t, (Expression.of(t, f"psi_{m}") * Expression.of(t, f"p_{m}")
                            for m in range(1, n + 1)))
    return ModelSpec("flat-spinning-particle", n, chart,
                     build_covariant_theory(chart), eta=eta, charge=Q)


def curved_spinning_particle(n: int = 2, eta=None) -> ModelSpec:
    """Spinning particle with opaque frame theta^a_mu (inverse thinv^mu_a),
    spin connection om_mu_a_b and electromagnetic potential A_mu; the charge
    is Q = thinv^mu_a psi^a (p_mu + (1/2) om_mu_ab psi^a psi^b)."""
    eta = _diag_eta(n, eta)
    t = _phase_space("curved-spinning", n, spinning=True, magnetic=True)
    xs = [f"x_{m}" for m in range(1, n + 1)]
    for a in range(1, n + 1):
        for m in range(1, n + 1):
            t.add_function(f"th_{a}_{m}", xs)
            t.add_function(f"thinv_{m}_{a}", xs)
    for m in range(1, n + 1):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                t.add_function(f"om_{m}_{a}_{b}", xs)
    # the curved-frame psi sign, opposite to the intro convention
    chart = _chart(t, n, True, [Fraction(1, 2) * v for v in eta])
    rng = range(1, n + 1)
    ptilde = {m: _ptilde(t, n, m) for m in rng}
    Q = Expression.sum(t, (Expression.func(t, f"thinv_{m}_{a}") * Expression.of(t, f"psi_{a}")
                           * ptilde[m] for m in rng for a in rng))
    # first Cartan structure equation as a directed rule: the disordered
    # frame derivative d_m theta^a_k (m > k) is eliminated
    for a in rng:
        for k in rng:
            for m in range(k + 1, n + 1):
                rhs = Expression.sum(t, [Expression.func(t, f"th_{a}_{m}", [f"x_{k}"])] + [
                    _om(t, k, a, b) * Expression.func(t, f"th_{b}_{m}")
                    - _om(t, m, a, b) * Expression.func(t, f"th_{b}_{k}") for b in rng])
                t.relations[(f"th_{a}_{k}", f"x_{m}")] = rhs
    return ModelSpec("curved-spinning-particle", n, chart,
                     build_covariant_theory(chart), eta=eta, charge=Q)


def _om(t: Theory, m: int, a: int, b: int) -> Expression:
    """The spin connection om_m_a_b, antisymmetric in (a, b); only a < b is
    a function symbol."""
    if a == b:
        return Expression.zero(t)
    if a < b:
        return Expression.func(t, f"om_{m}_{a}_{b}")
    return -Expression.func(t, f"om_{m}_{b}_{a}")


def _ptilde(t: Theory, n: int, m: int) -> Expression:
    """p~_m = p_m + (1/2) om_m_ab psi^a psi^b."""
    return Expression.sum(t, [Expression.of(t, f"p_{m}")] + [
        Fraction(1, 2) * _om(t, m, a, b) * Expression.of(t, f"psi_{a}")
        * Expression.of(t, f"psi_{b}")
        for a in range(1, n + 1) for b in range(1, n + 1)])


# -- directed function-symbol rewrite rules ---------------------------------------


# a rewrite still changing terms after this many passes is refused
_RELATION_PASSES = 32


def apply_relations(expr: Expression) -> Expression:
    """Rewrite function-symbol descendants by the theory's directed rules
    until no rule applies."""
    theory = expr.theory
    if not theory.relations:
        return expr
    for _ in range(_RELATION_PASSES):
        changed = False
        kept: list[Term] = []
        pieces: list[Expression] = []
        for t in expr.terms:
            hit = None
            for idx, (a, _) in enumerate(t.atoms):
                if not hasattr(a, "deriv"):
                    continue
                for d in a.deriv:
                    if (a.func, d) in theory.relations:
                        hit = (idx, a, d)
                        break
                if hit:
                    break
            if hit is None:
                kept.append(t)
                continue
            changed = True
            idx, atom, d = hit
            value = theory.relations[(atom.func, d)]
            if value.theory is not theory:
                # a product theory copies its parts' rules as they are
                value = embed(value, theory)
            rest = list(atom.deriv)
            rest.remove(d)
            for extra in rest:
                value = partial_derivative(value, theory.symbol(extra))
            pieces.append(Expression(theory, (_lower_atom(t, idx, t.coef),)) * value)
        # the kept terms are a subsequence of a canonical tuple, so canonical
        expr = Expression.sum(theory, [Expression(theory, tuple(kept))] + pieces)
        if not changed:
            return expr
    raise TheoryError("relation rewriting did not terminate")


@dataclass
class LichnerowiczReport:
    residual: Expression
    status: str              # "verified" | "needs-relations"


def lichnerowicz_check(model: ModelSpec) -> LichnerowiczReport:
    """Optional (non-gating): compare {Q,Q} with the curved-frame display
    thinv^mu_a thinv^nu_b (eta^{ab} p~_mu p~_nu - (1/2) F_{mu nu} psi^a psi^b);
    identities mixing frame and inverse frame need the non-local contraction
    relation, so a residual the theory's rewrite relations leave nonzero is
    reported as needs-relations."""
    if model.charge is None or model.eta is None:
        raise TheoryError("needs a spinning model")
    t = model.theory
    n = model.dim
    lhs = model.chart.poisson_bracket(model.charge, model.charge)
    ptilde = {m: _ptilde(t, n, m) for m in range(1, n + 1)}
    pieces = []
    for mu in range(1, n + 1):
        for nu in range(1, n + 1):
            F = Expression.func(t, f"A_{nu}", [f"x_{mu}"]) - \
                Expression.func(t, f"A_{mu}", [f"x_{nu}"])
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    pref = Expression.func(t, f"thinv_{mu}_{a}") * \
                        Expression.func(t, f"thinv_{nu}_{b}")
                    if a == b:
                        pieces.append(pref * (Fraction(1) / model.eta[a - 1])
                                      * ptilde[mu] * ptilde[nu])
                    pieces.append(-(pref * Fraction(1, 2) * F * Expression.of(t, f"psi_{a}")
                                    * Expression.of(t, f"psi_{b}")))
    residual = apply_relations(lhs - Expression.sum(t, pieces))
    status = "verified" if is_zero(residual) else "needs-relations"
    return LichnerowiczReport(residual, status)


MODEL_BUILDERS: dict[str, Callable[..., ModelSpec]] = {
    "flat-particle": flat_particle,
    "magnetic-particle": magnetic_particle,
    "bc-system": bc_system,
    "betagamma-system": betagamma_system,
    "flat-spinning-particle": flat_spinning_particle,
    "curved-spinning-particle": curved_spinning_particle,
}


def build_model(name: str, dim: int = 2, eta=None) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise TheoryError(f"unknown model: {name} (have {sorted(MODEL_BUILDERS)})")
    builder = MODEL_BUILDERS[name]
    if name in ("bc-system", "betagamma-system"):
        return builder()
    if dim < 1:
        raise TheoryError(f"{name} needs --dim of at least 1, got {dim}")
    return builder(dim, eta)


# -- the supergravity gauge sequence ---------------------------------------------


def spinning_pipeline(model: ModelSpec) -> PipelineReport:
    """Twist by u^{-1}(c{Q,Q}/2 + gamma Q - b gamma^2), gauge by
    log(b+)c+c, c Xi_1 and c S_1, then substitute the graviton e for b+
    and the gravitino chi for beta+ and project to the physical theory."""
    if model.charge is None:
        raise TheoryError("spinning pipeline needs a spinning model with a charge Q")
    g = model.charge.grade()
    if g is None or g != (0, 1, 0):
        raise TheoryError("charge Q must be odd of ghost number 0")
    prod, tau, S = gravity_product(model.series, "sugra", "betagamma", "bc")
    Xi = xi_u_series(prod)
    X = x_u_series(prod)
    T0 = S + Xi + X
    checks = [("stage-product", mc_check(T0).ok)]

    c = Expression.of(prod, "c")
    gamma = Expression.of(prod, "gamma")
    b = Expression.of(prod, "b")
    QQ = embed(model.chart.poisson_bracket(model.charge, model.charge), prod)
    Q = embed(model.charge, prod)
    W = Fraction(1, 2) * c * QQ + gamma * Q - b * gamma * gamma
    T1 = twist(T0, W)
    checks.append(("stage-twist", mc_check(T1).ok))

    T2 = log_flow(T1, tau).endpoint
    checks.append(("stage-log-flow", mc_check(T2).ok))

    S1 = u_coefficient(S, 1)
    Xi1 = u_coefficient(Xi, 1)
    T3 = gauge_flow_series(T2, c * Xi1).endpoint()
    checks.append(("stage-cXi1", mc_check(T3).ok))
    T4 = gauge_flow_series(T3, c * S1).endpoint()
    checks.append(("stage-cS1", mc_check(T4).ok))

    # BCH merge: c Xi_1 * c S_1 = c(S_1 + Xi_1): flowing in one shot agrees
    merged = gauge_flow_series(T2, c * (S1 + Xi1)).endpoint()
    bch_ok = is_zero(merged - T4) and is_zero(u_bracket(c * Xi1, c * S1))

    rename = _physical_rename(model, prod)
    T5 = rename.apply(T4)
    checks += [("bch-merge", bch_ok),
               ("rename-canonical", not canonical_substitution_check(rename)),
               ("physical-master-equation",
                _master_equation_with_witness(T5, rename.apply(d_element(prod))))]
    return PipelineReport(checks, T5)


def _master_equation_with_witness(S: Expression, transported_d: Expression) -> bool:
    """Functional-level master equation for a renamed resolution solution:
    the transported eps parts are explicit homotopy witnesses, and the
    field/antifield swap shifts the curvature representative by an exact
    term (m(D) differs from the target D by a total derivative): checks
    u m(D) + d_u(eps parts) + (1/2)[bodies, bodies] = 0."""
    bodies = _body(S)
    witnesses = S - bodies
    return is_zero(u_element(S.theory) * transported_d + du(witnesses)
                   + u_bracket(bodies, bodies) * Fraction(1, 2))


def _physical_rename(model: ModelSpec, prod: Theory) -> CanonicalSubstitution:
    """Physical variables: graviton e for b+, gravitino chi for beta+, with
    b -> -e+ and beta -> -chi+ fixed by bracket preservation."""
    phys = product_theory(model.theory.name + "-physical", model.theory)
    phys.add_field("e", 0, 0)
    phys.add_field("chi", 0, 1)
    phys.add_field("c", 1, 1)
    phys.add_field("gamma", 1, 0)
    images = {
        prod.symbol("b"): -Expression.of(phys, "e+"),
        prod.symbol("b+"): Expression.of(phys, "e"),
        prod.symbol("beta"): -Expression.of(phys, "chi+"),
        prod.symbol("beta+"): Expression.of(phys, "chi"),
    }
    return CanonicalSubstitution(prod, images, phys)


# -- coupling with a potential (the particle proper) ------------------------------


def couple_with_potential(model: ModelSpec) -> PipelineReport:
    """Corollary route: twist (S_u + X_u) by u^{-1} cV, then gauge by
    log(b+)c+c and cS_1; the endpoint is the minimally coupled particle
    S_0 - b+ V + c(D + b+ db + c+ dc) + c iota S_0 + u c+.  A twisted theory
    that fails its master equation ends the run on `twisted-master-equation`."""
    if model.potential is None:
        raise TheoryError("model has no potential V")
    prod, tau, S = gravity_product(model.series, "bc", "bc")
    c = Expression.of(prod, "c")
    V = embed(model.potential, prod)
    T1 = twist(S + x_u_series(prod), c * V)
    if not mc_check(T1).ok:
        return PipelineReport([("twisted-master-equation", False)], T1)
    T2 = log_flow(T1, tau).endpoint
    T3 = gauge_flow_series(T2, c * u_coefficient(S, 1)).endpoint()
    expected = minimal_coupling(S) - Expression.of(prod, "b+") * V
    return PipelineReport([("twist-couple-endpoint", is_zero(T3 - expected)),
                           ("endpoint-master-equation", mc_check(T3).ok)], T3)


# -- the worldline fields of the introduction ------------------------------------


def intro_theory(n: int = 2, spinning: bool = False) -> Theory:
    """Worldline fields of the introduction: x, p (and psi), e, c (and chi,
    gamma)."""
    t = _phase_space("intro-spinning" if spinning else "intro", n, spinning=spinning)
    t.add_field("e", 0, 0)
    if spinning:
        t.add_field("chi", 0, 1)
    t.add_field("c", 1, 1)
    if spinning:
        t.add_field("gamma", 1, 0)
    return t
