"""From target-geometry data (a one-form with symplectic differential) to
covariant field theories: the exact symplectic inversion, Poisson
brackets, the builder theorem, twists, coupling to the worldline gravity
multiplet and the spinning-particle gauge sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .expression import Expression, embed, is_zero, jet_gradient, log_of, split_powers
from .curved import (BElement, EndpointReport, d_element, du, gauge_flow_closed,
                     gauge_flow_series, iota, mc_check, u_bracket, u_coefficient, u_element)
from .printer import render_by_u
from .symbols import GradedSymbol, Theory, TheoryError, antifield_name, product_theory
from .varcalc import _matrix_right_inverse, _nonzero_rows, _signed_identity_holds


class SymplecticError(TheoryError):
    pass


class TargetChart:
    """A chart of the target: base coordinates with gradings and the
    components of a one-form nu whose differential is symplectic."""

    def __init__(self, theory: Theory, nu: dict[str, Expression]):
        self.theory = theory
        self.fields = [f for f, _ in theory.field_pairs()]
        coordinates = {f.name for f in self.fields}
        for key, comp in nu.items():
            if key not in coordinates:
                raise SymplecticError(f"nu_{key}: {key} is not a coordinate of the chart")
            if comp.theory is not theory:
                raise SymplecticError(f"nu_{key} belongs to another theory than the chart")
        self.nu = {f.name: nu.get(f.name, Expression.zero(theory)) for f in self.fields}
        for f in self.fields:
            comp = self.nu[f.name]
            if comp.is_structural_zero():
                continue
            g = comp.grade()
            if g is None or g != (-f.ghost, f.parity, 0):
                raise SymplecticError(
                    f"nu_{f.name} must have ghost {-f.ghost} and parity {f.parity}")
            if any(s.jet_order > 0 for s in comp.symbols()):
                raise SymplecticError("nu components must be functions of base coordinates")
        self._omega: Optional[list[list[Expression]]] = None
        self._pi: Optional[list[list[Expression]]] = None
        self._pi_rows: list[dict[int, Expression]] = []

    # -- two-form, Poisson tensor, brackets ------------------------------

    def two_form(self) -> list[list[Expression]]:
        """omega_ab = d_a nu_b - (-1)^{pa(a)pa(b)} d_b nu_a, read off one jet
        gradient per nu component.  Only the pairs (a, b) where d_a nu_b or
        d_b nu_a is nonzero are formed; every other entry is zero."""
        if self._omega is not None:
            return self._omega
        n = len(self.fields)
        index = {f: a for a, f in enumerate(self.fields)}
        # grads[b][a] = d_a nu_b, nonzero entries only
        grads = [{index[s]: d for s, d in jet_gradient(self.nu[f.name]).items() if s in index}
                 for f in self.fields]
        pairs = {p for b, grad in enumerate(grads) for a in grad for p in ((a, b), (b, a))}
        zero = Expression.zero(self.theory)
        omega = [[zero] * n for _ in range(n)]
        for a, b in pairs:
            sign = -1 if (self.fields[a].parity * self.fields[b].parity) % 2 else 1
            omega[a][b] = grads[b].get(a, zero) - grads[a].get(b, zero) * sign
        self._omega = omega
        return omega

    def poisson_tensor(self) -> list[list[Expression]]:
        """Solve (-1)^{pa(a)} pi^{ab} omega_bc = delta^a_c by exact Gaussian
        elimination on sparse rows; inverse() atoms appear only for
        non-constant pivots.  The signed-identity post-check and the
        symmetry check are mandatory; like the parity signs, they visit only
        nonzero entries, so the cost follows the nonzeros of omega and pi."""
        if self._pi is not None:
            return self._pi
        omega = self.two_form()
        n = len(self.fields)
        if not any(_nonzero_rows(omega)):
            raise SymplecticError("two-form is zero: not symplectic")
        inv = _matrix_right_inverse(self.theory, omega)
        if inv is None:
            raise SymplecticError("two-form is degenerate: not symplectic")
        signs = [-1 if f.parity else 1 for f in self.fields]
        rows = [{b: e * signs[a] for b, e in row.items()}
                for a, row in enumerate(_nonzero_rows(inv))]
        zero = Expression.zero(self.theory)
        pi = [[row.get(b, zero) for b in range(n)] for row in rows]
        if not _signed_identity_holds(self.theory, pi, omega, signs):
            raise SymplecticError("post-check pi.omega = signed identity failed")
        for a, b in sorted({(min(a, b), max(a, b)) for a, row in enumerate(rows) for b in row}):
            sign = -1 if (self.fields[a].parity * self.fields[b].parity) % 2 else 1
            if not is_zero(pi[a][b] + pi[b][a] * sign):
                raise SymplecticError("Poisson tensor symmetry check failed")
        self._pi, self._pi_rows = pi, rows
        return pi

    def jacobi_residual(self, pi: Optional[list[list[Expression]]] = None) -> list[Expression]:
        """Graded Jacobi residuals of the bracket induced by pi on all
        coordinate triples; all zero exactly when pi is a Poisson tensor
        (and always zero for the inverse of a closed two-form).  A matrix
        may be passed to test a hand-entered bivector."""
        if pi is None:
            pi = self.poisson_tensor()
        rows = _nonzero_rows(pi)
        out = []
        n = len(self.fields)
        for a in range(n):
            fa = Expression.symbol(self.theory, self.fields[a])
            pa = self.fields[a].parity
            for c in range(n):
                fc = Expression.symbol(self.theory, self.fields[c])
                pc = self.fields[c].parity
                sign = -1 if (pa * pc) % 2 else 1
                for dd in range(n):
                    fd = Expression.symbol(self.theory, self.fields[dd])
                    res = self._bracket_with(rows, fa, self._bracket_with(rows, fc, fd)) \
                        - self._bracket_with(rows, self._bracket_with(rows, fa, fc), fd) \
                        - self._bracket_with(rows, fc, self._bracket_with(rows, fa, fd)) * sign
                    if not is_zero(res):
                        out.append(res)
        return out

    def _bracket_with(self, rows: list[dict[int, Expression]], f: Expression,
                      g: Expression) -> Expression:
        """{f, g} = (-1)^{(pa(f)+pa(a))pa(b)} pi^{ab} d_a f d_b g for the
        bivector pi given by its nonzero rows {b: pi^{ab}}; each operand is
        differentiated once per call."""
        dg = jet_gradient(g)
        pieces: list[Expression] = []
        for sf, fp in f.sigma_parts():
            df = jet_gradient(fp)
            for a, fa in enumerate(self.fields):
                da = df.get(fa)
                if da is None:
                    continue
                for b, pab in rows[a].items():
                    fb = self.fields[b]
                    db = dg.get(fb)
                    if db is None:
                        continue
                    sign = -1 if ((sf + fa.parity) * fb.parity) % 2 else 1
                    pieces.append((pab * da * db) * sign)
        return Expression.sum(self.theory, pieces)

    def poisson_bracket(self, f: Expression, g: Expression) -> Expression:
        self.poisson_tensor()
        return self._bracket_with(self._pi_rows, f, g)


def build_covariant_theory(chart: TargetChart) -> Expression:
    """S_0 = (-1)^{pa(a)} nu_a d(xi^a);
    S_1 = (1/2)(xi+_a - nu_a eps) pi^{ab} (xi+_b - nu_b eps).  The builder
    theorem says it solves the curved Maurer-Cartan equation; that master
    equation is the caller's check."""
    theory = chart.theory
    pi = chart.poisson_tensor()
    s0 = Expression.sum(theory, (
        chart.nu[f.name] * Expression.symbol(theory, theory.jet(f.name, 1))
        * (-1 if f.parity else 1)
        for f in chart.fields if not chart.nu[f.name].is_structural_zero()))
    body: list[Expression] = []
    eps: list[Expression] = []
    half = Fraction(1, 2)
    for a, fa in enumerate(chart.fields):
        anti_a = Expression.symbol(theory, theory.symbol(antifield_name(fa.name)))
        for b, fb in enumerate(chart.fields):
            if pi[a][b].is_structural_zero():
                continue
            anti_b = Expression.symbol(theory, theory.symbol(antifield_name(fb.name)))
            body.append((anti_a * pi[a][b] * anti_b) * half)
            sign = -1 if fa.parity else 1
            eps.append((chart.nu[fa.name] * pi[a][b] * anti_b) * sign)
    return s0 + u_element(theory) * (Expression.sum(theory, body)
                                     + BElement.of_eps(Expression.sum(theory, eps)))


# -- twisting -------------------------------------------------------------------


class TwistObstruction(TheoryError):
    pass


def twist(S: Expression, W: Expression) -> Expression:
    """S + u^{-1} dW for the differential d = d_u + ad(S); requires W odd of
    ghost number 1, dW divisible by u and [dW, W] = 0.  The master equation
    of the result is the caller's check."""
    theory = S.theory
    if W.is_structural_zero():
        return S
    g = W.grade()
    if g is None or g[0] != 1 or (g[1] + g[2]) % 2 != 1:
        raise TwistObstruction("twist Hamiltonian must be odd of ghost number 1")
    dW = du(W) + u_bracket(S, W)
    parts = split_powers(dW, theory.u)
    u0 = parts.pop(0, Expression.zero(theory))
    if not is_zero(u0):
        raise TwistObstruction(f"dW is not divisible by u: u^0 part {render_by_u(u0)}")
    if not is_zero(u_bracket(dW, W)):
        raise TwistObstruction("[dW, W] != 0: twist obstructed")
    return S + Expression.sum(theory, (Expression.symbol(theory, theory.u, n - 1) * c
                                       for n, c in parts.items()))


# -- the gravity multiplet -------------------------------------------------------

# antighost, ghost and their common parity: (b, c) of the worldline gravity
# multiplet and (beta, gamma) of its supergravity partner
_GHOST_PAIRS = {"bc": ("b", "c", 1), "betagamma": ("beta", "gamma", 0)}


def ghost_pair(kind: str) -> Theory:
    """The chart of a ghost pair, "bc" or "betagamma": the antighost of ghost
    number -1, then the ghost of ghost number 1."""
    b, c, parity = _GHOST_PAIRS[kind]
    t = Theory(kind)
    t.add_field(b, -1, parity)
    t.add_field(c, 1, parity)
    return t


def _ghost_block(theory: Theory, kind: str) -> Expression:
    """The covariant field theory of the ghost pair (b, c) of `kind`,
    expressed in `theory`: c d(b) + u(b+ c+ + c+ c eps)."""
    b, c, _ = _GHOST_PAIRS[kind]
    ghost = Expression.of(theory, c)
    ghost_plus = Expression.of(theory, antifield_name(c))
    return ghost * Expression.of(theory, b, 1) + u_element(theory) * (
        Expression.of(theory, antifield_name(b)) * ghost_plus
        + BElement.of_eps(ghost_plus * ghost))


def x_u_series(theory: Theory) -> Expression:
    """The gravity-multiplet block: c d(b) + u(b+ c+ + c+ c eps)."""
    return _ghost_block(theory, "bc")


def xi_u_series(theory: Theory) -> Expression:
    """The supergravity block: gamma d(beta) + u(beta+ gamma+ + gamma+ gamma eps)."""
    return _ghost_block(theory, "betagamma")


def gravity_product(S: Expression, suffix: str, *kinds: str):
    """The first step of the three gravity couplings: the product
    `theory*suffix` of S's theory with the ghost pairs `kinds`, its flow
    parameter tau and S embedded in it.  A theory that already declares a
    pair's fields is refused."""
    theory = S.theory
    declared = {f.name for f, _ in theory.field_pairs()}
    for kind in kinds:
        b, c, _ = _GHOST_PAIRS[kind]
        if declared & {b, c}:
            raise TheoryError(f"the model already carries the {b}, {c} ghosts and "
                              "cannot be coupled to gravity again")
    prod = product_theory(f"{theory.name}*{suffix}", theory, *map(ghost_pair, kinds))
    tau = prod.add_flow_param("tau")
    return prod, tau, embed(S, prod)


def log_flow(T: Expression, tau: GradedSymbol) -> EndpointReport:
    """T flowed by log(b+) c+ c on the closed-orbit route, as the flow's
    certificate; its endpoint is T at tau = 1 (an uncertified family is
    refused with FlowClosureError)."""
    c, bp, cp = (Expression.of(T.theory, n) for n in ("c", "b+", "c+"))
    _, cert = gauge_flow_closed(T, log_of(bp) * cp * c, tau)
    return cert


def minimal_coupling(S: Expression) -> Expression:
    """The minimally coupled theory S_0 + c D + c iota S_0 + u c+ of a chart
    series S embedded in a product with the bc pair; D is the product's, so
    c D holds the bc kinetic term c(b+ db + c+ dc)."""
    prod = S.theory
    c = Expression.of(prod, "c")
    S0 = u_coefficient(S, 0)
    return S0 + c * d_element(prod) + c * iota(S0) + u_element(prod) * Expression.of(prod, "c+")


@dataclass
class PipelineReport:
    """The checks of a gauge pipeline as (label, passed) in report order,
    and the series the pipeline ends on."""
    checks: list[tuple[str, bool]]
    series: Expression

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def couple_gravity(S: Expression) -> PipelineReport:
    """Run (S_u + X_u) bullet log(b+)c+c bullet cS_1 and verify the proof's
    tau-interpolation, the two intermediate bracket identities and the
    endpoint against the minimally-coupled form.  `log-family-certified`:
    the certified log-flow endpoint equals S + c(b+ db + c+ dc) + u c+.  A
    product S_u + X_u that fails its master equation ends the run on
    `product-master-equation`."""
    if any(n > 1 for n in split_powers(S, S.theory.u)):
        raise TheoryError("coupling requires S_i = 0 for i > 1")
    prod, tau, Sp = gravity_product(S, "bc", "bc")
    start = Sp + x_u_series(prod)
    if not mc_check(start).ok:
        return PipelineReport([("product-master-equation", False)], start)

    c = Expression.of(prod, "c")
    cp = Expression.of(prod, "c+")
    cdc = c * Expression.of(prod, "c", 1)
    u = u_element(prod)

    # D over the matter fields, and the bc kinetic term c(b+ db + c+ dc)
    D = embed(d_element(S.theory), prod)
    grav = c * (d_element(prod) - D)

    # step 1: flow by log(b+) c+ c; expected: Sp + c(b+ db + c+ dc) + u c+
    after_log = log_flow(start, tau).endpoint
    expected_mid = Sp + grav + u * cp
    mid_ok = is_zero(after_log - expected_mid)

    # step 2: flow by c S_1 (nilpotent series route)
    S0, S1 = u_coefficient(Sp, 0), u_coefficient(Sp, 1)
    y2 = c * S1
    series = gauge_flow_series(after_log, y2)

    # Eq (c): d_u(cS_1) + [S_u, cS_1] = c(D + iota S_u)
    iS0 = iota(S0)
    iS1 = iota(S1)
    lhs_c = du(y2) + u_bracket(Sp, y2)
    eq_c_ok = is_zero(lhs_c - c * (D + iS0 + u * iS1))
    # Eq (cc): [that, cS_1] = 2 c dc S_1
    eq_cc_ok = is_zero(u_bracket(lhs_c, y2) - cdc * 2 * S1)

    # proof display: S_0 + c(tau D + b+ db + c+ dc) + tau c iota S_0 + u c+
    #                + (1 - tau)(u S_1 + tau u c iota S_1 - tau c dc S_1)
    t = Expression.symbol(prod, tau)
    one = Expression.const(prod, 1)
    disp = S0 + c * t * D + grav + c * t * iS0 + u * cp \
        + u * ((one - t) * S1) + u * ((one - t) * t * c * iS1) - (one - t) * t * cdc * S1
    family_ok = is_zero(series.family(tau) - disp)

    endpoint = series.endpoint()
    return PipelineReport([
        ("log-family-certified", mid_ok),
        ("identity-c", eq_c_ok),
        ("identity-cc", eq_cc_ok),
        ("tau-interpolation", family_ok),
        ("endpoint", is_zero(endpoint - minimal_coupling(Sp))),
        ("endpoint-master-equation", mc_check(endpoint).ok),
    ], endpoint)
