"""The curved Lie superalgebras built on the resolution of the space of
functionals: u-power series over it, differentials, curvature,
Maurer-Cartan checking, gauge flows, BCH and canonical substitutions.

An element f + g*eps of the resolution is one expression over the theory's
structural eps generator: odd, of ghost -1, killed by D and paired with no
antifield, and sorted after every other symbol, so each eps term is g*eps
with no sign.  Its eps part is kept modulo additive constants (constant
multiples of eps vanish in the resolution).  A u-series stores one such
expression per power of u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .coefficients import AffineExponent, LogAtom, Rat, quotient, rational
from .expression import (Expression, Term, _atom_partials, _merge_runs, _product,
                         _single, apply_substitution, base_expression, embed, inverse_of,
                         is_zero, partial_derivative, power_of, split_powers,
                         substitute_param, total_derivative)
from .symbols import EVEN, GradedSymbol, Kind, Theory, TheoryError
from .varcalc import (JetTable, _jet_table, _sigma_tables,
                      _soloviev_into, _soloviev_of, is_total_derivative, soloviev)


def _has_eps(t: Term) -> bool:
    # eps sorts last, so a term holds it exactly when its last symbol is eps
    return bool(t.mono) and t.mono[-1][0].kind == Kind.EPSILON


def _strip_eps_constant(e: Expression) -> Expression:
    """Quotient by constants of the chart algebra: eps-terms with no field,
    antifield or function-symbol content vanish (simplex forms and flow
    parameters count as scalars, which is what makes the Whitney image of a
    locally constant cocycle vanish)."""
    # every atom kind references chart data (function symbols or log/pow
    # bases in the chart coordinates); jets sort first, so a term holds one
    # exactly when its first symbol is one.  `_has_eps` and `_is_jet` are
    # written out: every u-series coefficient passes here.
    kept = tuple(t for t in e.terms
                 if t.atoms or not t.mono or t.mono[-1][0].kind != Kind.EPSILON
                 or t.mono[0][0].kind <= Kind.ANTIFIELD_JET)
    return e if len(kept) == len(e.terms) else Expression(e.theory, kept)


def _body(e: Expression) -> Expression:
    """The eps-free part f of f + g*eps; a subsequence of canonical terms is
    canonical."""
    return Expression(e.theory, tuple(t for t in e.terms if not _has_eps(t)))


class BElement:
    """The two embeddings of the functionals into the resolution, as fused
    expressions."""

    @staticmethod
    def of_body(e: Expression) -> Expression:
        return e

    @staticmethod
    def of_eps(e: Expression) -> Expression:
        """g -> g*eps modulo constants."""
        return _strip_eps_constant(e * Expression.symbol(e.theory, e.theory.epsilon))


def _grade(e: Expression):
    """(ghost, sign_degree) common to the terms of a nonzero element, eps
    counting (-1, 1), else None."""
    grades = {(t.ghost(), t.sign_degree()) for t in e.terms}
    return grades.pop() if len(grades) == 1 else None


def b_differential(x: Expression) -> Expression:
    """d = D o d/deps: d(f + g eps) = (-1)^{pa(g)} dg, the sign that of the
    left partial by eps; d^2 = 0."""
    return total_derivative(partial_derivative(x, x.theory.epsilon))


def b_bracket(a: Expression, b: Expression) -> Expression:
    """The Soloviev antibracket extended to the resolution: eps is odd,
    central for the bracket (D kills it, no antifield pairs with it), so
    the bracket of fused operands, its eps part modulo constants."""
    return _strip_eps_constant(soloviev(a, b))


def iota(x: Expression) -> Expression:
    """iota(f + g eps) = (-1)^{pa(f)} (N+ f - f) eps, N+ = sum_k a+_k d/d(a+_k)
    the antifield counting operator; iota^2 = 0 and d iota + iota d = ad(D).
    N+ is diagonal on monomials: a+_k and d/d(a+_k) have the same parity, so
    putting a+_k back undoes the partial's prefix sign, and an odd a+_k has
    exponent 1.  So each term t of f becomes (-1)^{pa(t)} (n+(t) - 1) t eps,
    n+ its antifield degree, in one pass; an atom whose base holds an
    antifield s adds s * dt/ds through the chain rule, `_atom_partials`."""
    theory = x.theory
    out: list[Term] = []
    for t in x.terms:
        if _has_eps(t):
            continue
        weight = -1
        sd = 0
        for s, e in t.mono:
            if s.kind == Kind.ANTIFIELD_JET:
                weight += e
            sd += s.sign_degree * e
        sign = -1 if sd % 2 else 1
        if weight:
            out.append(Term(sign * weight * t.coef, t.atoms, t.mono, t.key))
        if t.atoms:
            for s, terms in _atom_partials(theory, t, lambda a: a.kind == Kind.ANTIFIELD_JET,
                                           sign * t.coef):
                out += _product(theory, Expression.symbol(theory, s).terms, terms)
    return BElement.of_eps(Expression(theory, _merge_runs(out)))


def d_element(theory: Theory) -> Expression:
    """D = xi+_a d(xi^a), coordinate invariant, central in the functional
    algebra."""
    return Expression.sum(theory, (
        Expression.symbol(theory, anti) * Expression.symbol(theory, theory.jet(fld.name, 1))
        for fld, anti in theory.field_pairs()))


# -- u-series -----------------------------------------------------------------


class USeries:
    """Finite u-power series of fused elements f + g*eps; u has ghost
    number 2."""

    __slots__ = ("theory", "coeffs")

    def __init__(self, theory: Theory, coeffs: dict[int, Expression]):
        self.theory = theory
        self.coeffs = {}
        for n, c in coeffs.items():
            c = _strip_eps_constant(c)
            if c.terms:
                if n < 0:
                    raise TheoryError("negative u-power outside a twist computation")
                self.coeffs[n] = c

    @staticmethod
    def zero(theory: Theory) -> "USeries":
        return USeries(theory, {})

    @staticmethod
    def of(x: Expression, power: int = 0) -> "USeries":
        return USeries(x.theory, {power: x})

    def coeff(self, n: int) -> Expression:
        return self.coeffs.get(n, Expression.zero(self.theory))

    def powers(self) -> list[int]:
        return sorted(self.coeffs)

    def __add__(self, other: "USeries") -> "USeries":
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out[n] + c if n in out else c
        return USeries(self.theory, out)

    def __sub__(self, other: "USeries") -> "USeries":
        return self + (other * -1)

    def __mul__(self, q) -> "USeries":
        return USeries(self.theory, {n: c * q for n, c in self.coeffs.items()})

    def scale(self, e: Expression) -> "USeries":
        """Left multiplication by an eps-free expression."""
        return USeries(self.theory, {n: e * c for n, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs.values())

    def map_parts(self, fn: Callable[[Expression], Expression],
                  target: Optional[Theory] = None) -> "USeries":
        """fn on each coefficient, as a series of `target` (default: this
        series' theory)."""
        return USeries(target or self.theory, {n: fn(c) for n, c in self.coeffs.items()})

    def check_ghost(self):
        """Coefficient of u^n must be even of ghost -2n (total degree 0)."""
        for n, c in self.coeffs.items():
            g = _grade(c)
            if g is None:
                raise TheoryError(f"u^{n} coefficient is not homogeneous")
            want = (-2 * n, EVEN)
            if g != want:
                raise TheoryError(
                    f"u^{n} coefficient has grade {g}, expected {want}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        """u-power by u-power, each coefficient split by eps for display:
        body + (eps part)*eps."""
        from .printer import render
        if not self.coeffs:
            return "0"
        parts = []
        for n in self.powers():
            split = split_powers(self.coeffs[n], self.theory.epsilon)
            body, eps = split.get(0), split.get(1)
            if eps is None:
                c = render(body)
            elif body is None:
                c = f"({render(eps)})*eps"
            else:
                c = f"{render(body)} + ({render(eps)})*eps"
            parts.append(c if n == 0 else (f"u*({c})" if n == 1 else f"u^{n}*({c})"))
        return " + ".join(parts)


def u_bracket(a: USeries, b: USeries) -> USeries:
    """The bracket of u-series, coefficient pair by coefficient pair: the
    Soloviev bracket of the fused coefficients, whose u-powers add.  Each
    coefficient's jet tables are built once per call and shared by all its
    pairs (and by both sides of [S, S])."""
    if a.coeffs and b.coeffs and b.theory is not a.theory:
        raise TheoryError("mixed theory contexts")
    ta = _u_tables(a)
    return _u_bracket_of(a.theory, ta, ta if b is a else _u_tables(b))


def _u_tables(x: USeries) -> dict[int, list[tuple[int, JetTable]]]:
    """The jet tables of each coefficient's sigma parts: as a left operand
    they are its parts, as a right one they sum to it."""
    return {n: _sigma_tables(c) for n, c in x.coeffs.items()}


def _u_bracket_of(theory: Theory, ta: dict[int, list[tuple[int, JetTable]]],
                  tb: dict[int, list[tuple[int, JetTable]]]) -> USeries:
    """u_bracket from the tables of both operands' coefficients."""
    pieces: dict[int, list[Expression]] = {}
    for na, xa in ta.items():
        for nb, xb in tb.items():
            _soloviev_into(pieces.setdefault(na + nb, []), theory, xa, [t for _, t in xb])
    return USeries(theory, {n: Expression.sum(theory, ps) for n, ps in pieces.items()})


def _bracket_by(y: USeries, sign: int) -> Callable[[USeries], USeries]:
    """v -> sign * [y, v], with y's tables built once for every v."""
    ty = _u_tables(y)
    return lambda v: _u_bracket_of(y.theory, ty, _u_tables(v)) * sign


def du(x: USeries) -> USeries:
    """d_u = d + u iota."""
    out: dict[int, list[Expression]] = {}
    for n, c in x.coeffs.items():
        out.setdefault(n, []).append(b_differential(c))
        out.setdefault(n + 1, []).append(iota(c))
    return USeries(x.theory, {n: Expression.sum(x.theory, ps) for n, ps in out.items()})


# -- curvature and Maurer-Cartan -----------------------------------------------


def curvature(theory: Theory) -> USeries:
    """The curvature u*D of B[[u]] over `theory`; TheoryError when it breaks
    the Bianchi identity d_u(u*D) = 0."""
    uD = USeries.of(d_element(theory), 1)
    if not du(uD).is_zero():
        raise TheoryError("Bianchi identity fails for the curvature")
    return uD


@dataclass
class MCReport:
    residual: USeries
    ok: bool
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def mc_check(S: USeries, mode: str = "B") -> MCReport:
    """Residual of the Maurer-Cartan equation u*D + d_u S + (1/2)[S,S] in
    B[[u]], or with zero differential in F[[u]] (mode "F"), where the input
    must have no eps parts and the residual is zero when each u-coefficient
    is a total derivative with zero constant."""
    if mode not in ("B", "F"):
        raise TheoryError("mode must be 'B' or 'F'")
    if mode == "F" and any(_has_eps(t) for c in S.coeffs.values() for t in c.terms):
        raise TheoryError("F-mode input must have no eps part")
    S.check_ghost()
    residual = curvature(S.theory) + (du(S) if mode == "B" else USeries.zero(S.theory)) \
        + u_bracket(S, S) * Fraction(1, 2)
    notes: list[str] = []
    if mode == "F":
        ok = True
        for n in residual.powers():
            flag, c0, _ = is_total_derivative(residual.coeff(n))
            if not (flag and c0 == 0):
                ok = False
                notes.append(f"u^{n}: residual is not a total derivative")
        return MCReport(residual, ok, notes)
    ok = residual.is_zero()
    if not ok:
        for n in residual.powers():
            if not is_zero(residual.coeff(n)):
                notes.append(f"u^{n}: nonzero residual")
    return MCReport(residual, ok, notes)


def complete_to_b(S: USeries) -> USeries:
    """Lift an F-mode solution (no eps parts) to the resolution: the eps
    parts are the homotopy witnesses of the body residuals."""
    residual = curvature(S.theory) + u_bracket(S, S) * Fraction(1, 2)
    witnesses: dict[int, Expression] = {}
    for n in residual.powers():
        flag, c0, g = is_total_derivative(_body(residual.coeff(n)))
        if not flag or c0 != 0:
            raise TheoryError(f"u^{n} residual is not a total derivative; "
                              "not a covariant field theory")
        if g is not None:
            # d(g~ eps) contributes (-1)^{pa(g~)} dg~ to the body; g~ is odd
            # when S is even, so the sign is -1 and g~ = witness.
            witnesses[n] = BElement.of_eps(g)
    lifted = S + USeries(S.theory, witnesses)
    if not mc_check(lifted).ok:
        raise TheoryError("completion failed to satisfy the resolved master equation")
    return lifted


# -- gauge flows ---------------------------------------------------------------


def exp_sum(x, steps: list, t):
    """x + sum_n t^(n+1)/(n+1)! steps[n]: the one Taylor sum of an exp(ad)
    orbit.  t is a rational (a point of the flow) or the flow parameter as
    an Expression (the whole family); it is even, so multiplying from the
    right is exact.  x and the steps are Expressions, USeries or
    Thom-Whitney elements, which all multiply by either kind of t."""
    out = x
    tk = 1
    for n, w in enumerate(steps):
        tk = tk * t
        out = out + w * (tk * Fraction(1, math.factorial(n + 1)))
    return out


@dataclass
class FlowSeries:
    """x bullet tau*y as an exact tau-polynomial when the iterated brackets
    terminate (`termination_index` is the index of the zero); otherwise a
    truncation, marked by `termination_index` None."""

    x: USeries
    steps: list[USeries]          # steps[n] = (-ad y)^n (d_u y + (x,y))
    termination_index: Optional[int]

    @property
    def exact(self) -> bool:
        return self.termination_index is not None

    def family(self, tau: GradedSymbol) -> USeries:
        return exp_sum(self.x, self.steps, Expression.symbol(self.x.theory, tau))

    def at(self, value) -> USeries:
        return exp_sum(self.x, self.steps, rational(value))

    def endpoint(self) -> USeries:
        if not self.exact:
            raise TruncatedFlowError(
                "flow did not terminate; endpoint claim refused (use "
                "verify_flow_endpoint with a certified family)")
        return self.at(1)


class TruncatedFlowError(TheoryError):
    pass


def gauge_flow_series(x: USeries, y: USeries, max_order: int = 24) -> FlowSeries:
    """Solve d(x bullet sy)/ds = d_u y + (x bullet sy, y) as the explicit
    series; terminates with a certificate when ad(y) is nilpotent on the
    orbit, else truncates with a marker."""
    for n, c in y.coeffs.items():
        g = _grade(c)
        if g is None or g[1] != 1 or g[0] != -1 - 2 * n:
            raise TheoryError("gauge generator must be odd of ghost number -1")
    steps, index = orbit(du(y) + u_bracket(x, y), _bracket_by(y, -1), max_order)
    return FlowSeries(x, steps, index)


def orbit(start, step: Callable, cap: int, vanishes: Callable = lambda v: v.is_zero()):
    """The one exp(ad) loop: the orbit start, step(start), step(step(start)),
    ... examined up to its first zero and at most `cap` values.  Returns the
    nonzero values before the zero and the index of the zero, or, when the
    cap cuts the orbit short, the `cap` values examined and None."""
    values = []
    v = start
    for n in range(cap):
        if n:
            v = step(v)
        if vanishes(v):
            return values, n
        values.append(v)
    return values, None


# -- substitution flows (pullback tables) ---------------------------------------


class CanonicalSubstitution:
    """Substitution on all generators (fields and antifields), extended as an
    algebra homomorphism commuting with the total derivative."""

    def __init__(self, theory: Theory, images: dict[GradedSymbol, Expression],
                 target: Optional[Theory] = None):
        self.theory = theory
        self.target = target or theory
        self.images = dict(images)

    def image(self, sym: GradedSymbol) -> Expression:
        img = self.images.get(sym)
        if img is not None:
            return img
        return Expression.symbol(self.target, self.target.symbol(sym.name))

    def apply(self, expr: Expression) -> Expression:
        return apply_substitution(expr, self.images, self.target)

    def apply_u(self, x: USeries) -> USeries:
        return x.map_parts(self.apply, self.target)


def canonical_substitution_check(m: CanonicalSubstitution) -> list[tuple[str, str]]:
    """Verify bracket preservation on all generator pairs; returns the
    offending pairs (empty when canonical)."""
    gens = [g for pair in m.theory.field_pairs() for g in pair]
    # each image is differentiated once, as a left and as a right operand,
    # for all its partners
    images = [m.image(g) for g in gens]
    left = [_sigma_tables(e) for e in images]
    right = [_jet_table(e) for e in images]
    bad = []
    for i, g1 in enumerate(gens):
        e1 = Expression.symbol(m.theory, g1)
        for j in range(i, len(gens)):
            lhs = _soloviev_of(m.target, left[i], right[j])
            rhs = m.apply(soloviev(e1, Expression.symbol(m.theory, gens[j])))
            if not is_zero(lhs - rhs):
                bad.append((g1.name, gens[j].name))
    return bad


class FlowClosureError(TheoryError):
    pass


def flow_substitution(theory: Theory, y: Expression, tau: GradedSymbol,
                      direction: int = 1, max_iter: int = 12) -> CanonicalSubstitution:
    """Exponential flow of the Hamiltonian derivation ad(y) = (y, -) on
    generators: with direction +1 this solves d(F*g)/dtau = (y, F*g) (the
    pullback-table convention), with -1 the gauge-action direction for
    closed y.  Requires y to be an eps-free 0-jet generator Hamiltonian so
    that ad(y) is an evolutionary derivation.  Each generator must close
    either polynomially or as an eigenvector with eigenvalue a rational
    multiple of a log atom; the result is certified against the defining
    ODE and the initial condition."""
    if any(s.jet_order > 0 for s in y.symbols()):
        raise FlowClosureError("flow generator must depend on 0-jets only")
    y_parts = _sigma_tables(y)

    def step(v: Expression) -> Expression:
        return _soloviev_of(theory, y_parts, _jet_table(v)) * direction

    images: dict[GradedSymbol, Expression] = {}
    for fld, anti in theory.field_pairs():
        for gen in (fld, anti):
            base = Expression.symbol(theory, gen)
            value = _exp_ad_on(theory, step, base, tau, max_iter)
            if not is_zero(value - base):
                images[gen] = value
    for gen, val in images.items():
        if not is_zero(partial_derivative(val, tau) - step(val)):
            raise FlowClosureError(f"flow ODE residual nonzero on {gen.name}")
        if not is_zero(substitute_param(val, tau, 0) - Expression.symbol(theory, gen)):
            raise FlowClosureError(f"flow initial condition fails on {gen.name}")
    return CanonicalSubstitution(theory, images)


def _proportionality(pairs) -> Optional[tuple[Rat, Optional[str]]]:
    """Detect v1 = q*v0 or v1 = q*log(E)*v0, with one factor for all the
    (v1, v0) pairs, by candidate-and-verify; pairs with both sides zero are
    skipped.  Returns (q, base_key or None), or None."""
    ratio = None
    for v1, v0 in pairs:
        if v0.is_structural_zero() and v1.is_structural_zero():
            continue
        if v0.is_structural_zero() or v1.is_structural_zero() \
                or len(v1.terms) != len(v0.terms):
            return None
        t1 = v1.terms[0]
        keys = [None] + [a.base_key for a, _ in t1.atoms if isinstance(a, LogAtom)]
        candidates = [(quotient(t1.coef, t0.coef), key)
                      for t0 in v0.terms if t0.mono == t1.mono for key in keys]
        this = next((c for c in candidates
                     if is_zero(v1 - _log_factor(v1.theory, *c) * v0)), None)
        if this is None or ratio not in (None, this):
            return None
        ratio = this
    return ratio


def _exp_ad_on(theory: Theory, step: Callable[[Expression], Expression],
               start: Expression, tau: GradedSymbol, max_iter: int) -> Expression:
    """exp(tau * step) on a generator: a power of a base when the first
    bracket is a rational multiple of a log atom times the generator, else
    the tau-polynomial of an orbit that vanishes within max_iter steps."""
    first = step(start)
    # a cap below 1 allows no bracket, so not the eigenvector either
    prop = _proportionality([(first, start)]) if max_iter > 0 else None
    if prop is not None:
        q, base_key = prop
        if base_key is None:
            raise FlowClosureError(
                "eigenvalue is a bare rational: exp(q*tau) is not exactly "
                "representable")
        exponent = AffineExponent(0, q, tau)
        return power_of(base_expression(theory, base_key), exponent) * start
    rest, index = orbit(first, step, max_iter, is_zero)
    if index is None:
        raise FlowClosureError(
            "flow does not close polynomially or in power/log form; refusing to "
            "truncate silently")
    return exp_sum(start, rest, Expression.symbol(theory, tau))


# -- certified flow families -----------------------------------------------------


def gauge_flow_closed(x: USeries, y: Expression, tau: GradedSymbol,
                      max_iter: int = 12) -> tuple[USeries, "EndpointReport"]:
    """Gauge flow by an eps-free 0-jet generator whose ad-orbit closes in
    power/log form: the homogeneous part is the substitution exponential
    and the d_u y source integrates term by term (the iterated brackets of
    d_u y must terminate).  The family is certified against the flow ODE
    before being returned."""
    ys = USeries.of(y)
    sub = flow_substitution(x.theory, y, tau, direction=-1)
    steps, index = orbit(du(ys), _bracket_by(ys, -1), max_iter + 1)
    if index is None:
        raise FlowClosureError(
            "d_u(y) source brackets do not terminate; closed flow unavailable")
    family = exp_sum(sub.apply_u(x), steps, Expression.symbol(x.theory, tau))
    cert = verify_flow_endpoint(x, family, ys, tau)
    if not cert:
        raise FlowClosureError("closed gauge flow failed ODE certification")
    return family, cert


@dataclass
class EndpointReport:
    ok: bool
    initial_ok: bool
    residual: USeries
    endpoint: Optional[USeries]

    def __bool__(self):
        return self.ok and self.initial_ok


def verify_flow_endpoint(x: USeries, family: USeries, y: USeries,
                         tau: GradedSymbol) -> EndpointReport:
    """Certify a tau-dependent family as the gauge flow of x by y: checks
    d(family)/dtau = d_u y + (family, y) symbolically and family(0) = x; the
    endpoint is the family at tau = 1."""
    dtau = family.map_parts(lambda e: partial_derivative(e, tau))
    residual = dtau - du(y) - u_bracket(family, y)
    ok = residual.is_zero()
    at0 = family.map_parts(lambda e: substitute_param(e, tau, 0))
    initial_ok = (at0 - x).is_zero()
    endpoint = family.map_parts(lambda e: substitute_param(e, tau, 1)) if ok and initial_ok else None
    return EndpointReport(ok, initial_ok, residual, endpoint)


# -- Baker-Campbell-Hausdorff ------------------------------------------------------

# Taylor coefficients of x/(1 - exp(-x)): Bernoulli-plus numbers over n!
_PSI = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240), 0,
        Fraction(-1, 1209600), 0]


@dataclass
class BCHResult:
    series: USeries
    closed_form: Optional[USeries]
    hypothesis_checked: bool


def bch(y: USeries, z: USeries, order: int = 6) -> BCHResult:
    """y * z to the given nested-bracket order via the integral formula's
    series; when ad(z) ad(y)^n z = 0 and ad(y) z = q log(E) z the closed
    form y + [ad(y)/(1-e^{-ad(y)})] z is also produced."""
    theory = y.theory
    if order + 1 > len(_PSI):
        raise TheoryError(f"bch supports order <= {len(_PSI) - 1}")
    # w(t) = y + sum t^k u_k solving dw/dt = psi(ad_w) z
    us: list[USeries] = []        # u_1.. in order

    def ad_seq_apply(ks: tuple[int, ...]) -> USeries:
        out = z
        for k in reversed(ks):
            w = y if k == 0 else us[k - 1]
            out = u_bracket(w, out)
        return out

    for m in range(0, order):
        # t^m coefficient of psi(ad_w) z
        coeff = USeries.zero(theory)
        for n in range(0, order + 1):
            if _PSI[n] == 0:
                continue
            if n == 0:
                if m == 0:
                    coeff = coeff + z * _PSI[0]
                continue
            for ks in itertools.product(range(0, m + 1), repeat=n):
                if sum(ks) != m:
                    continue
                coeff = coeff + ad_seq_apply(ks) * _PSI[n]
        us.append(coeff * Fraction(1, m + 1))
    total = y
    for u in us:
        total = total + u
    closed = None
    hyp = False
    # z, ad(y) z, ad(y)^2 z up to the first zero
    ad_z, _ = orbit(z, _bracket_by(y, 1), 3)
    v1 = ad_z[1] if len(ad_z) > 1 else USeries.zero(theory)
    prop = _proportionality((v1.coeff(n), z.coeff(n)) for n in set(v1.coeffs) | set(z.coeffs))
    if prop is not None:
        q, base_key = prop
        if base_key is not None and q.denominator == 1:
            hyp = all(u_bracket(z, w).is_zero() for w in ad_z)
            if hyp:
                closed = y + _psi_closed(theory, int(q), base_key, z)
    return BCHResult(total, closed, hyp)


def _psi_closed(theory: Theory, q: int, base_key: str, z: USeries) -> USeries:
    """[ad(y)/(1 - e^{-ad y})] z for ad(y) z = q log(E) z:
    equals [q log(E)/(1 - E^{-q})] z, written with polynomial inverses."""
    E = base_expression(theory, base_key)
    lam = _log_factor(theory, q, base_key)
    if q > 0:
        # q log E / (1 - E^-q) = q log E * E^q / (E^q - 1)
        denom = E ** q - Expression.const(theory, 1)
        factor = lam * (E ** q) * inverse_of(denom)
    else:
        # q is nonzero, and 1 - E^{-q} with -q > 0 is polynomial
        denom = Expression.const(theory, 1) - E ** (-q)
        factor = lam * inverse_of(denom)
    return z.scale(factor)


def _log_factor(theory: Theory, q, base_key: Optional[str]) -> Expression:
    """q, or q*log(E) with E the base of key `base_key`."""
    factor = Expression.const(theory, q)
    if base_key is None:
        return factor
    return factor * _single(theory, 1, ((LogAtom(base_key), 1),), ())


# -- misc ----------------------------------------------------------------------


def embed_u(x: USeries, target: Theory) -> USeries:
    return x.map_parts(lambda e: embed(e, target), target)


def antifield_rank(S: USeries) -> int:
    """Maximal total antifield degree across the u^0 body terms."""
    rank = 0
    for t in _body(S.coeff(0)).terms:
        deg = sum(e for s, e in t.mono if s.kind == Kind.ANTIFIELD_JET)
        rank = max(rank, deg)
    return rank
