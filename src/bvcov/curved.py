"""The curved Lie superalgebras built on the resolution of the space of
functionals: u-power series over it, differentials, curvature,
Maurer-Cartan checking, gauge flows, BCH and canonical substitutions.

An element of B[[u]] is one expression over the theory's two structural
generators.  eps is odd, of ghost -1, killed by D and paired with no
antifield, and sorted after every other symbol, so each eps term is g*eps
with no sign; the eps part is kept modulo additive constants (constant
multiples of eps vanish in the resolution), dropped wherever an operation
can make one: after a bracket, a substitution or an evaluation of a flow
parameter, on parsed input, and as iota writes each term.  u is even, of
ghost 2, killed by D and paired with no antifield, so it is central for
the bracket and a power series is a polynomial in it; `split_powers`
reads its coefficients.  Since u and eps both sort last, d_u = d + u iota
rewrites the terms of its argument in one pass and takes no product: an
eps term drops its eps, and every other term gets u and eps written at
the end of its monomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .coefficients import AffineExponent, LogAtom, Rat, quotient, rational
from .expression import (Expression, Term, _atom_partials, _lower_symbol, _merge_runs,
                         _product, _single, apply_substitution, base_expression, inverse_of,
                         is_zero, partial_derivative, power_of, split_powers,
                         substitute_param, total_derivative)
from .symbols import EVEN, GradedSymbol, Kind, Theory, TheoryError
from .varcalc import (JetTable, _jet_table, _sigma_tables,
                      _soloviev_into, is_total_derivative, soloviev)


def _has_eps(t: Term) -> bool:
    # eps sorts last, so a term holds it exactly when its last symbol is eps
    return bool(t.mono) and t.mono[-1][0].kind == Kind.EPSILON


def _strip_eps_constant(e: Expression) -> Expression:
    """Quotient by constants of the chart algebra: eps-terms with no field,
    antifield or function-symbol content vanish (simplex forms and flow
    parameters count as scalars, and so does u, which is what makes the
    Whitney image of a locally constant cocycle vanish)."""
    # every atom kind references chart data (function symbols or log/pow
    # bases in the chart coordinates); jets sort first, so a term holds one
    # exactly when its first symbol is one.  `_has_eps` and `_is_jet` are
    # written out: every bracket passes here.
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


def _eps_slice(t: Term) -> Term:
    """d/deps of a term g*eps: g, signed by the parity of its odd symbols,
    which eps passes as the left partial takes it out; eps has exponent 1
    and sorts last."""
    odd = sum(s.sign_degree * e for s, e in t.mono) - 1
    return _lower_symbol(t, len(t.mono) - 1, -t.coef if odd & 1 else t.coef)


def b_differential(x: Expression) -> Expression:
    """d = D o d/deps: d(f + g eps) = (-1)^{pa(g)} dg, the sign that of the
    left partial by eps; d^2 = 0."""
    return total_derivative(Expression(x.theory, _merge_runs(
        [_eps_slice(t) for t in x.terms if _has_eps(t)])))


def b_bracket(a: Expression, b: Expression) -> Expression:
    """The Soloviev antibracket extended to the resolution: `u_bracket`, the
    u^0 part of B[[u]]'s."""
    return u_bracket(a, b)


def _is_antifield(s: GradedSymbol) -> bool:
    return s.kind == Kind.ANTIFIELD_JET


def _iota_into(theory: Theory, t: Term, u: Optional[GradedSymbol], out: list[Term]):
    """Append the terms of iota(t), times u when u is given, for a term t
    without eps: (-1)^{pa(t)} (n+(t) - 1) t eps, n+ its antifield degree,
    and s * dt/ds with the same sign for each antifield s that an atom of t
    depends on (the chain rule, `_atom_partials`).  u and eps sort last, so
    u goes in at the end of the monomial (or its exponent goes up by one)
    and eps after it, with no sign; a constant eps term is not written."""
    weight = -1
    sd = 0
    for s, e in t.mono:
        if s.kind == Kind.ANTIFIELD_JET:
            weight += e
        sd += s.sign_degree * e
    coef = -t.coef if sd % 2 else t.coef
    pieces = [(weight * coef, t.atoms, t.mono, t.key)] if weight else []
    if t.atoms:
        for s, terms in _atom_partials(theory, t, _is_antifield, coef):
            pieces += ((p.coef, p.atoms, p.mono, p.key) for p in
                       _product(theory, Expression.symbol(theory, s).terms, terms))
    eps = theory.epsilon
    tail = (theory.sort_key(eps), 1)
    for c, atoms, mono, key in pieces:
        # eps terms with no chart content are constants (`_strip_eps_constant`)
        if not atoms and not (mono and mono[0][0].kind <= Kind.ANTIFIELD_JET):
            continue
        if u is not None:
            if mono and mono[-1][0] is u:
                e = mono[-1][1] + 1
                mono, key = mono[:-1] + ((u, e),), key[:-1] + (e,)
            else:
                mono, key = mono + ((u, 1),), key + (theory.sort_key(u), 1)
        out.append(Term(c, atoms, mono + ((eps, 1),), key + tail))


def iota(x: Expression) -> Expression:
    """iota(f + g eps) = (-1)^{pa(f)} (N+ f - f) eps, N+ = sum_k a+_k d/d(a+_k)
    the antifield counting operator; iota^2 = 0 and d iota + iota d = ad(D).
    N+ is diagonal on monomials: a+_k and d/d(a+_k) have the same parity, so
    putting a+_k back undoes the partial's prefix sign, and an odd a+_k has
    exponent 1.  So each term of f is written by `_iota_into`, in one pass
    over x's terms."""
    theory = x.theory
    out: list[Term] = []
    for t in x.terms:
        if not _has_eps(t):
            _iota_into(theory, t, None, out)
    return Expression(theory, _merge_runs(out))


def d_element(theory: Theory) -> Expression:
    """D = xi+_a d(xi^a), coordinate invariant, central in the functional
    algebra."""
    return Expression.sum(theory, (
        Expression.symbol(theory, anti) * Expression.symbol(theory, theory.jet(fld.name, 1))
        for fld, anti in theory.field_pairs()))


# -- B[[u]] -------------------------------------------------------------------


class USeries:
    """An element of B[[u]] is its expression; only the constructor name is
    left."""

    @staticmethod
    def of(x: Expression) -> Expression:
        return x


def u_element(theory: Theory) -> Expression:
    """The series variable u as an element."""
    return Expression.symbol(theory, theory.u)


def u_coefficient(x: Expression, n: int) -> Expression:
    """The coefficient of u^n in x."""
    return split_powers(x, x.theory.u).get(n, Expression.zero(x.theory))


def u_bracket(a: Expression, b: Expression) -> Expression:
    """The bracket of B[[u]]: eps is odd and u even, and both are central
    for the bracket (D kills them, no antifield pairs with them), so the
    Soloviev bracket of the fused operands, its eps part modulo constants.
    a's jet tables serve both sides of [S, S]."""
    if a.terms and b.terms and b.theory is not a.theory:
        raise TheoryError("mixed theory contexts")
    ta = _sigma_tables(a)
    return _bracket_of(a.theory, ta, [t for _, t in ta] if b is a else [_jet_table(b)])


def _bracket_of(theory: Theory, left: list[tuple[int, JetTable]],
                right: list[JetTable]) -> Expression:
    """u_bracket from the tables of the left operand's sigma parts and of
    parts summing to the right operand."""
    return _strip_eps_constant(_soloviev_into(theory, left, right))


def _bracket_by(y: Expression, sign: int) -> Callable[[Expression], Expression]:
    """v -> sign * [y, v], with y's tables built once for every v."""
    ty = _sigma_tables(y)
    return lambda v: _bracket_of(y.theory, ty, [_jet_table(v)]) * sign


def du(x: Expression) -> Expression:
    """d_u = d + u iota, in one pass over x's terms: an eps term goes to
    d/deps (`_eps_slice`), all of which take one total derivative, and every
    other term is written as u iota of itself (`_iota_into`)."""
    theory = x.theory
    sliced: list[Term] = []
    out: list[Term] = []
    u = theory.u
    for t in x.terms:
        if _has_eps(t):
            sliced.append(_eps_slice(t))
        else:
            _iota_into(theory, t, u, out)
    if sliced:
        out += total_derivative(Expression(theory, _merge_runs(sliced))).terms
    return Expression(theory, _merge_runs(out))


# -- curvature and Maurer-Cartan -----------------------------------------------


def curvature(theory: Theory) -> Expression:
    """The curvature u*D of B[[u]] over `theory`; TheoryError when it breaks
    the Bianchi identity d_u(u*D) = 0."""
    uD = u_element(theory) * d_element(theory)
    if not is_zero(du(uD)):
        raise TheoryError("Bianchi identity fails for the curvature")
    return uD


@dataclass
class MCReport:
    residual: Expression
    ok: bool
    notes: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _check_grade(S: Expression):
    """The coefficient of u^n must be even of ghost -2n: S has total grade
    (0, EVEN), u counting ghost 2.  Otherwise the first offending power is
    named."""
    if not S.terms or _grade(S) == (0, EVEN):
        return
    for n, c in split_powers(S, S.theory.u).items():
        g = _grade(c)
        if g is None:
            raise TheoryError(f"u^{n} coefficient is not homogeneous")
        want = (-2 * n, EVEN)
        if g != want:
            raise TheoryError(f"u^{n} coefficient has grade {g}, expected {want}")


def mc_check(S: Expression, mode: str = "B") -> MCReport:
    """Residual of the Maurer-Cartan equation u*D + d_u S + (1/2)[S,S] in
    B[[u]], or with zero differential in F[[u]] (mode "F"), where the input
    must have no eps parts and the residual is zero when each u-coefficient
    is a total derivative with zero constant."""
    if mode not in ("B", "F"):
        raise TheoryError("mode must be 'B' or 'F'")
    if mode == "F" and any(_has_eps(t) for t in S.terms):
        raise TheoryError("F-mode input must have no eps part")
    _check_grade(S)
    theory = S.theory
    residual = curvature(theory) + u_bracket(S, S) * Fraction(1, 2)
    if mode == "F":
        notes = [f"u^{n}: residual is not a total derivative"
                 for n, c in sorted(split_powers(residual, theory.u).items())
                 if is_total_derivative(c)[:2] != (True, 0)]
        return MCReport(residual, not notes, notes)
    residual = residual + du(S)
    notes = [] if is_zero(residual) else [
        f"u^{n}: nonzero residual"
        for n, c in sorted(split_powers(residual, theory.u).items()) if not is_zero(c)]
    return MCReport(residual, not notes, notes)


def complete_to_b(S: Expression) -> Expression:
    """Lift an F-mode solution (no eps parts) to the resolution: the eps
    parts are the homotopy witnesses of the body residuals."""
    theory = S.theory
    residual = curvature(theory) + u_bracket(S, S) * Fraction(1, 2)
    witnesses: list[Expression] = []
    for n, c in sorted(split_powers(residual, theory.u).items()):
        flag, c0, g = is_total_derivative(_body(c))
        if not flag or c0 != 0:
            raise TheoryError(f"u^{n} residual is not a total derivative; "
                              "not a covariant field theory")
        if g is not None:
            # d(g~ eps) contributes (-1)^{pa(g~)} dg~ to the body; g~ is odd
            # when S is even, so the sign is -1 and g~ = witness.
            witnesses.append(Expression.symbol(theory, theory.u, n) * BElement.of_eps(g))
    lifted = S + Expression.sum(theory, witnesses)
    if not mc_check(lifted).ok:
        raise TheoryError("completion failed to satisfy the resolved master equation")
    return lifted


# -- gauge flows ---------------------------------------------------------------


def exp_sum(x, steps: list, t):
    """x + sum_n t^(n+1)/(n+1)! steps[n]: the one Taylor sum of an exp(ad)
    orbit.  t is a rational (a point of the flow) or the flow parameter as
    an Expression (the whole family); it is even, so multiplying from the
    right is exact.  x and the steps are Expressions or Thom-Whitney
    elements, which both multiply by either kind of t."""
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

    x: Expression
    steps: list[Expression]       # steps[n] = (-ad y)^n (d_u y + (x,y))
    termination_index: Optional[int]

    @property
    def exact(self) -> bool:
        return self.termination_index is not None

    def family(self, tau: GradedSymbol) -> Expression:
        return exp_sum(self.x, self.steps, Expression.symbol(self.x.theory, tau))

    def at(self, value) -> Expression:
        return exp_sum(self.x, self.steps, rational(value))

    def endpoint(self) -> Expression:
        if not self.exact:
            raise TruncatedFlowError(
                "flow did not terminate; endpoint claim refused (use "
                "verify_flow_endpoint with a certified family)")
        return self.at(1)


class TruncatedFlowError(TheoryError):
    pass


def gauge_flow_series(x: Expression, y: Expression, max_order: int = 24) -> FlowSeries:
    """Solve d(x bullet sy)/ds = d_u y + (x bullet sy, y) as the explicit
    series; terminates with a certificate when ad(y) is nilpotent on the
    orbit, else truncates with a marker."""
    if y.terms and _grade(y) != (-1, 1):
        raise TheoryError("gauge generator must be odd of ghost number -1")
    steps, index = orbit(du(y) + u_bracket(x, y), _bracket_by(y, -1), max_order)
    return FlowSeries(x, steps, index)


def orbit(start, step: Callable, cap: int, vanishes: Callable = is_zero):
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
            lhs = _soloviev_into(m.target, left[i], [right[j]])
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
    step = _bracket_by(y, direction)
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


def _proportionality(v1: Expression, v0: Expression) -> Optional[tuple[Rat, Optional[str]]]:
    """Detect v1 = q*v0 or v1 = q*log(E)*v0 with both sides nonzero, by
    candidate-and-verify.  Returns (q, base_key or None), or None."""
    if v0.is_structural_zero() or v1.is_structural_zero() or len(v1.terms) != len(v0.terms):
        return None
    t1 = v1.terms[0]
    keys = [None] + [a.base_key for a, _ in t1.atoms if isinstance(a, LogAtom)]
    candidates = [(quotient(t1.coef, t0.coef), key)
                  for t0 in v0.terms if t0.mono == t1.mono for key in keys]
    return next((c for c in candidates if is_zero(v1 - _log_factor(v1.theory, *c) * v0)), None)


def _exp_ad_on(theory: Theory, step: Callable[[Expression], Expression],
               start: Expression, tau: GradedSymbol, max_iter: int) -> Expression:
    """exp(tau * step) on a generator: a power of a base when the first
    bracket is a rational multiple of a log atom times the generator, else
    the tau-polynomial of an orbit that vanishes within max_iter steps."""
    first = step(start)
    # a cap below 1 allows no bracket, so not the eigenvector either
    prop = _proportionality(first, start) if max_iter > 0 else None
    if prop is not None:
        q, base_key = prop
        if base_key is None:
            raise FlowClosureError(
                "eigenvalue is a bare rational: exp(q*tau) is not exactly "
                "representable")
        exponent = AffineExponent(0, q, tau)
        return power_of(base_expression(theory, base_key), exponent) * start
    rest, index = orbit(first, step, max_iter)
    if index is None:
        raise FlowClosureError(
            "flow does not close polynomially or in power/log form; refusing to "
            "truncate silently")
    return exp_sum(start, rest, Expression.symbol(theory, tau))


# -- certified flow families -----------------------------------------------------


def gauge_flow_closed(x: Expression, y: Expression, tau: GradedSymbol,
                      max_iter: int = 12) -> tuple[Expression, "EndpointReport"]:
    """Gauge flow by an eps-free 0-jet generator whose ad-orbit closes in
    power/log form: the homogeneous part is the substitution exponential
    and the d_u y source integrates term by term (the iterated brackets of
    d_u y must terminate).  The family is certified against the flow ODE
    before being returned."""
    sub = flow_substitution(x.theory, y, tau, direction=-1)
    steps, index = orbit(du(y), _bracket_by(y, -1), max_iter + 1)
    if index is None:
        raise FlowClosureError(
            "d_u(y) source brackets do not terminate; closed flow unavailable")
    family = exp_sum(_strip_eps_constant(sub.apply(x)), steps,
                     Expression.symbol(x.theory, tau))
    cert = verify_flow_endpoint(x, family, y, tau)
    if not cert:
        raise FlowClosureError("closed gauge flow failed ODE certification")
    return family, cert


@dataclass
class EndpointReport:
    ok: bool
    initial_ok: bool
    residual: Expression
    endpoint: Optional[Expression]

    def __bool__(self):
        return self.ok and self.initial_ok


def verify_flow_endpoint(x: Expression, family: Expression, y: Expression,
                         tau: GradedSymbol) -> EndpointReport:
    """Certify a tau-dependent family as the gauge flow of x by y: checks
    d(family)/dtau = d_u y + (family, y) symbolically and family(0) = x; the
    endpoint is the family at tau = 1.  Evaluating tau can turn a pow atom
    into a constant, so the values at 0 and 1 drop constant eps terms."""
    residual = partial_derivative(family, tau) - du(y) - u_bracket(family, y)
    ok = is_zero(residual)
    initial_ok = is_zero(_strip_eps_constant(substitute_param(family, tau, 0)) - x)
    endpoint = _strip_eps_constant(substitute_param(family, tau, 1)) \
        if ok and initial_ok else None
    return EndpointReport(ok, initial_ok, residual, endpoint)


# -- Baker-Campbell-Hausdorff ------------------------------------------------------

# Taylor coefficients of x/(1 - exp(-x)): Bernoulli-plus numbers over n!
_PSI = [1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240), 0,
        Fraction(-1, 1209600), 0]


@dataclass
class BCHResult:
    series: Expression
    closed_form: Optional[Expression]
    hypothesis_checked: bool


def bch(y: Expression, z: Expression, order: int = 6) -> BCHResult:
    """y * z to the given nested-bracket order via the integral formula's
    series; when ad(z) ad(y)^n z = 0 and ad(y) z = q log(E) z the closed
    form y + [ad(y)/(1-e^{-ad(y)})] z is also produced."""
    theory = y.theory
    if order + 1 > len(_PSI):
        raise TheoryError(f"bch supports order <= {len(_PSI) - 1}")
    # w(t) = y + sum t^k u_k solving dw/dt = psi(ad_w) z
    us: list[Expression] = []     # u_1.. in order

    def ad_seq_apply(ks: tuple[int, ...]) -> Expression:
        out = z
        for k in reversed(ks):
            w = y if k == 0 else us[k - 1]
            out = u_bracket(w, out)
        return out

    for m in range(0, order):
        # t^m coefficient of psi(ad_w) z
        coeff: list[Expression] = []
        for n in range(0, order + 1):
            if _PSI[n] == 0:
                continue
            if n == 0:
                if m == 0:
                    coeff.append(z * _PSI[0])
                continue
            for ks in itertools.product(range(0, m + 1), repeat=n):
                if sum(ks) != m:
                    continue
                coeff.append(ad_seq_apply(ks) * _PSI[n])
        us.append(Expression.sum(theory, coeff) * Fraction(1, m + 1))
    total = Expression.sum(theory, [y] + us)
    closed = None
    hyp = False
    # z, ad(y) z, ad(y)^2 z up to the first zero
    ad_z, _ = orbit(z, _bracket_by(y, 1), 3)
    v1 = ad_z[1] if len(ad_z) > 1 else Expression.zero(theory)
    prop = _proportionality(v1, z)
    if prop is not None:
        q, base_key = prop
        if base_key is not None and q.denominator == 1:
            hyp = all(is_zero(u_bracket(z, w)) for w in ad_z)
            if hyp:
                closed = y + _psi_closed(theory, int(q), base_key, z)
    return BCHResult(total, closed, hyp)


def _psi_closed(theory: Theory, q: int, base_key: str, z: Expression) -> Expression:
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
    return factor * z


def _log_factor(theory: Theory, q, base_key: Optional[str]) -> Expression:
    """q, or q*log(E) with E the base of key `base_key`."""
    factor = Expression.const(theory, q)
    if base_key is None:
        return factor
    return factor * _single(theory, 1, ((LogAtom(base_key), 1),), ())


# -- misc ----------------------------------------------------------------------


def antifield_rank(S: Expression) -> int:
    """Maximal total antifield degree across the u^0 body terms."""
    rank = 0
    for t in _body(u_coefficient(S, 0)).terms:
        deg = sum(e for s, e in t.mono if s.kind == Kind.ANTIFIELD_JET)
        rank = max(rank, deg)
    return rank
