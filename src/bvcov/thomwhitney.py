"""Sullivan simplicial forms on a declared Cech nerve, the Whitney map and
the Thom-Whitney curved Lie superalgebra with global Maurer-Cartan
checking.

Charts and intersections are symbolic: per overlap the user supplies a
chart theory, restriction substitutions and the (nu, mu) data; emptiness
is declared, not computed.  Simplex forms are fused into the expression
algebra of each overlap (form degree drives the Koszul signs), so no
separate tensor type exists at runtime.  The nerve keeps one fused
simplex theory per chart set, serving every simplex dimension, so the
restrictions, d_u values and curvature that hang off a theory are
computed once per chart set.  The Whitney forms depend on the nerve
alone: it writes them term by term once per (cochain degree, dimension
bound), laid out as `_splice_forms` rows, and drops them when an overlap
is declared (`CoverNerve.whitney_faces`), so each Whitney map only
restricts and splices each face's form into the restricted chart terms,
with no product.  The cochain-map check `whitney_commutes` splices the
same rows, and those of each form's differential, by the Leibniz rule,
and builds no Whitney image.  The global check's report pulls a
degenerate tuple's residual back only when it is read.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .expression import (Expression, Term, _form_rows, _merge_runs, _splice_forms, _term_key,
                         apply_substitution, embed, is_zero, odd_derivation, partial_derivative)
from .curved import (BElement, CanonicalSubstitution, TruncatedFlowError, _bracket_by,
                     _strip_eps_constant, curvature, du, exp_sum, orbit, u_bracket)
from .symbols import GradedSymbol, Theory, TheoryError, is_simplex_name, product_theory

Tuple = tuple[str, ...]


@dataclass
class OverlapContext:
    theory: Theory
    from_chart: dict[str, CanonicalSubstitution]
    mu: Optional[Expression] = None        # for the ordered pair (min, max)


class FaceForm:
    """One face's Whitney form w on a simplex theory, laid out as
    `_splice_forms` rows: `rows` of w for the Whitney map, and for the
    cochain-map check `negated` of -w and `differential` of its form
    differential dw, laid out on first use."""

    __slots__ = ("form", "rows", "_negated", "_differential")

    def __init__(self, form: Expression):
        self.form = form
        self.rows = _form_rows(form.terms)
        self._negated = self._differential = None

    @property
    def negated(self) -> tuple:
        if self._negated is None:
            self._negated = _form_rows((-self.form).terms)
        return self._negated

    @property
    def differential(self) -> tuple:
        if self._differential is None:
            self._differential = _form_rows(form_differential(self.form).terms)
        return self._differential


class CoverNerve:
    """Chart index set with declared nonempty intersections, restriction
    maps and a dimension bound; simplices beyond the bound are empty.

    The nerve keeps one simplex theory per chart set, and the Whitney
    forms of `whitney_faces` per (cochain degree, dimension bound), which
    declaring an overlap drops; an overlap is declared once, on two or
    more charts."""

    def __init__(self, charts: dict[str, Theory], dimension_bound: int = 3):
        self.chart_names = sorted(charts)
        self.charts = dict(charts)
        self.overlaps: dict[frozenset, OverlapContext] = {}
        self.dimension_bound = dimension_bound
        self._simplex_theories: dict[frozenset, Theory] = {}
        self._whitney_faces: dict[tuple[int, int], list] = {}

    def declare_overlap(self, names: frozenset | set | tuple,
                        theory: Theory,
                        from_chart: dict[str, CanonicalSubstitution],
                        mu: Optional[Expression] = None):
        key = frozenset(names)
        if not all(n in self.charts for n in key):
            raise TheoryError("overlap references unknown charts")
        if len(key) < 2:
            raise TheoryError("an overlap needs at least two charts")
        if key in self.overlaps:
            raise TheoryError(f"overlap {' '.join(sorted(key))} is already declared")
        if set(from_chart) != set(key):
            raise TheoryError("need one restriction map per member chart")
        self.overlaps[key] = OverlapContext(theory, from_chart, mu)
        self._whitney_faces.clear()

    def nonempty(self, names) -> bool:
        key = frozenset(names)
        if len(key) == 1:
            return next(iter(key)) in self.charts
        return key in self.overlaps

    def context_theory(self, names) -> Theory:
        key = frozenset(names)
        if len(key) == 1:
            return self.charts[next(iter(key))]
        return self.overlaps[key].theory

    def tuples(self) -> list[Tuple]:
        """All index tuples up to the dimension bound whose member set is
        declared nonempty."""
        out = []
        for k in range(1, self.dimension_bound + 2):
            for T in itertools.product(self.chart_names, repeat=k):
                if self.nonempty(T):
                    out.append(T)
        return out

    def nondegenerate_tuples(self) -> list[Tuple]:
        """The admissible tuples where no chart sits next to itself; every
        other tuple is a degeneracy of one of them (`collapse`)."""
        return [T for T in self.tuples() if all(a != b for a, b in zip(T, T[1:]))]

    # -- fused simplex theories ----------------------------------------

    def simplex_theory(self, names, k: int) -> Theory:
        """The fused theory of the member set of names, with the simplex
        coordinates t_i and one-forms dt_i for i up to at least k.  One
        theory serves the member set's every simplex dimension: a larger k
        registers the missing t_i and dt_i, and registration appends ranks,
        so the keys of terms built before stay valid."""
        key = frozenset(names)
        t = self._simplex_theories.get(key)
        if t is None:
            base = self.context_theory(key)
            for name in base._order_index:
                if is_simplex_name(name):
                    raise TheoryError(f"{base.name} declares {name}, a name reserved for the "
                                      f"simplex generators of the nerve")
            t = self._simplex_theories[key] = product_theory(f"{base.name}|D", base)
        for i in range(len(t.simplex_pairs()) + 1, k + 1):
            t.add_simplex_coordinate(f"t_{i}")
            t.add_one_form(f"dt_{i}", ghost=1)
        return t

    def t_symbol(self, theory: Theory, i: int, k: int) -> Expression:
        """Barycentric coordinate t_i on the k-simplex, with t_0 eliminated."""
        if i == 0:
            return Expression.sum(theory, [1] + [
                -Expression.of(theory, f"t_{j}") for j in range(1, k + 1)])
        return Expression.of(theory, f"t_{i}")

    def dt_symbol(self, theory: Theory, i: int, k: int) -> Expression:
        if i == 0:
            return Expression.sum(theory, (
                -Expression.of(theory, f"dt_{j}") for j in range(1, k + 1)))
        return Expression.of(theory, f"dt_{i}")

    def whitney_faces(self, degree: int) -> list[tuple[Tuple, Theory, list]]:
        """Per nondegenerate tuple T, in `nondegenerate_tuples` order: T, its
        simplex theory and, per sorted face of degree + 1 distinct charts,
        (face, its `FaceForm`), the form being the sum of the Whitney forms
        of the increasing positions of T that pick the face's charts, each
        signed by the parity of its chart order against the face's.  Built
        on first use once per (degree, dimension_bound) and dropped when an
        overlap is declared, since both change the tuples."""
        key = (degree, self.dimension_bound)
        got = self._whitney_faces.get(key)
        if got is not None:
            return got
        got = []
        # tuples of one member set share a simplex theory, and those of one
        # length their forms too: t_0 depends on the length
        forms: dict[tuple, Expression] = {}
        for T in self.nondegenerate_tuples():
            m = len(T) - 1
            theory = self.simplex_theory(T, m)
            faces: dict[Tuple, list[Expression]] = {}
            for positions in itertools.combinations(range(m + 1), degree + 1):
                charts = tuple(T[i] for i in positions)
                if len(set(charts)) != len(charts):
                    continue
                form = forms.get((theory, m, positions))
                if form is None:
                    form = forms[theory, m, positions] = self._whitney_form(theory, positions, m)
                inversions = sum(a > b for a, b in itertools.combinations(charts, 2))
                faces.setdefault(tuple(sorted(charts)), []).append(
                    -form if inversions % 2 else form)
            got.append((T, theory, [(face, FaceForm(Expression.sum(theory, signed)))
                                    for face, signed in faces.items()]))
        self._whitney_faces[key] = got
        return got

    def _whitney_form(self, theory: Theory, positions: tuple[int, ...], m: int) -> Expression:
        """k! sum_j (-1)^j t_{p_j} prod_{r != j} dt_{p_r} on an m-simplex, for
        the k + 1 positions p, with t_0 = 1 - sum t_i and dt_0 = -sum dt_i,
        written term by term: each choice of one summand per factor is one
        monomial, its t (even) before its dt, the dt sorted with the sign of
        that sort; a repeated dt kills it."""
        k = len(positions) - 1
        # a factor's summands as (coefficient, index), index 0 the constant 1
        ts = [(-1, i) for i in range(1, m + 1)]

        def factor(p: int, t: bool) -> list:
            return [(1, p)] if p else [(1, 0)] + ts if t else ts

        terms = []
        for j in range(k + 1):
            for (coef, i), *dts in itertools.product(
                    factor(positions[j], True),
                    *(factor(positions[r], False) for r in range(k + 1) if r != j)):
                picked = [d for _, d in dts]
                if len(set(picked)) < k:
                    continue
                coef *= math.factorial(k) * math.prod(c for c, _ in dts) * (-1) ** (
                    j + sum(a > b for a, b in itertools.combinations(picked, 2)))
                mono = (((theory.symbol(f"t_{i}"), 1),) if i else ()) + tuple(
                    (theory.symbol(f"dt_{d}"), 1) for d in sorted(picked))
                terms.append(Term(coef, (), mono, _term_key(theory, (), mono)))
        return Expression(theory, _merge_runs(terms))

    # -- restrictions ------------------------------------------------------

    def restrict(self, value: Expression, src_names, dst_names, dst_theory: Theory) -> Expression:
        """Restrict a value on U_{src} to U_{dst} (src set inside dst set),
        landing in the given fused theory."""
        src = frozenset(src_names)
        dst = frozenset(dst_names)
        if not src <= dst:
            raise TheoryError("restriction goes to a smaller intersection only")
        if src == dst:
            return embed(value, dst_theory)
        if len(src) == 1:
            return _restrict_along(self.overlaps[dst].from_chart[next(iter(src))],
                                   value, dst_theory)
        src_th = self.context_theory(src)
        dst_th = self.context_theory(dst)
        if src_th is dst_th or src_th.name == dst_th.name:
            return embed(value, dst_theory)
        raise TheoryError(
            f"restriction {sorted(src)} -> {sorted(dst)} not declared")


def _restrict_along(sub: CanonicalSubstitution, value: Expression, theory: Theory) -> Expression:
    """value moved along a chart restriction whose images are embedded in
    the fused theory."""
    images = {g: embed(img, theory) for g, img in sub.images.items()}
    return _strip_eps_constant(apply_substitution(value, images, theory))


# -- simplicial form operations ---------------------------------------------------


def simplicial_pullback(nerve: CoverNerve, f: list[int], k: int, ell: int,
                        value: Expression, src_names, dst_theory: Theory) -> Expression:
    """Pullback along the arrow f: [k] -> [ell] of Delta (f given as the
    image list of 0..k), acting on the simplex coordinates of a value on an
    ell-simplex; the underlying chart value is restricted separately.
    f* t_i = sum_{f(j)=i} t_j, and f* commutes with the form differential."""
    if len(f) != k + 1 or any(f[i] > f[i + 1] for i in range(k)):
        raise TheoryError("arrow must be a monotone list of length k+1")
    src_th = value.theory
    images: dict[GradedSymbol, Expression] = {}
    for i in range(1, ell + 1):
        preimage = [j for j, fj in enumerate(f) if fj == i]
        images[src_th.symbol(f"t_{i}")] = Expression.sum(
            dst_theory, (nerve.t_symbol(dst_theory, j, k) for j in preimage))
        images[src_th.symbol(f"dt_{i}")] = Expression.sum(
            dst_theory, (nerve.dt_symbol(dst_theory, j, k) for j in preimage))
    # only t and dt move, to forms, so every term keeps its chart data and
    # no constant eps term appears
    return apply_substitution(value, images, dst_theory)


def form_differential(value: Expression) -> Expression:
    """The simplex de Rham differential: t_i -> dt_i, as an odd left
    derivation of the fused algebra."""
    theory = value.theory
    return odd_derivation(value, {t: Expression.symbol(theory, dt)
                                  for t, dt in theory.simplex_pairs()})


def collapse(T: Tuple) -> tuple[Tuple, list[int]]:
    """T as R o f: R is T with each repeat of its left neighbour dropped, a
    nondegenerate tuple on the same member set, and f the codegeneracy
    [len(T) - 1] -> [len(R) - 1] as the image list of the positions of T."""
    R: list[str] = []
    f = []
    for a in T:
        if not R or R[-1] != a:
            R.append(a)
        f.append(len(R) - 1)
    return tuple(R), f


# -- cochains ---------------------------------------------------------------------


class CechCochain:
    """Alternating Cech k-cochain with values on sorted distinct tuples."""

    def __init__(self, nerve: CoverNerve, degree: int,
                 values: dict[Tuple, Expression]):
        self.nerve = nerve
        self.degree = degree
        self.values: dict[Tuple, Expression] = {}
        for T, v in values.items():
            if len(T) != degree + 1 or tuple(sorted(T)) != T or len(set(T)) != len(T):
                raise TheoryError("values must be keyed by sorted distinct tuples")
            if not nerve.nonempty(T):
                raise TheoryError(f"tuple {T} is declared empty")
            self.values[T] = v

    def value(self, T: Tuple) -> tuple[int, Optional[Expression]]:
        """(sign, value on sorted representative) with alternation; sign 0
        for repeated indices."""
        if len(set(T)) != len(T):
            return (0, None)
        order = tuple(sorted(T))
        v = self.values.get(order)
        if v is None:
            return (0, None)
        inversions = sum(a > b for a, b in itertools.combinations(T, 2))
        return (-1 if inversions % 2 else 1, v)


def cech_delta(c: CechCochain) -> CechCochain:
    """Alternating face sum with restriction maps; delta^2 = 0."""
    nerve = c.nerve
    out: dict[Tuple, Expression] = {}
    size = c.degree + 2
    # sorted distinct tuples, in the order of `nerve.tuples()`; beyond the
    # dimension bound every simplex is empty
    tuples = itertools.combinations(nerve.chart_names, size) \
        if size <= nerve.dimension_bound + 1 else ()
    for T in tuples:
        if not nerve.nonempty(T):
            continue
        theory = nerve.context_theory(T)
        pieces = []
        for i in range(len(T)):
            face = T[:i] + T[i + 1:]
            sign, v = c.value(face)
            if sign == 0 or v is None:
                continue
            moved = nerve.restrict(v, face, T, theory)
            pieces.append(moved * sign if i % 2 == 0 else moved * -sign)
        if pieces:
            out[T] = Expression.sum(theory, pieces)
    return CechCochain(nerve, c.degree + 1, out)


class TWElement:
    """A simplicial assignment of fused simplex-form values to the admissible
    tuples, stored on the nondegenerate ones.  The value on a degenerate
    tuple T = R o f is the form pullback f* of the value on R: the
    totalization is a simplicial object, and R and T have the same member
    set, so no chart restriction enters."""

    def __init__(self, nerve: CoverNerve, values: dict[Tuple, Expression]):
        self.nerve = nerve
        self.values = values

    def value(self, T: Tuple) -> Expression:
        got = self.values.get(T)
        if got is not None:
            return got
        R, f = collapse(T)
        return simplicial_pullback(self.nerve, f, len(T) - 1, len(R) - 1, self.values[R],
                                   T, self.nerve.simplex_theory(T, len(T) - 1))

    def map(self, fn: Callable[[Tuple, Expression], Expression]) -> "TWElement":
        return TWElement(self.nerve, {T: fn(T, v) for T, v in self.values.items()})

    def __add__(self, other: "TWElement") -> "TWElement":
        return TWElement(self.nerve, {T: self.values[T] + other.values[T]
                                      for T in self.values})

    def __sub__(self, other: "TWElement") -> "TWElement":
        return TWElement(self.nerve, {T: self.values[T] - other.values[T]
                                      for T in self.values})

    def __mul__(self, q) -> "TWElement":
        return TWElement(self.nerve, {T: v * q for T, v in self.values.items()})

    def is_zero(self) -> bool:
        # f* is injective on polynomial forms: a degenerate value vanishes
        # exactly when its face's does
        return all(is_zero(v) for v in self.values.values())


def whitney(c: CechCochain) -> TWElement:
    """The Whitney map: the 1/(k+1) alternating t dt...dt sum applied to the
    alternating representative, on every nondegenerate tuple.

    The form and the cochain are both alternating in the positions, so the
    summand is invariant under permuting them and vanishes on a repeat: the
    sum over all (m+1)^(k+1) position tuples is (k+1)! times the sum over
    increasing ones, which the nerve's `whitney_faces` carry as their k!
    factor, already summed per face.  So each face value of c is restricted
    once per simplex theory, and its face's form rows are spliced into its
    terms (`_splice_forms`: a form holds only t and dt, a restricted chart
    value none, so the product merges nothing); one `_merge_runs` per tuple
    sums the spliced terms of all its faces."""
    nerve = c.nerve
    restricted: dict[tuple, Expression] = {}
    out: dict[Tuple, Expression] = {}
    for T, theory, faces in nerve.whitney_faces(c.degree):
        terms = []
        for face, form in faces:
            v = c.values.get(face)
            if v is None:
                continue
            moved = restricted.get((face, theory))
            if moved is None:
                moved = restricted[face, theory] = nerve.restrict(v, face, T, theory)
            terms += _splice_forms(theory, form.rows, moved.terms)
        out[T] = Expression(theory, _merge_runs(terms))
    return TWElement(nerve, out)


# -- the curved structure on the totalization --------------------------------------


def tw_differential(x: TWElement) -> TWElement:
    """d_TW,u = (form differential) + d + u iota in the fused convention."""
    return x.map(lambda T, v: form_differential(v) + du(v))


def tw_bracket(a: TWElement, b: TWElement) -> TWElement:
    return TWElement(a.nerve, {T: u_bracket(a.values[T], b.values[T])
                               for T in a.values})


def tw_curvature(nerve: CoverNerve) -> TWElement:
    """uD on every nondegenerate tuple, built and Bianchi-checked once per
    simplex theory."""
    built: dict[Theory, Expression] = {}
    out: dict[Tuple, Expression] = {}
    for T in nerve.nondegenerate_tuples():
        theory = nerve.simplex_theory(T, len(T) - 1)
        uD = built.get(theory)
        if uD is None:
            uD = built[theory] = curvature(theory)
        out[T] = uD
    return TWElement(nerve, out)


def whitney_commutes(c: CechCochain) -> TWElement:
    """Residual of the cochain-map identity: d_TW(w(c)) - w(delta_tot c)
    where delta_tot = Cech delta + (-1)^k (internal d_u).

    It is written straight from the identity, one spliced sum per tuple.  A
    face form w of a k-cochain holds only t and dt and has sign degree k;
    D kills t and dt and iota counts antifields only, so d_u(w v) =
    (-1)^k w d_u v, and the form differential of a restricted chart value
    vanishes.  So the residual on a tuple is, over the faces F of k + 1
    charts, dw_F r(c_F) + (-1)^k w_F (d_u r(c_F) - r(d_u c_F)), minus w_G
    r((delta c)_G) over the faces G of k + 2 charts, r the restriction to
    the tuple's simplex theory.  Each face value and its d_u is restricted
    once per simplex theory, and a restriction is not assumed to commute
    with d_u; the signs are the face forms' `negated` rows."""
    nerve = c.nerve
    k = c.degree
    delta = cech_delta(c).values
    du_c = {F: du(v) for F, v in c.values.items()}
    moved: dict[tuple, tuple[Expression, Expression]] = {}
    moved_delta: dict[tuple, Expression] = {}
    out: dict[Tuple, Expression] = {}
    for (T, theory, faces), (_, _, cofaces) in zip(nerve.whitney_faces(k),
                                                   nerve.whitney_faces(k + 1)):
        terms = []
        for face, form in faces:
            v = c.values.get(face)
            if v is None:
                continue
            got = moved.get((face, theory))
            if got is None:
                r = nerve.restrict(v, face, T, theory)
                got = moved[face, theory] = (r, du(r) - nerve.restrict(du_c[face], face, T,
                                                                       theory))
            r, slip = got
            terms += _splice_forms(theory, form.differential, r.terms)
            terms += _splice_forms(theory, form.negated if k & 1 else form.rows, slip.terms)
        for face, form in cofaces:
            v = delta.get(face)
            if v is None:
                continue
            r = moved_delta.get((face, theory))
            if r is None:
                r = moved_delta[face, theory] = nerve.restrict(v, face, T, theory)
            terms += _splice_forms(theory, form.negated, r.terms)
        out[T] = Expression(theory, _merge_runs(terms))
    return TWElement(nerve, out)


class _Residuals(Mapping):
    """The Maurer-Cartan residual on every admissible tuple, in
    `nerve.tuples()` order, computed on read: a nondegenerate tuple's is
    stored, a degenerate one's is f* of its face's when that fails, pulled
    back on first read and kept, and otherwise the zero of its simplex
    theory.  Taking the length or iterating computes nothing."""

    def __init__(self, residual: TWElement, fails: dict[Tuple, bool]):
        self._residual = residual
        self._fails = fails
        self._read: dict[Tuple, Optional[Expression]] = dict.fromkeys(residual.nerve.tuples())

    def __len__(self) -> int:
        return len(self._read)

    def __iter__(self):
        return iter(self._read)

    def __getitem__(self, T: Tuple) -> Expression:
        got = self._read[T]
        if got is None:
            R = collapse(T)[0]
            got = self._read[T] = self._residual.value(T) if R == T or self._fails[R] \
                else Expression.zero(self._residual.nerve.simplex_theory(T, len(T) - 1))
        return got


@dataclass
class GlobalMCReport:
    residuals: Mapping[Tuple, Expression]
    ok: bool
    failing: list[Tuple]


def global_mc_check(SS: TWElement) -> GlobalMCReport:
    """d_TW,u SS + (1/2)[SS, SS] + uD on every admissible tuple.  It is
    computed on the nondegenerate tuples: f* is a map of curved algebras
    fixing uD, so a degenerate tuple's residual is f* of its face's, and
    zero exactly when that one is; `_Residuals` takes the pullback only
    when the residual is read."""
    nerve = SS.nerve
    residual = tw_differential(SS) + tw_bracket(SS, SS) * Fraction(1, 2) \
        + tw_curvature(nerve)
    fails = {R: not is_zero(v) for R, v in residual.values.items()}
    failing = [T for T in nerve.tuples() if fails[collapse(T)[0]]]
    return GlobalMCReport(_Residuals(residual, fails), not failing, failing)


# -- theorem-global builder ----------------------------------------------------------


def global_covariant_theory(nerve: CoverNerve,
                            local_series: dict[str, Expression]) -> TWElement:
    """w(S_u + mu eps): the Whitney image of the chart-wise local theories
    plus the overlap functions mu as an eps-valued 1-cochain."""
    zero_deg = CechCochain(nerve, 0, {(a,): local_series[a] for a in nerve.chart_names})
    out = whitney(zero_deg)
    mu_values: dict[Tuple, Expression] = {}
    for key, ctx in nerve.overlaps.items():
        if len(key) == 2 and ctx.mu is not None:
            pair = tuple(sorted(key))
            mu_values[pair] = BElement.of_eps(ctx.mu)
    if mu_values:
        out = out + whitney(CechCochain(nerve, 1, mu_values))
    return out


@dataclass
class Refinement:
    """A refinement of covers: a map of chart indices plus, per fine
    context, the restriction from the matching coarse context."""

    fine: CoverNerve
    chart_map: dict[str, str]
    restrictions: dict[frozenset, CanonicalSubstitution]

    def transport(self, SS: TWElement) -> TWElement:
        out: dict[Tuple, Expression] = {}
        for T in self.fine.nondegenerate_tuples():
            phi_t = tuple(self.chart_map[a] for a in T)
            out[T] = _restrict_along(self.restrictions[frozenset(T)], SS.value(phi_t),
                                     self.fine.simplex_theory(T, len(T) - 1))
        return TWElement(self.fine, out)


@dataclass
class GaugeEquivalenceReport:
    homotopy_ok: bool
    identity_one_ok: bool
    identity_two_ok: bool
    endpoint_ok: bool

    @property
    def ok(self):
        return (self.homotopy_ok and self.identity_one_ok
                and self.identity_two_ok and self.endpoint_ok)


def tw_gauge_flow(x: TWElement, y: TWElement, max_order: int = 12) -> TWElement:
    """x bullet y: the endpoint of the gauge flow when the iterated brackets
    of d y + [x, y] by y vanish within max_order values; TruncatedFlowError
    otherwise."""
    # each tuple's step brackets by y's value there, its tables built once
    by = {T: _bracket_by(v, -1) for T, v in y.values.items()}
    steps, index = orbit(tw_differential(y) + tw_bracket(x, y),
                         lambda w: TWElement(y.nerve, {T: by[T](w.values[T]) for T in by}),
                         max_order, TWElement.is_zero)
    if index is None:
        raise TruncatedFlowError("Thom-Whitney gauge flow did not terminate")
    return exp_sum(x, steps, 1)


def gauge_equivalence_check(nerve: CoverNerve,
                            nu0: dict[str, dict[str, Expression]],
                            mu0: dict[frozenset, Expression],
                            nu1: dict[str, dict[str, Expression]],
                            mu1: dict[frozenset, Expression],
                            nu_tilde: dict[str, Expression],
                            build: Callable[[dict, dict], TWElement]) -> GaugeEquivalenceReport:
    """Verify nu1 - nu0 = d(nu_tilde) per chart and mu1 - mu0 = delta
    nu_tilde per overlap, then check SS0 bullet w(nu_tilde eps) = SS1 via
    the two bracket identities of the equivalence proposition."""
    homotopy_ok = True
    for a in nerve.chart_names:
        th = nerve.charts[a]
        for f, _ in th.field_pairs():
            want = nu1[a].get(f.name, Expression.zero(th)) - \
                nu0[a].get(f.name, Expression.zero(th))
            got = partial_derivative(nu_tilde[a], f)
            if not is_zero(want - got):
                homotopy_ok = False
    for key, ctx in nerve.overlaps.items():
        if len(key) != 2:
            continue
        a, b = tuple(sorted(key))
        ra = ctx.from_chart[a]
        rb = ctx.from_chart[b]
        # orientation pinned by the global MC corpus: d mu_{ab} = nu_b - nu_a
        want = mu1[key] - mu0[key]
        got = rb.apply(nu_tilde[b]) - ra.apply(nu_tilde[a])
        if not is_zero(want - got):
            homotopy_ok = False
    SS0 = build(nu0, mu0)
    SS1 = build(nu1, mu1)
    y = whitney(CechCochain(nerve, 0, {
        (a,): BElement.of_eps(nu_tilde[a]) for a in nerve.chart_names}))
    diff = SS1 - SS0
    id1 = (tw_differential(y) + tw_bracket(SS0, y) - diff).is_zero()
    id2 = tw_bracket(diff, y).is_zero()
    endpoint = tw_gauge_flow(SS0, y)
    return GaugeEquivalenceReport(homotopy_ok, id1, id2, (endpoint - SS1).is_zero())
