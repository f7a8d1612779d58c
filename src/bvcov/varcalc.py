"""Jet-space variational calculus: evolutionary vector fields, higher Euler
operators, the Soloviev and Batalin-Vilkovisky antibrackets, Hamiltonian
vector fields, the total-derivative decision procedure and etale
substitutions.

Sign conventions: all partials are graded left derivatives; with that
choice every sign below is fixed and pinned by the flow-table golden
tests (a global-sign failure there means the convention, not the test,
is wrong).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional

from .coefficients import quotient
from .expression import (Expression, _multiply_accumulate, is_zero, iterated_total,
                         jet_gradient, total_derivative)
from .symbols import GradedSymbol, Kind, Theory, TheoryError, antifield_name


class EvolutionaryVectorField:
    """Prolongation of a component assignment (one expression per field and
    antifield); acts as a graded derivation commuting with the total
    derivative."""

    def __init__(self, theory: Theory, components: dict[GradedSymbol, Expression]):
        self.theory = theory
        self.components = {s: e for s, e in components.items()
                           if not e.is_structural_zero()}
        for s in self.components:
            if s.jet_order != 0 or s.kind not in (Kind.FIELD_JET, Kind.ANTIFIELD_JET):
                raise TheoryError("components must be indexed by 0-jet generators")

    def component(self, sym: GradedSymbol) -> Expression:
        return self.components.get(sym, Expression.zero(self.theory))

    def sign_degree(self) -> int:
        sig: Optional[int] = None
        for s, e in self.components.items():
            es = e.sign_degree()
            if es is None:
                raise TheoryError("inhomogeneous vector field component")
            this = (es + s.sign_degree) % 2
            if sig is None:
                sig = this
            elif sig != this:
                raise TheoryError("vector field of mixed parity")
        return 0 if sig is None else sig

    def apply(self, expr: Expression) -> Expression:
        """sum over components and jet orders k of D^k(component) times the
        k-jet partial of expr, read off one jet table of expr."""
        table = _jet_table(expr)
        pieces: list[Expression] = []
        for s0, comp in self.components.items():
            chain = [comp]
            for k, partials in table.get(s0.base, {}).items():
                pieces.append(_nth_total(chain, k) * partials[0])
        return Expression.sum(self.theory, pieces)

    def __add__(self, other: "EvolutionaryVectorField") -> "EvolutionaryVectorField":
        comps = dict(self.components)
        for s, e in other.components.items():
            comps[s] = comps.get(s, Expression.zero(self.theory)) + e
        return EvolutionaryVectorField(self.theory, comps)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, q) -> "EvolutionaryVectorField":
        return EvolutionaryVectorField(
            self.theory, {s: e * q for s, e in self.components.items()})

    def is_zero(self) -> bool:
        return all(is_zero(e) for e in self.components.values())

    def commutator(self, other: "EvolutionaryVectorField") -> "EvolutionaryVectorField":
        sign = -1 if (self.sign_degree() * other.sign_degree()) % 2 else 1
        comps: dict[GradedSymbol, Expression] = {}
        keys = set(self.components) | set(other.components)
        for s in keys:
            comps[s] = self.apply(other.component(s)) \
                - other.apply(self.component(s)) * sign
        return EvolutionaryVectorField(self.theory, comps)


def prolong(theory: Theory, components: dict[GradedSymbol, Expression]) -> EvolutionaryVectorField:
    return EvolutionaryVectorField(theory, components)


# -- jet tables ----------------------------------------------------------------


# Every variational operator differentiates each operand once.  A jet table
# holds an operand's nonzero jet partials grouped by base, base -> {jet order
# k: [d/d(b_k), D d/d(b_k), D^2 d/d(b_k), ...]}, each list of total
# derivatives extended on demand by `_nth_total`.  Tables are built per call
# and dropped with it: `u_bracket` shares its operand's across both sides of
# [S, S], a flow shares its generator's across all its steps and a canonical
# check each generator's across all its partners.

JetTable = dict[str, dict[int, list[Expression]]]


def _jet_table(e: Expression) -> JetTable:
    table: JetTable = {}
    for s, d in jet_gradient(e).items():
        table.setdefault(s.base, {})[s.jet_order] = [d]
    return table


def _sigma_tables(e: Expression) -> list[tuple[int, JetTable]]:
    """The jet tables of e's sigma parts, as left bracket operands."""
    return [(sf, _jet_table(part)) for sf, part in e.sigma_parts()]


def _nth_total(chain: list[Expression], n: int) -> Expression:
    while len(chain) <= n:
        chain.append(total_derivative(chain[-1]))
    return chain[n]


def _paired_columns(theory: Theory, f_parts: list[tuple[int, JetTable]]):
    """The one pairing loop of the brackets and the Euler fields: for each
    sigma part sf of f and paired index, f's field column goes with the
    antifield and the sign pref, and f's antifield column with the field and
    the mirror sign.  Yields (f's column, partner 0-jet symbol, sign)."""
    pairs = theory.field_pairs()
    for sf, ft in f_parts:
        for field, anti in pairs:
            pref = -1 if ((sf + 1) * field.parity) % 2 else 1
            mirror = pref * (-1 if sf % 2 else 1)
            for left, right, sgn in ((field, anti, pref), (anti, field, mirror)):
                col = ft.get(left.base)
                if col is not None:
                    yield col, right, sgn


# -- Euler operators ----------------------------------------------------------


def _euler_column(theory: Theory, col: dict[int, list[Expression]], k: int) -> Expression:
    """The order-k Euler operator read off one table column: the sum over
    jet orders j >= k of C(j, k) (-D)^(j-k) of the j-jet partial."""
    return Expression.sum(theory, (_nth_total(chain, j - k) * (comb(j, k) * (-1) ** (j - k))
                                   for j, chain in col.items() if j >= k))


def euler(expr: Expression, k: int, base_name: str) -> Expression:
    """Higher Euler operator: sum_l C(k+l, k) (-d)^l of the (k+l)-jet
    partial; k = 0 is the classical variational derivative."""
    if k < 0:
        raise TheoryError("euler order must be nonnegative")
    return _euler_column(expr.theory, _jet_table(expr).get(base_name, {}), k)


# -- Soloviev and BV antibrackets ---------------------------------------------


def _soloviev_into(theory: Theory, f_parts: list[tuple[int, JetTable]],
                   g_tables: list[JetTable]) -> Expression:
    """soloviev(f, g), f given by the tables of its sigma parts and g by
    the tables of parts summing to g, with all its products summed in one
    multiply-accumulate.  Each column of f is paired with g's column of the
    partner base: D^l(df/db_k) * D^k(dg/db'_l) for every k and l."""
    jobs = []
    for f_col, right, sgn in _paired_columns(theory, f_parts):
        for gt in g_tables:
            g_col = gt.get(right.base)
            if g_col is None:
                continue
            for k, f_chain in f_col.items():
                for ell, g_chain in g_col.items():
                    jobs.append((_nth_total(f_chain, ell).terms, _nth_total(g_chain, k).terms, sgn))
    return Expression(theory, _multiply_accumulate(theory, jobs))


def soloviev(f: Expression, g: Expression) -> Expression:
    """The Soloviev antibracket: the double sum over jet orders k, l of
    D^l(df/d(xi^a)_k) D^k(dg/d(xi+_a)_l) and its mirror, with the global
    sign applied per paired index."""
    theory = f.theory
    if g.theory is not theory:
        raise TheoryError("mixed theory contexts")
    return _soloviev_into(theory, _sigma_tables(f), [_jet_table(g)])


def bv_antibracket(f: Expression, g: Expression) -> Expression:
    """Integrand of the BV antibracket on functionals; equals the Soloviev
    bracket modulo total derivatives (tested, not assumed)."""
    theory = f.theory
    g_table = _jet_table(g)
    pieces: list[Expression] = []
    for f_col, right, sgn in _paired_columns(theory, _sigma_tables(f)):
        d_f = _euler_column(theory, f_col, 0)
        if not d_f.is_structural_zero():
            d_g = _euler_column(theory, g_table.get(right.base, {}), 0)
            if not d_g.is_structural_zero():
                pieces.append((d_f * d_g) * sgn)
    return Expression.sum(theory, pieces)


def hamiltonian_vf(f: Expression) -> EvolutionaryVectorField:
    """The BV Hamiltonian vector field; depends on f only through its
    functional class."""
    return _euler_fields(f.theory, _sigma_tables(f), 1)[0]


def _euler_fields(theory: Theory, f_parts: list[tuple[int, JetTable]],
                  count: int) -> list[EvolutionaryVectorField]:
    """f_(0), ..., f_(count - 1) of the ad-expansion: f_(k) holds the
    order-k Euler operators of f, paired field with antifield and signed as
    in the Soloviev bracket."""
    fields = []
    for k in range(count):
        pieces: dict[GradedSymbol, list[Expression]] = {}
        for col, right, sgn in _paired_columns(theory, f_parts):
            d = _euler_column(theory, col, k)
            if not d.is_structural_zero():
                pieces.setdefault(right, []).append(d * sgn)
        fields.append(EvolutionaryVectorField(
            theory, {s: Expression.sum(theory, ps) for s, ps in pieces.items()}))
    return fields


def ad_expansion(f: Expression) -> list[EvolutionaryVectorField]:
    """Evolutionary fields f_(k) with ad(f) = sum_k d^k o f_(k); f_(0) is
    the Hamiltonian vector field; finitely many are nonzero."""
    f_parts = _sigma_tables(f)
    kmax = max((k for _, ft in f_parts for col in ft.values() for k in col), default=0)
    fields = _euler_fields(f.theory, f_parts, kmax + 1)
    while len(fields) > 1 and fields[-1].is_zero():
        fields.pop()
    return fields


# -- total-derivative decision procedure ---------------------------------------


class RescalingError(TheoryError):
    """Raised when the homotopy-witness rescaling is not polynomial."""


def _check_polynomial_in_jets(f: Expression):
    for t in f.terms:
        if t.atoms:
            raise RescalingError(
                "is_total_derivative requires coefficients independent of the "
                "rescaled jet variables (function symbols, log or pow present)")
        for s, _ in t.mono:
            if s.kind not in (Kind.FIELD_JET, Kind.ANTIFIELD_JET):
                raise RescalingError(
                    f"is_total_derivative expects a jet polynomial; found {s.name}")


def _jet_degree_parts(f: Expression) -> dict[int, Expression]:
    buckets: dict[int, list] = {}
    for t in f.terms:
        deg = sum(e for s, e in t.mono
                  if s.kind in (Kind.FIELD_JET, Kind.ANTIFIELD_JET))
        buckets.setdefault(deg, []).append(t)
    return {d: Expression(f.theory, tuple(ts)) for d, ts in buckets.items()}


def is_total_derivative(f: Expression):
    """Decide whether f is a constant plus a total derivative; on success
    return (True, constant, witness g) with f = c + d(g) re-derived exactly.
    The witness comes from the explicit homotopy integral and is one choice
    among many (kernel of d); equality in the functional space is decided by
    the flag, never by witness comparison."""
    theory = f.theory
    _check_polynomial_in_jets(f)
    c = f.constant_part()
    # the Euler operator of a base without a column is zero
    for col in _jet_table(f).values():
        if not is_zero(_euler_column(theory, col, 0)):
            return (False, c, None)
    pieces: list[Expression] = []
    for m, fm in sorted(_jet_degree_parts(f).items()):
        if m == 0:
            continue
        scale = Fraction(1, m)
        for base, col in _jet_table(fm).items():
            sym0 = Expression.symbol(theory, theory.symbol(base, 0))
            for k in range(1, max(col) + 1):
                dk = _euler_column(theory, col, k)
                if not dk.is_structural_zero():
                    pieces.append(iterated_total(sym0 * dk, k - 1) * scale)
    g = Expression.sum(theory, pieces)
    if not is_zero(f - Expression.const(theory, c) - total_derivative(g)):
        raise AssertionError("homotopy witness failed to reproduce the input")
    return (True, c, g)


def functional_equal(f: Expression, g: Expression) -> bool:
    """Equality of functional classes: difference is a total derivative with
    zero constant part."""
    flag, c, _ = is_total_derivative(f - g)
    return flag and c == 0


# -- etale maps ---------------------------------------------------------------


class EtaleMap:
    """phi: source -> target local embedding determined by target-field
    expressions y^b(xi); antifields transform with the inverse Jacobian and
    the extension to jets commutes with the total derivative."""

    def __init__(self, source: Theory, target: Theory,
                 images: dict[str, Expression]):
        self.source = source
        self.target = target
        tgt_fields = [fld for fld, _ in target.field_pairs()]
        if set(images) != {fld.name for fld in tgt_fields}:
            raise TheoryError("images must cover exactly the target fields")
        for fld in tgt_fields:
            img = images[fld.name]
            if img.theory is not source:
                raise TheoryError("image expressions must live in the source theory")
            g = img.grade()
            if g is None or g != (fld.ghost, fld.parity, 0):
                raise TheoryError(f"image of {fld.name} has wrong grading")
            for t in img.terms:
                for s, _ in t.mono:
                    if s.jet_order != 0 or s.kind != Kind.FIELD_JET:
                        raise TheoryError("images must be functions of source fields")
        src_fields = [fld for fld, _ in source.field_pairs()]
        if len(src_fields) != len(tgt_fields):
            raise TheoryError(f"{source.name} has {len(src_fields)} fields and {target.name} "
                              f"has {len(tgt_fields)}: an etale map needs as many of each")
        zero = Expression.zero(source)
        jac = []
        for fb in tgt_fields:
            grad = jet_gradient(images[fb.name])
            jac.append([grad.get(fa, zero) for fa in src_fields])
        inv = _matrix_right_inverse(source, jac)
        if inv is None:
            raise TheoryError("Jacobian is not invertible: map is not etale")
        if not _signed_identity_holds(source, jac, inv):
            raise TheoryError("Jacobian inverse check failed")
        self._images: dict[GradedSymbol, Expression] = {}
        for j, fld in enumerate(tgt_fields):
            self._images[target.symbol(fld.name)] = images[fld.name]
        for j, fld in enumerate(tgt_fields):
            anti_t = target.symbol(antifield_name(fld.name))
            self._images[anti_t] = Expression.sum(source, (
                inv[a][j] * Expression.symbol(source, source.symbol(antifield_name(sfld.name)))
                for a, sfld in enumerate(src_fields)))

    def pullback(self, expr: Expression) -> Expression:
        from .expression import apply_substitution
        if expr.theory is not self.target:
            raise TheoryError("pullback expects a target-theory expression")
        return apply_substitution(expr, self._images, self.source)

    def generator_images(self) -> dict[GradedSymbol, Expression]:
        """The full pullback table on target generators (fields and
        antifields), for use as a substitution."""
        return dict(self._images)


def _nonzero_rows(mat) -> list[dict[int, Expression]]:
    """Each row of a matrix as {column: entry} over the entries that are not
    structurally zero, in column order."""
    return [{j: e for j, e in enumerate(row) if e.terms} for row in mat]


def _signed_identity_holds(theory: Theory, left, right, signs=None) -> bool:
    """Whether signs[a] * sum_b left[a][b] right[b][c] = delta_ac for every
    a and c (every sign +1 by default), with the products formed over
    nonzero entries only: for each row a, each b with left[a][b] != 0 and
    each c with right[b][c] != 0.  An entry that no product reaches is 0,
    which holds off the diagonal and fails on it."""
    right_rows = _nonzero_rows(right)
    for a, row in enumerate(_nonzero_rows(left)):
        pieces: dict[int, list[Expression]] = {}
        for b, lab in row.items():
            for c, rbc in right_rows[b].items():
                pieces.setdefault(c, []).append(lab * rbc)
        if a not in pieces:
            return False
        for c, ps in pieces.items():
            acc = Expression.sum(theory, ps)
            if signs is not None:
                acc = acc * signs[a]
            if not is_zero(acc - Expression.const(theory, 1 if a == c else 0)):
                return False
    return True


def _matrix_right_inverse(theory: Theory, mat) -> Optional[list[list[Expression]]]:
    """Solve M X = I by Gaussian elimination over the supercommutative
    coefficient ring, or return None when some column has no invertible
    pivot.  Each row of the augmented matrix [M | I] is kept as a
    {column: entry} dict of its nonzero entries, so a row update touches
    only the pivot row's nonzero columns and the work follows the nonzeros.
    The pivot of a column is scanned for from the diagonal down, must be
    invertible (even), and a constant one is taken first; inverse() atoms
    are introduced only for non-constant pivots.  X is returned dense."""
    from .expression import inverse_of
    n = len(mat)
    zero = Expression.zero(theory)
    aug = [{j: mat[i][j] for j in range(n) if mat[i][j].terms} for i in range(n)]
    for i, row in enumerate(aug):
        row[n + i] = Expression.const(theory, 1)
    for col in range(n):
        piv = None
        best = None
        for r in range(col, n):
            e = aug[r].get(col)
            if e is None:
                continue
            sig = e.sign_degree()
            if sig != 0:
                continue
            score = 0 if (len(e.terms) == 1 and not e.terms[0].mono and not e.terms[0].atoms) else 1
            if best is None or score < best:
                best, piv = score, r
                if score == 0:
                    break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        if len(p.terms) == 1 and not p.terms[0].mono and not p.terms[0].atoms:
            pinv = Expression.const(theory, quotient(1, p.terms[0].coef))
        else:
            pinv = inverse_of(p)
        pivot_row = {}
        for j, e in aug[col].items():
            pe = pinv * e
            if pe.terms:
                pivot_row[j] = pe
        aug[col] = pivot_row
        for r in range(n):
            row = aug[r]
            factor = row.get(col)
            if r == col or factor is None:
                continue
            for j, pe in pivot_row.items():
                e = row.get(j, zero) - factor * pe
                if e.terms:
                    row[j] = e
                else:
                    row.pop(j, None)
    return [[aug[i].get(n + j, zero) for j in range(n)] for i in range(n)]
