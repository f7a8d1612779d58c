"""The benchmark's workloads: seeded inputs, the checks run on them and the
known answer of every check.

A workload is built by `build(name, seed)`, which imports bvcov, reads the
theory files and golden reports it needs and generates its seeded inputs.
That is the whole set-up; nothing else is prepared before the first timed
check.  Every check calls bvcov through module attributes (`mods.cli.main`,
`mods.varcalc.soloviev`, ...) looked up at call time, so the tracer in
`tracer.py` sees the calls once it has rebound those names.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
GOLDEN = ROOT / "tests" / "golden"
THEORIES = ROOT / "theories"

MODULES = ("expression", "varcalc", "curved", "aksz", "models",
           "thomwhitney", "parser", "printer", "cli")


@dataclass(frozen=True)
class Raised:
    """The verdict of a check whose call raised."""

    kind: str

    @staticmethod
    def of(exc: BaseException) -> "Raised":
        return Raised(type(exc).__name__)

    def __repr__(self) -> str:
        return f"raised {self.kind}"


@dataclass
class Check:
    name: str
    run: Callable[[], object]        # calls bvcov and returns its verdict
    judge: Callable[[object], bool]  # compares a verdict with the known answer
    # The wrong verdict this input gives because of a known defect of bvcov,
    # if it has one.  Only exactly that verdict is excused; any other wrong
    # verdict counts as unexpected.
    known_defect: object = None


@dataclass
class Workload:
    name: str
    size: str                        # the stated input size
    checks: list[Check] = field(default_factory=list)


class Modules:
    """The bvcov package and its layer modules, imported from this checkout."""

    def __init__(self):
        import bvcov
        src = (ROOT / "src").resolve()
        if src not in Path(bvcov.__file__).resolve().parents:
            raise ImportError(f"bvcov was imported from {bvcov.__file__}, "
                              f"not from {src}")
        self.package = bvcov
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"bvcov.{name}"))


def build(name: str, seed: int) -> Workload:
    mods = Modules()
    return BUILDERS[name](mods, seed)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    # A string seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{part}")


# -- models_cli ------------------------------------------------------------------

MASTER_PASS = ["CHECK master-equation: PASS"]
SPINNING_PASS = [f"CHECK {label}: PASS" for label in (
    "stage-product", "stage-twist", "stage-log-flow", "stage-cXi1", "stage-cS1",
    "bch-merge", "rename-canonical", "physical-master-equation")] + ["rank = 2"]

# (model, --dim, the n the header names); every library model satisfies its
# master equation.
AKSZ_MODELS = [("flat-particle", 4, 4), ("magnetic-particle", 4, 4),
               ("flat-spinning-particle", 4, 4), ("curved-spinning-particle", 3, 3),
               ("bc-system", 2, 0), ("betagamma-system", 2, 0)]

# The ROADMAP item 5 front-door defects: each input must exit 2, and each
# ends in a traceback inside `cli.main` instead, raising the named exception.
FRONT_DOOR = [
    ("front-door.bare-param", ["run", str(INPUTS / "bare_param.bvt")],
     Raised("IndexError")),
    ("front-door.ghost-not-integer", ["run", str(INPUTS / "bad_ghost.bvt")],
     Raised("ValueError")),
    ("front-door.unknown-expression",
     ["bracket", str(THEORIES / "particle.bvt"), "--left", "S0", "--right", "nope"],
     Raised("KeyError")),
]


def _cli(mods: Modules, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = mods.cli.main(argv)
        return rc, out.getvalue()
    return run


def _exact(rc: int, text: str) -> Callable[[object], bool]:
    return lambda v: v == (rc, text)


def _lines(rc: int, lines: list[str]) -> Callable[[object], bool]:
    return lambda v: v == (rc, "".join(f"{line}\n" for line in lines))


def _aksz_report(model: str, n: int) -> Callable[[object], bool]:
    def judge(v):
        if not isinstance(v, tuple) or v[0] != 0:
            return False
        lines = v[1].splitlines()
        return (len(lines) == 3 and lines[0] == f"model {model} (n={n})"
                and lines[1].startswith("S_u = ") and lines[2:] == MASTER_PASS)
    return judge


def _exit_code(rc: int) -> Callable[[object], bool]:
    return lambda v: isinstance(v, tuple) and v[0] == rc


def models_cli(mods: Modules, seed: int) -> Workload:
    particle = THEORIES / "particle.bvt"
    mods.parser.parse_theory_file(particle.read_text(encoding="utf-8"))
    checks = [Check("run.particle", _cli(mods, ["run", str(particle)]),
                    _exact(0, (GOLDEN / "particle.report").read_text()))]
    for model, dim, n in AKSZ_MODELS:
        checks.append(Check(f"build-aksz.{model}.{dim}",
                            _cli(mods, ["build-aksz", "--model", model, "--dim", str(dim)]),
                            _aksz_report(model, n)))
    checks.append(Check("build-aksz.magnetic-particle.2",
                        _cli(mods, ["build-aksz", "--model", "magnetic-particle", "--dim", "2"]),
                        _exact(0, (GOLDEN / "magnetic_build.report").read_text())))
    checks.append(Check("couple-gravity.magnetic-particle.3",
                        _cli(mods, ["couple-gravity", "--model", "magnetic-particle", "--dim", "3"]),
                        _lines(0, [f"CHECK {label}: PASS" for label in (
                            "log-family-certified", "identity-c", "identity-cc",
                            "tau-interpolation", "endpoint", "endpoint-master-equation")])))
    checks.append(Check("twist.magnetic-particle.4",
                        _cli(mods, ["twist", "--model", "magnetic-particle", "--dim", "4"]),
                        _lines(0, ["CHECK twist-couple-endpoint: PASS",
                                   "CHECK endpoint-master-equation: PASS"])))
    for model, dim in (("flat-spinning-particle", 2), ("curved-spinning-particle", 1)):
        checks.append(Check(f"spinning.{model}.{dim}",
                            _cli(mods, ["spinning", "--model", model, "--dim", str(dim)]),
                            _lines(0, SPINNING_PASS)))
    checks.append(Check("rank.flat-spinning-particle.1",
                        _cli(mods, ["rank", "--model", "flat-spinning-particle", "--dim", "1"]),
                        _lines(0, ["rank = 2"])))
    for name, argv, defect in FRONT_DOOR:
        checks.append(Check(name, _cli(mods, argv), _exit_code(2), known_defect=defect))
    _rng("models_cli", seed, "order").shuffle(checks)
    return Workload("models_cli", f"{len(checks)} CLI invocations", checks)


# -- bracket_bulk ----------------------------------------------------------------

COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 2), 3)
BULK_SAMPLES = 300


class Sampler:
    """Seeded random sign-homogeneous expressions of 1 to `max_terms` terms,
    each a rational times 1 to `max_factors` generators at jet order 0 or 1."""

    def __init__(self, mods: Modules, theory, rng: random.Random,
                 max_factors: int = 2, max_terms: int = 3):
        self.E = mods.expression.Expression
        self.theory = theory
        self.rng = rng
        self.names = [s.name for pair in theory.field_pairs() for s in pair]
        self.max_factors = max_factors
        self.max_terms = max_terms

    def monomial(self):
        E, rng = self.E, self.rng
        term = E.const(self.theory, rng.choice(COEFFICIENTS))
        for _ in range(rng.randint(1, self.max_factors)):
            term = term * E.of(self.theory, rng.choice(self.names), rng.randint(0, 1))
        return term

    def expression(self, sign: int | None = None):
        while True:
            out, want = self.E.zero(self.theory), sign
            for _ in range(self.rng.randint(1, self.max_terms)):
                m = self.monomial()
                if m.is_structural_zero():
                    continue
                if want is None:
                    want = m.sign_degree()
                if m.sign_degree() == want:
                    out = out + m
            if not out.is_structural_zero():
                return out


def _is(expected) -> Callable[[object], bool]:
    return lambda v: v == expected


def bracket_bulk(mods: Modules, seed: int) -> Workload:
    V, X = mods.varcalc, mods.expression
    checks = []
    for tname, spinning in (("particle", False), ("spinning", True)):
        theory = mods.models.intro_theory(1, spinning=spinning)
        s = Sampler(mods, theory, _rng("bracket_bulk", seed, tname))
        five = X.Expression.const(theory, 5)
        evens = [f.name for f, _ in theory.field_pairs()
                 if f.sign_degree == 0 and f.ghost == 0]
        for i in range(BULK_SAMPLES):
            f, g, h = s.expression(), s.expression(), s.expression()
            # q*d(r) for distinct even fields q, r is not a total derivative
            # (its Euler derivative along q is d(r)); adding d(k) keeps it so.
            q, r = s.rng.sample(evens, 2)
            coef = s.rng.choice(COEFFICIENTS)
            negative = (X.Expression.of(theory, q) * X.Expression.of(theory, r, 1) * coef
                        + X.total_derivative(s.expression(sign=0)))
            sign = -1 if ((f.sign_degree() + 1) * (g.sign_degree() + 1)) % 2 else 1
            tag = f"{tname}.{i}"
            checks += [
                Check(f"{tag}.antisymmetry", _antisymmetry(mods, f, g, sign), _is(True)),
                Check(f"{tag}.jacobi", _jacobi(mods, f, g, h, sign), _is(True)),
                Check(f"{tag}.derivation", _derivation(mods, f, g), _is(True)),
                Check(f"{tag}.hamiltonian-morphism", _morphism(mods, f, g), _is(True)),
                Check(f"{tag}.total-derivative", _witness(mods, g, five), _is((True, 5, True))),
                Check(f"{tag}.not-total-derivative",
                      lambda e=negative: V.is_total_derivative(e)[0], _is(False)),
            ]
    return Workload("bracket_bulk",
                    f"2 theories x {BULK_SAMPLES} samples x 6 identities", checks)


def _antisymmetry(mods, f, g, sign):
    V, X = mods.varcalc, mods.expression
    return lambda: X.is_zero(V.soloviev(g, f) + V.soloviev(f, g) * sign)


def _jacobi(mods, f, g, h, sign):
    V, X = mods.varcalc, mods.expression
    return lambda: X.is_zero(V.soloviev(f, V.soloviev(g, h))
                             - V.soloviev(V.soloviev(f, g), h)
                             - V.soloviev(g, V.soloviev(f, h)) * sign)


def _derivation(mods, f, g):
    V, X = mods.varcalc, mods.expression
    return lambda: X.is_zero(V.soloviev(X.total_derivative(f), g)
                             - X.total_derivative(V.soloviev(f, g)))


def _morphism(mods, f, g):
    V, X = mods.varcalc, mods.expression

    def run():
        lhs = V.hamiltonian_vf(f).commutator(V.hamiltonian_vf(g))
        rhs = V.hamiltonian_vf(V.soloviev(f, g))
        return all(X.is_zero(lhs.component(s) - rhs.component(s))
                   for s in set(lhs.components) | set(rhs.components))
    return run


def _witness(mods, g, five):
    V, X = mods.varcalc, mods.expression
    f = X.total_derivative(g) + five

    def run():
        flag, c, w = V.is_total_derivative(f)
        return flag, c, w is not None and X.is_zero(f - five - X.total_derivative(w))
    return run


# -- tw_cover --------------------------------------------------------------------

# The atlas at bound 2 has 39 index tuples; at bound 3 (120 tuples) one
# 1-cochain check alone takes 3-4 s, too long to repeat enough times in a run.
ATLAS_BOUND = 2
ATLAS_COCHAINS = 8     # random cochains of each degree 0 and 1 per pass


def _atlas(mods: Modules, bound: int):
    """Three charts over one theory, every intersection nonempty, identity
    restriction maps."""
    theory = mods.package.Theory("shared")
    theory.add_field("q", 0, 0)
    theory.add_field("r", 0, 0)
    theory.add_field("th", 1, 1)
    nerve = mods.thomwhitney.CoverNerve({c: theory for c in "ABC"},
                                        dimension_bound=bound)
    for k in (2, 3):
        for combo in itertools.combinations("ABC", k):
            nerve.declare_overlap(frozenset(combo), theory, {
                c: mods.curved.CanonicalSubstitution(theory, {}, theory) for c in combo})
    return nerve, theory


def _cochain_values(mods: Modules, theory, rng: random.Random):
    """Values of the form coefficient * a * b for two distinct generators at
    jet order 0 or 1.  The seed shuffles the 60 such shapes and picks the
    coefficients; cycling through every shape keeps the work per run nearly
    the same for every seed."""
    E, C = mods.expression.Expression, mods.curved
    names = ["q", "r", "th", "q+", "r+", "th+"]
    shapes = [(a, ja, b, jb) for a, b in itertools.combinations(names, 2)
              for ja in (0, 1) for jb in (0, 1)]
    while True:
        rng.shuffle(shapes)
        for a, ja, b, jb in shapes:
            value = E.const(theory, rng.choice((1, -1, 2))) \
                * E.of(theory, a, ja) * E.of(theory, b, jb)
            yield C.USeries.of(C.BElement.of_body(value))


def tw_cover(mods: Modules, seed: int) -> Workload:
    TW = mods.thomwhitney
    cylinder = THEORIES / "cylinder_flux.bvt"
    broken = INPUTS / "cylinder_mu_sq.bvt"
    for path in (cylinder, broken):
        mods.parser.parse_theory_file(path.read_text(encoding="utf-8"))
    checks = [
        Check("tw-check.cylinder_flux", _cli(mods, ["tw-check", str(cylinder)]),
              _exact(0, (GOLDEN / "cylinder_flux.report").read_text())),
        Check("tw-check.cylinder_mu_sq", _cli(mods, ["tw-check", str(broken)]),
              _broken_cylinder),
    ]
    nerve, theory = _atlas(mods, ATLAS_BOUND)
    values = _cochain_values(mods, theory, _rng("tw_cover", seed, "cochains"))
    for i in range(ATLAS_COCHAINS):
        for degree in (0, 1):
            c = TW.CechCochain(nerve, degree, {
                T: next(values) for T in itertools.combinations("ABC", degree + 1)})
            checks.append(Check(f"atlas.{degree}-cochain.{i}",
                                lambda c=c: TW.whitney_commutes(c).is_zero(), _is(True)))
    return Workload("tw_cover", f"the cylinder cover twice; {ATLAS_COCHAINS} random 0- "
                    f"and 1-cochains each on a 3-chart atlas at bound {ATLAS_BOUND}", checks)


def _broken_cylinder(v) -> bool:
    # The failing list is not pinned: skipping degenerate simplices may
    # legitimately shorten it, but (U0, U1) must stay in it.
    if not isinstance(v, tuple) or v[0] != 1:
        return False
    lines = v[1].splitlines()
    return (lines[:1] == ["CHECK cylinder_flux: FAIL"]
            and "  nonzero residual on ('U0', 'U1')" in lines)


BUILDERS = {"models_cli": models_cli, "bracket_bulk": bracket_bulk,
            "tw_cover": tw_cover}
