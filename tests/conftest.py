import random
from fractions import Fraction

import pytest

from bvcov.symbols import Theory
from bvcov.expression import Expression, split_powers
from bvcov.varcalc import EvolutionaryVectorField


@pytest.fixture
def particle_theory():
    t = Theory("particle")
    for m in (1, 2):
        t.add_field(f"x_{m}", 0, 0)
    for m in (1, 2):
        t.add_field(f"p_{m}", 0, 0)
    t.add_field("e", 0, 0)
    t.add_field("c", 1, 1)
    return t


def antifield_counting_field(theory: Theory) -> EvolutionaryVectorField:
    """N+ = sum_k a+_k d/d(a+_k) as the prolongation of a+ -> a+ over every
    antifield: the general path that `curved.iota`'s diagonal weight must
    match."""
    return EvolutionaryVectorField(theory, {
        anti: Expression.symbol(theory, anti) for _, anti in theory.field_pairs()})


def u_parts(x: Expression) -> dict[int, Expression]:
    """{n: c_n}, by increasing n, with x = sum_n c_n u^n, read off by
    `split_powers` on the theory's u."""
    return dict(sorted(split_powers(x, x.theory.u).items()))


def u_series(theory: Theory, coeffs: dict[int, Expression]) -> Expression:
    """sum_n coeffs[n] u^n."""
    return Expression.sum(theory, (Expression.symbol(theory, theory.u, n) * c
                                   for n, c in coeffs.items()))


def eps_parts(x: Expression) -> tuple[Expression, Expression]:
    """(f, g) with x = f + g*eps, read off by `split_powers` on the
    theory's eps."""
    parts = split_powers(x, x.theory.epsilon)
    zero = Expression.zero(x.theory)
    return parts.get(0, zero), parts.get(1, zero)


@pytest.fixture
def E(particle_theory):
    def make(name, jet=0):
        return Expression.of(particle_theory, name, jet)
    return make


class HomogeneousSampler:
    """Deterministic random sign-homogeneous expressions over a theory."""

    def __init__(self, theory: Theory, seed: int = 0, max_jet: int = 1,
                 max_factors: int = 3, max_terms: int = 3):
        self.theory = theory
        self.rng = random.Random(seed)
        self.names = []
        for f, a in theory.field_pairs():
            self.names += [f.name, a.name]
        self.max_jet = max_jet
        self.max_factors = max_factors
        self.max_terms = max_terms

    def monomial(self):
        t = Expression.const(self.theory,
                             self.rng.choice([1, -1, 2, -2, Fraction(1, 2), 3]))
        for _ in range(self.rng.randint(1, self.max_factors)):
            t = t * Expression.of(self.theory, self.rng.choice(self.names),
                                  self.rng.randint(0, self.max_jet))
        return t

    def expression(self):
        while True:
            out = Expression.zero(self.theory)
            target = None
            for _ in range(self.rng.randint(1, self.max_terms)):
                m = self.monomial()
                if m.is_structural_zero():
                    continue
                s = m.sign_degree()
                if target is None:
                    target = s
                    out = out + m
                elif s == target:
                    out = out + m
            if not out.is_structural_zero():
                return out
