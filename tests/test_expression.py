import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcov import expression
from bvcov.symbols import Theory, TheoryError, SymbolUnknownError
from bvcov.expression import (Expression, GradingError, inverse_of, is_zero,
                              log_of, normalize, power_of, total_derivative,
                              jet_partial, param_derivative, substitute_param)
from bvcov.coefficients import AffineExponent, FuncAtom
from bvcov.printer import render
from conftest import HomogeneousSampler


def test_odd_transposition(E):
    psi1, psi2 = E("x+_1"), E("x+_2")
    assert psi2 * psi1 == -(psi1 * psi2)


def test_odd_square_vanishes(particle_theory, E):
    eps = Expression.symbol(particle_theory, particle_theory.epsilon)
    assert (eps * eps).is_structural_zero()
    assert (E("c") * E("c")).is_structural_zero()


def test_cancellation(E):
    x = E("x_1")
    assert (3 * x + 2 * x - 5 * x).is_structural_zero()


def test_grade_examples(E):
    assert E("c").grade() == (1, 1, 0)
    assert E("c+").grade() == (-2, 0, 0)
    assert (E("x_1") + E("c")).grade() is None


def test_mul_even_times_form(particle_theory):
    t = particle_theory
    t.add_one_form("dt")
    t1 = Expression.of(t, "x_1")
    dt = Expression.of(t, "dt")
    assert dt * t1 == t1 * dt


def test_mul_association_with_atoms(E, particle_theory):
    p, e = E("p_1"), E("e")
    dx = E("x_1", 1)
    assert (p * dx) * e == p * (dx * e) == e * (p * dx)


def test_unregistered_symbol_errors(particle_theory):
    with pytest.raises(SymbolUnknownError):
        Expression.of(particle_theory, "nope")


def test_normalize_idempotent_random(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=11)
    for _ in range(50):
        e = s.expression()
        again = normalize(particle_theory,
                          [(t.coef, t.atoms, t.mono) for t in e.terms])
        assert again == e


def test_normalize_order_independent(particle_theory):
    # atom order, term order and even-symbol placement carry no sign (odd
    # monomial swaps do: the Koszul sign is semantic, pinned elsewhere)
    rng = random.Random(5)
    s = HomogeneousSampler(particle_theory, seed=12)
    for _ in range(40):
        e = s.expression() * s.expression()
        raw = []
        for t in e.terms:
            atoms = list(t.atoms)
            rng.shuffle(atoms)
            evens = [me for me in t.mono if me[0].sign_degree == 0]
            odds = [me for me in t.mono if me[0].sign_degree == 1]
            rng.shuffle(evens)
            mono = evens[: len(evens) // 2] + odds + evens[len(evens) // 2:]
            raw.append((t.coef, tuple(atoms), tuple(mono)))
        rng.shuffle(raw)
        again = normalize(particle_theory, raw)
        assert again == e


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
def test_mul_associative_commutative(i, j, k):
    t = Theory("h")
    t.add_field("q", 0, 0)
    t.add_field("th", 1, 1)
    s = HomogeneousSampler(t, seed=i ^ 0xA5)
    a, b, c = s.expression(), s.expression(), s.expression()
    assert (a * b) * c == a * (b * c)
    sa, sb = a.sign_degree(), b.sign_degree()
    sign = -1 if (sa * sb) % 2 else 1
    assert a * b == (b * a) * sign


def test_mul_bulk_properties(particle_theory):
    # associativity and graded commutativity at scale (>= 1000 cases)
    s = HomogeneousSampler(particle_theory, seed=123, max_factors=2, max_terms=2)
    for _ in range(1000):
        a, b = s.expression(), s.expression()
        sa, sb = a.sign_degree(), b.sign_degree()
        assert a * b == (b * a) * (-1 if (sa * sb) % 2 else 1)
    for _ in range(250):
        a, b, c = s.expression(), s.expression(), s.expression()
        assert (a * b) * c == a * (b * c)


def test_inverse_log_power_rules(E, particle_theory):
    e = E("e")
    assert e * inverse_of(e) == Expression.const(particle_theory, 1)
    assert power_of(e, Fraction(0)) == Expression.const(particle_theory, 1)
    assert power_of(e, Fraction(1)) == e
    assert power_of(e, Fraction(2)) == e * e
    half = power_of(e, Fraction(1, 2))
    assert half * half == e
    em1 = e - 1
    assert is_zero(em1 * inverse_of(em1) - 1)
    # the derivative rules
    assert total_derivative(log_of(e)) == inverse_of(e) * E("e", 1)
    tau = particle_theory.add_flow_param("tau_a")
    aff = AffineExponent(Fraction(-1), Fraction(1), tau)
    pw = power_of(e, aff)
    assert pw * e == power_of(e, AffineExponent(Fraction(0), Fraction(1), tau))
    assert param_derivative(pw, tau) == log_of(e) * pw
    assert substitute_param(pw, tau, 1) == Expression.const(particle_theory, 1)


def test_power_argument_grading_guard(E):
    with pytest.raises(GradingError):
        inverse_of(E("c"))
    with pytest.raises(GradingError):
        log_of(E("c+"))      # ghost -2


def test_coefficient_confluence_shuffled(particle_theory, E):
    # two random rewrite orders agree: build with atoms in scrambled order
    e = E("e")
    tau = particle_theory.add_flow_param("tau_b")
    pieces = [power_of(e, AffineExponent(Fraction(1), Fraction(1), tau)),
              inverse_of(e), power_of(e, Fraction(3)), log_of(e),
              inverse_of(e - 1), (e - 1)]
    rng = random.Random(3)
    ref = None
    for _ in range(6):
        order = pieces[:]
        rng.shuffle(order)
        prod = Expression.const(particle_theory, 1)
        for p in order:
            prod = prod * p
        if ref is None:
            ref = prod
        assert prod == ref


def test_total_derivative_leibniz(E):
    p, x1 = E("p_1"), E("x_1")
    lhs = total_derivative(p * total_derivative(x1))
    assert lhs == E("p_1", 1) * E("x_1", 1) + p * E("x_1", 2)
    c = E("c")
    assert total_derivative(c * total_derivative(c)) == c * E("c", 2)


def test_partial_examples(E, particle_theory):
    p, x1, c = E("p_1"), E("x_1"), E("c")
    dx = particle_theory.jet("x_1", 1)
    assert jet_partial(p * total_derivative(x1), dx) == p
    assert jet_partial(c * total_derivative(c), particle_theory.symbol("c")) == E("c", 1)
    assert jet_partial(x1 * x1, particle_theory.symbol("p_1")).is_structural_zero()
    with pytest.raises(TheoryError):
        jet_partial(x1, particle_theory.epsilon)


def test_render_reparse_identity(particle_theory):
    from bvcov.parser import parse_expression
    s = HomogeneousSampler(particle_theory, seed=21)
    e_sym = Expression.of(particle_theory, "e")
    extras = [inverse_of(e_sym), log_of(e_sym), inverse_of(e_sym - 1)]
    for i in range(40):
        e = s.expression()
        if i % 3 == 0:
            e = e * extras[i % len(extras)]
        text = render(e)
        back = parse_expression(particle_theory, text)
        assert back == e, text
        assert render(back) == text


# -- addition by merging canonical term tuples --------------------------------


def _oracle_pools():
    """A theory with even and odd fields, jets, a function symbol and a flow
    parameter, plus pools of its symbols and atoms (function descendants,
    log, rational and parametric pow, inverse of a compound base)."""
    t = Theory("oracle")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    t.add_field("th", 1, 1)
    t.add_function("F", ["q", "r"])
    tau = t.add_flow_param("tau")
    q, r = Expression.of(t, "q"), Expression.of(t, "r")
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",)), FuncAtom("F", ("q", "r"))]
    for e in (log_of(q + 1), power_of(q + 1, Fraction(1, 2)), inverse_of(q - r),
              power_of(q, AffineExponent(Fraction(-1), Fraction(1), tau))):
        (atom, _), = e.terms[0].atoms
        atoms.append(atom)
    symbols = [t.symbol(n, j) for n in ("q", "r", "th", "q+", "th+") for j in (0, 1)]
    return t, atoms, symbols + [tau]


_ORACLE_COEFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
_RAW_TERM = st.tuples(
    _ORACLE_COEFS,
    st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)), max_size=2),
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 2)), max_size=3))


def _raw_of(e: Expression) -> list:
    return [(t.coef, t.atoms, t.mono) for t in e.terms]


def _terms(e: Expression) -> list:
    return [(t.coef, t.atoms, t.mono, t.key) for t in e.terms]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_merge_add_matches_normalize_oracle(data):
    """+, - and Expression.sum on canonical operands agree term by term, in
    order, with the brute-force normalization of the concatenated terms."""
    t, atoms, symbols = _oracle_pools()

    def build(raw):
        return normalize(t, [(c, tuple((atoms[i], e) for i, e in a),
                              tuple((symbols[i], e) for i, e in m)) for c, a, m in raw])

    a = build(data.draw(st.lists(_RAW_TERM, max_size=6)))
    # b repeats some of a's terms with a scaled coefficient, so that sums
    # cancel some terms (factor -1) and merge others
    picks = data.draw(st.lists(st.integers(0, max(len(a.terms) - 1, 0)), max_size=4)) \
        if a.terms else []
    scale = data.draw(st.sampled_from([-1, -1, 1, 2]))
    b = build(data.draw(st.lists(_RAW_TERM, max_size=4))) + Expression(
        t, tuple(a.terms[i] for i in sorted(set(picks)))) * scale
    c = build(data.draw(st.lists(_RAW_TERM, max_size=4)))

    assert _terms(a + b) == _terms(normalize(t, _raw_of(a) + _raw_of(b)))
    assert _terms(a - b) == _terms(normalize(t, _raw_of(a) + _raw_of(-b)))
    assert _terms(a - a) == []
    pieces = [a, b, -a, c, b]
    oracle = normalize(t, [r for p in pieces for r in _raw_of(p)])
    assert _terms(Expression.sum(t, pieces)) == _terms(oracle)


def test_accumulation_never_renormalizes(particle_theory, monkeypatch):
    t = particle_theory
    x, p = t.symbol("x_1"), t.symbol("p_1")
    monomials = [Expression.symbol(t, x, i) * Expression.symbol(t, p, j) * (i - j)
                 for i in range(1, 41) for j in range(30) if i != j]
    monomials += [Expression.symbol(t, t.jet("x_2", k)) for k in range(1, 1201 - len(monomials))]
    assert len(monomials) == 1200
    calls = []
    real = expression._normalize_term
    monkeypatch.setattr(expression, "_normalize_term",
                        lambda *args: calls.append(1) or real(*args))
    one_at_a_time = Expression.zero(t)
    for m in monomials:
        one_at_a_time = one_at_a_time + m
    summed = Expression.sum(t, monomials)
    assert len(calls) == 0
    monkeypatch.undo()
    assert _terms(one_at_a_time) == _terms(summed) == \
        _terms(normalize(t, [r for m in monomials for r in _raw_of(m)]))
    assert len(summed.terms) == 1200


def test_sum_contract(particle_theory, E):
    t = particle_theory
    empty = Expression.sum(t, [])
    assert empty.theory is t and empty.is_structural_zero()
    assert Expression.sum(t, iter([E("x_1"), 2, Fraction(1, 2), -E("x_1")])) \
        == Expression.const(t, Fraction(5, 2))
    other = Theory("other")
    other.add_field("x_1", 0, 0)
    with pytest.raises(TheoryError, match="mixed theory contexts"):
        Expression.sum(t, [E("x_1"), Expression.of(other, "x_1")])
