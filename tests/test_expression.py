import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcov import expression
from bvcov.symbols import Kind, Theory, TheoryError, SymbolUnknownError
from bvcov.expression import (Expression, GradingError, inverse_of, is_zero,
                              iterated_total, log_of, normalize, odd_derivation,
                              partial_derivative, power_of, total_derivative,
                              jet_partial, substitute_param)
from bvcov.coefficients import AffineExponent, FuncAtom, LogAtom, PowerAtom
from bvcov.printer import render
from bvcov.thomwhitney import CoverNerve
from conftest import HomogeneousSampler, eps_parts, u_parts


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


def test_sign_degree_is_parity_plus_form_degree():
    """The Koszul degree stored at construction is (parity + form degree)
    mod 2 for every kind, parity and form degree, and for every symbol a
    theory registers."""
    from bvcov.symbols import GradedSymbol
    for kind in Kind:
        for parity in (0, 1):
            for form in (0, 1, 2):
                s = GradedSymbol("s", kind, 0, parity, form_degree=form)
                assert s.sign_degree == (parity + form) % 2
    t = Theory("kinds")
    t.add_field("x", 0, 0)
    t.add_field("c", 1, 1)
    t.add_flow_param("tau")
    t.add_one_form("dt")
    t.add_simplex_coordinate("t0")
    syms = [t.symbol(n) for n in ("x", "x+", "c", "c+", "tau", "dt", "t0")]
    syms += [t.jet("c", 2), t.jet("x+", 1), t.epsilon, t.u]
    assert {s.kind for s in syms} == set(Kind) - {Kind.FUNCTION}
    for s in syms:
        assert s.sign_degree == (s.parity + s.form_degree) % 2, s
    assert [s.sign_degree for s in syms] == [0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]


def test_unregistered_symbol_errors(particle_theory):
    with pytest.raises(SymbolUnknownError):
        Expression.of(particle_theory, "nope")


def test_field_pairs_are_kept_until_a_field_is_added(particle_theory):
    """`field_pairs` hands out one tuple, rebuilt only by `add_field`."""
    t = particle_theory
    pairs = t.field_pairs()
    assert t.field_pairs() is pairs
    assert [(f.name, a.name) for f, a in pairs] == \
        [(n, a) for n, a in (("x_1", "x+_1"), ("x_2", "x+_2"), ("p_1", "p+_1"),
                             ("p_2", "p+_2"), ("e", "e+"), ("c", "c+"))]
    assert all(a is t.symbol(a.name) for _, a in pairs)
    t.add_function("F", ["e"])
    assert t.field_pairs() is pairs
    z = t.add_field("z", 0, 0)
    assert t.field_pairs() == pairs + ((z, t.symbol("z+")),)


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
    assert partial_derivative(pw, tau) == log_of(e) * pw
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
    log, rational and parametric pow, inverse of a compound base; last, a
    rational pow and an inverse of single symbols, which fold into the
    monomial)."""
    t = Theory("oracle")
    t.add_field("q", 0, 0)
    t.add_field("r", 0, 0)
    t.add_field("th", 1, 1)
    t.add_function("F", ["q", "r"])
    tau = t.add_flow_param("tau")
    q, r = Expression.of(t, "q"), Expression.of(t, "r")
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",)), FuncAtom("F", ("q", "r"))]
    for e in (log_of(q + 1), power_of(q + 1, Fraction(1, 2)), inverse_of(q - r),
              power_of(q, AffineExponent(Fraction(-1), Fraction(1), tau)),
              power_of(q, Fraction(1, 2)), inverse_of(r)):
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


# -- products and derivatives built as canonical terms ------------------------
#
# The brute-force oracles below are the raw-term loops the engine used before
# it built products and derivatives directly as canonical terms: each writes
# the raw terms out and puts them through `normalize`.  They differentiate
# atoms by the chain rule written out (`_atom_derivative_bruteforce`), never
# by the engine's memoized gradients, so each chain rule is checked against
# code it does not share.  `normalize` takes its Koszul sign from the
# engine's own product, so these oracles cannot see a sign the product gets
# wrong; the signs are checked against the reference algebra, which shares
# no code with the engine (`test_reference_algebra.py`).


def _mul_bruteforce(a: Expression, b: Expression) -> Expression:
    return normalize(a.theory, [(t1.coef * t2.coef, t1.atoms + t2.atoms, t1.mono + t2.mono)
                                for t1 in a.terms for t2 in b.terms])


def _atom_derivative_bruteforce(theory, atom, s):
    """d(atom)/ds by the chain rule written out, without the engine's
    memoized atom gradients; None when the atom does not depend on s."""
    if isinstance(atom, FuncAtom):
        if s.kind == Kind.FIELD_JET and s.jet_order == 0 \
                and s.name in theory.function(atom.func).args:
            return normalize(theory, [(1, ((atom.differentiated(s.name), 1),), ())])
        return None
    base = expression.base_expression(theory, atom.base_key)
    dbase = _partial_bruteforce(base, s)
    if isinstance(atom, LogAtom):
        d = inverse_of(base) * dbase
    else:
        r = atom.exponent
        shifted = normalize(theory, [(1, ((PowerAtom(atom.base_key, r - 1), 1),), ())])
        lin = Expression.const(theory, r.offset)
        if r.param is not None and r.slope != 0:
            lin = lin + Expression.symbol(theory, r.param) * r.slope
        d = lin * shifted * dbase
        if r.param is s:
            # d/dtau pow(E, a*tau + b) = a * log(E) * pow(E, a*tau + b)
            d = d + normalize(theory, [(r.slope, ((LogAtom(atom.base_key), 1), (atom, 1)), ())])
    return None if d.is_structural_zero() else d


def _partial_bruteforce(expr: Expression, s) -> Expression:
    theory = expr.theory
    raw = []
    for t in expr.terms:
        prefix = 0
        for i, (sym, e) in enumerate(t.mono):
            if sym is s:
                if sym.sign_degree == 1:
                    sign = -1 if prefix % 2 else 1
                    raw.append((t.coef * sign, t.atoms, t.mono[:i] + t.mono[i + 1:]))
                else:
                    rest = t.mono[:i] + ((sym, e - 1),) + t.mono[i + 1:] if e > 1 \
                        else t.mono[:i] + t.mono[i + 1:]
                    raw.append((t.coef * e, t.atoms, rest))
                break
            prefix += sym.sign_degree * e
        if s.jet_order == 0 and t.atoms:
            for j, (a, e) in enumerate(t.atoms):
                da = _atom_derivative_bruteforce(theory, a, s)
                if da is None:
                    continue
                rest_atoms = t.atoms[:j] + ((a, e - 1),) + t.atoms[j + 1:]
                head = normalize(theory, [(t.coef * e, rest_atoms, t.mono)])
                raw += _raw_of(_mul_bruteforce(head, da))
    return normalize(theory, raw)


def _total_bruteforce(expr: Expression) -> Expression:
    theory = expr.theory
    raw = []
    for t in expr.terms:
        for i, (sym, e) in enumerate(t.mono):
            if sym.kind not in (Kind.FIELD_JET, Kind.ANTIFIELD_JET):
                continue
            bumped = theory.jet_bump(sym)
            if sym.sign_degree == 1:
                replaced = t.mono[:i] + ((bumped, 1),) + t.mono[i + 1:]
                raw.append((t.coef, t.atoms, replaced))
            else:
                lowered = (t.mono[:i] + ((sym, e - 1), (bumped, 1)) + t.mono[i + 1:]) if e > 1 \
                    else (t.mono[:i] + ((bumped, 1),) + t.mono[i + 1:])
                raw.append((t.coef * e, t.atoms, lowered))
        # D(atom) = sum over 0-jet fields and antifields s of d(atom)/ds * s_1
        for j, (a, e) in enumerate(t.atoms):
            rest_atoms = t.atoms[:j] + ((a, e - 1),) + t.atoms[j + 1:]
            head = normalize(theory, [(t.coef * e, rest_atoms, t.mono)])
            for pair in theory.field_pairs():
                for s in pair:
                    da = _atom_derivative_bruteforce(theory, a, s)
                    if da is not None:
                        bump = normalize(theory, [(1, (), ((theory.jet_bump(s), 1),))])
                        raw += _raw_of(_mul_bruteforce(_mul_bruteforce(head, da), bump))
    return normalize(theory, raw)


def _odd_derivation_bruteforce(expr: Expression, images: dict) -> Expression:
    """X(expr) for X(s) = images[s]: t = atoms * head * s^e * tail gives
    (-1)^|head| atoms * head * X(s) * e s^(e-1) * tail, and an atom A of t
    gives X(s) * dA/ds * (t with A lowered), atoms being even."""
    theory = expr.theory
    raw = []
    for t in expr.terms:
        prefix_sigma = 0
        for i, (sym, e) in enumerate(t.mono):
            img = images.get(sym)
            if img is not None:
                sign = -1 if prefix_sigma % 2 else 1
                head_mono = t.mono[:i]
                tail_mono = (((sym, e - 1),) if e > 1 else ()) + t.mono[i + 1:]
                head = normalize(theory, [(t.coef * e * sign, t.atoms, head_mono)])
                tail = normalize(theory, [(Fraction(1), (), tail_mono)])
                raw += _raw_of(_mul_bruteforce(_mul_bruteforce(head, img), tail))
            prefix_sigma += sym.sign_degree * e
        for j, (a, e) in enumerate(t.atoms):
            rest_atoms = t.atoms[:j] + ((a, e - 1),) + t.atoms[j + 1:]
            rest = normalize(theory, [(t.coef * e, rest_atoms, t.mono)])
            for s, img in images.items():
                da = _atom_derivative_bruteforce(theory, a, s)
                if da is not None:
                    raw += _raw_of(_mul_bruteforce(_mul_bruteforce(img, da), rest))
    return normalize(theory, raw)


def _odd_image(e: Expression, s) -> Expression:
    """An image odd relative to s drawn from e: the terms of e + e*th whose
    sign degree is |s| + 1."""
    pool = e + e * Expression.of(e.theory, "th")
    return Expression(e.theory, tuple(t for t in pool.terms
                                      if t.sign_degree() != s.sign_degree))


def _coefficient_of_bruteforce(expr: Expression, sym) -> Expression:
    raw = []
    for t in expr.terms:
        prefix = 0
        for i, (s, e) in enumerate(t.mono):
            if s is sym:
                sign = -1 if prefix % 2 else 1
                raw.append((t.coef * sign, t.atoms, t.mono[:i] + t.mono[i + 1:]))
                break
            prefix += s.sign_degree * e
    return normalize(expr.theory, raw)


_ALL_ATOMS_RAW_TERM = st.tuples(
    _ORACLE_COEFS,
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 2)), max_size=2),
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 2)), max_size=4))


def _builder(t, atoms, symbols):
    def build(raw):
        return normalize(t, [(c, tuple((atoms[i], e) for i, e in a),
                              tuple((symbols[i], e) for i, e in m)) for c, a, m in raw])
    return build


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_matches_normalize_oracle(data):
    """a * b agrees term by term, in order, with the brute-force
    normalization of the concatenated raw pair products: odd symbols that
    cross and square to zero, jets, repeated function and log atoms, pow
    atoms (single-symbol bases folding into the monomial)."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    a = build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=5)))
    b = build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=5)))
    assert _terms(a * b) == _terms(_mul_bruteforce(a, b))
    assert _terms(b * a) == _terms(_mul_bruteforce(b, a))
    assert _terms(a * a) == _terms(_mul_bruteforce(a, a))


def test_mul_pinned_cases():
    t, atoms, symbols = _oracle_pools()
    tau = symbols[-1]
    q, r, th, th1, qp = (Expression.of(t, n, j) for n, j in
                         (("q", 0), ("r", 0), ("th", 0), ("th", 1), ("q+", 0)))
    F, logq = Expression.func(t, "F"), log_of(q + 1)
    root_q, root_q1 = power_of(q, Fraction(1, 2)), power_of(q + 1, Fraction(1, 2))
    cases = [
        (th, th, []),                                   # odd square
        (th1 * qp, th, [th * th1 * qp]),                # th crosses two odd symbols
        (qp * th1, th * th1, []),
        (q * qp, th1 * r, [-(q * r * th1 * qp)]),         # one crossing
        (F * q, F * r, None), (logq * F, logq * logq, None),
        (root_q, root_q, [q]),                          # pow(q, 1/2)^2 folds into q
        (q * root_q, th, [power_of(q, Fraction(3, 2)) * th]),
        (root_q1, root_q1 * 2, [2 * q + 2]),            # compound base expands
        (inverse_of(r) * q, r * r, [q * r]),
        # colliding pow pairs: a shared compound base whose exponents sum to
        # 0, to an integer >= 1 (expands) and to a non-integer
        (root_q1 * th, power_of(q + 1, Fraction(-1, 2)), [th]),
        (power_of(q + 1, Fraction(3, 2)), root_q1 * r, [(q + 1) ** 2 * r]),
        (root_q1, power_of(q + 1, Fraction(1, 3)), [power_of(q + 1, Fraction(5, 6))]),
        # a single-symbol base meeting its own symbol in the other monomial
        (root_q, q * q * th1, [power_of(q, Fraction(5, 2)) * th1]),
        (power_of(q, AffineExponent(-1, 1, tau)), q, [power_of(q, AffineExponent(0, 1, tau))]),
        # collision-free pow pairs: distinct bases, no base meeting its symbol
        (root_q1 * inverse_of(r) * qp, root_q * th, None),
        (inverse_of(q - r) * logq, root_q1 * F * th1, None),
    ]
    for a, b, expected in cases:
        prod = a * b
        assert _terms(prod) == _terms(_mul_bruteforce(a, b))
        if expected is not None:
            assert prod == Expression.sum(t, expected)


def _merge(coef, t1, t2):
    """`_merge_pair` of two terms, t1's odd symbols counted here."""
    return expression._merge_pair(coef, t1, sum(s.sign_degree for s, _ in t1.mono), t2)


def test_unit_generator_products_match_bruteforce():
    """A unit generator times seeded expressions, as left and as right
    factor, agrees term by term, key and coefficient, with the bruteforce
    product: odd and even generators, jets and the flow parameter,
    generators already in the term (an odd one kills it), Fraction
    coefficients, function and log atoms; and pow atoms, among them
    single-symbol bases that fold with their own generator."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    rng = random.Random(29)
    present = killed = fractions = 0
    for _ in range(80):
        a = build([(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
                    [(rng.randrange(4), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))],
                    [(rng.randrange(len(symbols)), rng.randint(1, 2))
                     for _ in range(rng.randint(0, 4))])
                   for _ in range(rng.randint(1, 5))])
        if not a.terms:
            continue
        for s in symbols:
            g = Expression.symbol(t, s)
            left = g * a
            assert _terms(left) == _terms(_mul_bruteforce(g, a))
            assert _terms(a * g) == _terms(_mul_bruteforce(a, g))
            present += sum(s in dict(term.mono) for term in a.terms)
            killed += len(a.terms) - len(left.terms)
            fractions += sum(isinstance(term.coef, Fraction) for term in left.terms)
    # not vacuous: generators met themselves, odd ones killed terms, and
    # Fractions and atoms went through
    assert min(present, killed, fractions) > 50

    q, r, th = (Expression.of(t, n) for n in ("q", "r", "th"))
    root_q, q_3_2 = power_of(q, Fraction(1, 2)), power_of(q, Fraction(3, 2))
    for a, b, expected in ((root_q, q, q_3_2), (q, root_q, q_3_2),
                           (root_q + th, q, q_3_2 + q * th),
                           (q, root_q * q, power_of(q, Fraction(5, 2)))):
        assert _terms(a * b) == _terms(expected) == _terms(_mul_bruteforce(a, b))
    folded = 0
    for a in (root_q * q, root_q * th, inverse_of(r) * q,
              power_of(q, AffineExponent(Fraction(-1), Fraction(1), t.symbol("tau"))) + th,
              power_of(q + 1, Fraction(1, 2)) * r):
        for s in symbols:
            g = Expression.symbol(t, s)
            assert _terms(g * a) == _terms(_mul_bruteforce(g, a))
            assert _terms(a * g) == _terms(_mul_bruteforce(a, g))
            folded += sum(s not in dict(term.mono) for term in (g * a).terms)
    # q folds into pow(q, 3/2), pow(q, 1/2) * th and pow(q, tau - 1), and r
    # into inv(r)
    assert folded == 4


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derivatives_match_bruteforce_oracles(data):
    """partial_derivative (d/dtau included), total_derivative and
    odd_derivation agree term by term with the raw-term loops they replace;
    on an odd symbol, partial_derivative is its left coefficient."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    f = build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=5)))
    for s in symbols:
        assert _terms(partial_derivative(f, s)) == _terms(_partial_bruteforce(f, s)), s
    assert _terms(total_derivative(f)) == _terms(_total_bruteforce(f))
    for s in symbols:
        if s.sign_degree == 1:
            assert _terms(partial_derivative(f, s)) == \
                _terms(_coefficient_of_bruteforce(f, s)), s
    keys = data.draw(st.lists(st.sampled_from(symbols[:-1]), min_size=1, max_size=3,
                              unique=True))
    images = {s: _odd_image(build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=3))), s)
              for s in keys}
    assert _terms(odd_derivation(f, images)) == \
        _terms(_odd_derivation_bruteforce(f, images))


def _total_by_gradient(expr: Expression) -> Expression:
    """D as the sum over jets s of s_{+1} * (d expr/ds): the graded
    gradient, then one product per jet; the total derivative's former
    path."""
    theory = expr.theory
    out = []
    for s, ds in expression._gradient(expr, expression._is_jet).items():
        bump = Expression.symbol(theory, theory.jet_bump(s))
        out += expression._product(theory, bump.terms, ds.terms)
    return Expression(theory, expression._merge_runs(out))


def _simplex_pools():
    """A simplex theory of a one-chart nerve, with t_1, dt_1, t_2 and dt_2,
    over even q and r, odd th and b (ghost -1, so b+ is even, ghost 0), a
    function symbol and a flow parameter; pools of its jets of orders 0-3,
    structural and simplex generators, and atoms: function descendants,
    log, pow(q, 1/2) and pow(b+, a*tau + b)."""
    chart = Theory("chart")
    chart.add_field("q", 0, 0)
    chart.add_field("r", 0, 0)
    chart.add_field("th", 1, 1)
    chart.add_field("b", -1, 1)
    chart.add_function("F", ["q", "r"])
    chart.add_flow_param("tau")
    t = CoverNerve({"A": chart}).simplex_theory(("A",), 2)
    q, tau = Expression.of(t, "q"), t.symbol("tau")
    atoms = [FuncAtom("F"), FuncAtom("F", ("q",)), FuncAtom("F", ("q", "r"))]
    for e in (log_of(q + 1), power_of(q, Fraction(1, 2)),
              power_of(Expression.of(t, "b+"), AffineExponent(Fraction(1, 2), 2, tau))):
        (atom, _), = e.terms[0].atoms
        atoms.append(atom)
    jets = [t.symbol(n, k) for n in ("q", "r", "th", "b", "q+", "th+", "b+")
            for k in range(4)]
    others = [tau, t.u, t.epsilon] + [t.symbol(n) for n in ("t_1", "dt_1", "t_2", "dt_2")]
    return t, atoms, jets, others


def test_total_derivative_in_place_matches_the_gradient_path():
    """D writes each raised jet in its slot and inserts s_{+1} into the
    atoms' share, and agrees term by term, key and coefficient, with the
    gradient-and-product path and with the bruteforce loop: odd and even
    jets of orders 0-3, s_k beside s_{k+1}, exponents up to 3, function atoms
    at exponents above 1, log and pow atoms, Fraction coefficients, u, eps,
    tau and the simplex generators."""
    t, atoms, jets, others = _simplex_pools()
    symbols = jets + others
    rng = random.Random(28)
    neighbours = raised_atoms = 0
    for _ in range(80):
        raw = []
        for _ in range(rng.randint(1, 4)):
            mono = [(rng.choice(symbols), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                s = rng.choice([s for s in jets if s.jet_order < 3])
                mono += [(s, rng.randint(1, 3)), (t.jet_bump(s), rng.randint(1, 3))]
            raw.append((rng.choice([1, -1, 3, Fraction(1, 2), Fraction(-2, 3)]),
                        tuple((rng.choice(atoms), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 2))),
                        tuple(mono)))
        f = normalize(t, raw)
        got = total_derivative(f)
        assert _terms(got) == _terms(_total_by_gradient(f))
        assert _terms(got) == _terms(_total_bruteforce(f))
        neighbours += sum(any(b is t.jet_bump(s) for (s, _), (b, _) in zip(term.mono, term.mono[1:])
                              if expression._is_jet(s))
                          for term in f.terms)
        raised_atoms += sum(e > 1 for term in f.terms for _, e in term.atoms)
    # not vacuous: s_k met s_{k+1}, and atoms stood at exponents above 1
    assert neighbours > 20 and raised_atoms > 20


def test_total_derivative_takes_no_gradient_and_no_product(monkeypatch):
    """On an atom-free input D lowers no gradient and takes no product: each
    jet is rewritten in its slot."""
    t, _, jets, others = _simplex_pools()
    rng = random.Random(5)
    f = normalize(t, [(rng.choice([1, -2, Fraction(1, 3)]), (),
                       tuple((rng.choice(jets + others), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 4))))
                      for _ in range(12)])
    assert len(f.terms) > 5
    calls = []
    for name in ("_gradient", "_product"):
        real = getattr(expression, name)
        monkeypatch.setattr(expression, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    got = total_derivative(f)
    monkeypatch.undo()
    assert calls == []
    assert got.terms and _terms(got) == _terms(_total_by_gradient(f))


def test_a_negative_jet_order_is_refused():
    """A jet of negative order is refused rather than built as a symbol."""
    t, _, _, _ = _simplex_pools()
    with pytest.raises(TheoryError, match="negative jet order -1 of q"):
        Expression.of(t, "q", -1)
    with pytest.raises(TheoryError, match="negative jet order"):
        t.jet("th+", -2)


def test_a_negative_total_derivative_order_is_refused():
    """D^0 is the identity, and D^k of negative k is refused rather than
    read as D^0."""
    t, _, _, _ = _simplex_pools()
    q = Expression.of(t, "q")
    assert iterated_total(q, 0) is q
    with pytest.raises(TheoryError, match="negative total-derivative order -1"):
        iterated_total(q, -1)


def test_odd_derivation_by_unit_images_matches_bruteforce():
    """Unit-generator images, as in the simplex differential t_i -> dt_i,
    agree term by term with the bruteforce derivation, on seeded
    expressions with odd and even keys, jets, tau, function atoms (whose
    chain-rule terms take the image too) and log and pow atoms (whose
    partials hold pow atoms)."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    rng = random.Random(26)
    q, r, th, tau = (t.symbol(n) for n in ("q", "r", "th", "tau"))
    # each image has sign degree |s| + 1
    images = {q: Expression.of(t, "th"), th: Expression.of(t, "r"),
              t.jet("q", 1): Expression.of(t, "th", 1), tau: Expression.of(t, "q+")}
    for n in range(120):
        # the first half has function atoms only, so no partial holds a pow atom
        pool = range(3) if n < 60 else range(len(atoms))
        f = build([(rng.choice([1, -2, Fraction(1, 3)]),
                    [(rng.choice(pool), rng.randint(1, 2)) for _ in range(rng.randint(0, 1))],
                    [(rng.randrange(len(symbols)), rng.randint(1, 2))
                     for _ in range(rng.randint(0, 4))]) for _ in range(rng.randint(1, 5))])
        assert _terms(odd_derivation(f, images)) == \
            _terms(_odd_derivation_bruteforce(f, images)), n


def test_flow_parameter_chain_rule_pinned():
    """d/dtau reaches a flow parameter in a pow exponent and in a log base
    alike: for P = pow(1 + q, tau - 1) and M = P * log(q + tau),
    dM/dtau = log(1 + q) * log(q + tau) * P + P * inv(q + tau)."""
    t, _, _ = _oracle_pools()
    q, tau = Expression.of(t, "q"), t.symbol("tau")
    T = Expression.symbol(t, tau)
    P = power_of(q + 1, AffineExponent(Fraction(-1), Fraction(1), tau))
    M = P * log_of(q + T)
    assert partial_derivative(M, tau) == \
        log_of(q + 1) * log_of(q + T) * P + P * inverse_of(q + T)
    assert partial_derivative(P, tau) == log_of(q + 1) * P
    assert partial_derivative(log_of(T + 1), tau) == inverse_of(T + 1)


def test_odd_derivation_chain_rule_pinned():
    """An odd derivation reaches function symbols through their arguments:
    X(q) = th sends F(q, r) to th * F_q."""
    t, _, _ = _oracle_pools()
    q, th = t.symbol("q"), Expression.of(t, "th")
    F = Expression.func(t, "F")
    assert odd_derivation(F, {q: th}) == th * Expression.func(t, "F", ["q"])
    assert odd_derivation(F * Expression.symbol(t, q), {q: th}) == \
        th * Expression.func(t, "F", ["q"]) * Expression.symbol(t, q) + th * F


def test_odd_derivation_rejects_images_of_wrong_degree():
    t, _, _ = _oracle_pools()
    q, th = t.symbol("q"), t.symbol("th")
    Q, TH = Expression.symbol(t, q), Expression.symbol(t, th)
    f = Q * TH
    for images in ({q: Q}, {th: TH}, {q: TH + Q}, {q: TH, th: TH}):
        with pytest.raises(TheoryError, match="not odd relative"):
            odd_derivation(f, images)
    # a zero image is the zero derivation on that key
    assert odd_derivation(f, {q: Expression.zero(t), th: Q}) == Q * Q
    assert odd_derivation(f, {q: Expression.zero(t)}).is_structural_zero()


def test_substitute_param_refuses_parameter_in_a_base():
    t, _, _ = _oracle_pools()
    tau = t.symbol("tau")
    T, q = Expression.symbol(t, tau), Expression.of(t, "q")
    with pytest.raises(TheoryError, match="inside the base"):
        substitute_param(log_of(T + 1), tau, 0)
    with pytest.raises(TheoryError, match="inside the base"):
        substitute_param(power_of(q + T, Fraction(1, 2)), tau, 0)
    P = power_of(q + 1, AffineExponent(Fraction(-1), Fraction(1), tau))
    assert substitute_param(P * T, tau, 2) == 2 * (q + 1)


def test_atom_gradients_match_chain_rule():
    """Each memoized atom gradient holds exactly the nonzero derivatives the
    chain rule gives, for every symbol of the pool; also for bases holding a
    function symbol, which depend on its arguments."""
    t, atoms, symbols = _oracle_pools()
    F, q = Expression.func(t, "F"), Expression.of(t, "q")
    for e in (log_of(F + 1), power_of(F * q + 2, Fraction(1, 3))):
        (atom, _), = e.terms[0].atoms
        atoms.append(atom)
    for a in atoms:
        grad = expression._atom_gradient(t, a)
        for s in symbols:
            want = _atom_derivative_bruteforce(t, a, s)
            assert (s in grad) == (want is not None), (a, s)
            if want is not None:
                assert _terms(grad[s]) == _terms(want), (a, s)
        assert expression._atom_gradient(t, a) is grad


def test_total_derivative_bump_meets_next_jet():
    t, _, _ = _oracle_pools()
    E = lambda n, j=0: Expression.of(t, n, j)  # noqa: E731
    F = Expression.func(t, "F")
    cases = [
        # even: the bumped jet adds to the next jet already present
        (E("q") * E("q", 1), E("q", 1) * E("q", 1) + E("q") * E("q", 2)),
        (E("q") ** 2 * E("q", 1) ** 2 * F,
         2 * E("q") * E("q", 1) ** 3 * F + 2 * E("q") ** 2 * E("q", 1) * E("q", 2) * F
         + E("q") ** 2 * E("q", 1) ** 3 * Expression.func(t, "F", ["q"])
         + E("q") ** 2 * E("q", 1) ** 2 * E("r", 1) * Expression.func(t, "F", ["r"])),
        # odd: the bumped jet meets itself and the term vanishes
        (E("th") * E("th", 1), E("th") * E("th", 2)),
        (E("q+") * E("q+", 1) * E("th+"),
         E("q+") * E("q+", 2) * E("th+") + E("q+") * E("q+", 1) * E("th+", 1)),
    ]
    for f, expected in cases:
        d = total_derivative(f)
        assert _terms(d) == _terms(_total_bruteforce(f))
        assert d == expected


def test_products_and_derivatives_never_renormalize(monkeypatch):
    """Products whose pow atoms do not collide (pow-free ones among them)
    and the derivatives built from canonical terms (partial derivatives,
    d/dtau among them, left coefficients of odd symbols, odd derivations and
    total derivatives) make no `_normalize_term` call."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    rng = random.Random(7)

    def sample(atom_pool, symbol_pool=range(len(symbols))):
        return build([(rng.choice([1, -1, 2, Fraction(1, 3)]),
                       [(rng.choice(atom_pool), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 2))],
                       [(rng.choice(symbol_pool), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 4))])
                      for _ in range(rng.randint(1, 5))])

    func_only = [0, 1, 2]            # function descendants
    pow_free = func_only + [3]       # and log(q + 1)
    factors = [sample(pow_free) for _ in range(60)]
    fs = [sample(func_only) for _ in range(60)]
    # pow factors whose pairs never collide: the left ones hold pow(q + 1,
    # 1/2), the right ones inv(q - r) and inv(r), and no monomial holds r
    no_r = [i for i, s in enumerate(symbols) if s is not t.symbol("r")]
    pow_left = [sample(pow_free + [4], no_r) for _ in range(40)]
    pow_right = [sample(pow_free + [5, 8], no_r) for _ in range(40)]
    odd = [s for s in symbols if s.sign_degree == 1]
    images = {s: _odd_image(f, s) for s, f in zip((odd[0], symbols[0], odd[-1]), fs)}
    # total derivatives of terms whose chain-rule products never collide
    # (no log(q + 1) next to pow(q + 1, 1/2)), once the memoized atom
    # gradients, whose pow shifts are normalized, are built
    no_collision = fs + factors + pow_right
    for a in {a for f in no_collision for term in f.terms for a, _ in term.atoms}:
        expression._atom_gradient(t, a)
    calls = []
    real = expression._normalize_term
    monkeypatch.setattr(expression, "_normalize_term",
                        lambda *args: calls.append(1) or real(*args))
    products = [a * b for a, b in zip(factors, factors[1:])]
    pow_products = [a * b for a, b in zip(pow_left, pow_right)] + \
        [b * a for a, b in zip(pow_left, pow_right)]
    partials = [partial_derivative(f, s) for f in fs for s in symbols]
    derivations = [odd_derivation(f, images) for f in fs]
    coefficients = [partial_derivative(f, s) for f in fs for s in odd]
    totals = [total_derivative(f) for f in no_collision]
    assert len(calls) == 0
    monkeypatch.undo()
    # not vacuous: every operation produced terms, the pow products pow atoms
    for results in (products, pow_products, partials, derivations, coefficients, totals):
        assert sum(len(r.terms) for r in results) > 20
    assert sum(isinstance(a, PowerAtom) for p in pow_products for term in p.terms
               for a, _ in term.atoms) > 20
    assert [_terms(p) for p in products] == \
        [_terms(_mul_bruteforce(a, b)) for a, b in zip(factors, factors[1:])]
    assert [_terms(p) for p in pow_products] == \
        [_terms(_mul_bruteforce(a, b)) for a, b in zip(pow_left, pow_right)] + \
        [_terms(_mul_bruteforce(b, a)) for a, b in zip(pow_left, pow_right)]
    assert [_terms(d) for d in partials] == \
        [_terms(_partial_bruteforce(f, s)) for f in fs for s in symbols]
    assert [_terms(d) for d in derivations] == \
        [_terms(_odd_derivation_bruteforce(f, images)) for f in fs]
    assert [_terms(d) for d in coefficients] == \
        [_terms(_coefficient_of_bruteforce(f, s)) for f in fs for s in odd]
    assert [_terms(d) for d in totals] == [_terms(_total_bruteforce(f)) for f in no_collision]


# -- the bracket's multiply-accumulate -----------------------------------------
#
# The oracle is the per-product path the accumulator replaces in the Soloviev
# kernel: the canonical sum of the signed `_product`s of its jobs.


def _signed_products(t, jobs) -> Expression:
    return Expression.sum(t, (Expression(t, expression._product(t, a, b)) * sign
                              for a, b, sign in jobs))


def _accumulated(t, jobs) -> Expression:
    """The accumulator's sum of the jobs, checked term by term, key and
    coefficient, against the sum of the signed products."""
    got = Expression(t, expression._multiply_accumulate(t, jobs))
    assert _terms(got) == _terms(_signed_products(t, jobs))
    return got


def _kernel_jobs(monkeypatch) -> list:
    """Record the (theory, jobs) of every call the Soloviev kernel makes to
    the accumulator."""
    from bvcov import varcalc
    seen = []
    real = expression._multiply_accumulate

    def record(theory, jobs):
        seen.append((theory, jobs))
        return real(theory, jobs)
    monkeypatch.setattr(varcalc, "_multiply_accumulate", record)
    return seen


def _pow_collision(t, t1, t2) -> bool:
    """The pairwise oracle of `expression._collides`: whether two canonical
    terms share a pow base, or a single-symbol pow base of one meets its own
    symbol in the other's monomial, so that their product needs
    `_normalize_term`."""
    def pows(term):
        bases = [a.base_key for a, _ in term.atoms if isinstance(a, PowerAtom)]
        return bases, [s for s in (expression._single_symbol_base(t, b) for b in bases)
                       if s is not None]

    def meets(symbols, mono):
        return any(x is s for x, _ in mono for s in symbols)
    (bases1, singles1), (bases2, singles2) = pows(t1), pows(t2)
    return any(b in bases2 for b in bases1) or meets(singles1, t2.mono) or \
        meets(singles2, t1.mono)


def _pair_kinds(t, jobs):
    """Counter of the jobs' term pairs: "odd" when they share an odd symbol
    (the product vanishes), "pow" when their pow atoms collide, else
    "plain"."""
    kinds = Counter()
    for a, b, _ in jobs:
        for t1 in a:
            for t2 in b:
                if _merge(1, t1, t2) is None:
                    kinds["odd"] += 1
                elif _pow_collision(t, t1, t2):
                    kinds["pow"] += 1
                else:
                    kinds["plain"] += 1
    return kinds


def _kernel_merges(monkeypatch) -> list:
    """Record each `_merge_pair` call that the accumulator makes itself,
    not those of the products that `_normalize_term` multiplies out."""
    real = expression._merge_pair
    calls = []

    def merge_pair(*args):
        if sys._getframe(1).f_code.co_name == "_multiply_accumulate":
            calls.append(args)
        return real(*args)
    monkeypatch.setattr(expression, "_merge_pair", merge_pair)
    return calls


def _merged_monomials(t, jobs) -> list:
    """The keys of the merged (not yet folded) pair products of the jobs
    whose signed coefficients do not cancel."""
    sums = {}
    for a, b, sign in jobs:
        for t1 in a:
            for t2 in b:
                p = _merge(sign * t1.coef * t2.coef, t1, t2)
                if p is not None:
                    sums[p.key] = sums.get(p.key, 0) + p.coef
    return [k for k, c in sums.items() if c]


def test_multiply_accumulate_matches_signed_products(monkeypatch):
    """Seeded jobs over the oracle pools (odd symbols on both sides, jets,
    function, log and pow atoms whose pairs collide or not, Fraction
    coefficients), each call holding a job and its negative, whose pieces
    cancel: the accumulator agrees term by term with the signed products,
    and merges each monomial whose pairs do not cancel once, colliding pow
    pairs included."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    rng = random.Random(23)

    def sample():
        return build([(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
                       [(rng.randrange(len(atoms)), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 2))],
                       [(rng.randrange(len(symbols)), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 4))])
                      for _ in range(rng.randint(1, 5))])

    kinds = Counter()
    fractions = 0
    merges = _kernel_merges(monkeypatch)
    for _ in range(60):
        pool = [sample() for _ in range(4)]
        jobs = [(rng.choice(pool).terms, rng.choice(pool).terms, rng.choice([1, -1]))
                for _ in range(5)]
        a, b, sign = jobs[0]
        jobs.append((a, b, -sign))
        kinds += _pair_kinds(t, jobs)
        del merges[:]
        fractions += sum(isinstance(term.coef, Fraction) for term in _accumulated(t, jobs).terms)
        assert len(merges) == len(_merged_monomials(t, jobs))
        assert _accumulated(t, jobs[:1] + jobs[-1:]).is_structural_zero()
    # not vacuous: every kind of pair occurs, and Fractions survive
    assert min(kinds["odd"], kinds["pow"], kinds["plain"], fractions) > 50


def _pinned_accumulate_cases(t) -> list:
    """(jobs as expressions, expected sum) over the oracle pools' theory."""
    q, r, th, th1, qp, thp = (Expression.of(t, n, j) for n, j in
                              (("q", 0), ("r", 0), ("th", 0), ("th", 1), ("q+", 0), ("th+", 0)))
    F, logq = Expression.func(t, "F"), log_of(q + 1)
    root_q, root_q1 = power_of(q, Fraction(1, 2)), power_of(q + 1, Fraction(1, 2))
    return [
        # odd symbols on both sides: one crossing, two crossings, a square
        ([(q * qp, th1 * r, 1)], -(q * r * th1 * qp)),
        ([(th1 * qp, th * thp, 1)], th * th1 * qp * thp),
        ([(th * qp, th + r, 1)], th * qp * r),
        # odd factors anticommute: x y + y x cancels, even ones add
        ([(th1, qp, 1), (qp, th1, 1)], 0),
        ([(th1, thp, 1), (thp, th1, 1)], 2 * th1 * thp),
        # equal monomials from different pairs add, Fractions included
        ([(q * F, r * th, Fraction(1, 2)), (q * r, F * th, 1), (F * th, q * r, -3)],
         Fraction(-3, 2) * q * r * F * th),
        ([(logq * logq, F, 1), (logq, logq * F, -1)], 0),
        # colliding pow pairs: a shared base, and pow(q, 1/2) meeting q
        ([(root_q1 * th, power_of(q + 1, Fraction(-1, 2)), 1)], th),
        ([(root_q, root_q * qp, 1), (q, qp, -1)], 0),
        ([(root_q, q * th1, 2)], 2 * power_of(q, Fraction(3, 2)) * th1),
        # a colliding pair meeting a plain pair on the same monomial
        ([(root_q, root_q * th, 1), (q, th, 1)], 2 * q * th),
        # pow atoms that do not collide
        ([(root_q1 * inverse_of(r), root_q * th, 1)], root_q1 * inverse_of(r) * root_q * th),
    ]


def test_multiply_accumulate_pinned_cases():
    t, _, _ = _oracle_pools()
    for jobs, expected in _pinned_accumulate_cases(t):
        jobs = [(a.terms, b.terms, s) for a, b, s in jobs]
        assert _accumulated(t, jobs) == Expression.sum(t, [expected])


def test_collides_matches_the_pairwise_oracle():
    """`_collides` on the merged product of two canonical terms agrees with
    the pairwise oracle for every pair that `_merge_pair` does not kill:
    seeded terms over the oracle pools (every atom, odd symbols, jets) and
    the pinned accumulator cases."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    rng = random.Random(33)
    pairs = [(a.terms, b.terms) for jobs, _ in _pinned_accumulate_cases(t) for a, b, _ in jobs]
    for _ in range(600):
        a, b = (build([(1, [(rng.randrange(len(atoms)), rng.randint(1, 2))
                            for _ in range(rng.randint(0, 3))],
                        [(rng.randrange(len(symbols)), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3))])]) for _ in range(2))
        pairs.append((a.terms, b.terms))
    kinds = Counter()
    for a, b in pairs:
        for t1 in a:
            for t2 in b:
                merged = _merge(1, t1, t2)
                if merged is not None:
                    collides = expression._collides(t, merged)
                    assert collides == _pow_collision(t, t1, t2), (t1.key, t2.key)
                    kinds[collides] += 1
    assert kinds[True] > 50 and kinds[False] > 50, kinds


def test_multiply_accumulate_sizes_its_fields_per_call(monkeypatch):
    """An operand with a huge even exponent: the fields grow with it, so no
    exponent carries into its neighbour and nothing is refused, in the
    accumulator and in the bracket that calls it."""
    from bvcov.varcalc import soloviev
    t, _, _ = _oracle_pools()
    q, r, th, qp = (Expression.of(t, n) for n in ("q", "r", "th", "q+"))

    def power(name, n):
        return Expression.symbol(t, t.symbol(name), n)
    huge = power("q", 70000) * qp
    other = power("q", 70000) * r * r * th + power("r", 69999) * q
    # the monomials that q^140000 r^2 would become if its q field, w bits
    # wide, carried into r's
    near = Expression.sum(t, (power("q", 140000 % 2 ** w) * power("r", 2 + (140000 >> w))
                              for w in range(8, 18)))
    # the r^69999 pairs cancel, the q^140000 ones add
    got = _accumulated(t, [(huge.terms, other.terms, 1), (other.terms, huge.terms, -1),
                           (r.terms, huge.terms, 3), (near.terms, (th * qp).terms, 1)])
    assert got == (near - 2 * power("q", 140000) * r * r) * th * qp + 3 * r * huge
    seen = _kernel_jobs(monkeypatch)
    bracket = soloviev(huge + th, power("q", 70000) * r)
    assert len(seen) == 1 and _terms(bracket) == _terms(_signed_products(*seen[0]))
    assert max(e for term in bracket.terms for _, e in term.mono) == 139999


def _twisted_curved_particle(monkeypatch, dim):
    """The twisted series T1 of `spinning_pipeline` on the curved spinning
    particle: the pipeline is stopped at its twist."""
    from bvcov import models

    class Twisted(Exception):
        pass

    def twist(S, W):
        raise Twisted(real(S, W))
    real = models.twist
    monkeypatch.setattr(models, "twist", twist)
    with pytest.raises(Twisted) as caught:
        models.spinning_pipeline(models.curved_spinning_particle(dim))
    monkeypatch.undo()
    return caught.value.args[0]


def test_bracket_traffic_accumulates_as_products(monkeypatch):
    """u_bracket(S, S) on the twisted series of the curved spinning
    particle: every call of the kernel agrees term by term with the signed
    products of its jobs."""
    from bvcov.curved import u_bracket
    T = _twisted_curved_particle(monkeypatch, 2)
    seen = _kernel_jobs(monkeypatch)
    u_bracket(T, T)
    assert len(seen) == 1
    theory, jobs = seen[0]
    assert _pair_kinds(theory, jobs)["plain"] > 10000
    assert any(term.atoms for a, _, _ in jobs for term in a)
    _accumulated(theory, jobs)


def test_bracket_builds_one_term_per_surviving_monomial(monkeypatch):
    """In u_bracket(S, S) on the curved spinning particle's series, the
    accumulator calls `_merge_pair` once per merged monomial whose pairs do
    not cancel, not once per pair."""
    from bvcov.curved import u_bracket
    from bvcov.models import curved_spinning_particle
    S = curved_spinning_particle(1).series
    seen = _kernel_jobs(monkeypatch)
    merges = _kernel_merges(monkeypatch)
    u_bracket(S, S)
    (theory, jobs), = seen
    kinds = _pair_kinds(theory, jobs)
    assert 0 < len(merges) == len(_merged_monomials(theory, jobs)) < kinds["plain"]




# -- canonical coefficients ---------------------------------------------------


def _is_canonical_rational(q) -> bool:
    """An int when integral, else a Fraction with a denominator other than 1
    (`_terms` comparisons cannot see this: Fraction(3) == 3)."""
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def _assert_canonical(e: Expression):
    for t in e.terms:
        assert _is_canonical_rational(t.coef), (t.coef, render(e))
        for a, _ in t.atoms:
            if isinstance(a, PowerAtom):
                assert _is_canonical_rational(a.exponent.offset), a
                assert _is_canonical_rational(a.exponent.slope), a


def test_canonical_coefficients_pinned():
    """Products, sums, negation and scalar multiples whose exact value turns
    integral store an int, and rationals that stay fractional keep their
    Fraction."""
    t, atoms, symbols = _oracle_pools()
    q, th = Expression.of(t, "q"), Expression.of(t, "th")
    half = Expression.const(t, Fraction(1, 2))
    results = [half * 2, half * half * 4, half + half, q * Fraction(1, 2) * 2,
               (q * Fraction(3, 2)) * (q * Fraction(2, 3)), q * Fraction(4, 2),
               Expression.sum(t, [q * Fraction(1, 3)] * 3), -(th * Fraction(5, 5)),
               Expression.const(t, Fraction(6, 3)) * th, half * th * Fraction(2, 3),
               power_of(q + 1, Fraction(4, 2)), power_of(q + 1, AffineExponent(
                   Fraction(1, 2), Fraction(2, 2), symbols[-1]))]
    for e in results:
        _assert_canonical(e)
    assert [type(e.terms[0].coef) for e in results[:4]] == [int] * 4
    assert type((half * th * Fraction(2, 3)).terms[0].coef) is Fraction
    assert type(Expression.const(t, Fraction(6, 3)).constant_part()) is int
    with pytest.raises(TypeError, match="not an exact rational"):
        Expression.const(t, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coefficients_stay_canonical(data):
    """No Term.coef and no pow exponent offset or slope is a float, a bool or
    a Fraction with denominator 1, across normalize, sums, products,
    derivatives, flow-parameter substitution and scalar multiples."""
    t, atoms, symbols = _oracle_pools()
    build = _builder(t, atoms, symbols)
    tau = symbols[-1]
    a = build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=5)))
    b = build(data.draw(st.lists(_ALL_ATOMS_RAW_TERM, max_size=5)))
    scalar = data.draw(st.sampled_from([2, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2)]))
    results = [a, b, a + b, a - b, -a, a * b, b * a, a * a, a * scalar, scalar * b,
               Expression.sum(t, [a, b, a * scalar]), total_derivative(a),
               substitute_param(a, tau, Fraction(1, 2)), substitute_param(a, tau, 2)]
    results += [partial_derivative(a * b, s) for s in symbols]
    results += [partial_derivative(a, s) for s in symbols if s.sign_degree == 1]
    odd = [s for s in symbols[:-1] if s.sign_degree == 1]
    results.append(odd_derivation(a, {odd[0]: _odd_image(b, odd[0])}))
    for e in results:
        _assert_canonical(e)


def test_library_model_series_are_canonical():
    from bvcov.models import MODEL_BUILDERS, build_model
    for name in sorted(MODEL_BUILDERS):
        for dim in (1, 2, 3, 4):
            series = build_model(name, dim).series
            _assert_canonical(series)
            for c in u_parts(series).values():
                for part in (c, *eps_parts(c)):
                    _assert_canonical(part)
