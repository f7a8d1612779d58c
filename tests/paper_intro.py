"""The formulas of the paper's introduction, the reference values of the
acceptance criteria: the flat-particle action and its supersymmetric
(spinning) extension, the flows phi, psi and their composite xi, and the
composite worldline fields.  Each formula is written once, with `spinning`
adding the psi, chi and gamma terms to the particle's."""

from fractions import Fraction

from bvcov.curved import CanonicalSubstitution, flow_substitution
from bvcov.expression import (Expression, inverse_of, log_of, substitute_param,
                              total_derivative)
from bvcov.models import _diag_eta
from bvcov.symbols import Theory, product_theory

HALF = Fraction(1, 2)


def intro_action(t: Theory, n: int, eta=None, spinning: bool = False):
    """(S, S0, D) with S = S0 + c D for the flat particle; the spinning
    particle adds the psi and chi terms to S0 and D and the gamma and
    gamma^2 blocks to S."""
    eta = _diag_eta(n, eta)
    d = total_derivative
    rng = range(1, n + 1)

    def E(name, jet=0):
        return Expression.of(t, name, jet)

    def over(f):
        return Expression.sum(t, (f(k) for k in rng))

    S0 = over(lambda k: E(f"p_{k}") * d(E(f"x_{k}"))) \
        - HALF * E("e") * over(lambda k: 1 / eta[k - 1] * E(f"p_{k}") ** 2)
    D = over(lambda k: E(f"x+_{k}") * d(E(f"x_{k}")) + E(f"p+_{k}") * d(E(f"p_{k}"))) \
        - E("e") * d(E("e+")) + E("c+") * d(E("c"))
    if not spinning:
        return S0 + E("c") * D, S0, D
    S0 = S0 + over(lambda k: HALF * eta[k - 1] * E(f"psi_{k}") * d(E(f"psi_{k}"))
                   + E("chi") * E(f"p_{k}") * E(f"psi_{k}"))
    D = D + over(lambda k: E(f"psi+_{k}") * d(E(f"psi_{k}"))) \
        - E("chi") * d(E("chi+")) + E("gamma+") * d(E("gamma"))
    S = S0 + E("c") * D \
        - E("gamma") * (d(E("chi+"))
                        - over(lambda k: 1 / eta[k - 1] * E(f"p_{k}") * E(f"psi+_{k}"))
                        + over(lambda k: E(f"psi_{k}") * E(f"x+_{k}"))
                        + 2 * E("chi") * E("e+")) \
        + inverse_of(E("e")) * E("gamma") ** 2 * (
            E("c+")
            - over(lambda k: E(f"x+_{k}") * E(f"p+_{k}"))
            - HALF * over(lambda k: 1 / eta[k - 1] * E(f"psi+_{k}") ** 2)
            - E("chi") * E("gamma+"))
    return S, S0, D


def intro_transformations(t: Theory, n: int, eta=None, spinning: bool = False) -> dict:
    """The flows of the introduction at tau = 1: phi (nilpotent), psi
    (exponential in log/pow atoms) and their composite xi with pullback
    xi* = psi* phi*."""
    eta = _diag_eta(n, eta)
    tau = t.symbol("tau") if t.has_name("tau") else t.add_flow_param("tau")
    c = Expression.of(t, "c")
    pieces = [c * Expression.of(t, f"x+_{m}") * Expression.of(t, f"p+_{m}")
              for m in range(1, n + 1)]
    if spinning:
        pieces += [HALF / eta[a - 1] * c
                   * Expression.of(t, f"psi+_{a}") * Expression.of(t, f"psi+_{a}")
                   for a in range(1, n + 1)]
        pieces.append(c * Expression.of(t, "chi") * Expression.of(t, "gamma+"))
    out = {"tau": tau, "phi_generator": Expression.sum(t, pieces),
           "psi_generator": log_of(Expression.of(t, "e")) * Expression.of(t, "c+") * c}
    for name in ("phi", "psi"):
        flow = flow_substitution(t, out[f"{name}_generator"], tau)
        out[f"{name}_flow"] = flow
        out[name] = CanonicalSubstitution(
            t, {g: substitute_param(v, tau, 1) for g, v in flow.images.items()})
    out["xi"] = _after(out["psi"], out["phi"])
    return out


def _after(second: CanonicalSubstitution, first: CanonicalSubstitution) -> CanonicalSubstitution:
    """second o first: apply first, then second."""
    t = second.theory
    gens = set(first.images) | set(second.images)
    for fld, anti in t.field_pairs():
        gens.update((fld, t.symbol(anti.name)))
    return CanonicalSubstitution(first.theory, {g: second.apply(first.image(g)) for g in gens},
                                 second.target)


def _with_worldline_form(theory: Theory) -> Theory:
    """The theory extended by the worldline one-form dt (ghost 1)."""
    t = product_theory(theory.name + "+dt", theory)
    if not t.has_name("dt"):
        t.add_one_form("dt", ghost=1)
    return t


def composite_form(t: Theory, n: int, eta, spinning: bool = False) -> Expression:
    """p.dx + c.db + (1/2) eta c p p in the composite worldline fields
    x + dt p+, p - dt x+, c - dt e, e+ + dt c+ (dt^2 = 0); the spinning
    extension adds -1/2 eta psi dpsi, gamma dbeta, gamma p psi and
    b gamma^2 in psi - dt psi+/eta, -gamma + dt chi and chi+ + dt gamma+."""
    dt = Expression.symbol(t, t.symbol("dt"))
    rng = range(1, n + 1)

    def E(name):
        return Expression.of(t, name)

    def dw(f: Expression) -> Expression:
        return dt * total_derivative(f)

    X = {m: E(f"x_{m}") + dt * E(f"p+_{m}") for m in rng}
    P = {m: E(f"p_{m}") - dt * E(f"x+_{m}") for m in rng}
    C = E("c") - dt * E("e")
    B = E("e+") + dt * E("c+")
    pieces = [P[m] * dw(X[m]) for m in rng] + [C * dw(B)] \
        + [HALF / eta[m - 1] * C * P[m] * P[m] for m in rng]
    if spinning:
        # psi-composite sign follows the intro convention (psi -> -psi
        # relative to the curved-frame section, which flips the dt term)
        PSI = {m: E(f"psi_{m}") - dt * (1 / eta[m - 1]) * E(f"psi+_{m}") for m in rng}
        GAMMA = -E("gamma") + dt * E("chi")
        BETA = E("chi+") + dt * E("gamma+")
        pieces += [-HALF * eta[m - 1] * PSI[m] * dw(PSI[m]) for m in rng] \
            + [GAMMA * dw(BETA)] + [GAMMA * P[m] * PSI[m] for m in rng] \
            + [B * GAMMA * GAMMA]
    return Expression.sum(t, pieces)
