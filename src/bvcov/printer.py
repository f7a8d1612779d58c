"""Deterministic canonical rendering.

The output is the package's only serialization: golden files diff it
byte-for-byte and the parser reads it back (print -> parse -> print is
the identity on canonical forms).
"""

from __future__ import annotations

from .coefficients import PowerAtom
from .expression import split_powers


def render_symbol(sym, power: int = 1) -> str:
    if sym.jet_order == 0:
        s = sym.name
    elif sym.jet_order == 1:
        s = f"d({sym.name})"
    else:
        s = f"d^{sym.jet_order}({sym.name})"
    if power != 1:
        s += f"^{power}"
    return s


def render_atom(atom, power: int = 1) -> str:
    if isinstance(atom, PowerAtom) and atom.exponent.is_constant \
            and atom.exponent.constant_value() == -1:
        s = f"inv({atom.base_key})"
    else:
        s = str(atom)
    return s if power == 1 else f"{s}^{power}"


def _render_term_body(term) -> str:
    parts = [render_atom(a, e) for a, e in term.atoms]
    parts += [render_symbol(s, e) for s, e in term.mono]
    return "*".join(parts)


def render(expr) -> str:
    if not expr.terms:
        return "0"
    chunks: list[str] = []
    for i, t in enumerate(expr.terms):
        body = _render_term_body(t)
        coef = t.coef
        neg = coef < 0
        mag = -coef if neg else coef
        if body:
            cs = "" if mag == 1 else f"{mag}*"
            piece = cs + body
        else:
            piece = str(mag)
        if i == 0:
            chunks.append(("-" if neg else "") + piece)
        else:
            chunks.append(("- " if neg else "+ ") + piece)
    return " ".join(chunks)


def render_by_u(expr) -> str:
    """An element of B[[u]] u-power by u-power, each coefficient split by
    eps: body + (eps part)*eps.  For display only; the parser reads the
    fused form that `render` prints."""
    if not expr.terms:
        return "0"
    theory = expr.theory
    parts = []
    for n, coeff in sorted(split_powers(expr, theory.u).items()):
        split = split_powers(coeff, theory.epsilon)
        body, eps = split.get(0), split.get(1)
        if eps is None:
            c = render(body)
        elif body is None:
            c = f"({render(eps)})*eps"
        else:
            c = f"{render(body)} + ({render(eps)})*eps"
        parts.append(c if n == 0 else (f"u*({c})" if n == 1 else f"u^{n}*({c})"))
    return " + ".join(parts)
