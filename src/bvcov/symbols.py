"""Graded generators and theory (chart) registries.

A theory owns an ordered set of base fields, their automatically paired
antifields, opaque function symbols, flow parameters and simplex form
generators.  Jet symbols d^k(x), d^k(x+) are created lazily.  The
registration order of base fields fixes the canonical monomial order, so
it is part of the external contract (golden files depend on it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional


class Kind(enum.IntEnum):
    """Generator kinds; the integer value is the rank used in monomial order."""

    FIELD_JET = 0
    ANTIFIELD_JET = 1
    FUNCTION = 2
    SIMPLEX_T = 3
    SIMPLEX_DT = 4
    FLOW_PARAM = 5
    U_PARAM = 6
    EPSILON = 7


EVEN = 0
ODD = 1


@dataclass(frozen=True, eq=False)
class GradedSymbol:
    """Atomic generator carrying ghost number, parity and form degree.

    Identity is by object; symbols are interned per theory, so `is`
    comparison is valid inside one theory context.
    """

    name: str
    kind: Kind
    ghost: int
    parity: int
    form_degree: int = 0
    jet_order: int = 0
    base: str = ""          # base field name for jet symbols
    # Koszul degree: parity + form degree mod 2, stored once at construction
    # (the sign loops read it on every factor).  Ghost number never enters
    # sign rules.
    sign_degree: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sign_degree", (self.parity + self.form_degree) % 2)

    def __repr__(self) -> str:
        return f"<{self.name}>"


def antifield_name(name: str) -> str:
    """x_1 -> x+_1, c -> c+ (the + goes before the index suffix)."""
    if "_" in name:
        stem, _, idx = name.partition("_")
        return f"{stem}+_{idx}"
    return name + "+"


class TheoryError(Exception):
    pass


class SymbolUnknownError(TheoryError):
    pass


@dataclass(frozen=True)
class FunctionDecl:
    """Opaque function symbol F(args); args are even ghost-0 fields.

    Derivative descendants carry a sorted multi-index of argument names;
    symmetry of mixed partials is imposed by the sorting.
    """

    name: str
    args: tuple[str, ...]


class Theory:
    """A chart: ordered fields with gradings, paired antifields, function
    symbols, simplex generators, optional directed rewrite relations."""

    def __init__(self, name: str = ""):
        self.name = name
        self._fields: list[GradedSymbol] = []       # 0-jet field symbols, in order
        self._symbols: dict[tuple, GradedSymbol] = {}
        self._by_name: dict[str, GradedSymbol] = {}
        self._functions: dict[str, FunctionDecl] = {}
        self._order_index: dict[str, int] = {}      # base name -> registration rank
        self._next_rank = 0
        self._sort_keys: dict[GradedSymbol, tuple] = {}   # append-only, like the ranks
        self._units: dict[GradedSymbol, object] = {}      # symbol -> its Expression, append-only
        self._atom_gradients: dict[tuple, dict] = {}      # atom key -> {symbol: d atom/d symbol}, append-only
        self._atom_bases: dict[str, object] = {}          # log/pow base key -> its Expression, append-only
        self.relations: dict = {}                   # (func, x) -> what d_x(func) rewrites to
        self._eps: Optional[GradedSymbol] = None

    # -- registration -------------------------------------------------

    def _intern(self, sym: GradedSymbol) -> GradedSymbol:
        key = (sym.name, sym.jet_order)
        existing = self._symbols.get(key)
        if existing is not None:
            return existing
        self._symbols[key] = sym
        if sym.jet_order == 0:
            self._by_name[sym.name] = sym
        return sym

    def _claim_rank(self, name: str) -> int:
        if name in self._order_index:
            raise TheoryError(f"name already registered: {name}")
        rank = self._next_rank
        self._order_index[name] = rank
        self._next_rank += 1
        return rank

    def add_field(self, name: str, ghost: int, parity: int) -> GradedSymbol:
        """Register a base field; its antifield xi+ is generated alongside
        with gh = -gh(xi) - 1 and parity 1 - pa(xi)."""
        if parity not in (0, 1):
            raise TheoryError(f"parity must be 0 or 1, got {parity}")
        self._claim_rank(name)
        f = self._intern(GradedSymbol(name, Kind.FIELD_JET, ghost, parity,
                                      base=name))
        aname = antifield_name(name)
        self._claim_rank(aname)
        self._intern(GradedSymbol(aname, Kind.ANTIFIELD_JET, -ghost - 1,
                                  1 - parity, base=aname))
        self._fields.append(f)
        return f

    def add_function(self, name: str, args: Iterable[str]) -> FunctionDecl:
        args = tuple(args)
        for a in args:
            s = self._by_name.get(a)
            if s is None or s.kind != Kind.FIELD_JET:
                raise TheoryError(f"function argument {a} is not a field")
            if s.parity != EVEN or s.ghost != 0:
                raise TheoryError(f"function argument {a} must be even, ghost 0")
        self._claim_rank(name)
        decl = FunctionDecl(name, args)
        self._functions[name] = decl
        return decl

    def add_flow_param(self, name: str = "tau") -> GradedSymbol:
        self._claim_rank(name)
        return self._intern(GradedSymbol(name, Kind.FLOW_PARAM, 0, EVEN,
                                         base=name))

    def add_one_form(self, name: str = "dt", ghost: int = 1) -> GradedSymbol:
        """A standalone odd one-form (worldline dt, simplex dt_i)."""
        self._claim_rank(name)
        return self._intern(GradedSymbol(name, Kind.SIMPLEX_DT, ghost, EVEN,
                                         form_degree=1, base=name))

    def add_simplex_coordinate(self, name: str) -> GradedSymbol:
        self._claim_rank(name)
        return self._intern(GradedSymbol(name, Kind.SIMPLEX_T, 0, EVEN,
                                         base=name))

    @property
    def epsilon(self) -> GradedSymbol:
        """The structural resolution generator: odd, ghost -1."""
        if self._eps is None:
            if "eps" not in self._order_index:
                self._claim_rank("eps")
            self._eps = self._intern(GradedSymbol("eps", Kind.EPSILON, -1, ODD,
                                                  base="eps"))
        return self._eps

    @property
    def u(self) -> GradedSymbol:
        """The ghost-2 series variable (parser-level; split off into u-series
        before any curved computation)."""
        got = self._by_name.get("u")
        if got is not None:
            return got
        if "u" not in self._order_index:
            self._claim_rank("u")
        return self._intern(GradedSymbol("u", Kind.U_PARAM, 2, EVEN,
                                         base="u"))

    # -- lookup ---------------------------------------------------------

    @property
    def fields(self) -> tuple[GradedSymbol, ...]:
        return tuple(self._fields)

    def field_pairs(self) -> list[tuple[GradedSymbol, GradedSymbol]]:
        """(field, antifield) 0-jet pairs in registration order."""
        return [(f, self.symbol(antifield_name(f.name))) for f in self._fields]

    def symbol(self, name: str, jet_order: int = 0) -> GradedSymbol:
        if jet_order == 0:
            s = self._by_name.get(name)
            if s is not None:
                return s
            raise SymbolUnknownError(f"unknown symbol: {name}")
        return self.jet(name, jet_order)

    def maybe_symbol(self, name: str) -> Optional[GradedSymbol]:
        return self._by_name.get(name)

    def jet(self, name: str, order: int) -> GradedSymbol:
        """d^order(name); lazily interned."""
        base = self._by_name.get(name)
        if base is None:
            raise SymbolUnknownError(f"unknown symbol: {name}")
        if base.kind not in (Kind.FIELD_JET, Kind.ANTIFIELD_JET):
            raise TheoryError(f"{name} has no jets")
        if order == 0:
            return base
        key = (name, order)
        s = self._symbols.get(key)
        if s is None:
            s = GradedSymbol(name, base.kind, base.ghost, base.parity,
                             jet_order=order, base=name)
            self._symbols[key] = s
        return s

    def jet_bump(self, sym: GradedSymbol) -> GradedSymbol:
        return self.jet(sym.base, sym.jet_order + 1)

    def function(self, name: str) -> FunctionDecl:
        decl = self._functions.get(name)
        if decl is None:
            raise SymbolUnknownError(f"unknown function symbol: {name}")
        return decl

    def functions(self) -> dict[str, FunctionDecl]:
        return dict(self._functions)

    def has_name(self, name: str) -> bool:
        return name in self._order_index

    # -- canonical order -------------------------------------------------

    def sort_key(self, sym: GradedSymbol) -> tuple:
        key = self._sort_keys.get(sym)
        if key is None:
            rank = self._order_index.get(sym.base)
            if rank is None:
                raise SymbolUnknownError(f"symbol not of this theory: {sym.name}")
            key = self._sort_keys[sym] = (int(sym.kind), rank, sym.jet_order)
        return key

    # -- extension --------------------------------------------------------

    def extended(self, name: str = "") -> "Theory":
        """A fresh theory containing the same declarations, for products."""
        t = Theory(name or self.name)
        for f in self._fields:
            t.add_field(f.name, f.ghost, f.parity)
        for decl in self._functions.values():
            t.add_function(decl.name, decl.args)
        for key, sym in self._symbols.items():
            if sym.kind in (Kind.FLOW_PARAM,):
                if not t.has_name(sym.name):
                    t.add_flow_param(sym.name)
            elif sym.kind == Kind.SIMPLEX_DT and not t.has_name(sym.name):
                t.add_one_form(sym.name, ghost=sym.ghost)
            elif sym.kind == Kind.SIMPLEX_T and not t.has_name(sym.name):
                t.add_simplex_coordinate(sym.name)
        t.relations = dict(self.relations)
        return t


def product_theory(name: str, *parts: Theory) -> Theory:
    """Combine charts (disjoint field names) into one theory; field order is
    part-by-part in the order given."""
    t = Theory(name)
    for p in parts:
        for f in p.fields:
            t.add_field(f.name, f.ghost, f.parity)
        for decl in p.functions().values():
            t.add_function(decl.name, decl.args)
    return t
