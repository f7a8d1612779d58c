"""Graded generators and theory (chart) registries.

A theory owns an ordered set of base fields, their automatically paired
antifields, opaque function symbols, flow parameters and simplex form
generators.  Jet symbols d^k(x), d^k(x+) are created lazily.  The
registration order of base fields fixes the canonical monomial order, so
it is part of the external contract (golden files depend on it).
"""

from __future__ import annotations

import enum
import itertools
import re
import weakref
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


def is_simplex_name(name: str) -> bool:
    """Whether name is t_<i> or dt_<i>, the names of the simplex generators
    that a cover nerve adds to its charts (`simplex_pairs`)."""
    return re.fullmatch(r"d?t_\d+", name) is not None


# the names of the structural generators eps and u, which no declaration
# may take
_STRUCTURAL_NAMES = ("eps", "u")


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
        self._field_pairs: tuple = ()               # (field, antifield) 0-jets, in order
        self._symbols: dict[tuple, GradedSymbol] = {}   # (name, jet order) -> symbol
        self._functions: dict[str, FunctionDecl] = {}
        self._order_index: dict[str, int] = {}      # base name -> registration rank
        self._sort_keys: dict[GradedSymbol, tuple] = {}   # append-only, like the ranks
        self._units: dict[GradedSymbol, object] = {}      # symbol -> its Expression, append-only
        self._atom_gradients: dict[tuple, dict] = {}      # atom key -> {symbol: d atom/d symbol}, append-only
        self._atom_bases: dict[str, object] = {}          # log/pow base key -> its Expression, append-only
        # source theory -> {its symbol: the symbol `apply_substitution` relabels
        # it to here, or None}, append-only; weak and holding only symbols, so
        # that it keeps no theory alive
        self._relabels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.relations: dict = {}                   # (func, x) -> what d_x(func) rewrites to
        self._simplex_pairs: Optional[tuple] = None  # `simplex_pairs`, dropped on registration

    # -- registration -------------------------------------------------

    def _intern(self, sym: GradedSymbol) -> GradedSymbol:
        return self._symbols.setdefault((sym.name, sym.jet_order), sym)

    def _claim_rank(self, name: str):
        if name in _STRUCTURAL_NAMES:
            raise TheoryError(f"reserved name: {name}")
        if name in self._order_index:
            raise TheoryError(f"name already registered: {name}")
        self._order_index[name] = len(self._order_index)
        self._simplex_pairs = None

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
        anti = self._intern(GradedSymbol(aname, Kind.ANTIFIELD_JET, -ghost - 1,
                                         1 - parity, base=aname))
        self._field_pairs += ((f, anti),)
        return f

    def add_function(self, name: str, args: Iterable[str]) -> FunctionDecl:
        args = tuple(args)
        for a in args:
            s = self._symbols.get((a, 0))
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

    def _structural(self, name: str, kind: Kind, ghost: int, parity: int) -> GradedSymbol:
        """The symbol `name`, interned with the given grading on first use;
        its sort key takes no registration rank."""
        got = self._symbols.get((name, 0))
        if got is not None:
            return got
        return self._intern(GradedSymbol(name, kind, ghost, parity, base=name))

    @property
    def epsilon(self) -> GradedSymbol:
        """The structural resolution generator: odd, ghost -1."""
        return self._structural("eps", Kind.EPSILON, -1, ODD)

    @property
    def u(self) -> GradedSymbol:
        """The structural series variable of B[[u]]: even, ghost 2, central;
        every element of B[[u]] is an expression in it."""
        return self._structural("u", Kind.U_PARAM, 2, EVEN)

    # -- lookup ---------------------------------------------------------

    @property
    def fields(self) -> tuple[GradedSymbol, ...]:
        return tuple(f for f, _ in self._field_pairs)

    def field_pairs(self) -> tuple[tuple[GradedSymbol, GradedSymbol], ...]:
        """(field, antifield) 0-jet pairs in registration order."""
        return self._field_pairs

    def symbol(self, name: str, jet_order: int = 0) -> GradedSymbol:
        if jet_order == 0:
            s = self._symbols.get((name, 0))
            if s is not None:
                return s
            raise SymbolUnknownError(f"unknown symbol: {name}")
        return self.jet(name, jet_order)

    def maybe_symbol(self, name: str) -> Optional[GradedSymbol]:
        return self._symbols.get((name, 0))

    def jet(self, name: str, order: int) -> GradedSymbol:
        """d^order(name); lazily interned.  A negative order is refused."""
        if order < 0:
            raise TheoryError(f"negative jet order {order} of {name}")
        base = self._symbols.get((name, 0))
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

    def simplex_pairs(self) -> tuple[tuple[GradedSymbol, GradedSymbol], ...]:
        """(t_i, dt_i) for i = 1, 2, ... while t_i is registered: the simplex
        coordinates and their one-forms, as `CoverNerve.simplex_theory` names
        them.  Read once, and again after the next registration."""
        if self._simplex_pairs is None:
            pairs = []
            for i in itertools.count(1):
                s = self._symbols.get((f"t_{i}", 0))
                if s is None:
                    break
                pairs.append((s, self.symbol(f"dt_{i}")))
            self._simplex_pairs = tuple(pairs)
        return self._simplex_pairs

    # -- canonical order -------------------------------------------------

    def sort_key(self, sym: GradedSymbol) -> tuple:
        key = self._sort_keys.get(sym)
        if key is None:
            # eps and u are one structural symbol each per theory, sorting
            # alike in every theory, so a relabel between theories keeps
            # their keys
            rank = 0 if sym.kind in (Kind.EPSILON, Kind.U_PARAM) \
                else self._order_index.get(sym.base)
            if rank is None:
                raise SymbolUnknownError(f"symbol not of this theory: {sym.name}")
            key = self._sort_keys[sym] = (int(sym.kind), rank, sym.jet_order)
        return key


def product_theory(name: str, *parts: Theory) -> Theory:
    """A copy of every declaration of each part, part by part in the order
    given: fields, functions, then flow parameters, one-forms and simplex
    coordinates, and the rewrite relations.  A name declared by two parts
    is refused."""
    t = Theory(name)
    for p in parts:
        for f in p.fields:
            t.add_field(f.name, f.ghost, f.parity)
        for decl in p.functions().values():
            t.add_function(decl.name, decl.args)
        for sym in p._symbols.values():
            if sym.kind == Kind.FLOW_PARAM:
                t.add_flow_param(sym.name)
            elif sym.kind == Kind.SIMPLEX_DT:
                t.add_one_form(sym.name, ghost=sym.ghost)
            elif sym.kind == Kind.SIMPLEX_T:
                t.add_simplex_coordinate(sym.name)
        t.relations.update(p.relations)
    return t
