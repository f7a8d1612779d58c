"""Source hygiene of the package, with the standard library only: no module
of the package or of `tests/` imports a name it never uses (the package's
`__init__.py` is exempt, since its imports are the package's re-exports),
no top-level function, class or method of the package goes unnamed
everywhere else in `src/`, `tests/` and `perfbench/`, no defaulted
parameter of the package is left to its default by every call in those
trees, no field or `self` attribute of a package class is written without
being read anywhere in them, no `_print_check` call of the package passes
a literal verdict, every `ParseError` of the parser names a column, only
the chain rule `_atom_partials` reads an atom's gradient, only the Soloviev
kernel calls the packed multiply-accumulate, only a chart's Poisson tensor
and an etale map's Jacobian call the sparse inverse and its signed-identity
check, every name the benchmark reaches still exists, the reference algebra
of `tests/` reaches no module of the package, and no function of the
package writes to a module-level dict, list or set."""

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bvcov"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including quoted forward references."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs \
                + [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            for ann in [a.annotation for a in args] + [node.returns]:
                if ann is not None:
                    used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for line, name in imported if name not in used)


def test_detector_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Optional\n"
              "from .x import a, b as c\n"
              "def f(v: 'Optional[int]') -> None:\n"
              "    return a\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


def test_no_unused_imports_in_package_or_tests():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def _mentions(node: ast.AST, bare: bool = True) -> Counter:
    """How often each name is read, imported or quoted (a string constant
    naming it, as the tracer's probe lists do) inside node; a bare name,
    such as a local variable, counts only when `bare` is set."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if bare:
                out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def _definitions(tree: ast.Module):
    """(owner, label, node) of each top-level function and class, and of
    each method of a top-level class, whose owner is the class name (None
    for the others) and whose label is `Class.method`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, f"{node.name}.{sub.name}", sub


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def dead_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """`file:name` (or `file:Class.name` for a method; dunders are exempt)
    of each top-level function, class or method of the package sources
    (file name -> source) that is mentioned nowhere outside its own
    definition, across the package and the other sources.  A method is
    reached through an attribute, so a bare name (a local variable that
    shares its name) does not keep it alive."""
    trees = [ast.parse(source) for source in package.values()]
    others = [ast.parse(source) for source in others]
    total = {bare: sum((_mentions(tree, bare) for tree in trees + others), Counter())
             for bare in (True, False)}
    defined: list[tuple[str, str, str, bool, Counter]] = []
    for name, tree in zip(package, trees):
        for owner, label, node in _definitions(tree):
            if owner is None or not _is_dunder(node.name):
                bare = owner is None
                defined.append((name, node.name, label, bare, _mentions(node, bare)))
    return [f"{file}:{label}" for file, name, label, bare, own in defined
            if total[bare][name] == own[name]]


def test_dead_code_detector():
    package = {"a.py": ("def used():\n    return 1\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "def probed():\n    pass\n"
                        "class Dead:\n    pass\n"
                        "class Box:\n"
                        "    def __len__(self):\n        return 0\n"
                        "    def read(self):\n        return self.read\n"
                        "    def unread(self):\n        return 0\n"),
               "b.py": "from .a import used, Box\nBox().read()\nunread = 1\nprint(unread)\n"}
    assert dead_definitions(package, ["PROBES = ('probed',)\n"]) == \
        ["a.py:recursive", "a.py:Dead", "a.py:Box.unread"]


def test_no_dead_code_in_package():
    dead = dead_definitions(*_trees())
    assert not dead, "defined but never used:\n" + "\n".join(dead)


def _trees() -> tuple[dict[str, str], list[str]]:
    """The package sources by file name, and the sources of `tests/` and
    `perfbench/`."""
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return package, others


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _sets(call: ast.Call, position: int, name: str) -> bool:
    """Whether the call passes the parameter at `position` (counted after
    any bound self) or named `name`; an unpacked argument sets every
    parameter of its kind."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position >= 0 and (len(call.args) > position
                              or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(package: dict[str, str], others: list[str]) -> list[str]:
    """`file:function(param)` for each defaulted parameter of a package
    function or method (dunders other than `__init__` exempt) that no call
    sets, by keyword or by position.  Calls are matched to functions by the
    called name, a class name calling its `__init__`, so a name clash can
    hide an unset parameter but never report a set one."""
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    trees = {file: ast.parse(source) for file, source in package.items()}
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[_called_name(node)].append(node)
    found = []
    for file, tree in trees.items():
        for owner, label, node in _definitions(tree):
            if isinstance(node, ast.ClassDef) or \
                    (_is_dunder(node.name) and node.name != "__init__"):
                continue
            callee = owner if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            defaulted = [(i - bound, a) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(-1, a) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for position, arg in defaulted:
                if not any(_sets(c, position, arg.arg) for c in calls[callee]):
                    found.append(f"{file}:{label}({arg.arg})")
    return found


def test_unset_parameter_detector():
    package = {"a.py": ("def f(x, y=1, *, z=2):\n    return x\n"
                        "def g(x=0):\n    return x\n"
                        "class P:\n"
                        "    def __init__(self, s, flag=False):\n        pass\n"
                        "    def m(self, k=3):\n        return k\n"
                        "    @staticmethod\n"
                        "    def s(k=3):\n        return k\n"
                        "    def __eq__(self, other=None):\n        return True\n")}
    calls = "f(1, 2)\ng(**{})\nP('s').m(4)\nP.s()\n"
    assert unset_parameters(package, [calls]) == \
        ["a.py:f(z)", "a.py:P.__init__(flag)", "a.py:P.s(k)"]
    assert unset_parameters(package, [calls + "f(0, z=1)\nP.s(1)\nP(1, *())\n"]) == []


def test_no_unset_parameters_in_package():
    unset = unset_parameters(*_trees())
    assert not unset, "parameters no call sets:\n" + "\n".join(unset)


def constant_verdicts(package: dict[str, str]) -> list[str]:
    """`file:line` of each `_print_check` call whose verdict (its second
    argument, or `ok=`) is a literal: a report line that can never change."""
    found = []
    for file, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and _called_name(node) == "_print_check":
                verdicts = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ok"]
                if any(isinstance(v, ast.Constant) for v in verdicts):
                    found.append(f"{file}:{node.lineno}")
    return found


def test_constant_verdict_detector():
    package = {"a.py": ("_print_check('a', ok)\n"
                        "_print_check('b', True)\n"
                        "cli._print_check('c', ok=False, lines=[])\n"
                        "_print_check('d', *rep)\n"
                        "print_check('e', True)\n")}
    assert constant_verdicts(package) == ["a.py:2", "a.py:3"]


def test_no_constant_verdicts_in_package():
    found = constant_verdicts(_trees()[0])
    assert not found, "checks printed with a constant verdict:\n" + "\n".join(found)


def columnless_parse_errors(source: str) -> list[int]:
    """The line of each `ParseError(...)` call that passes no column: fewer
    than three positional arguments, none unpacked, and no `column=`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _called_name(node) == "ParseError"
            and len(node.args) < 3 and not any(isinstance(a, ast.Starred) for a in node.args)
            and not any(k.arg in ("column", None) for k in node.keywords)]


def test_columnless_parse_error_detector():
    source = ("raise ParseError('a', line_no, col)\n"
              "raise ParseError('b', line_no)\n"
              "raise parser.ParseError('c', 1, column=3)\n"
              "raise ParseError(f'{d}')\n"
              "raise ParseError(*where)\n"
              "raise TheoryError('e')\n")
    assert columnless_parse_errors(source) == [2, 4]


def test_every_parse_error_names_a_column():
    found = columnless_parse_errors((SRC / "parser.py").read_text(encoding="utf-8"))
    assert not found, f"ParseError without a column at parser.py lines {found}"


def callers(package: dict[str, str], name: str) -> list[str]:
    """`file:label` of each top-level function or class, or method of a
    top-level class (`Class.method`), of the package sources that calls
    `name`, nested calls included; a call outside them is `file:<module>`."""
    found = []
    for file, source in package.items():
        for node in ast.parse(source).body:
            parts = [(f"{node.name}.{getattr(sub, 'name', '<body>')}", sub) for sub in node.body] \
                if isinstance(node, ast.ClassDef) else [(getattr(node, "name", "<module>"), node)]
            for label, part in parts:
                if any(isinstance(c, ast.Call) and _called_name(c) == name
                       for c in ast.walk(part)):
                    found.append(f"{file}:{label}")
    return list(dict.fromkeys(found))


def test_callers_detector():
    package = {"a.py": ("def g(x):\n    return g(x - 1)\n"
                        "def outer():\n    def inner():\n        return m.g(1)\n    return inner\n"
                        "def named():\n    return g\n"
                        "class C:\n    k = g(0)\n    def f(self):\n        return [g(i) for i in ()]\n"
                        "v = g(2)\n"),
               "b.py": "from a import g\n"}
    assert callers(package, "g") == ["a.py:g", "a.py:outer", "a.py:C.<body>", "a.py:C.f",
                                     "a.py:<module>"]


def test_atom_gradients_are_read_by_the_chain_rule_only():
    """Every derivation differentiates atoms through `_atom_partials`, the
    one chain-rule loop, so no other code calls `_atom_gradient`."""
    found = set(callers(_trees()[0], "_atom_gradient")) - \
        {"expression.py:_atom_gradient", "expression.py:_atom_partials"}
    assert not found, f"_atom_gradient called outside the chain rule: {sorted(found)}"


def test_only_the_soloviev_kernel_accumulates_on_packed_keys():
    """The packed multiply-accumulate pays for its packing only where pair
    products collapse, in a bracket's double sum; a small sum, such as the
    chain-rule share of an atom, takes `_product`."""
    assert callers(_trees()[0], "_multiply_accumulate") == ["varcalc.py:_soloviev_into"]


def test_only_the_total_derivative_raises_jets():
    """One D on symbols: `total_derivative` is the only code that raises a
    jet order; every other reader of D goes through it."""
    assert callers(_trees()[0], "jet_bump") == ["expression.py:total_derivative"]


def test_one_term_product():
    """Two terms multiply by `_merge_pair` alone: `_product` pair by pair,
    and the packed accumulator for its surviving monomials.  Every other
    product, a unit generator's included, goes through `_product`."""
    assert sorted(callers(_trees()[0], "_merge_pair")) == [
        "expression.py:_multiply_accumulate", "expression.py:_product"]


def test_the_sparse_inverse_and_its_check_serve_two_callers():
    """The sparse inversion and its signed-identity check run where an
    exact inverse is needed, a chart's Poisson tensor and an etale map's
    Jacobian, and nowhere else."""
    package = _trees()[0]
    for name in ("_matrix_right_inverse", "_signed_identity_holds"):
        assert sorted(callers(package, name)) == [
            "aksz.py:TargetChart.poisson_tensor", "varcalc.py:EtaleMap.__init__"], name


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Names read as an attribute (not only assigned) or quoted in tree."""
    out = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _stored_attributes(node: ast.ClassDef):
    """Each field of a dataclass, and each attribute a method of the class
    assigns through `self`, in source order."""
    if _is_dataclass(node):
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield stmt.target.id
    for sub in ast.walk(node):
        targets = sub.targets if isinstance(sub, ast.Assign) else \
            [sub.target] if isinstance(sub, ast.AnnAssign) else []
        for target in targets:
            for el in ast.walk(target):
                if isinstance(el, ast.Attribute) and isinstance(el.ctx, ast.Store) \
                        and isinstance(el.value, ast.Name) and el.value.id == "self":
                    yield el.attr


def unread_attributes(package: dict[str, str], others: list[str]) -> list[str]:
    """`file:Class.name` for each dataclass field and each `self.name`
    attribute of a top-level package class whose name is never read as an
    attribute, nor quoted, in the package or the other sources.  Reads are
    matched by name, so a name clash can hide an unread attribute but never
    report a read one."""
    trees = {file: ast.parse(source) for file, source in package.items()}
    read: set[str] = set()
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        read |= _attribute_reads(tree)
    found = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found += [f"{file}:{node.name}.{name}"
                          for name in dict.fromkeys(_stored_attributes(node))
                          if name not in read]
    return found


def test_unread_attribute_detector():
    package = {"a.py": ("from dataclasses import dataclass\n"
                        "@dataclass(frozen=True)\n"
                        "class R:\n    read: int\n    lost: int\n    quoted: int = 0\n"
                        "class Box:\n"
                        "    def __init__(self):\n"
                        "        self.kept, self.dropped = 1, 2\n"
                        "        self.count: int = 0\n        self.table = {}\n"
                        "    def bump(self):\n"
                        "        self.count += 1\n        self.table[0] = self.kept\n")}
    others = ["r = R(1, 2)\nprint(r.read, getattr(r, 'quoted'))\n"]
    assert unread_attributes(package, others) == \
        ["a.py:R.lost", "a.py:Box.dropped", "a.py:Box.count"]


def test_no_unread_attributes():
    unread = unread_attributes(*_trees())
    assert not unread, "attributes written but never read:\n" + "\n".join(unread)


def test_benchmark_reaches_its_names(monkeypatch):
    """Every workload of `perfbench/` builds, and its tracer wraps every
    probed name and puts each back, so a deleted or renamed name fails here
    and not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    import workloads
    for name in workloads.BUILDERS:
        assert workloads.build(name, 1).checks, name
    spans = tracer.Tracer(workloads.Modules())
    try:
        spans.install()
        assert spans.installed_wrappers() >= len(spans.kinds) - 1
    finally:
        spans.uninstall()
    assert spans.installed_wrappers() == 0


def package_imports(modules: dict[str, str], start: str, package: str) -> list[str]:
    """The import chains `start -> ... -> package.x` by which module `start`
    reaches `package`: directly, or through the other local modules (name ->
    source), followed transitively; an import anywhere in a module counts,
    a function-local one too."""
    chains = []
    seen = {start}
    todo = [[start]]
    while todo:
        path = todo.pop()
        for node in ast.walk(ast.parse(modules[path[-1]])):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == package:
                    chains.append(" -> ".join(path + [name]))
                elif top in modules and top not in seen:
                    seen.add(top)
                    todo.append(path + [top])
    return sorted(chains)


def test_package_import_detector():
    modules = {"ref": "import math\nfrom helper import f\n",
               "helper": "def f():\n    from pkg.core import g\n    return g\n",
               "clean": "import ref\nimport pkgs\n",
               "direct": "import pkg\nimport clean\n"}
    assert package_imports(modules, "ref", "pkg") == ["ref -> helper -> pkg.core"]
    assert package_imports(modules, "direct", "pkg") == \
        ["direct -> clean -> ref -> helper -> pkg.core", "direct -> pkg"]
    assert package_imports(modules, "helper", "other") == []


def test_reference_algebra_imports_no_package_module():
    """The reference algebra is the engine's oracle only while it shares no
    code with it: no import of `bvcov`, directly or through a module of
    `tests/` such as `conftest` or `paper_intro`."""
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "tests").glob("*.py"))}
    found = package_imports(modules, "reference_algebra", "bvcov")
    assert not found, "the reference algebra reaches the package:\n" + "\n".join(found)


# Calls that change a dict, list or set in place.
_MUTATORS = {"setdefault", "append", "update", "clear", "add", "extend", "insert", "pop",
             "popitem", "remove", "discard"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                    "WeakKeyDictionary", "WeakValueDictionary"}


def _module_containers(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level to a dict, list or set:
    a display, a comprehension or a constructor call."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                              ast.SetComp)) or \
                isinstance(value, ast.Call) and _called_name(value) in _CONTAINER_CALLS:
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def module_container_writes(source: str) -> list[tuple[int, str]]:
    """(line, name) of each write, inside a function or method, to a
    module-level dict, list or set: an item assigned, augmented or deleted,
    or a mutating call such as `setdefault`, `append`, `update` or `clear`.
    A table written so is a cache that outlives every object it serves; a
    function whose own local shadows the name is not counted."""
    tree = ast.parse(source)
    containers = _module_containers(tree)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 + [a for a in (args.vararg, args.kwarg) if a is not None]}
        local |= {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local -= {name for n in ast.walk(fn) if isinstance(n, ast.Global) for name in n.names}
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in containers \
                    and target.id not in local:
                found.add((node.lineno, target.id))
    return sorted(found)


def test_module_container_write_detector():
    source = ("import weakref\n"
              "_TABLE = {}\n"
              "_SEEN: set = set()\n"
              "_ORDER = [1, 2]\n"
              "_READ = {'a': 1}\n"
              "_WEAK = weakref.WeakKeyDictionary()\n"
              "def cache(k, v):\n    _TABLE[k] = v\n    return _READ[k]\n"
              "def mark(x):\n    _SEEN.add(x)\n    _TABLE.setdefault(x, 0)\n"
              "class C:\n    def push(self):\n        _ORDER.append(1)\n"
              "        _WEAK[self] = 1\n"
              "def local():\n    _TABLE = {}\n    _TABLE[0] = 1\n    return _TABLE\n"
              "def reset():\n    global _ORDER\n    _ORDER.clear()\n    _ORDER = []\n"
              "    del _READ['a']\n    _TABLE['n'] += 1\n"
              "_TABLE['at import'] = 0\n"
              "_TABLE.update(_READ)\n")
    assert module_container_writes(source) == [
        (8, "_TABLE"), (11, "_SEEN"), (12, "_TABLE"), (15, "_ORDER"), (16, "_WEAK"),
        (23, "_ORDER"), (25, "_READ"), (26, "_TABLE")]


def test_no_function_writes_a_module_level_container():
    """Every cache lives on the object it serves, a nerve or a theory, and
    goes with it; the module tables of the package are read-only."""
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in module_container_writes(path.read_text(encoding="utf-8"))]
    assert not found, "module-level containers written by a function:\n" + "\n".join(found)
