"""Source hygiene of the package, with the standard library only: no module
imports a name it never uses (`__init__.py` is exempt, since its imports
are the package's re-exports), and no top-level function or class of the
package goes unnamed everywhere else in `src/`, `tests/` and `perfbench/`."""

import ast
from collections import Counter
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


def test_no_unused_imports_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def _mentions(node: ast.AST) -> Counter:
    """How often each name is read, imported or quoted (a string constant
    naming it, as the tracer's probe lists do) inside node."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def dead_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """`file:name` of each top-level function or class of the package
    sources (file name -> source) that is mentioned nowhere outside its own
    definition, across the package and the other sources."""
    total: Counter = Counter()
    defined: list[tuple[str, str, Counter]] = []
    for name, source in package.items():
        tree = ast.parse(source)
        total += _mentions(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((name, node.name, _mentions(node)))
    for source in others:
        total += _mentions(ast.parse(source))
    return [f"{file}:{name}" for file, name, own in defined if total[name] == own[name]]


def test_dead_code_detector():
    package = {"a.py": ("def used():\n    return 1\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "def probed():\n    pass\n"
                        "class Dead:\n    pass\n"),
               "b.py": "from .a import used\n"}
    assert dead_definitions(package, ["PROBES = ('probed',)\n"]) == \
        ["a.py:recursive", "a.py:Dead"]


def test_no_dead_code_in_package():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    dead = dead_definitions(package, others)
    assert not dead, "defined but never used:\n" + "\n".join(dead)
