"""Spans around the calls into each bvcov layer, for the traced run.

`Tracer.install()` wraps a named list of public functions and methods of
every layer module.  A wrapped module-level function is rebound in every
`bvcov` module that imported it (`curved.soloviev`, `cli.mc_check`, the
package namespace, ...), and the `Expression` operator dunders are replaced
on the class.  `Tracer.uninstall()` puts every original back.  The untraced
path never constructs a `Tracer`, so it runs the program's own functions.

Each call records a span: the wrapped name, its layer, start, end and the
span it was called from.  Spans are kept in columnar arrays until the pass
ends; `layer_metrics()` turns them into per-layer self times and counts.
Self time is a span's duration minus the time its direct child spans cover.
Counts are read from the arguments and the result at the boundary.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from fractions import Fraction

# layer -> [(op, owner, names)]: the public names wrapped in each layer
# module.  `owner` is "" for module-level functions or the class whose
# methods are wrapped.  Every op gets `<layer>.<op>.calls` and `.self_s`;
# a few also get the counts of `Tracer._counter`.
PROBES = {
    "expression": [
        ("add", "Expression", ("__add__", "__radd__")),
        ("sub", "Expression", ("__sub__", "__rsub__", "__neg__")),
        ("mul", "Expression", ("__mul__",)),
        ("rmul", "Expression", ("__rmul__", "__pow__")),
        ("deriv", "", ("partial_derivative", "total_derivative")),
        ("subst", "", ("apply_substitution", "embed")),
        ("is_zero", "", ("is_zero",)),
    ],
    "varcalc": [
        ("soloviev", "", ("soloviev",)),
        ("bv_antibracket", "", ("bv_antibracket",)),
        ("euler", "", ("euler",)),
        ("is_total_derivative", "", ("is_total_derivative",)),
        ("hamiltonian_vf", "", ("hamiltonian_vf",)),
        ("vector_field", "EvolutionaryVectorField", ("apply", "commutator")),
    ],
    "curved": [
        ("u_bracket", "", ("u_bracket",)),
        ("b_bracket", "", ("b_bracket", "b_differential", "du", "iota")),
        ("mc_check", "", ("mc_check", "complete_to_b")),
        ("flow", "", ("gauge_flow_series", "gauge_flow_closed", "flow_substitution")),
        ("endpoint", "", ("verify_flow_endpoint",)),
        ("bch", "", ("bch",)),
        ("canonical", "", ("canonical_substitution_check", "antifield_rank")),
    ],
    "aksz": [
        ("build", "", ("build_covariant_theory",)),
        ("couple", "", ("twist", "couple_gravity", "x_u_series", "xi_u_series")),
    ],
    "models": [
        ("build", "", ("build_model",)),
        ("pipeline", "", ("spinning_pipeline", "couple_with_potential",
                          "lichnerowicz_check")),
    ],
    "thomwhitney": [
        ("whitney", "", ("whitney",)),
        ("restrict", "CoverNerve", ("restrict",)),
        ("mc_check", "", ("global_mc_check",)),
        ("complex", "", ("whitney_commutes", "cech_delta", "tw_differential",
                         "tw_bracket", "global_covariant_theory")),
    ],
    "parser": [
        ("parse", "", ("parse_theory_file", "parse_expression")),
        ("convert", "", ("to_useries", "from_useries", "build_cover")),
    ],
    "printer": [("render", "", ("render",))],
    "cli": [("main", "", ("main",))],
}

LAYERS = tuple(PROBES) + ("bench",)
BRACKETS = {("curved", "u_bracket"), ("varcalc", "soloviev")}


def _nterms(x) -> int:
    if isinstance(x, (int, Fraction)):
        return 1 if x else 0
    return len(x.terms)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self, mods):
        self.mods = mods
        # span kinds: (layer, op, wrapped name); kind 0 is the benchmark's
        # own root span around one check
        self.kinds: list[tuple[str, str, str]] = [("bench", "check", "check")] + [
            (layer, op, name) for layer, probes in PROBES.items()
            for op, _, names in probes for name in names]
        self._restore: list[tuple[object, str, object]] = []
        # the wrappers hold these containers, so reset() clears them in place
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def reset(self):
        for column in (self.kind, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]
        self.counts.clear()

    def _count(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, kind: int, count=None):
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(idx, args, result)
            return result
        traced.__wrapped__ = fn
        traced.bench_span = True
        return traced

    def check(self, fn):
        """A root span around one check of the workload."""
        return self.wrap(fn, 0)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, probes in PROBES.items():
            module = getattr(self.mods, layer)
            for op, owner, names in probes:
                for name in names:
                    kind = self.kinds.index((layer, op, name))
                    if owner:
                        cls = getattr(module, owner)
                        fn = cls.__dict__[name]
                        self._set(cls, name, self.wrap(fn, kind, self._counter(layer, op, name)))
                    else:
                        fn = getattr(module, name)
                        wrapped = self.wrap(fn, kind, self._counter(layer, op, name))
                        for mod in self._bvcov_modules():
                            for attr, value in list(vars(mod).items()):
                                if value is fn:
                                    self._set(mod, attr, wrapped)

    def uninstall(self):
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def _set(self, target, attr, value):
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    @staticmethod
    def _bvcov_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "bvcov" or n.startswith("bvcov."))]

    @staticmethod
    def installed_wrappers() -> int:
        """How many span wrappers the bvcov modules and their classes hold."""
        n = 0
        for mod in Tracer._bvcov_modules():
            for value in vars(mod).values():
                n += hasattr(value, "bench_span")
                if isinstance(value, type):
                    n += sum(hasattr(v, "bench_span") for v in vars(value).values())
        return n

    # -- counts at the boundary ---------------------------------------------------

    def _counter(self, layer: str, op: str, name: str):
        key = f"{layer}.{op}"
        if (layer, op) == ("expression", "add"):
            def count(idx, args, result):
                self._count(key + ".calls", 1)
                self._count(key + ".terms_in", _nterms(args[0]) + _nterms(args[1]))
                self._count(key + ".terms_out", len(result.terms))
        elif (layer, op) == ("expression", "mul"):
            def count(idx, args, result):
                self._count(key + ".calls", 1)
                self._count(key + ".term_pairs", _nterms(args[0]) * _nterms(args[1]))
        elif (layer, op) == ("thomwhitney", "mc_check"):
            def count(idx, args, result):
                self._count(key + ".calls", 1)
                self._count("thomwhitney.tuples_checked", len(result.residuals))
        elif (layer, op) == ("parser", "parse"):
            source = 0 if name == "parse_theory_file" else 1

            def count(idx, args, result):
                # the parse_expression calls of parse_theory_file are not
                # counted again
                p = self.parent[idx]
                if p < 0 or self.kinds[self.kind[p]][:2] != ("parser", "parse"):
                    self._count(key + ".calls", 1)
                    self._count(key + ".bytes", len(args[source].encode("utf-8")))
        else:
            def count(idx, args, result):
                self._count(key + ".calls", 1)
        return count

    # -- aggregation -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self times and counts of the spans recorded since `reset()`."""
        n = len(self.kind)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_s: dict[tuple[str, str], float] = {}
        flow_steps = 0
        for i in range(n):
            key = self.kinds[self.kind[i]][:2]
            self_s[key] = self_s.get(key, 0.0) + (self.end[i] - self.start[i]) - covered[i]
            p = self.parent[i]
            if key in BRACKETS and p >= 0 \
                    and self.kinds[self.kind[p]][:2] == ("curved", "flow"):
                flow_steps += 1
        out: dict[str, float] = dict(self.counts)
        out["curved.flow.steps"] = flow_steps
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for (lay, _), v in self_s.items() if lay == layer)
        for (layer, op), v in self_s.items():
            out[f"{layer}.{op}.self_s"] = v
        out["trace.spans"] = n
        return out

    def write_spans(self, path: str):
        """One line per span: id, parent id, layer, wrapped name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tname\tstart_s\tend_s\n")
            for i in range(len(self.kind)):
                layer, _, name = self.kinds[self.kind[i]]
                fh.write(f"{i}\t{self.parent[i]}\t{layer}\t{name}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first pass, times as medians over the passes."""
    keys = set().union(*passes)
    out = {}
    for k in keys:
        values = [p.get(k, 0) for p in passes]
        out[k] = statistics.median(values) if k.endswith("_s") else values[0]
    return out
