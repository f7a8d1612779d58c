#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A deliberately wrong expected answer is counted as a failed check, and
   a front-door input that fails otherwise than by its known defect counts
   as unexpected.
2. Traced and untraced passes give identical verdicts.
3. The untraced path leaves no span wrapper installed.
4. Every count of the traced run repeats exactly across two traced runs
   with the same seed, `--spans` writes every span of a traced pass,
   tw_cover checks 30 tuples per cylinder check, and models_cli and
   bracket_bulk never enter thomwhitney.
5. BENCHMARK.json names exactly the metrics run.py prints.

Exits 1 if any of them fails.  Takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_SUFFIXES = (".calls", ".terms_in", ".terms_out", ".term_pairs",
                  ".tuples_checked", ".steps", ".bytes", ".spans")


def _small(seed: int) -> list[workloads.Check]:
    """A few checks of every workload, cheap enough to run in-process."""
    bulk = workloads.build("bracket_bulk", seed).checks[:12]
    cli = [c for c in workloads.build("models_cli", seed).checks
           if c.name.startswith(("front-door", "build-aksz.bc", "build-aksz.magnetic-particle.2",
                                 "run.particle"))]
    tw = workloads.build("tw_cover", seed).checks[:1]
    return bulk + cli + tw


def wrong_answer_is_counted() -> bool:
    checks = _small(1)
    right = run.Tally()
    right.run_pass(checks)
    # flip the known answer of one bracket identity and of one golden report
    flipped = {checks[0].name: lambda v: v is False,
               "run.particle": lambda v: v == (0, "CHECK particle_flat: FAIL\n")}
    # and give two front-door inputs another wrong verdict than their known defect
    other = {"front-door.bare-param": lambda: (1, ""),
             "front-door.unknown-expression": lambda: 1 // 0}
    wrong = run.Tally()
    wrong.run_pass([replace(c, judge=flipped[c.name]) if c.name in flipped
                    else replace(c, run=other[c.name]) if c.name in other
                    else c for c in checks])
    return (right.unexpected == 0 and right.failed == 3 and wrong.unexpected == 4
            and wrong.failed == right.failed + 2 and wrong.attempted == right.attempted)


def traced_verdicts_match() -> bool:
    checks = _small(2)
    plain, traced = run.Tally(), run.Tally()
    plain.run_pass(checks)
    tracer = Tracer(workloads.Modules())
    tracer.install()
    try:
        traced.run_pass(checks, lambda c: tracer.check(c.run))
    finally:
        tracer.uninstall()
    return plain.verdicts == traced.verdicts and len(tracer.kind) > 0


def untraced_path_installs_nothing() -> bool:
    wl = workloads.build("tw_cover", 3)
    wl.checks = wl.checks[:1]
    before = Tracer.installed_wrappers()
    out = run._measure(wl, types.SimpleNamespace(seconds=0))
    mods = workloads.Modules()
    plain = not hasattr(mods.curved.soloviev, "__wrapped__") \
        and mods.curved.soloviev is mods.varcalc.soloviev \
        and "__wrapped__" not in vars(mods.expression.Expression.__add__)
    return before == 0 and Tracer.installed_wrappers() == 0 and plain and out["correct"]


def _traced_counts(workload: str, seed: int, *extra: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", *extra],
        capture_output=True, text=True, check=True, timeout=170)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def counts_repeat() -> bool:
    ok = True
    spans = HERE / "selftest-spans.tsv"
    for workload in run.WORKLOADS:
        try:
            first = _traced_counts(workload, 5, "--spans", str(spans))
            with open(spans, encoding="utf-8") as fh:
                written = sum(1 for _ in fh) - 1    # header line
        finally:
            spans.unlink(missing_ok=True)
        second = _traced_counts(workload, 5)
        tw = {k: v for k, v in first.items() if k.startswith("thomwhitney.")}
        if workload == "tw_cover":
            expected_tw = first["thomwhitney.tuples_checked"] == 30
        else:
            expected_tw = not any(tw.values())
        print(f"  {workload}: {len(first)} counts, repeat={first == second}, "
              f"spans written={written}, thomwhitney={tw}")
        ok &= first == second and expected_tw and written == first["trace.spans"]
    return ok


def benchmark_json_matches() -> bool:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
            and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
            and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))


def main() -> int:
    failed = 0
    for test in (wrong_answer_is_counted, traced_verdicts_match,
                 untraced_path_installs_nothing, counts_repeat, benchmark_json_matches):
        ok = test()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {test.__name__}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
