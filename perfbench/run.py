#!/usr/bin/env python3
"""The bvcov benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload models_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each run measures one workload (see README.md beside this file) in a child
process, closed loop: one caller, no threads, each check starts after the
previous verdict.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("models_cli", "bracket_bulk", "tw_cover")
# Set-ups counted per run, the measuring child's included: at least
# SETUP_REPEATS, and more, up to SETUP_MAX, while the set-up processes have
# run for under SETUP_BUDGET_S of wall time, so a fast set-up gets a
# steadier median.
SETUP_REPEATS = 7
SETUP_MAX = 25
SETUP_BUDGET_S = 4.0
TAIL_GRID = (50, 75, 90, 95, 99)
MIN_PASSES = 3             # passes per run, however short --seconds is
SETUP_TIMEOUT_S = 120      # a child that only sets up and takes longer has hung

END_TO_END = {             # name -> unit
    "checks_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "expression.add.calls": "count",
    "expression.add.terms_in": "count",
    "expression.add.terms_out": "count",
    "expression.add.useful_ratio": "ratio",
    "expression.add.self_s": "s",
    "expression.add.per_call_us": "us",
    "expression.mul.calls": "count",
    "expression.mul.term_pairs": "count",
    "expression.mul.self_s": "s",
    "expression.deriv.calls": "count",
    "expression.deriv.self_s": "s",
    "expression.subst.calls": "count",
    "expression.subst.self_s": "s",
    "expression.is_zero.calls": "count",
    "expression.is_zero.self_s": "s",
    "expression.self_s": "s",
    "varcalc.soloviev.calls": "count",
    "varcalc.soloviev.self_s": "s",
    "varcalc.euler.calls": "count",
    "varcalc.euler.self_s": "s",
    "varcalc.is_total_derivative.calls": "count",
    "varcalc.hamiltonian_vf.calls": "count",
    "varcalc.self_s": "s",
    "curved.u_bracket.calls": "count",
    "curved.u_bracket.self_s": "s",
    "curved.mc_check.calls": "count",
    "curved.flow.calls": "count",
    "curved.flow.steps": "count",
    "curved.bch.calls": "count",
    "curved.self_s": "s",
    "aksz.build.calls": "count",
    "aksz.self_s": "s",
    "models.self_s": "s",
    "thomwhitney.tuples_checked": "count",
    "thomwhitney.mc_check.calls": "count",
    "thomwhitney.restrict.calls": "count",
    "thomwhitney.whitney.calls": "count",
    "thomwhitney.self_s": "s",
    "parser.parse.calls": "count",
    "parser.parse.bytes": "bytes",
    "parser.self_s": "s",
    "printer.render.calls": "count",
    "printer.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="with --trace 1, write the spans of the "
                                    "last traced pass to this file")
    ap.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if args.child:
        return _child(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = _parent(name, args)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


# -- parent: one process per set-up and one measuring process ----------------------


def _environment(seed: int) -> dict:
    env = dict(os.environ)
    # Hash randomization follows the seed alone, so a seed fixes set
    # iteration order and with it every count.
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _measure_timeout(seconds: float) -> float:
    """How long a measuring child may take before it counts as hung: its
    set-up, --seconds of passes, the pass that runs past them, and the
    traced passes' overhead, all with a wide margin."""
    return SETUP_TIMEOUT_S + 4 * seconds


def _spawn(role: str, name: str, args, pin=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", args.spans]
    try:
        proc = subprocess.run(cmd, env=_environment(args.seed), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S if role == "setup"
                              else _measure_timeout(args.seconds),
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        print(f"{name}: the {role} process did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"{name}: the {role} process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _parent(name: str, args):
    setups = []
    if not args.trace:
        # a warm-up set-up compiles the bytecode caches and is not counted
        cpus = sorted(os.sched_getaffinity(0))
        i, start = 0, time.monotonic()
        while len(setups) < SETUP_REPEATS - 1 or (
                len(setups) < SETUP_MAX - 1 and time.monotonic() - start < SETUP_BUDGET_S):
            got = _spawn("setup", name, args, pin=lambda i=i: _pin(cpus, i))
            if got is None:
                return None
            if i:
                setups.append(got["setup_s"])
            i += 1
    got = _spawn("measure", name, args)
    if got is None:
        return None
    setups.append(got["setup_s"])
    _report(name, args, got, setups)
    metrics = dict(got["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = PER_LAYER if args.trace else END_TO_END
    return {"correct": got["correct"], "attempted": got["attempted"],
            "failed": got["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def _pin(cpus: list[int], k: int):
    """Run this process on cpus[k], round robin.

    The host slows each vCPU on its own, often for longer than a pass, so
    set-ups and passes alternate between the CPUs and a run samples all of
    them.
    """
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _report(name: str, args, got: dict, setups: list[float]):
    env = _environment(args.seed)
    print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} cpu={_cpu_model()!r} "
          f"nproc={os.cpu_count()} PYTHONHASHSEED={env['PYTHONHASHSEED']}")
    print(f"# input: {got['size']}; {got['passes']} untraced pass(es) of "
          f"{got['checks_per_pass']} checks; closed loop, 1 caller, no threads")
    m = got["metrics"]
    if args.trace:
        print(f"# traced passes: {got['traced_passes']}; verdicts match the untraced "
              f"passes: {got['verdicts_match']}; counts repeat: {got['counts_repeat']}; "
              f"span wrappers left installed: {got['wrappers_after']}")
        for k, unit in PER_LAYER.items():
            print(f"{k:36s} {m[k]:>16.6g} {unit}")
        return
    n, passes = got["checks_per_pass"], got["passes"]
    print(f"# pass times: median {got['pass_s_median']:.3f} s, best {got['pass_s_min']:.3f} s, "
          f"worst {got['pass_s_max']:.3f} s; span wrappers installed: {got['wrappers']}")
    print(f"{'checks_per_s':20s} {m['checks_per_s']:12.4f} 1/s  "
          f"({got['attempted']} checks / {sum(got['pass_s']):.3f} s of {passes} passes)")
    print(f"{'verdict_ms.p50':20s} {m['verdict_ms.p50']:12.4f} ms   "
          f"(n={got['samples']}: {n} checks x {passes} passes, pooled)")
    print(f"{'verdict_ms.tail':20s} {m['verdict_ms.tail']:12.4f} ms   "
          f"(p{got['tail_percentile']}, n={got['samples']} pooled, "
          f"{got['beyond_tail']} beyond it)")
    rate = got["failed"] / got["attempted"]
    print(f"{'error_rate':20s} {rate:12.4f}      ({got['failed']} of {got['attempted']} "
          f"attempted; unexpected: {got['unexpected']})")
    for check, detail in sorted(got["failures"].items()):
        print(f"  failed: {check}: {detail}")
    print(f"{'setup_s':20s} {statistics.median(setups):12.4f} s    "
          f"(median of {len(setups)}: {', '.join(f'{s:.4f}' for s in setups)})")
    print(f"{'peak_rss_mb':20s} {m['peak_rss_mb']:12.4f} MB")


# -- child: set up, then measure ----------------------------------------------------


def _child(args) -> int:
    import workloads
    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    run = _measure_traced if args.trace else _measure
    out = run(wl, args)
    out.update(setup_s=setup_s, size=wl.size, checks_per_pass=len(wl.checks))
    print(json.dumps(out))
    return 0


class Tally:
    """Latencies and outcomes of the checks of one or more passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts: list[object] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, str] = {}

    def run_pass(self, checks, call=lambda check: check.run) -> float:
        from workloads import Raised
        clock = time.perf_counter
        start = clock()
        for check in checks:
            fn = call(check)
            t = clock()
            try:
                verdict = fn()
            except Exception as exc:  # a raising check is a wrong answer, not a crash
                verdict = Raised.of(exc)
            self.latencies.append(clock() - t)
            self.verdicts.append(verdict)
            self.attempted += 1
            if isinstance(verdict, Raised) or not check.judge(verdict):
                self.failed += 1
                known = check.known_defect is not None and verdict == check.known_defect
                self.unexpected += not known
                self.failures[check.name] = repr(verdict)[:200] + (
                    " (the known defect)" if known else "")
        return clock() - start


def tail_percentile(checks_per_pass: int) -> int:
    """The highest percentile of TAIL_GRID that has at least 10 of the pooled
    samples beyond it in a run of MIN_PASSES passes.  Every run has at least
    that many samples, and the percentile depends only on the workload, so
    a run with more passes reports the same percentile."""
    n = checks_per_pass * MIN_PASSES
    return max([p for p in TAIL_GRID if n * (100 - p) >= 10 * 100], default=TAIL_GRID[0])


def _quantile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _measure(wl, args) -> dict:
    tally = Tally()
    passes = []
    cpus = sorted(os.sched_getaffinity(0))
    end = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < end:
        _pin(cpus, len(passes))
        passes.append(tally.run_pass(wl.checks))
    os.sched_setaffinity(0, cpus)
    n = len(wl.checks)
    latencies = tally.latencies          # pooled over every pass of the run
    pct = tail_percentile(n)
    tail = _quantile(latencies, pct)
    metrics = {
        "checks_per_s": tally.attempted / sum(passes),
        "verdict_ms.p50": statistics.median(latencies) * 1e3,
        "verdict_ms.tail": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"correct": tally.unexpected == 0, "attempted": tally.attempted,
            "failed": tally.failed, "unexpected": tally.unexpected,
            "failures": tally.failures, "passes": len(passes),
            "pass_s_median": statistics.median(passes), "pass_s_min": min(passes),
            "pass_s_max": max(passes), "pass_s": passes, "samples": len(latencies), "tail_percentile": pct,
            "beyond_tail": sum(t > tail for t in latencies),
            "wrappers": _span_wrappers(), "metrics": metrics}


def _span_wrappers() -> int:
    from tracer import Tracer   # only reads the modules; installs nothing
    return Tracer.installed_wrappers()


def _measure_traced(wl, args) -> dict:
    from tracer import Tracer, median_metrics
    import workloads
    mods = workloads.Modules()
    tracer = Tracer(mods)
    plain, traced = Tally(), Tally()
    plain_s, traced_s, layers = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    end = time.perf_counter() + args.seconds
    while len(traced_s) < MIN_PASSES or time.perf_counter() < end:
        _pin(cpus, len(traced_s))
        plain_s.append(plain.run_pass(wl.checks))
        tracer.reset()
        tracer.install()
        try:
            traced_s.append(traced.run_pass(wl.checks, lambda c: tracer.check(c.run)))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
    os.sched_setaffinity(0, cpus)
    if args.spans:
        tracer.write_spans(args.spans)
    metrics = median_metrics(layers)
    for key in PER_LAYER:
        metrics.setdefault(key, 0)
    add_in, add_calls = metrics["expression.add.terms_in"], metrics["expression.add.calls"]
    metrics["expression.add.useful_ratio"] = \
        metrics["expression.add.terms_out"] / add_in if add_in else 0
    metrics["expression.add.per_call_us"] = \
        metrics["expression.add.self_s"] / add_calls * 1e6 if add_calls else 0
    mc_calls = metrics["thomwhitney.mc_check.calls"]
    metrics["thomwhitney.tuples_checked"] = \
        metrics["thomwhitney.tuples_checked"] / mc_calls if mc_calls else 0
    metrics["trace.overhead"] = min(traced_s) / min(plain_s)
    counted = [{k: v for k, v in p.items() if not k.endswith("_s")} for p in layers]
    match = plain.verdicts == traced.verdicts
    return {"correct": plain.unexpected == 0 and traced.unexpected == 0 and match,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "passes": len(plain_s), "traced_passes": len(traced_s),
            "verdicts_match": match,
            "counts_repeat": all(c == counted[0] for c in counted),
            "wrappers_after": Tracer.installed_wrappers(), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
