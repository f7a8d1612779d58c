"""bvcov: check Batalin-Vilkovisky covariant-field-theory identities.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 a series truncated without a termination certificate, 141 standard
output closed before the report was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .curved import (FlowClosureError, TruncatedFlowError, antifield_rank,
                     canonical_substitution_check, flow_substitution, mc_check,
                     verify_flow_endpoint)
from .expression import Expression, is_zero, substitute_param
from .models import (MODEL_BUILDERS, build_model, couple_with_potential,
                     lichnerowicz_check, spinning_pipeline)
from .aksz import PipelineReport, TargetChart, build_covariant_theory, couple_gravity, twist
from .parser import ParseError, TheoryFile, build_cover, parse_theory_file, to_useries
from .printer import render, render_by_u
from .symbols import TheoryError
from .varcalc import bv_antibracket, is_total_derivative, soloviev

PASS, FAIL, USAGE, TRUNCATED = 0, 1, 2, 3
CLOSED = 141    # 128 + SIGPIPE, as a shell reports a process that a closed pipe ended

PARSER = argparse.ArgumentParser(prog="bvcov", description=__doc__)
PARSER.add_argument("subcommand", choices=[
    "check-mc", "bracket", "flow", "verify-endpoint", "twist",
    "build-aksz", "couple-gravity", "spinning", "tw-check", "normalize",
    "rank", "run"])
PARSER.add_argument("file", nargs="?", help="theory file")
PARSER.add_argument("--check", help="named check from the file")
PARSER.add_argument("--expr", help="named expression")
PARSER.add_argument("--left")
PARSER.add_argument("--right")
PARSER.add_argument("--model", choices=sorted(MODEL_BUILDERS))
PARSER.add_argument("--dim", type=int, default=2)
PARSER.add_argument("--max-order", type=int, default=24)
PARSER.add_argument("--dim-bound", type=int, default=None)
PARSER.add_argument("--relations", choices=["on", "off"], default="off")


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:    # argparse exits 0 after --help, 2 on an error
        return PASS if exc.code == 0 else USAGE
    try:
        try:
            return _dispatch(args)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return USAGE
        except (TruncatedFlowError, FlowClosureError) as exc:
            print(f"TRUNCATED: {exc}", file=sys.stderr)
            return TRUNCATED
        except TheoryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: stop quietly, with what is left unwritten
        # sent to the null device so that the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED


def _load(args) -> TheoryFile:
    if not args.file:
        raise TheoryError("this subcommand needs a theory file")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise TheoryError(f"cannot read {args.file}: {exc.strerror or exc}") from exc
    return parse_theory_file(text)


def _print_check(label: str, ok: bool, lines=()) -> bool:
    """One report line per check, then its details indented; returns ok."""
    print(f"CHECK {label}: {'PASS' if ok else 'FAIL'}")
    for line in lines:
        print(f"  {line}")
    return ok


def _dispatch(args) -> int:
    sub = args.subcommand
    if sub in ("build-aksz", "couple-gravity", "spinning") and args.model is None:
        raise TheoryError(f"{sub} needs --model")
    if args.dim_bound is not None and args.dim_bound < 0:
        raise TheoryError(f"--dim-bound must be at least 0, got {args.dim_bound}")
    if args.max_order < 1:
        raise TheoryError(f"--max-order must be at least 1, got {args.max_order}")
    # looked up per call, so a wrapped or patched pipeline is the one run
    pipelines = {"build-aksz": lambda m: PipelineReport(
                     [("master-equation", mc_check(m.series).ok)], m.series),
                 "couple-gravity": lambda m: couple_gravity(m.series),
                 "spinning": spinning_pipeline, "twist": couple_with_potential}
    if args.model and (sub in pipelines or sub == "rank"):
        model = build_model(args.model, args.dim)
        if sub == "build-aksz":
            print(f"model {model.name} (n={model.dim})")
            print(f"S_u = {render(model.series)}")
        pipeline = sub
        if sub == "rank":    # the pipeline of the model's kind; only FAILs print
            pipeline = ("spinning" if model.charge is not None else
                        "twist" if model.potential is not None else "build-aksz")
        rep = pipelines[pipeline](model)
        for label, passed in rep.checks:
            if sub != "rank" or not passed:
                _print_check(label, passed)
        if sub in ("spinning", "rank"):
            print(f"rank = {antifield_rank(rep.series)}")
        if sub == "spinning" and args.relations == "on" \
                and model.name == "curved-spinning-particle":
            print(f"lichnerowicz (optional, non-gating): {lichnerowicz_check(model).status}")
        return PASS if rep.ok else FAIL

    tf = _load(args)
    if sub == "normalize":
        if args.expr:
            print(render(_expr(tf, args.expr)))
            return PASS
        return _run_checks(tf, args, only_kind="normalize")
    if sub == "bracket" and args.left and args.right:
        a = tf.expressions[args.left]
        b = tf.expressions[args.right]
        print(render(soloviev(a, b)))
        return PASS
    kind_map = {
        "check-mc": "mc", "bracket": "bracket", "flow": "flow",
        "verify-endpoint": "verify-endpoint", "twist": "twist",
        "tw-check": "tw-mc", "rank": "rank", "run": None,
    }
    return _run_checks(tf, args, only_kind=kind_map[sub])


def _run_checks(tf: TheoryFile, args, only_kind) -> int:
    names = [args.check] if args.check else sorted(tf.checks)
    status = PASS
    ran = 0
    for name in names:
        opts = tf.checks.get(name)
        if opts is None:
            print(f"unknown check: {name}", file=sys.stderr)
            return USAGE
        if only_kind and opts["kind"] != only_kind:
            if args.check:
                print(f"check {name} has kind {opts['kind']}, not {only_kind}",
                      file=sys.stderr)
                return USAGE
            continue
        ran += 1
        if not _print_check(name, *_run_one(tf, name, opts, args)):
            status = FAIL
    if ran == 0 and args.check is None:
        print("no matching checks", file=sys.stderr)
        return USAGE
    return status


def _expr(tf: TheoryFile, name: str) -> Expression:
    e = tf.expressions.get(name)
    if e is None:
        raise TheoryError(f"no expression named {name}")
    return e


def _run_one(tf: TheoryFile, name: str, opts: dict, args) -> tuple[bool, list[str]]:
    kind = opts["kind"]
    th = tf.theory
    if kind == "mc":
        S = to_useries(_expr(tf, opts["expr"]))
        rep = mc_check(S, opts.get("mode", "B"))
        lines = [] if rep.ok else [f"residual: {render_by_u(rep.residual)}"] + rep.notes
        return rep.ok, lines
    if kind == "bracket":
        a, b = _expr(tf, opts["left"]), _expr(tf, opts["right"])
        out = soloviev(a, b) if opts.get("with", "soloviev") == "soloviev" \
            else bv_antibracket(a, b)
        if opts.get("expect") == "zero":
            return is_zero(out), [render(out)]
        want = _expr(tf, opts["expect"])
        return is_zero(out - want), [render(out)]
    if kind == "normalize":
        got = _expr(tf, opts["expr"])
        want = _expr(tf, opts["expect"])
        return got == want, [render(got)]
    if kind == "flow":
        gen = _expr(tf, opts["generator"])
        tau = th.symbol(opts.get("param", "tau"))
        direction = int(opts.get("direction", "1"))
        sub = flow_substitution(th, gen, tau, direction=direction,
                                max_iter=args.max_order)
        at = Fraction(opts["at"]) if "at" in opts else None
        target = _expr(tf, opts["applyto"])
        moved = sub.apply(target)
        if at is not None:
            moved = substitute_param(moved, tau, at)
        lines = [render(moved)]
        if "expect" in opts:
            want = _expr(tf, opts["expect"])
            return is_zero(moved - want), lines
        return True, lines
    if kind == "verify-endpoint":
        start = to_useries(_expr(tf, opts["start"]))
        family = to_useries(_expr(tf, opts["family"]))
        gen = to_useries(_expr(tf, opts["generator"]))
        tau = th.symbol(opts.get("param", "tau"))
        rep = verify_flow_endpoint(start, family, gen, tau)
        lines = []
        if not rep.ok:
            lines.append(f"ODE residual: {render_by_u(rep.residual)}")
        if not rep.initial_ok:
            lines.append("family(0) != start")
        ok = bool(rep)
        if ok and "expect" in opts:
            want = to_useries(_expr(tf, opts["expect"]))
            ok = is_zero(rep.endpoint - want)
            if not ok:
                lines.append("endpoint differs from expected")
        return ok, lines
    if kind == "twist":
        S = to_useries(_expr(tf, opts["base"]))
        W = _expr(tf, opts["w"])
        twisted = twist(S, W)
        lines = [f"twisted: {render(twisted)}"]
        rep = mc_check(twisted)
        if not rep.ok:
            return False, lines + [f"residual: {render_by_u(rep.residual)}"]
        if "expect" in opts:
            want = to_useries(_expr(tf, opts["expect"]))
            return is_zero(twisted - want), lines
        return True, lines
    if kind == "rank":
        S = to_useries(_expr(tf, opts["expr"]))
        got = antifield_rank(S)
        want = int(opts["expect"])
        return got == want, [f"rank = {got}"]
    if kind == "total-derivative":
        flag, c, _ = is_total_derivative(_expr(tf, opts["expr"]))
        want_flag = opts.get("expect", "yes") == "yes"
        ok = flag == want_flag
        if ok and "expect-const" in opts:
            ok = c == Fraction(opts["expect-const"])
        return ok, [f"flag={flag} constant={c}"]
    if kind == "canonical":
        sub = tf.substitutions.get(opts["subst"])
        if sub is None:
            raise TheoryError(f"no substitution named {opts['subst']}")
        bad = canonical_substitution_check(sub)
        return not bad, [f"offending pairs: {bad}"] if bad else []
    if kind == "tw-mc":
        block = tf.covers.get(opts["cover"])
        if block is None:
            raise TheoryError(f"no cover named {opts['cover']}")
        from .thomwhitney import global_covariant_theory, global_mc_check
        nerve = build_cover(block)
        if args.dim_bound is not None:
            nerve.dimension_bound = args.dim_bound
        local = {c: build_covariant_theory(TargetChart(block.charts[c], block.nu[c]))
                 for c in block.charts}
        SS = global_covariant_theory(nerve, local)
        rep = global_mc_check(SS)
        lines = [f"simplices checked: {len(rep.residuals)}"]
        if not rep.ok:
            lines += [f"nonzero residual on {t}" for t in rep.failing]
        return rep.ok, lines
    raise TheoryError(f"unknown check kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main())
