import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bvcov.symbols import Theory
from bvcov.expression import Expression
from bvcov.parser import (ParseError, parse_expression, parse_theory_file,
                          to_useries, from_useries)
from bvcov.printer import render
from bvcov.cli import CLOSED, main as cli_main
from conftest import HomogeneousSampler, u_parts

THEORIES = Path(__file__).resolve().parent.parent / "theories"


def test_parse_intro_lagrangian(particle_theory):
    t = particle_theory
    e = parse_expression(t, "p_1*d(x_1) - 1/2*e*p_1^2")
    from bvcov.expression import total_derivative
    want = Expression.of(t, "p_1") * total_derivative(Expression.of(t, "x_1")) \
        - Fraction(1, 2) * Expression.of(t, "e") * Expression.of(t, "p_1") ** 2
    assert e == want
    s1 = parse_expression(t, "c*(x+_1*d(x_1) + p+_1*d(p_1) - e*d(e+) + c+*d(c))")
    assert s1.grade() == (0, 0, 0)


def test_parse_errors_have_positions(particle_theory):
    with pytest.raises(ParseError) as err:
        parse_expression(particle_theory, "d(", 3)
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_expression(particle_theory, "p_1 + + *")
    with pytest.raises(ParseError):
        parse_expression(particle_theory, "nope_1")


def test_jet_and_antifield_forms(particle_theory):
    t = particle_theory
    assert parse_expression(t, "d^3(x+_1)") == \
        Expression.symbol(t, t.jet("x+_1", 3))
    assert parse_expression(t, "x+_1") == Expression.of(t, "x+_1")
    assert parse_expression(t, "eps").grade() == (-1, 1, 0)
    assert parse_expression(t, "u").grade() == (2, 0, 0)


def test_d0_is_the_identity(particle_theory):
    """d^0(E) is E, not d(E); a bare d( is the first total derivative."""
    t = particle_theory
    x = Expression.of(t, "x_1")
    assert parse_expression(t, "d^0(x_1*p_1)") == x * Expression.of(t, "p_1")
    assert parse_expression(t, "d(x_1)") == parse_expression(t, "d^1(x_1)") == \
        Expression.of(t, "x_1", 1)


def test_plus_after_a_name_is_the_suffix_unless_an_operand_follows(particle_theory):
    """After a name, + is the antifield suffix unless the next character is a
    letter, a digit, ( or -; then it is the operator."""
    t = particle_theory

    def P(src):
        return parse_expression(t, src)
    e, p, anti = Expression.of(t, "e"), Expression.of(t, "p_1"), Expression.of(t, "e+")
    assert P("e+1") == P("e + 1") == e + 1
    assert P("e+-p_1") == P("e - p_1") == e - p
    assert P("e+p_1") == P("e+(p_1)") == e + p
    assert P("e+") == P("e+ + 0") == anti
    assert P("e+*c") == anti * Expression.of(t, "c")
    assert P("c+^2 - x+_1") == Expression.of(t, "c+") ** 2 - Expression.of(t, "x+_1")
    with pytest.raises(ParseError, match="unexpected 'p_1'"):
        P("e+ p_1")


def test_pow_inv_log_round_trip(particle_theory):
    t = particle_theory
    t.add_flow_param("tau")
    for src in ("inv(e)", "log(e)", "pow(e, tau - 1)", "pow(e, -1/2)",
                "inv(-1 + e)", "log(e)*inv(-1 + e)"):
        e = parse_expression(t, src)
        assert parse_expression(t, render(e)) == e


def test_useries_split_round_trip(particle_theory):
    t = particle_theory
    e = parse_expression(t, "p_1*d(x_1) + u*c+ + u*(x+_1*p+_1)*eps + u^2*e")
    s = to_useries(e)
    assert sorted(u_parts(s)) == [0, 1, 2]
    assert from_useries(s) == e


def test_print_parse_identity_random(particle_theory):
    s = HomogeneousSampler(particle_theory, seed=77, max_jet=2)
    for _ in range(60):
        e = s.expression()
        assert parse_expression(particle_theory, render(e)) == e


def test_theory_file_round_trip():
    src = (THEORIES / "particle.bvt").read_text()
    tf = parse_theory_file(src)
    assert tf.name == "particle"
    assert "S0" in tf.expressions and "xi" in tf.substitutions
    for name, e in tf.expressions.items():
        assert parse_expression(tf.theory, render(e)) == e, name


def test_grading_violation_at_registration():
    with pytest.raises(ParseError):
        parse_theory_file("theory t\nfield x ghost 0 parity sideways\n")
    with pytest.raises(ParseError):
        parse_theory_file("theory t\nfield x ghost 0 parity even\nexpr q = inv(c)\n")


def run_cli(*argv):
    return cli_main(list(argv))


def test_cli_run_particle_file(capsys):
    rc = run_cli("run", str(THEORIES / "particle.bvt"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "CHECK particle_flat: PASS" in out
    assert "CHECK flow_phi_S: PASS" in out
    assert "CHECK phi_canonical: PASS" in out


def test_cli_check_mc_single(capsys):
    rc = run_cli("check-mc", str(THEORIES / "particle.bvt"),
                 "--check", "particle_flat")
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_check_mc_prints_the_residual_by_u_power(tmp_path, capsys):
    """A failing `mc` check prints its residual u-power by u-power, each
    coefficient as body + (eps part)*eps, then one note per nonzero power."""
    f = tmp_path / "bad.bvt"
    f.write_text("field x_1 ghost 0 parity even\n"
                 "field p_1 ghost 0 parity even\n"
                 "expr S = d(x_1)*p_1 + u*x+_1*p+_1 - u*p_1*p+_1*eps + u*x_1*p+_1*eps\n"
                 "check bad mc expr=S\n")
    assert run_cli("check-mc", str(f)) == 1
    assert capsys.readouterr().out == (
        "CHECK bad: FAIL\n"
        "  residual: u*(-x_1*d(p+_1) - d(x_1)*p+_1 + 2*p_1*d(p+_1) + 2*d(p_1)*p+_1"
        " + (x_1*d(x_1) - 2*d(x_1)*p_1)*eps) + u^2*((2*x+_1*p+_1)*eps)\n"
        "  u^1: nonzero residual\n"
        "  u^2: nonzero residual\n")


_PHASE_SPACE = "field x_1 ghost 0 parity even\nfield p_1 ghost 0 parity even\n"


@pytest.mark.parametrize("sub, source, rc, out, err", [
    ("check-mc", _PHASE_SPACE + "expr S = d(x_1)*p_1 + u*x+_1*p+_1 + u*x_1\n"
     "check g mc expr=S\n",
     2, "", "error: u^1 coefficient is not homogeneous\n"),
    ("check-mc", _PHASE_SPACE + "expr S = d(x_1)*p_1 + u*x_1\ncheck g mc expr=S\n",
     2, "", "error: u^1 coefficient has grade (0, 0), expected (-2, 0)\n"),
    ("verify-endpoint", "field x ghost 0 parity even\nfield p ghost 0 parity even\n"
     "param tau\nexpr A = d(x)*p + u*x+*p+\nexpr F = d(x)*p + u*x+*p+ + tau*x*p\n"
     "expr G = x*eps\ncheck v verify-endpoint start=A family=F generator=G\n",
     1, "CHECK v: FAIL\n  ODE residual: x*p - d(x) + u*((-p+)*eps)\n", ""),
    ("twist", "field x ghost 0 parity even\nfield c ghost 1 parity odd\n"
     "expr S = d(x)*c+ + u*x+*c\nexpr W = c*x\ncheck t twist base=S w=W\n",
     2, "", "error: dW is not divisible by u: u^0 part -x*d(x)\n"),
])
def test_cli_prints_grades_and_residuals_by_u_power(tmp_path, capsys, sub, source,
                                                    rc, out, err):
    """The texts that show an element power by power: the grade refusals of
    `check-mc`, the ODE residual of `verify-endpoint` and the u^0 part of a
    twist that u does not divide."""
    f = tmp_path / "pin.bvt"
    f.write_text(source)
    assert run_cli(sub, str(f)) == rc
    assert capsys.readouterr() == (out, err)


def test_cli_tw_check(capsys):
    rc = run_cli("tw-check", str(THEORIES / "cylinder_flux.bvt"),
                 "--check", "cylinder_flux")
    assert rc == 0


def test_cli_file_bound_wins_unless_dim_bound_given(tmp_path, capsys):
    text = (THEORIES / "cylinder_flux.bvt").read_text()
    assert "cover cylinder_flux bound 3\n" in text
    f = tmp_path / "cylinder_bound1.bvt"
    f.write_text(text.replace("cover cylinder_flux bound 3\n",
                              "cover cylinder_flux bound 1\n"))
    for extra, count in (((), 6), (("--dim-bound", "2"), 14)):
        assert run_cli("tw-check", str(f), *extra) == 0
        assert f"  simplices checked: {count}\n" in capsys.readouterr().out


def test_cli_unknown_check_exits_2(capsys):
    rc = run_cli("check-mc", str(THEORIES / "particle.bvt"),
                 "--check", "not_there")
    assert rc == 2


def test_cli_usage_error():
    assert run_cli("no-such-subcommand") == 2
    assert run_cli("check-mc") == 2


def test_cli_help_exits_0_and_an_argument_error_2(capsys):
    """argparse's exit after `--help` is a success; an argument it refuses,
    such as an option the CLI does not have, is a usage error."""
    assert run_cli("--help") == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: bvcov") and err == ""
    assert run_cli("bracket", str(THEORIES / "particle.bvt"), "--kind", "bv") == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --kind bv" in err


def test_cli_bracket_of_two_named_expressions(capsys):
    """README's `bvcov bracket theories/particle.bvt --left S0 --right S1`
    prints the Soloviev bracket {S0, S1}: minus the total derivative of
    c*(p_1*d(x_1) + p_2*d(x_2))."""
    assert run_cli("bracket", str(THEORIES / "particle.bvt"), "--left", "S0",
                   "--right", "S1") == 0
    assert capsys.readouterr() == (
        "-d(x_1)*p_1*d(c) - d(x_1)*d(p_1)*c - d^2(x_1)*p_1*c"
        " - d(x_2)*p_2*d(c) - d(x_2)*d(p_2)*c - d^2(x_2)*p_2*c\n", "")


_CHECK_KIND_THEORY = ("field x ghost 0 parity even\nfield p ghost 0 parity even\n"
                      "expr X = x\nexpr P = p\nexpr Xa = x+\nexpr XdX = x*d(x)\n"
                      "expr DX = d(x)\nexpr One = 1\nexpr Two = 2\n"
                      "expr A = x*p + p*x\nexpr B = 2*p*x\nexpr C = x*p\n"
                      "expr L = d(x*p) + 3\nexpr N = x*d(p)\n")


@pytest.mark.parametrize("sub, check, rc, detail", [
    # {x d(x), x+} is d(x) as densities (Soloviev) and 0 as functionals (bv)
    ("bracket", "bracket left=X right=P expect=zero", 0, "0"),
    ("bracket", "bracket left=XdX right=Xa expect=zero", 1, "d(x)"),
    ("bracket", "bracket left=XdX right=Xa expect=DX with=soloviev", 0, "d(x)"),
    ("bracket", "bracket left=X right=Xa expect=Two", 1, "1"),
    ("bracket", "bracket left=XdX right=Xa expect=zero with=bv", 0, "0"),
    ("bracket", "bracket left=XdX right=Xa expect=DX with=bv", 1, "0"),
    ("bracket", "bracket left=X right=Xa expect=One with=bv", 0, "1"),
    ("normalize", "normalize expr=A expect=B", 0, "2*x*p"),
    ("normalize", "normalize expr=A expect=C", 1, "2*x*p"),
    ("run", "total-derivative expr=N expect=no", 0, "flag=False constant=0"),
    ("run", "total-derivative expr=L expect=no", 1, "flag=True constant=3"),
    ("run", "total-derivative expr=L expect-const=3", 0, "flag=True constant=3"),
    ("run", "total-derivative expr=L expect-const=2", 1, "flag=True constant=3"),
])
def test_cli_bracket_normalize_and_total_derivative_checks(tmp_path, capsys, sub, check,
                                                            rc, detail):
    """The `bracket` (Soloviev and bv, `expect=zero` and a named expect),
    `normalize` and `total-derivative` (`expect=no`, `expect-const`) check
    kinds each pass and fail, and print their result."""
    f = tmp_path / "kinds.bvt"
    f.write_text(_CHECK_KIND_THEORY + f"check k {check}\n")
    assert run_cli(sub, str(f)) == rc
    assert capsys.readouterr() == (f"CHECK k: {'FAIL' if rc else 'PASS'}\n  {detail}\n", "")


def test_cli_refuses_out_of_range_numbers_and_unreadable_files(tmp_path, capsys):
    """A negative --dim-bound (which would check no simplex), a --max-order
    below 1 (which would report a truncation), a --dim below 1 on a
    dimensioned model, build-aksz without --model and a file that cannot be
    read are usage errors (exit 2) naming the flag or the path."""
    missing = tmp_path / "missing.bvt"
    cases = [
        (("tw-check", str(THEORIES / "cylinder_flux.bvt"), "--dim-bound", "-1"),
         "--dim-bound must be at least 0, got -1"),
        (("flow", str(THEORIES / "particle.bvt"), "--max-order", "0"),
         "--max-order must be at least 1, got 0"),
        (("flow", str(THEORIES / "particle.bvt"), "--max-order", "-1"),
         "--max-order must be at least 1, got -1"),
        (("build-aksz", "--model", "flat-particle", "--dim", "0"),
         "flat-particle needs --dim of at least 1, got 0"),
        (("spinning", "--model", "curved-spinning-particle", "--dim", "-2"),
         "curved-spinning-particle needs --dim of at least 1, got -2"),
        (("build-aksz",), "build-aksz needs --model"),
        (("run", str(missing)), f"cannot read {missing}: No such file or directory"),
        (("check-mc", str(tmp_path)), f"cannot read {tmp_path}: Is a directory"),
    ]
    for argv, message in cases:
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert run_cli("build-aksz", "--model", "bc-system", "--dim", "0") == 0
    assert run_cli("tw-check", str(THEORIES / "cylinder_flux.bvt"), "--dim-bound", "0") == 0
    assert "  simplices checked: 2\n" in capsys.readouterr().out


def test_cli_failing_check_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bvt"
    bad.write_text(
        "theory t\n"
        "field x ghost 0 parity even\n"
        "field p ghost 0 parity even\n"
        "expr S = p*d(x)\n"
        "check no mc expr=S mode=F\n")
    rc = run_cli("check-mc", str(bad), "--check", "no")
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL" in out


def test_cli_normalize_reads_d0_as_its_argument(tmp_path, capsys):
    """`normalize --expr` prints D^0(x) as x, and d(x) and d^2(x) as jets."""
    f = tmp_path / "d0.bvt"
    f.write_text("field x ghost 0 parity even\n"
                 "expr A = d^0(x)\nexpr B = d(x)\nexpr C = d^2(x)\n")
    for name, text in (("A", "x"), ("B", "d(x)"), ("C", "d^2(x)")):
        assert run_cli("normalize", str(f), "--expr", name) == 0
        assert capsys.readouterr() == (text + "\n", "")


def test_cli_zero_denominator_in_exponent_exits_2(tmp_path, capsys):
    """A rational exponent with denominator 0 is a parse error with its
    position (exit 2), not a ZeroDivisionError out of `cli.main`."""
    f = tmp_path / "zero.bvt"
    f.write_text(
        "theory t\n"
        "field x ghost 0 parity even\n"
        "expr S = pow(x, 1/0)\n")
    assert run_cli("run", str(f)) == 2
    err = capsys.readouterr().err
    assert "zero denominator" in err and "line 3, column 19" in err
    t = Theory("t")
    t.add_field("x", 0, 0)
    with pytest.raises(ParseError) as exc:
        parse_expression(t, "pow(x, -3/0)", 4)
    assert (exc.value.line, exc.value.column) == (4, 11)
    assert parse_expression(t, "pow(x, 4/2)") == Expression.of(t, "x") ** 2


def test_parse_error_columns_count_from_the_line_start(tmp_path, capsys):
    """Parse errors inside an `expr`, `map`, `nu`, `from` piece or `mu`
    right-hand side, malformed `field`, `function` and `cover` lines, and
    `chart` or `overlap` lines outside a cover block, report the column in
    the whole line, indentation included."""
    header = "theory t\nfield x ghost 0 parity even\n"
    cover = ("cover c bound 1\nchart A\nfield x ghost 0 parity even\n"
             "chart B\nfield x ghost 0 parity even\noverlap A B\n"
             "field x ghost 0 parity even\nfrom A : x -> x\n")
    cases = [
        (header + "expr S = x + y\n", "unknown symbol y", 3, 14),
        (header + "  expr S = pow(x, 1/0)\n", "zero denominator", 3, 21),
        (header + "subst g\n map x -> x $ 1\nendsubst\n", "bad character", 4, 13),
        ("cover c bound 1\nchart A\nfield x ghost 0 parity even\nnu x = 2*q\n",
         "unknown symbol q", 4, 10),
        (cover + "from B : x -> x ;  x -> x + z\n", "unknown symbol z", 9, 29),
        (cover + "mu = (x\n", "expected ), got ''", 9, 8),
        (header + "expr S = pow(x, 2*x)\n", "x is not a flow parameter", 3, 19),
        (header + "expr S = D(x)\n", "unknown call D", 3, 10),
        (header + "expr S = x/x\n", "/ is reserved for rational literals", 3, 11),
        (header + "subst g\nmap y -> x\nendsubst\n", "unknown symbol: y", 4, 5),
        (header + "  field y ghost 0 parity maybe\n", "parity must be even or odd", 3, 26),
        (header + "field y ghost 0 parity\n", "field NAME ghost INT parity", 3, 23),
        (header + "field y ghost 0 sign even\n", "field NAME ghost INT parity", 3, 17),
        (header + "function F of x\n", "function NAME args F1 F2 ...", 3, 12),
        (header + "function F args\n", "function NAME args F1 F2 ...", 3, 16),
        (header + "cover c bound x\n", "cover bound must be a nonnegative integer", 3, 15),
        (header + "cover c bound\n", "cover NAME [bound INT]", 3, 14),
        (header + "  chart U0\n", "chart outside cover block", 3, 3),
        (cover + "endcover\noverlap A B\n", "overlap outside cover block", 10, 1),
    ]
    for source, message, line, column in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_theory_file(source)
        assert (exc.value.line, exc.value.column) == (line, column), source
    # the CLI reports them as usage errors, not as a failed check
    path = tmp_path / "bad.bvt"
    for source, message, _, _ in cases[-4:]:
        path.write_text(source)
        assert run_cli("run", str(path)) == 2
        assert capsys.readouterr().err.startswith("parse error: " + message), source


def test_check_lines_are_validated_when_parsed(tmp_path, capsys):
    """A `check` line of an unknown kind, without a key its kind needs, with
    a key its kind never reads (a misspelt `expect` would otherwise be
    dropped and the check run as if it were absent), with a value its kind
    does not read, with a word that is not key=value or with a key given
    twice is a parse error at the offending word, so the CLI exits 2 before
    any check runs."""
    header = "theory t\nfield x ghost 0 parity even\nexpr S = x\n"
    cases = [
        ("check c1 mc", "mc", "mc check needs expr="),
        ("check r1 rank expr=S expect=two", "expect=", "expect must be an integer"),
        ("check b1 bracket left=S right=S expect=zero with=foo", "with=",
         "with must be soloviev or bv"),
        ("check t1 total-derivative expr=S expect=maybe", "expect=",
         "expect must be yes or no"),
        ("check t2 total-derivative expr=S expect-const=1/0", "expect-const=",
         "expect-const must be an exact rational"),
        ("check f1 flow generator=S applyto=S direction=2", "direction=",
         "direction must be 1 or -1"),
        ("check f2 flow generator=S applyto=S at=half", "at=",
         "at must be an exact rational"),
        ("check m1 mc expr=S mode=C", "mode=", "mode must be B or F"),
        ("check k1 frobnicate expr=S", "frobnicate", "unknown check kind 'frobnicate'"),
        ("check t3 total-derivative expr=S expct=no", "expct=",
         "total-derivative check reads no key 'expct'"),
        ("check c2 tw-mc cover=c expect=yes", "expect=", "tw-mc check reads no key 'expect'"),
        ("check c3 mc expr", "expr", "mc check: expected key=value, got 'expr'"),
        ("check c4 mc expr=S expr=T", "expr=T", "mc check: repeated key 'expr'"),
    ]
    path = tmp_path / "bad.bvt"
    for check, word, message in cases:
        source = header + "  " + check + "\n"
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_theory_file(source)
        assert (exc.value.line, exc.value.column) == (4, check.index(word) + 3), check
        path.write_text(source)
        assert run_cli("run", str(path)) == 2
        assert capsys.readouterr().err.startswith("parse error: "), check


def test_malformed_directive_lines_fail_at_their_column(tmp_path, capsys):
    """Each directive line is checked against its usage and block in
    `_DIRECTIVES` before it is read, so a word missing, extra or misplaced,
    a line outside its block, an undeclared chart, a `nu` of no field and a
    declaration the theory refuses are parse errors at their line and
    column (exit 2).  Each of these once ended in a traceback, was dropped
    silently or failed only when a check ran."""
    header = "theory t\nfield x ghost 0 parity even\n"
    cover = ("cover c\nchart A\nfield x ghost 0 parity even\nchart B\n"
             "field y ghost 0 parity even\noverlap A B\nfield x ghost 0 parity even\n")
    cases = [
        ("theory\n", "theory NAME", 1, 7),
        (header + "subst\n", "subst NAME", 3, 6),
        (header + "oneform\n", "oneform NAME [ghost INT]", 3, 8),
        (header + "oneform w ghost\n", "oneform NAME [ghost INT]", 3, 16),
        (header + "oneform w ghost a\n", "oneform ghost must be an integer, got 'a'", 3, 17),
        (cover + "from Z : x -> x\n", "Z is not a chart of overlap A B", 8, 6),
        ("cover c\nchart A A\n", "chart NAME", 2, 9),
        (header + "endsubst\n", "endsubst outside subst block", 3, 1),
        (header + "  endcover\n", "endcover outside cover block", 3, 3),
        (header + "mu = x\n", "mu outside overlap block", 3, 1),
        ("cover c\nchart A\nfield y ghost 0 parity even\nnu q = y\n",
         "q is not a field of chart A", 4, 4),
        ("cover c\nchart A\noverlap A Z\n", "Z is not a chart of cover c", 3, 11),
        (header + "expr S0 S0 = x\n", "expr NAME = EXPRESSION", 3, 9),
        (header + "subst g\nmap x\nendsubst\n", "map NAME -> EXPRESSION", 4, 6),
        (cover + "mu =\n", "mu = EXPRESSION", 8, 5),
        (cover + "from A : x x\n", "from CHART : FIELD -> EXPRESSION ; ...", 8, 13),
        (header + "field y ghost 0 parity even odd\n", "field NAME ghost INT parity even|odd", 3, 29),
        (header + "check c1\n", "check NAME KIND key=value ...", 3, 9),
        (header + "  bogus x\n", "unknown directive 'bogus'", 3, 3),
        (header + "field x ghost 0 parity odd\n", "name already registered: x", 3, 7),
        (header + "function F args y\n", "function argument y is not a field", 3, 17),
        (cover + "from A : y -> x\n", "images must cover exactly the target fields", 8, 6),
    ]
    path = tmp_path / "bad.bvt"
    for source, message, line, column in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_theory_file(source)
        assert (exc.value.line, exc.value.column) == (line, column), source
        path.write_text(source)
        assert run_cli("run", str(path)) == 2
        assert capsys.readouterr().err.startswith("parse error: " + message), source
    # a subst block is kept when no endsubst closes it
    tf = parse_theory_file(header + "subst xi\nmap x -> 2*x\n")
    assert [s.name for s in tf.substitutions["xi"].images] == ["x"]


@pytest.mark.parametrize("declaration", [
    "field eps ghost 0 parity even", "field u ghost -2 parity even",
    "function eps args x", "function u args x", "param u", "param eps",
    "oneform u", "oneform eps ghost 1"])
def test_structural_names_are_reserved(tmp_path, capsys, declaration):
    """eps and u name the structural generators of every theory, so a
    declaration taking either is refused at the name (exit 2); before, a
    field eps or u was accepted and replaced the generator."""
    head, name = declaration.split()[:2]
    path = tmp_path / "reserved.bvt"
    path.write_text(f"field x ghost 0 parity even\n{declaration}\nexpr S = x*eps\n")
    assert run_cli("run", str(path)) == 2
    assert capsys.readouterr().err == \
        f"parse error: reserved name: {name} at line 2, column {len(head) + 2}\n"


_OVERLAP = "overlap U0 U1\n"
_FROM_U0 = "from U0 : x -> x ; p -> p\n"
_FROM_U1 = "from U1 : y -> x + 3 ; p -> p\n"


def _second_overlap_block(text):
    block = text[text.index(_OVERLAP):text.index("endcover")]
    return text.replace("endcover", block.replace("mu = 3*x", "mu = 0") + "endcover")


@pytest.mark.parametrize("edit, message, line, column", [
    # a second block replaced the first: with mu = 0 the check failed
    (_second_overlap_block, "overlap U0 U1 is already declared", 22, 9),
    # the U0 U1 overlap was dropped: 8 simplices checked instead of 30
    (lambda text: text.replace(_OVERLAP, "overlap U0 U0\n").replace(_FROM_U1, ""),
     "chart U0 is repeated in the overlap", 16, 12),
    # a one-chart overlap was ignored and the check passed
    (lambda text: text.replace(_OVERLAP, "overlap U1\n").replace(_FROM_U0, ""),
     "an overlap needs at least two charts", 16, 9),
    # refused only when the check ran, with no line or column
    (lambda text: text.replace(_FROM_U1, ""), "overlap U0 U1 has no from line for U1", 16, 12),
], ids=["declared-twice", "repeated-chart", "one-chart", "missing-from"])
def test_malformed_overlap_blocks_exit_2_at_the_chart(tmp_path, capsys, edit, message,
                                                     line, column):
    """An overlap block declared twice, naming a chart twice, naming one
    chart or lacking a `from` line for one of its charts is a parse error
    at the overlap line, at the chart name that is repeated, alone or
    missing its restriction (exit 2)."""
    path = tmp_path / "cylinder.bvt"
    path.write_text(edit((THEORIES / "cylinder_flux.bvt").read_text()))
    assert run_cli("tw-check", str(path)) == 2
    assert capsys.readouterr().err == \
        f"parse error: {message} at line {line}, column {column}\n"


@pytest.mark.parametrize("edit, name, line", [
    # exit 2 with `error: unknown symbol: dt_1`, no line or column
    (lambda text: re.sub(r"\bx\b", "t_1", text), "t_1", 9),
    (lambda text: re.sub(r"\bx\b", "t_3", text), "t_3", 9),
    # bound 3 needs no t_4, but the nerve read t_4 as its own and asked for dt_4
    (lambda text: re.sub(r"\bx\b", "t_4", text), "t_4", 9),
    # exit 2 with `odd_derivation: the image of t_3 is not odd relative to it`
    (lambda text: re.sub(r"\bx\b", "dt_3", text), "dt_3", 9),
    (lambda text: text.replace("overlap U0 U1\nfield x", "overlap U0 U1\nfield dt_1"),
     "dt_1", 17),
], ids=["t_1", "t_3", "t_4", "dt_3", "overlap-dt_1"])
def test_cover_fields_named_like_simplex_generators_exit_2_at_the_name(tmp_path, capsys,
                                                                       edit, name, line):
    """A field of a chart or an overlap named t_<i> or dt_<i>, a name of
    the nerve's simplex generators, is a parse error at the name (exit
    2); outside a cover such a field is an ordinary one."""
    path = tmp_path / "cylinder.bvt"
    path.write_text(edit((THEORIES / "cylinder_flux.bvt").read_text()))
    assert run_cli("tw-check", str(path)) == 2
    assert capsys.readouterr().err == (f"parse error: {name} is reserved for the simplex "
                                       f"generators of the nerve at line {line}, column 7\n")
    assert parse_theory_file(f"field {name} ghost 0 parity even\n").theory.has_name(name)


@pytest.mark.parametrize("edit", [
    # an IndexError traceback, exit 1
    (lambda text: text.replace("overlap U0 U1\nfield x ghost 0 parity even\n"
                               "field p ghost 0 parity even\n",
                               "overlap U0 U1\nfield x ghost 0 parity even\n"
                               "field p ghost 0 parity even\nfield z ghost 0 parity even\n")),
    # exit 2 with "Jacobian is not invertible"
    (lambda text: text.replace("overlap U0 U1\n",
                               "overlap U0 U1\nfield z ghost 0 parity even\n")),
], ids=["after-p", "before-x"])
def test_an_overlap_with_more_fields_than_its_chart_exits_2(tmp_path, capsys, edit):
    """An overlap that declares more fields than the chart it restricts to
    cannot map to it etale; the first `from` line is a parse error at its
    chart, naming both field counts (exit 2)."""
    path = tmp_path / "cylinder.bvt"
    text = (THEORIES / "cylinder_flux.bvt").read_text()
    assert edit(text) != text
    path.write_text(edit(text))
    assert run_cli("tw-check", str(path)) == 2
    assert capsys.readouterr().err == (
        "parse error: U0^U1 has 3 fields and U0 has 2: an etale map needs as many of each "
        "at line 20, column 6\n")


@pytest.mark.parametrize("edit, message, line, column", [
    # the second mu replaced the first, and the check failed
    (lambda text: text.replace("mu = 3*x\n", "mu = 3*x\nmu = 0\n"),
     "overlap U0 U1 already has a mu line", 22, 1),
    # the second nu replaced the first, and the check failed
    (lambda text: text.replace("nu x = p + 2\n", "nu x = p + 2\nnu x = p\n"),
     "chart U0 already has a nu line for x", 12, 4),
    # the second restriction replaced the first, and the check still passed
    (lambda text: text.replace(_FROM_U1, _FROM_U1 + "from U1 : y -> x ; p -> p\n"),
     "overlap U0 U1 already has a from line for U1", 21, 6),
], ids=["second-mu", "second-nu", "second-from"])
def test_repeated_cover_lines_exit_2_at_the_repeat(tmp_path, capsys, edit, message, line,
                                                   column):
    """A second `mu` line in an overlap block, a second `nu` line for one
    field of a chart, or a second `from` line for one chart of an overlap is
    a parse error at the repeated line (exit 2), at the field or chart it
    names; before, it replaced the first without a word."""
    path = tmp_path / "cylinder.bvt"
    path.write_text(edit((THEORIES / "cylinder_flux.bvt").read_text()))
    assert run_cli("tw-check", str(path)) == 2
    assert capsys.readouterr().err == \
        f"parse error: {message} at line {line}, column {column}\n"


def _word_mutants(source: str):
    """The sources made from each non-comment line of source by dropping
    the line, and for each of its words by deleting the word, duplicating
    it, keeping only the words before it, or swapping it with the next."""
    lines = source.splitlines()
    for i, line in enumerate(lines):
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        edits = [[]]
        for j in range(len(words)):
            edits += [words[:j] + words[j + 1:], words[:j + 1] + words[j:], words[:j]]
            if j + 1 < len(words):
                edits.append(words[:j] + [words[j + 1], words[j]] + words[j + 2:])
        for edit in edits:
            yield "\n".join(lines[:i] + [" ".join(edit)] + lines[i + 1:]) + "\n"


def test_word_mutants_of_the_theory_files_parse_or_fail_at_a_column():
    """Every word-level mutant of `theories/*.bvt` parses or raises a
    ParseError with a line and a column, never another exception.  The two
    mutants that leave a bare `param` line still raise IndexError: the
    benchmark's front-door workload pins that known defect, and mending it
    turns them into parse errors and this count into 0."""
    outcomes = Counter()
    for path in sorted(THEORIES.glob("*.bvt")):
        for source in _word_mutants(path.read_text()):
            try:
                parse_theory_file(source)
                outcomes["parsed"] += 1
            except ParseError as exc:
                assert exc.line >= 1 and exc.column >= 1, (str(exc), source)
                outcomes["refused"] += 1
            except IndexError:
                assert "\nparam\n" in source, source
                outcomes["bare param"] += 1
    assert outcomes["bare param"] == 2
    assert outcomes["parsed"] and outcomes["refused"]


def test_readme_lists_every_directive_usage():
    from bvcov.parser import _DIRECTIVES
    readme = (THEORIES.parent / "README.md").read_text(encoding="utf-8")
    missing = [usage for usage, _ in _DIRECTIVES.values() if usage and usage not in readme]
    assert not missing, missing


def test_check_kinds_list_every_key_the_cli_reads():
    """The parser's table of check keys is exactly the set of `opts` keys
    each kind's branch of `cli._run_one` reads, so no key the CLI reads is
    refused and no key it ignores is accepted."""
    import ast
    import inspect
    from bvcov import cli
    from bvcov.parser import _CHECK_KINDS
    read = {}
    for branch in ast.walk(ast.parse(inspect.getsource(cli._run_one))):
        if isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare) \
                and getattr(branch.test.left, "id", None) == "kind":
            keys = read.setdefault(branch.test.comparators[0].value, set())
            for node in ast.walk(ast.Module(body=branch.body, type_ignores=[])):
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "opts":
                    keys.add(node.slice.value)
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "get" \
                        and getattr(node.func.value, "id", None) == "opts":
                    keys.add(node.args[0].value)
                elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In) \
                        and getattr(node.comparators[0], "id", None) == "opts":
                    keys.add(node.left.value)
    assert read == {kind: set(required) | set(values)
                    for kind, (required, values) in _CHECK_KINDS.items()}


def test_cli_couple_gravity_reports_the_log_flow_step(monkeypatch, capsys):
    """`log-family-certified` reports whether the certified log-flow
    endpoint equals S + c(b+ db + c+ dc) + u c+: with that endpoint made
    wrong, the line reads FAIL and the command exits 1."""
    argv = ("couple-gravity", "--model", "flat-particle", "--dim", "1")
    assert run_cli(*argv) == 0
    assert "CHECK log-family-certified: PASS" in capsys.readouterr().out
    from bvcov import aksz
    real = aksz.log_flow

    def doubled(T, tau):
        cert = real(T, tau)
        return dataclasses.replace(cert, endpoint=cert.endpoint * 2)

    monkeypatch.setattr(aksz, "log_flow", doubled)
    assert run_cli(*argv) == 1
    assert "CHECK log-family-certified: FAIL" in capsys.readouterr().out


def test_cli_spinning_reports_a_failing_stage(monkeypatch, capsys):
    """With the functional-level master equation made to fail, `spinning`
    still prints every check line, marks only that one FAIL, prints the
    rank and exits 1."""
    from bvcov import models
    monkeypatch.setattr(models, "_master_equation_with_witness", lambda S, d: False)
    assert run_cli("spinning", "--model", "flat-spinning-particle", "--dim", "1") == 1
    labels = ["stage-product", "stage-twist", "stage-log-flow", "stage-cXi1",
              "stage-cS1", "bch-merge", "rename-canonical"]
    assert capsys.readouterr().out.splitlines() == \
        [f"CHECK {label}: PASS" for label in labels] \
        + ["CHECK physical-master-equation: FAIL", "rank = 2"]


def _fail_mc_on_twisted(monkeypatch, module):
    """Wrap `module.twist` to remember the series it returns and
    `module.mc_check` to report that series as failing."""
    twisted = []
    real_twist, real_mc = module.twist, module.mc_check

    def twist(S, W):
        twisted.append(real_twist(S, W))
        return twisted[-1]

    def mc_check(S, *args):
        rep = real_mc(S, *args)
        if any(S is T for T in twisted):
            rep.ok = False
        return rep
    monkeypatch.setattr(module, "twist", twist)
    monkeypatch.setattr(module, "mc_check", mc_check)


def test_cli_spinning_reports_a_failing_twist_stage(monkeypatch, capsys):
    """`stage-twist` is the master equation of the twisted theory: when it
    fails, the line reads FAIL and the command exits 1 (a failed check),
    not 2."""
    from bvcov import models
    _fail_mc_on_twisted(monkeypatch, models)
    assert run_cli("spinning", "--model", "flat-spinning-particle", "--dim", "1") == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "FAIL" in line] == ["CHECK stage-twist: FAIL"]


def test_cli_twist_model_reports_a_failing_twisted_theory(monkeypatch, capsys):
    """`twist --model` reports a twisted theory that fails the master
    equation as the one failing check `twisted-master-equation` (exit 1),
    and runs no gauge flow on it."""
    from bvcov import models
    _fail_mc_on_twisted(monkeypatch, models)
    assert run_cli("twist", "--model", "flat-particle", "--dim", "1") == 1
    assert capsys.readouterr() == ("CHECK twisted-master-equation: FAIL\n", "")


# Each model subcommand, with the label of each `mc_check` it runs in call order.
_SPINNING_STAGES = ["stage-product", "stage-twist", "stage-log-flow", "stage-cXi1",
                    "stage-cS1"]
_MC_LABELS = [(("build-aksz", "--model", model, "--dim", "1"), ["master-equation"])
              for model in ("flat-particle", "magnetic-particle", "bc-system",
                            "betagamma-system", "flat-spinning-particle",
                            "curved-spinning-particle")] + [
    (("couple-gravity", "--model", "magnetic-particle", "--dim", "1"),
     ["product-master-equation", "endpoint-master-equation"]),
    (("twist", "--model", "flat-particle", "--dim", "1"),
     ["twisted-master-equation", "endpoint-master-equation"]),
    (("spinning", "--model", "flat-spinning-particle", "--dim", "1"), _SPINNING_STAGES),
    (("rank", "--model", "flat-spinning-particle", "--dim", "1"), _SPINNING_STAGES),
    (("rank", "--model", "bc-system"), ["master-equation"]),
]


@pytest.mark.parametrize("argv, labels", _MC_LABELS,
                         ids=[" ".join(argv) for argv, _ in _MC_LABELS])
def test_every_master_equation_of_a_model_subcommand_can_fail(argv, labels,
                                                             monkeypatch, capsys):
    """A passing run makes exactly one `mc_check` per label.  With the k-th
    call made to fail, the run prints exactly one FAIL line, that of the
    k-th label, writes nothing to stderr and exits 1; `rank` prints that
    line and then the rank."""
    from bvcov import aksz, cli, curved, models
    calls, fail_at = [], [None]

    def mc_check(S, *args):
        calls.append(S)
        rep = curved.mc_check(S, *args)
        if len(calls) == fail_at[0]:
            rep.ok = False
        return rep
    for module in (aksz, models, cli):
        monkeypatch.setattr(module, "mc_check", mc_check)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert len(calls) == len(labels)
    for k, label in enumerate(labels, 1):
        calls.clear()
        fail_at[0] = k
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert [line for line in lines if line.endswith(": FAIL")] == [f"CHECK {label}: FAIL"]
        if argv[0] == "rank":
            assert len(lines) == 2 and lines[1].startswith("rank = ")


_TWIST_FILE = (
    "theory p\n"
    "field x_1 ghost 0 parity even\n"
    "field p_1 ghost 0 parity even\n"
    "field b ghost -1 parity odd\n"
    "field c ghost 1 parity odd\n"
    "expr T = d(x_1)*p_1 + p_1*p+_1*u*eps - d(b)*c + c*c+*u*eps + x+_1*p+_1*u + b+*c+*u\n"
    "expr S = d(x_1)*p_1\n"
    "expr W = 1/2*c*p_1^2\n"
    "check tw twist base=T w=W\n"
    "check bad twist base=S w=W\n")


def test_cli_twist_check_reports_the_master_equation(tmp_path, monkeypatch, capsys):
    """A `twist` file check passes when the twisted theory solves the master
    equation; otherwise it prints FAIL with a `residual:` line after its
    `twisted:` line and exits 1.  A base that breaks the master equation
    gives such a twisted theory, and so does a failing `cli.mc_check`."""
    f = tmp_path / "twist.bvt"
    f.write_text(_TWIST_FILE)
    assert run_cli("twist", str(f), "--check", "tw") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CHECK tw: PASS" and out[1].startswith("  twisted: ")
    assert len(out) == 2
    assert run_cli("twist", str(f), "--check", "bad") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CHECK bad: FAIL" and out[1].startswith("  twisted: ")
    assert out[2].startswith("  residual: ") and len(out) == 3
    from bvcov import cli
    _fail_mc_on_twisted(monkeypatch, cli)
    assert run_cli("twist", str(f), "--check", "tw") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "CHECK tw: FAIL" and out[1].startswith("  twisted: ")
    assert out[2].startswith("  residual: ") and len(out) == 3


def test_cli_couple_gravity_refuses_a_model_with_the_bc_ghosts(capsys):
    """The bc system already carries the b, c ghosts: coupling it to
    gravity again is refused before the product is built (exit 2)."""
    assert run_cli("couple-gravity", "--model", "bc-system") == 2
    assert capsys.readouterr().err == (
        "error: the model already carries the b, c ghosts and cannot be coupled "
        "to gravity again\n")
    assert run_cli("couple-gravity", "--model", "betagamma-system") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "CHECK endpoint-master-equation: PASS" in out


def test_cli_truncation_exit_3(tmp_path, capsys):
    f = tmp_path / "trunc.bvt"
    f.write_text(
        "theory t\n"
        "field b ghost -1 parity odd\n"
        "field c ghost 1 parity odd\n"
        "param tau\n"
        "expr gen = b+*c+*c\n"   # orbit grows by powers of b+: no closure
        "expr S = c*d(b)\n"
        "check fl flow generator=gen param=tau at=1 applyto=S\n")
    rc = run_cli("flow", str(f), "--check", "fl")
    assert rc == 3


def test_cli_model_flow_cut_at_its_cap_exits_3(monkeypatch, capsys):
    """A model pipeline whose series flow stops at its cap refuses the
    endpoint (exit 3) instead of summing the cut series into a FAIL."""
    from bvcov import models
    real = models.gauge_flow_series
    monkeypatch.setattr(models, "gauge_flow_series",
                        lambda x, y, **kw: real(x, y, max_order=1))
    assert run_cli("twist", "--model", "flat-particle", "--dim", "1") == 3
    assert "TRUNCATED" in capsys.readouterr().err


def test_cli_deterministic_output(tmp_path):
    script = ("import sys; from bvcov.cli import main; "
              "sys.exit(main(['run', %r]))" % str(THEORIES / "particle.bvt"))
    outs = set()
    for _ in range(2):
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0
        outs.add(r.stdout)
    assert len(outs) == 1


def test_cli_output_independent_of_hash_seed():
    """The bracket kernel keys its jet tables by identity-hashed symbols;
    the report must not depend on the hash seed."""
    script = ("import sys; from bvcov.cli import main; sys.exit(main(["
              "'spinning', '--model', 'flat-spinning-particle', '--dim', '2']))")
    src = str(THEORIES.parent / "src")
    outs = set()
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1


def test_cli_closed_stdout_stops_quietly():
    """A reader that goes away, as `| head -0` does, ends a passing run
    with exit 141 (128 + SIGPIPE) and nothing on stderr, where it ended in
    a traceback and exit 1, the code of a failed check.  The pipe's read
    end is closed before the run starts, so every write to it fails."""
    src = str(THEORIES.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "bvcov.cli", "run",
                            str(THEORIES / "particle.bvt")],
                           stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                           timeout=120)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (CLOSED, "") and CLOSED == 141


def test_cli_model_subcommands(capsys):
    assert run_cli("build-aksz", "--model", "bc-system") == 0
    assert run_cli("rank", "--model", "flat-spinning-particle", "--dim", "1") == 0
    out = capsys.readouterr().out
    assert "rank" in out
