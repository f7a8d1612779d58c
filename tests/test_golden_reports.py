"""Byte-exact golden reports: canonical renderings are part of the
external contract, so the reports diff exactly, and so does each case's
exit code (1 for a report that names failing simplices)."""

import io
import contextlib
from pathlib import Path

import pytest

from bvcov.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("particle.report", 0, ["run", str(ROOT / "theories" / "particle.bvt")]),
    ("cylinder_flux.report", 0, ["tw-check", str(ROOT / "theories" / "cylinder_flux.bvt"),
                                 "--check", "cylinder_flux"]),
    ("magnetic_build.report", 0, ["build-aksz", "--model", "magnetic-particle",
                                  "--dim", "2"]),
    ("cylinder_mu_sq.report", 1, ["tw-check",
                                  str(ROOT / "perfbench" / "inputs" / "cylinder_mu_sq.bvt")]),
    ("magnetic_couple_gravity.report", 0, ["couple-gravity", "--model", "magnetic-particle",
                                           "--dim", "3"]),
    ("magnetic_twist.report", 0, ["twist", "--model", "magnetic-particle", "--dim", "4"]),
    ("flat_spinning.report", 0, ["spinning", "--model", "flat-spinning-particle",
                                 "--dim", "2"]),
    ("curved_spinning_relations.report", 0, ["spinning", "--model",
                                             "curved-spinning-particle", "--dim", "1",
                                             "--relations", "on"]),
    ("flat_spinning_rank.report", 0, ["rank", "--model", "flat-spinning-particle",
                                      "--dim", "1"]),
]


@pytest.mark.parametrize("fname,expected_rc,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_report(fname, expected_rc, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc == expected_rc
    assert buf.getvalue() == (GOLDEN / fname).read_text()
