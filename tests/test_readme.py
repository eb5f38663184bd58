"""The README's quoted outputs, from its own commands.

Every ``pathgap`` command in the README's fenced blocks runs in process
through ``cli.main``.  Each number the README quotes from those runs, from a
closed form it names, or from a control run of the estimator tests (shared
through ``conftest``, so it runs once per session), is read from the README
text and compared with the run or the call at the quoted precision: within
half a unit of the last quoted digit.  So editing a quoted digit, or changing
what a run prints, fails here.
"""

import io
import math
import re
import shlex
from contextlib import redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

import pathgap as pg
from pathgap import bounds as bd
from pathgap import estimators as est
from pathgap.cli import build_parser, main

from conftest import h2_lsi_control, h2_theorem1_control
from reference import exact_worst_violation, expected_slope

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PROSE = " ".join(README.split())  # one space between words, so quotes may wrap


def readme_commands():
    """argv of each ``pathgap`` command in the fenced blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```\w*\n(.*?)^```", README, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pathgap "):
                commands.append(shlex.split(line)[1:])
    return commands


@pytest.fixture(scope="module")
def runs():
    """(argv, exit code, stdout) of every README command."""
    out = []
    for argv in readme_commands():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        out.append((argv, code, buf.getvalue()))
    return out


def run_named(runs, name):
    """argv and metric -> (mean, stderr) of the one README run of a mode or command."""
    (argv, stdout), = [
        (argv, stdout) for argv, _, stdout in runs
        if name == (argv[argv.index("--mode") + 1] if "--mode" in argv else argv[0])
    ]
    header, *lines = stdout.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return argv, {r["metric"]: (float(r["mean"]), float(r["stderr"])) for r in rows}


def quoted(pattern):
    """The groups of the README's one match of ``pattern``."""
    found = re.findall(pattern, PROSE)
    assert len(found) == 1, (pattern, found)
    return found[0]


def assert_quoted(value, text):
    """``value`` rounds to the quoted ``text``: within half a unit of its last digit."""
    q = Decimal(text)
    half = Decimal(5).scaleb(q.as_tuple().exponent - 1)
    assert abs(Decimal(repr(float(value))) - q) <= half, (value, text)


def test_every_command_runs_and_passes(runs):
    """Two bounds tables, chi, theorem1, lsi and asymptotics; each check passes."""
    assert [argv[0] for argv, _, _ in runs] == [
        "bounds", "bounds", "simulate", "simulate", "simulate", "asymptotics"
    ]
    for argv, code, stdout in runs:
        assert code == 0, argv
        assert len(stdout.splitlines()) > 1, argv


def test_chi_and_slope_examples(runs):
    chi, chi_err, slope, slope_err = quoted(
        r"They print chi ([\d.]+) \+- ([\d.e-]+) and slope ([\d.]+) \+- ([\d.e-]+)"
    )
    _, rows = run_named(runs, "chi")
    assert_quoted(rows["chi"][0], chi)
    assert_quoted(rows["chi"][1], chi_err)
    _, rows = run_named(runs, "asymptotics")
    assert_quoted(rows["slope_fitted"][0], slope)
    assert_quoted(rows["slope_fitted"][1], slope_err)


def test_theorem1_true_window(runs):
    violation = quoted(r"passes with `max_violation` (-[\d.e-]+)")
    _, rows = run_named(runs, "theorem1")
    assert_quoted(rows["max_violation"][0], violation)
    assert rows["satisfied_fraction"][0] == 1.0


def test_closed_form_slope_of_the_ladder(runs):
    argv, _ = run_named(runs, "asymptotics")
    ladder = [float(t) for t in argv[argv.index("--T-ladder") + 1].split(",")]
    slope = quoted(r"The slope this gives at the ladder above is ([\d.]+)")
    assert_quoted(expected_slope(pg.sphere(3, 1.0), ladder), slope)


def test_psi_overflow_example():
    T, k1, psi, k1_inf, sup = quoted(
        r"at `T = k2 = (\d+)`, `k1 = (1e\d+)` gives `psi = ([\d.e]+)` and "
        r"`k1 = (1e\d+)` gives infinity, with `lambda_sup = ([\d.e]+)`"
    )
    T = float(T)
    assert_quoted(bd.psi(T, pg.CurvatureBounds(float(k1), T)), psi)
    window = pg.CurvatureBounds(float(k1_inf), T)
    assert bd.psi(T, window) == math.inf
    assert_quoted(bd.lambda_sup(T, window), sup)


def test_chunk_split_of_the_lsi_run(runs):
    theorem1, lsi = (int(n) for n in quoted(
        r"A chunk holds at most (\d+) \(`verify_theorem1`\) or (\d+) \(`verify_lsi`\) paths"
    ))
    assert (theorem1, lsi) == (est._THEOREM1_CHUNK, est._LSI_CHUNK)
    n_paths, *widths = (int(n.replace(",", "")) for n in quoted(
        r"the README lsi run's ([\d,]+) paths run as ([\d,]+) \+ ([\d,]+) \+ ([\d,]+)"
    ))
    argv, _ = run_named(runs, "lsi")
    assert n_paths == int(argv[argv.index("--paths") + 1])
    assert [hi - lo for lo, hi in est._chunk_ranges(n_paths, lsi)] == widths


def test_theorem1_control():
    """The raised-k2 run of the theorem1 control test (H^2, 10 functionals)."""
    violation, fraction = quoted(
        r"`k2 = -0.99` fails with ([+-][\d.e-]+) \(satisfied fraction ([\d.]+)\)"
    )
    _, rep = h2_theorem1_control(-0.99)
    assert_quoted(rep.max_violation, violation)
    assert_quoted(rep.satisfied_fraction, fraction)


def test_exact_worst_case_of_the_control_family():
    true_window, raised = quoted(
        r"`lambda_max\(K\^L\^-1 K\^d\) - 1`: ([+-][\d.e-]+) at the true window and "
        r"([+-][\d.e-]+) at `k2 = -0.99`"
    )
    family, _ = h2_theorem1_control(-0.99)
    m = pg.hyperbolic(2, -1.0)
    for k2, text in [(-1.0, true_window), (-0.99, raised)]:
        assert_quoted(exact_worst_violation(m, pg.CurvatureBounds(1.0, k2), family, 1.0, 128), text)


def test_wrong_kappa_control(runs):
    """The kappa = 1.25 control of ``test_cli``: the README ladder walked on the
    unit 3-sphere (300 paths, seed 7), fitted against the prediction for the
    kappa given, misses it by more than the default tolerance."""
    argv, _ = run_named(runs, "asymptotics")
    ladder = [float(t) for t in argv[argv.index("--T-ladder") + 1].split(",")]
    slope, kappa, predicted, miss, tol = quoted(
        r"the unit 3-sphere's fitted slope, ([\d.]+) at the ladder below, misses the "
        r"kappa = ([\d.]+) prediction of ([\d.]+) by (\d+)%, beyond the default "
        r"`--tol-rel` of ([\d.]+)"
    )
    rep = est.small_time_slope(pg.sphere(3, 1.0), ladder, 300, 7)
    want = 0.5 * pg.sphere(3, float(kappa)).ricci_scalar
    assert_quoted(rep.slope.mean, slope)
    assert_quoted(want, predicted)
    assert_quoted(100.0 * abs(rep.slope.mean - want) / want, miss)
    assert float(tol) == build_parser().parse_args(["asymptotics", "--manifold", "s"]).tol_rel
    assert abs(rep.slope.mean - want) > float(tol) * want


def test_lsi_controls():
    """The damped and undamped runs of the lsi control test on H^2."""
    gap, err, undamped_gap, undamped_err = quoted(
        r"the damped check passes with gap ([+-][\d.e-]+) \+- ([\d.e-]+) and the undamped "
        r"one is violated at ([+-][\d.e-]+) \+- ([\d.e-]+)"
    )
    for damped, (g, e) in [(True, (gap, err)), (False, (undamped_gap, undamped_err))]:
        rep = h2_lsi_control(damped)
        assert_quoted(rep.gap, g)
        assert_quoted(rep.gap_stderr, e)
