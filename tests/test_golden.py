"""Golden-output corpus: output compared byte for byte with tests/golden/.

Each CLI case is a small fixed invocation; its expected stdout is stored in
``tests/golden/<name>.csv``.  Each in-process case is a function returning
text, stored in ``tests/golden/<name>.txt``.  A change that deliberately
alters the random stream regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import pathgap as pg
from pathgap import estimators as est
from pathgap.cli import main

from conftest import golden_synthetic_ricci

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> argv; every chi case stays at <= 4096 independent draws
CASES = {
    "asymptotics_sphere3": [
        "asymptotics", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
        "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "4096", "--seed", "101",
    ],
    "asymptotics_hyperbolic2": [
        "asymptotics", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "4096", "--seed", "102",
    ],
    "chi_sphere3_antithetic": [
        "simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
        "--T", "0.05", "--steps", "64", "--paths", "2000", "--seed", "77", "--mode", "chi",
    ],
    "chi_sphere3_odd_paths": [
        "simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
        "--T", "0.05", "--steps", "64", "--paths", "999", "--seed", "77", "--mode", "chi",
    ],
    "chi_euclidean3": [
        "simulate", "--manifold", "euclidean", "--dim", "3",
        "--T", "0.5", "--steps", "32", "--paths", "1000", "--seed", "79", "--mode", "chi",
    ],
    "chi_hyperbolic2_threads2": [
        "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T", "0.1", "--steps", "128", "--paths", "8192", "--seed", "80", "--mode", "chi",
        "--threads", "2",
    ],
    "bounds_k2_positive": ["bounds", "--k1", "1.0", "--k2", "1.0", "--T-grid", "0.1:2.0:5"],
    "bounds_k2_negative": [
        "bounds", "--k1", "1.0", "--k2=-0.5", "--T", "0.5", "--T", "1.0", "--T", "3.0",
    ],
    "bounds_k2_zero": ["bounds", "--k1", "2.0", "--k2", "0.0", "--T-grid", "0.1:1.0:4"],
    "bounds_profile": ["bounds", "--k1", "1.0", "--k2=-0.5", "--T", "1.0", "--profile", "11"],
    "theorem1_sphere2": [
        "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
        "--T", "0.5", "--steps", "32", "--paths", "50", "--seed", "81", "--mode", "theorem1",
        "--functionals", "4",
    ],
    "theorem1_hyperbolic2": [
        "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T", "1.0", "--steps", "32", "--paths", "50", "--seed", "82", "--mode", "theorem1",
        "--functionals", "4",
    ],
    "lsi_sphere2": [
        "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
        "--T", "0.5", "--steps", "32", "--paths", "500", "--seed", "83", "--mode", "lsi",
    ],
    "lsi_sphere2_readme": [
        "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
        "--T", "0.5", "--steps", "64", "--paths", "10000", "--seed", "1", "--mode", "lsi",
    ],
    "theorem1_hyperbolic2_readme": [
        "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T", "1.0", "--steps", "128", "--paths", "1000", "--seed", "1", "--mode", "theorem1",
        "--functionals", "10",
    ],
    "lsi_hyperbolic2_threads2": [
        "simulate", "--manifold", "hyperbolic", "--dim", "2", "--kappa", "-1.0",
        "--T", "0.5", "--steps", "32", "--paths", "9000", "--seed", "85", "--mode", "lsi",
        "--threads", "2",
    ],
    "theorem1_sphere3_threads2": [
        "simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
        "--T", "0.5", "--steps", "32", "--paths", "2500", "--seed", "86", "--mode", "theorem1",
        "--functionals", "3", "--threads", "2",
    ],
    "lsi_euclidean3": [
        "simulate", "--manifold", "euclidean", "--dim", "3",
        "--T", "0.5", "--steps", "16", "--paths", "500", "--seed", "84", "--mode", "lsi",
    ],
}


def theorem1_synthetic() -> str:
    """verify_theorem1 on a non-symmetric 2x2 Ricci path.

    This is the only case that runs the RK4 propagator sweep to the slot
    rows and the trapezoid damped energy; no CLI command reaches either.
    """
    m = pg.synthetic_ricci_path(2, golden_synthetic_ricci)
    family = est.random_two_point_family(m, 1.0, 3, seed=5)
    rep = est.verify_theorem1(m, pg.CurvatureBounds(1.0, 0.4), family, 1.0, 24, 8, seed=5)
    return repr(rep) + "\n"


# name -> function returning the expected text
IN_PROCESS = {"theorem1_synthetic": theorem1_synthetic}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run_cli(CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith("_threads2")))
def test_one_thread_matches_the_two_thread_golden(name):
    """Each threaded case spans several chunks; one thread prints the same bytes."""
    argv = CASES[name]
    code, out = run_cli(argv[: argv.index("--threads")] + ["--threads", "1"])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(IN_PROCESS))
def test_in_process_matches_golden(name):
    assert IN_PROCESS[name]() == (GOLDEN_DIR / f"{name}.txt").read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(IN_PROCESS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.csv").write_text(out)
        print(f"wrote {name}.csv")
    for name, case in IN_PROCESS.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(case())
        print(f"wrote {name}.txt")
