"""Golden-output corpus: CLI stdout compared byte for byte with tests/golden/.

Each case is a small fixed invocation; its expected stdout is stored in
``tests/golden/<name>.csv``.  A change that deliberately alters the random
stream regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pathgap.cli import main

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
    "chi_sphere2_no_antithetic": [
        "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
        "--T", "0.1", "--steps", "64", "--paths", "2001", "--seed", "78", "--mode", "chi",
        "--no-antithetic",
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
}


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


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = run_cli(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.csv").write_text(out)
        print(f"wrote {name}.csv")
