"""Command-line interface: schemas, determinism, exit codes, config files."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathgap import bound_report, CurvatureBounds, sphere
from pathgap import estimators as est
from pathgap.cli import BOUNDS_COLUMNS, DEFAULT_SEED, SIMULATE_COLUMNS, main
from pathgap.config import ExperimentConfig


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestBoundsCommand:
    def test_columns_and_values(self):
        code, out = run_cli(["bounds", "--k1", "1", "--k2", "1", "--T", "1.0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(BOUNDS_COLUMNS)
        row = lines[1].split(",")
        rep = bound_report(1.0, CurvatureBounds(1.0, 1.0))
        assert float(row[3]) == rep.lambda_at_0
        assert float(row[6]) == rep.lambda_sup
        assert float(row[7]) == rep.psi

    def test_horizon_grid(self):
        code, out = run_cli(["bounds", "--k1", "1", "--k2", "-0.5", "--T-grid", "0.5:1.5:5"])
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_horizon_grid_prints_plain_floats(self):
        code, out = run_cli(
            ["bounds", "--k1", "1", "--k2", "0.5", "--T-grid", "0.5:1:2", "--profile", "2"]
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == [
            "0.5", "0.5", "1.0", "1.0"
        ]

    def test_profile_mode(self):
        code, out = run_cli(["bounds", "--k1", "1", "--k2", "1", "--T", "1.0", "--profile", "11"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "T,k1,k2,t,lambda"
        assert len(lines) == 12

    def test_json_schema_version(self):
        code, out = run_cli(
            ["bounds", "--k1", "1", "--k2", "1", "--T", "1.0", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["rows"][0]["psi"] > 1.0

    def test_inadmissible_exit_2(self, capsys):
        code, out = run_cli(["bounds", "--k1", "-1", "--k2", "0", "--T", "1.0"])
        assert code == 2
        assert out == ""

    def test_missing_horizon_exit_2(self):
        code, _ = run_cli(["bounds", "--k1", "1", "--k2", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k2", "1", "--T", "nan"],
            ["--k2", "1", "--T", "0"],
            ["--k2", "1", "--T-grid", "0:1:3"],
            ["--k2", "1", "--T", "1.0", "--profile", "-1"],
            ["--k2=-1", "--T", "2000"],  # e^{k1 T / 2} overflows a float
        ],
        ids=" ".join,
    )
    def test_bad_horizon_exit_2(self, extra, capsys):
        code, out = run_cli(["bounds", "--k1", "1"] + extra)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_large_k2_horizon(self):
        # at k2 T = 80 and 1600 the endpoint identity Lambda(T) = 1/2 + Lambda(0)^2 / 2
        # gives 2.5, and no point of the profile exceeds the supremum
        code, out = run_cli(["bounds", "--k1", "2", "--k2", "2", "--T", "40,800"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2
        for row in rows:
            assert float(row[4]) == pytest.approx(2.5, rel=1e-12)
            T, sup = float(row[0]), float(row[6])
            code, out = run_cli(["bounds", "--k1", "2", "--k2", "2", "--T", str(T),
                                 "--profile", "41"])
            assert code == 0
            assert all(float(line.split(",")[4]) <= sup for line in out.strip().split("\n")[1:])

    def test_psi_overflow_names_psi(self, capsys):
        # lambda_sup is 1.25e199, but psi's b^4 f^2 term leaves the float range
        code, out = run_cli(["bounds", "--k1", "1e110", "--k2", "1e5", "--T", "1e-10"])
        assert (code, out) == (2, "")
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert "psi's published form overflows" in errors[0] and "1.3e154" in errors[0]

    def test_negative_k2_just_below_switch(self):
        code, out = run_cli(["bounds", "--k1", "2", "--k2=-1e-5", "--T", "0.05"])
        assert code == 0
        assert len(out.strip().split("\n")) == 2


class TestSimulateCommand:
    def test_chi_euclidean_row(self):
        code, out = run_cli(
            [
                "simulate", "--manifold", "euclidean", "--dim", "2", "--T", "0.5",
                "--steps", "32", "--paths", "100", "--seed", "7", "--mode", "chi",
            ]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SIMULATE_COLUMNS)
        chi_row = lines[1].split(",")
        assert chi_row[7] == "chi"
        assert float(chi_row[8]) == pytest.approx(1.0, abs=1e-12)

    def test_theorem1_passes(self):
        code, out = run_cli(
            [
                "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
                "--T", "0.5", "--steps", "64", "--paths", "50", "--seed", "7",
                "--mode", "theorem1", "--functionals", "3",
            ]
        )
        assert code == 0
        assert "satisfied_fraction,1.0" in out

    def test_lsi_passes(self):
        code, out = run_cli(
            [
                "simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
                "--T", "0.4", "--steps", "32", "--paths", "500", "--seed", "11",
                "--mode", "lsi",
            ]
        )
        assert code == 0
        assert ",gap," in out

    def test_unknown_mode_exit_2(self):
        code, _ = run_cli(
            ["simulate", "--manifold", "sphere", "--kappa", "1.0", "--T", "0.5",
             "--mode", "bogus"]
        )
        assert code == 2

    def test_bad_manifold_exit_2(self):
        code, _ = run_cli(["simulate", "--manifold", "torus", "--T", "0.5"])
        assert code == 2

    def test_euclidean_kappa_conflict_exit_2(self):
        code, _ = run_cli(
            ["simulate", "--manifold", "euclidean", "--kappa", "1.0", "--T", "0.5"]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "extra",
        [
            ["--paths", "0"],
            ["--paths", "1"],  # rounded up to one mirrored pair
            ["--paths", "2"],  # one mirrored pair is one independent draw
            ["--steps", "0"],
            ["--mode", "theorem1", "--functionals", "0"],
            ["--mode", "lsi", "--paths", "1"],
            ["--T", "0"],
            ["--threads", "0"],
        ],
        ids=lambda extra: " ".join(extra),
    )
    def test_bad_size_exit_2(self, extra, capsys):
        code, out = run_cli(
            ["simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
             "--T", "0.1", "--steps", "8", "--seed", "1"] + extra
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, n_paths",
        [
            (["simulate", "--T", "0.1", "--steps", "8", "--paths", "9"], "10"),
            (["simulate", "--T", "0.1", "--steps", "8", "--paths", "9", "--mode", "theorem1"],
             "9"),
            (["asymptotics", "--paths", "9", "--tol-rel", "100"], "10"),
        ],
    )
    def test_rows_report_paths_run(self, argv, n_paths):
        # chi runs whole mirrored pairs: an odd count is rounded up; theorem1 runs it as given
        code, out = run_cli(
            argv[:1] + ["--manifold", "sphere", "--dim", "2", "--kappa", "1.0", "--seed", "1"]
            + argv[1:]
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert {row.split(",")[SIMULATE_COLUMNS.index("n_paths")] for row in rows} == {n_paths}

    @pytest.mark.parametrize("flag", ["--antithetic", "--no-antithetic"])
    def test_removed_flag_exit_2(self, flag):
        # chi always runs mirrored pairs; the old on/off switch is an unknown option
        code, out, err = run_cli_contract(
            ["simulate", "--manifold", "sphere", "--T", "0.1", "--paths", "10", flag]
        )
        assert (code, out) == (2, "")
        assert flag in err


class TestAsymptoticsCommand:
    def test_flat_slope(self):
        code, out = run_cli(
            [
                "asymptotics", "--manifold", "euclidean", "--dim", "2",
                "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "200", "--seed", "3",
            ]
        )
        assert code == 0
        fitted = [l for l in out.splitlines() if ",slope_fitted," in l][0]
        assert abs(float(fitted.split(",")[8])) <= 1e-9

    def test_short_ladder_exit_2(self):
        code, _ = run_cli(
            ["asymptotics", "--manifold", "euclidean", "--T-ladder", "0.01,0.02",
             "--paths", "100"]
        )
        assert code == 2

    @pytest.mark.parametrize("paths", ["0", "2"])
    def test_too_few_paths_exit_2(self, paths):
        code, out = run_cli(
            ["asymptotics", "--manifold", "sphere", "--kappa", "1.0", "--paths", paths]
        )
        assert code == 2
        assert out == ""

    def test_rows_report_rung_steps(self):
        ladder = [0.005, 0.01, 0.02, 0.04]
        code, out = run_cli(
            ["asymptotics", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
             "--T-ladder", ",".join(map(str, ladder)), "--paths", "20", "--seed", "3",
             "--tol-rel", "100"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        rep = est.small_time_slope(sphere(2, 1.0), np.array([1.0, 0.0]), ladder, 20, 3)
        steps = SIMULATE_COLUMNS.index("n_steps")
        assert [int(row[steps]) for row in rows] == (
            [p.n_steps for p in rep.points] + [rep.points[-1].n_steps] * 2
        )

    def test_failing_tolerance_exit_1(self):
        code, _ = run_cli(
            [
                "asymptotics", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
                "--T-ladder", "0.01,0.02,0.04,0.08", "--paths", "400", "--seed", "3",
                "--tol-rel", "1e-9",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("kappa, code", [("1.0", 0), ("1.25", 1)])
    def test_wrong_kappa_negative_control(self, monkeypatch, kappa, code):
        """Slopes fitted on the unit 3-sphere (README ladder, 300 paths, seed 7,
        1.0212) miss the kappa = 1.25 prediction by 18%, beyond the default
        --tol-rel of 0.1.  The walk runs on the unit sphere while the
        prediction follows the --kappa given."""
        fit = est.small_time_slope

        def on_unit_sphere(m, a, T_list, n_paths, seed, threads=1):
            rep = fit(sphere(3, 1.0), a, T_list, n_paths, seed, threads)
            return dataclasses.replace(rep, predicted_slope=0.5 * m.ricci_scalar)

        monkeypatch.setattr(est, "small_time_slope", on_unit_sphere)
        got, _ = run_cli(
            ["asymptotics", "--manifold", "sphere", "--dim", "3", "--kappa", kappa,
             "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "300", "--seed", "7"]
        )
        assert got == code


class TestDeterminism:
    def test_identical_invocations_byte_identical(self):
        argv = [
            "simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
            "--T", "0.05", "--steps", "64", "--paths", "500", "--seed", "21",
            "--mode", "chi",
        ]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_thread_count_invariance(self):
        base = [
            "asymptotics", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
            "--T-ladder", "0.005,0.01,0.02,0.04", "--paths", "400", "--seed", "21",
        ]
        _, out1 = run_cli(base + ["--threads", "1"])
        _, out2 = run_cli(base + ["--threads", "3"])
        assert out1 == out2


@st.composite
def bounds_argv(draw):
    k1 = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    k2 = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])) * k1
    argv = ["bounds", "--k1", repr(k1), f"--k2={k2!r}"]
    if draw(st.booleans()):
        for T in draw(st.lists(st.sampled_from(["0.1", "0.5", "1.0", "2.5"]), min_size=1, max_size=3)):
            argv += ["--T", T]
    else:
        argv += ["--T-grid", draw(st.sampled_from(["0.1:1.0:3", "0.5:2.0:4"]))]
    if draw(st.booleans()):
        argv += ["--profile", draw(st.sampled_from(["2", "5"]))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


MANIFOLDS = [
    ["--manifold", "euclidean"],
    ["--manifold", "sphere", "--kappa", "1.0"],
    ["--manifold", "hyperbolic", "--kappa", "-1.0"],
]


@st.composite
def simulate_argv(draw):
    argv = ["simulate"] + draw(st.sampled_from(MANIFOLDS))
    argv += ["--dim", draw(st.sampled_from(["2", "3"])), "--T", draw(st.sampled_from(["0.1", "0.4"]))]
    argv += ["--steps", draw(st.sampled_from(["8", "16"])), "--paths", draw(st.sampled_from(["9", "20"]))]
    argv += ["--mode", draw(st.sampled_from(["chi", "theorem1", "lsi"]))]
    argv += ["--functionals", draw(st.sampled_from(["1", "2"]))]
    argv += ["--threads", draw(st.sampled_from(["1", "2"]))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 2**31)))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def asymptotics_argv(draw):
    argv = ["asymptotics"] + draw(st.sampled_from(MANIFOLDS))
    argv += ["--dim", draw(st.sampled_from(["2", "3"])), "--T-ladder", "0.01,0.02,0.03,0.04"]
    argv += ["--paths", draw(st.sampled_from(["8", "15"])), "--seed", str(draw(st.integers(0, 99)))]
    argv += ["--tol-rel", draw(st.sampled_from(["0.1", "100"]))]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


class TestConfigFiles:
    @settings(max_examples=30, deadline=None)
    @given(argv=st.one_of(bounds_argv(), simulate_argv(), asymptotics_argv()))
    def test_written_config_replays_flags(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.cfg")
            assert run_cli(argv + ["--write-config", path]) == (0, "")
            assert run_cli([argv[0], "--config", path]) == run_cli(argv)

    def test_round_trip_lossless(self):
        cfg = ExperimentConfig(
            "simulate",
            {"manifold": "sphere", "dim": "3", "kappa": "1.0", "T": "0.05",
             "steps": "64", "paths": "500", "seed": "21", "mode": "chi"},
        )
        again = ExperimentConfig.from_text(cfg.to_text())
        assert again == cfg

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["bounds", "--k1", "1", "--k2", "1", "--T", "1", "--T-grid", "1:2:2"],
             ["k1", "k2", "T", "T-grid", "profile", "format"]),
            (["simulate", "--manifold", "sphere", "--T", "0.1"],
             ["manifold", "dim", "kappa", "T", "steps", "paths", "seed", "mode",
              "functionals", "threads", "format"]),
            (["asymptotics", "--manifold", "sphere"],
             ["manifold", "dim", "kappa", "T-ladder", "paths", "seed", "tol-rel",
              "threads", "format"]),
        ],
        ids=["bounds", "simulate", "asymptotics"],
    )
    def test_written_keys_follow_the_flags(self, tmp_path, argv, keys):
        """A written config stores every flag but help, --config and
        --write-config, in the order the command declares them."""
        path = str(tmp_path / "exp.cfg")
        assert run_cli(argv + ["--write-config", path]) == (0, "")
        assert list(ExperimentConfig.read(path).params) == keys

    @pytest.mark.parametrize("version, ok", [("1", True), ("7", False), (None, True)])
    def test_schema_version_is_checked(self, tmp_path, version, ok):
        """Only schema_version 1 is read; a file without [meta] is version 1."""
        text = "[bounds]\nk1 = 1\nk2 = 1\nT = 0.5\n"
        if version is not None:
            text = f"[meta]\nschema_version = {version}\n\n" + text
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        code, out, err = run_cli_contract(["bounds", "--config", str(path)])
        if ok:
            assert (code, err) == (0, "") and out.startswith(",".join(BOUNDS_COLUMNS))
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "schema_version 7" in err

    def test_config_drives_command(self, tmp_path):
        path = tmp_path / "exp.cfg"
        ExperimentConfig(
            "simulate",
            {"manifold": "sphere", "dim": "3", "kappa": "1.0", "T": "0.05",
             "steps": "64", "paths": "300", "seed": "21", "mode": "chi"},
        ).write(str(path))
        code, out_cfg = run_cli(["simulate", "--config", str(path)])
        assert code == 0
        _, out_flags = run_cli(
            ["simulate", "--manifold", "sphere", "--dim", "3", "--kappa", "1.0",
             "--T", "0.05", "--steps", "64", "--paths", "300", "--seed", "21",
             "--mode", "chi"]
        )
        assert out_cfg == out_flags

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        ExperimentConfig(
            "simulate",
            {"manifold": "sphere", "dim": "2", "kappa": "1.0", "T": "0.05",
             "steps": "32", "paths": "100", "seed": "21", "mode": "chi"},
        ).write(str(path))
        code, out = run_cli(["simulate", "--config", str(path), "--paths", "150"])
        assert code == 0
        assert ",150," in out

    @pytest.mark.parametrize(
        "flags, horizons",
        [
            (["--T", "2.0"], ["2.0"]),
            (["--T", "2.0,3.0"], ["2.0", "3.0"]),
            (["--T-grid", "1:2:2"], ["1.0", "2.0"]),
            (["--T-g", "1:2:2"], ["1.0", "2.0"]),  # abbreviated flag
            ([], ["0.5"]),
        ],
    )
    def test_flag_replaces_config_horizon(self, tmp_path, flags, horizons):
        path = str(tmp_path / "exp.cfg")
        assert run_cli(["bounds", "--k1", "1", "--k2", "1", "--T", "0.5",
                        "--write-config", path]) == (0, "")
        code, out = run_cli(["bounds", "--config", path] + flags)
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == horizons

    def test_grid_config_replaced_by_horizon_flag(self, tmp_path):
        path = str(tmp_path / "exp.cfg")
        assert run_cli(["bounds", "--k1", "1", "--k2", "1", "--T-grid", "1:2:2",
                        "--write-config", path]) == (0, "")
        assert run_cli(["bounds", "--config", path, "--T", "0.5"]) == run_cli(
            ["bounds", "--k1", "1", "--k2", "1", "--T", "0.5"]
        )

    def test_write_config_round_trip(self, tmp_path):
        path = tmp_path / "written.cfg"
        code, _ = run_cli(
            ["simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
             "--T", "0.05", "--steps", "32", "--paths", "100", "--seed", "21",
             "--mode", "chi", "--write-config", str(path)]
        )
        assert code == 0
        cfg = ExperimentConfig.read(str(path))
        assert cfg.command == "simulate"
        assert cfg.params["paths"] == "100"
        code2, out2 = run_cli(["simulate", "--config", str(path)])
        assert code2 == 0

    def test_config_without_seed_stores_the_seed_run(self, tmp_path):
        path = str(tmp_path / "exp.cfg")
        argv = ["simulate", "--manifold", "sphere", "--dim", "2", "--kappa", "1.0",
                "--T", "0.05", "--steps", "16", "--paths", "50", "--mode", "chi"]
        assert run_cli(argv + ["--write-config", path]) == (0, "")
        assert ExperimentConfig.read(path).params["seed"] == str(DEFAULT_SEED) == "20240"
        replay = run_cli(["simulate", "--config", path])
        assert replay == run_cli(argv) == run_cli(argv + ["--seed", "20240"])

    def test_wrong_section_exit_2(self, tmp_path):
        path = tmp_path / "exp.cfg"
        ExperimentConfig("bounds", {"k1": "1", "k2": "1", "T": "1.0"}).write(str(path))
        code, _ = run_cli(["simulate", "--config", str(path)])
        assert code == 2

    def test_removed_key_exit_2(self, tmp_path):
        # chi always runs mirrored pairs; a stored antithetic switch is refused
        path = tmp_path / "exp.cfg"
        params = {"manifold": "sphere", "T": "0.05", "antithetic": "True"}
        ExperimentConfig("simulate", params).write(str(path))
        code, out, err = run_cli_contract(["simulate", "--config", str(path)])
        assert (code, out) == (2, "")
        assert "--antithetic" in err

    @pytest.mark.parametrize("key", ["write-config", "write_config", "config", "help"])
    def test_flag_only_key_exit_2(self, tmp_path, key):
        """A key a written config never stores is refused: no file is written
        and the table is not replaced."""
        path, target = tmp_path / "exp.cfg", tmp_path / "out.cfg"
        params = {"k1": "1", "k2": "1", "T": "1.0", key: str(target)}
        ExperimentConfig("bounds", params).write(str(path))
        code, out, err = run_cli_contract(["bounds", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
        assert not target.exists()


def run_cli_contract(argv):
    """(exit code, stdout, stderr) of main; argparse's own exits count as their code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"argparse exited {exc.code}"
            code = 2
    return code, out.getvalue(), err.getvalue()


# the null device is not a directory, so no config can be written below it
UNWRITABLE = os.path.join(os.devnull, "x.cfg")

SIM = ["simulate", "--steps", "8", "--paths", "9", "--seed", "1"]
ASYM = ["asymptotics", "--manifold", "sphere", "--paths", "9", "--seed", "1"]
USAGE_ERRORS = [
    SIM + ["--manifold", "sphere", "--kappa", "1e300", "--T", "0.5", "--mode", "theorem1"],
    SIM + ["--manifold", "hyperbolic", "--kappa", "-50", "--T", "5", "--mode", "lsi"],
    SIM + ["--manifold", "sphere", "--T", "nan", "--mode", "theorem1"],
    ASYM + ["--T-ladder", "a,0.01,0.02,0.04"],
    ASYM + ["--T-ladder", "0.01,0.02,0.04,inf"],
    SIM + ["--manifold", "sphere", "--kappa", "inf", "--T", "0.5", "--mode", "chi"],
    SIM + ["--manifold", "sphere", "--T", "1e300", "--mode", "lsi"],
    ["bounds", "--k1", "1", "--k2", "1", "--T", "1", "--write-config", UNWRITABLE],
]

FLOATS = [
    "0.1", "1.0", "-1.0", "0", "1e300", "-1e300", "1e-300", "1e-310", "5e-324", "-5e-324",
    "nan", "inf", "-inf",
]
COUNTS = ["-1", "0", "1", "2", "9"]
LADDERS = [
    "0.01,0.02,0.03,0.04,", "0.01,0.02", "", "a,0.01,0.02,0.04", "0,0.01,0.02,0.04",
    "-0.01,0.01,0.02,0.04", "0.01,0.02,0.04,nan", "0.01,0.02,0.04,inf", "0.01,0.02,0.04,1e300",
]
GRIDS = ["0.1:1.0:3", "1:0:3", "0:1:0", "0:1:-1", "a:b:c", "1:2", "0:inf:3", "nan:1:3"]

# per command, flag -> values; the first value of each flag keeps a run valid
# and tiny, None leaves the flag out
CONTRACT_FLAGS = {
    "bounds": {
        "--k1": ["1.0", *FLOATS], "--k2": ["0.5", *FLOATS], "--T": ["0.5", None, *FLOATS],
        "--T-grid": [None, *GRIDS], "--profile": ["0", "2", "-1"],
    },
    "simulate": {
        "--manifold": ["sphere", "euclidean", "hyperbolic", "torus"],
        "--dim": ["2", "3", "1", "-1"], "--kappa": [None, *FLOATS], "--T": ["0.1", *FLOATS],
        "--steps": ["8", "1", "0", "-1"], "--paths": ["9", *COUNTS],
        "--mode": ["chi", "theorem1", "lsi", "bogus"], "--functionals": ["2", "1", "0", "-1"],
        "--threads": ["1", "2", "0", "-1"], "--seed": [None, "0", "-1"],
    },
    "asymptotics": {
        "--manifold": ["sphere", "euclidean", "hyperbolic", "torus"],
        "--dim": ["2", "3", "1"], "--kappa": [None, *FLOATS],
        "--T-ladder": ["0.01,0.02,0.03,0.04", *LADDERS], "--paths": ["9", *COUNTS],
        "--tol-rel": ["0.1", *FLOATS], "--threads": ["1", "2", "0"],
    },
    "frobnicate": {},
}
for flags in CONTRACT_FLAGS.values():
    flags["--format"] = ["csv", "json", "xml"]


@st.composite
def contract_argv(draw):
    """A tiny valid argv with up to three flags changed to extreme or bad values."""
    command = draw(st.sampled_from(sorted(CONTRACT_FLAGS)))
    choices = CONTRACT_FLAGS[command]
    flags = {flag: values[0] for flag, values in choices.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(choices)), max_size=3)):
        flags[flag] = draw(st.sampled_from(choices[flag]))
    return [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]


NON_FINITE = {"nan", "inf", "-inf", "infinity", "-infinity"}


def _with_examples(cases):
    def decorate(test):
        for argv in cases:
            test = example(argv=argv)(test)
        return test

    return decorate


class TestExitCodeContract:
    """0 checks pass, 1 a check failed, 2 usage error; no traceback, no NaN printed."""

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_exit_2(self, argv):
        code, out, err = run_cli_contract(argv)
        assert (code, out) == (2, "")
        assert sum("error:" in line for line in err.splitlines()) == 1

    @pytest.mark.parametrize("mode", ["theorem1", "lsi"])
    def test_large_sphere_curvature_times_horizon_runs(self, mode):
        # c T = 1000: e^{c t} overflows, the pairwise damped-energy weights do not;
        # 4096 steps keep each step of the walk under a radian
        code, out, err = run_cli_contract(
            SIM + ["--manifold", "sphere", "--kappa", "2000", "--T", "0.5", "--steps", "4096",
                   "--mode", mode]
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > 1

    @pytest.mark.parametrize(
        "argv",
        [
            SIM + ["--manifold", "sphere", "--T", "nan", "--mode", "theorem1"],
            ASYM + ["--T-ladder", "0.01,0.02,0.04,inf"],
            ASYM + ["--T-ladder", "0.01,0.02,0.04,1e300"],
        ],
        ids=" ".join,
    )
    def test_non_finite_horizon_names_T(self, argv):
        code, out, err = run_cli_contract(argv)
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "horizon T" in errors[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=contract_argv())
    @_with_examples(USAGE_ERRORS + [["bounds", "--k1=1.0", "--k2=-5e-324", "--T=0.5"]])
    def test_any_argv_keeps_the_contract(self, argv):
        code, out, err = run_cli_contract(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert sum("error:" in line for line in err.splitlines()) == 1
        if code == 0:
            tokens = re.split(r"[\s,:{}\[\]\"]+", out.lower())
            assert NON_FINITE.isdisjoint(tokens)


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "pathgap.cli", "bounds", "--k1", "0", "--k2", "0",
             "--T", "1.0"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.startswith(",".join(BOUNDS_COLUMNS[:3]))

    @pytest.mark.parametrize("mode", ["theorem1", "lsi"])
    def test_simulate_leaves_numpy_ma_unimported(self, mode):
        """numpy.ma costs about 1.3 MB and 15 ms to import; a run needs none of it."""
        code = (
            "import contextlib, io, sys\n"
            "from pathgap.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['simulate', '--manifold', 'sphere', '--dim', '2', '--T', '0.5',\n"
            f"                 '--steps', '16', '--paths', '50', '--mode', '{mode}'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.stdout == "0 False\n", out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--manifold", "sphere", "--dim", "2", "--T", "0.5", "--steps", "16",
             "--paths", "50", "--mode", "chi"],
            ["asymptotics", "--manifold", "sphere", "--dim", "3", "--paths", "300"],
        ],
        ids=["simulate", "asymptotics"],
    )
    def test_one_thread_run_leaves_the_pool_and_configparser_unimported(self, argv):
        """concurrent.futures (with the logging it loads) serves only --threads > 1,
        and configparser only a config file read or written."""
        code = (
            "import contextlib, io, sys\n"
            "from pathgap.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "loaded = [m for m in ('concurrent.futures', 'configparser') if m in sys.modules]\n"
            "print(code, loaded)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.stdout == "0 []\n", out.stderr

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(flags, named, id=" ".join(flags))
            for flags, named in [
                # the walk leaves the hyperboloid
                (["--manifold", "hyperbolic", "--dim", "2", "--kappa", "-50", "--T", "5",
                  "--mode", "lsi"], ["hyperboloid", "step 2", "kappa = -50.0", "step length"]),
                # a sphere step angle whose sine and cosine are roundoff
                (["--manifold", "sphere", "--dim", "2", "--kappa", "1e300", "--T", "0.5",
                  "--mode", "theorem1"], ["sphere", "step 1", "kappa = 1e+300", "step length"]),
                # the chi field overflows inside a worker thread
                (["--manifold", "sphere", "--dim", "3", "--kappa", "1e308", "--T", "0.5",
                  "--mode", "chi", "--threads", "2"], ["float range"]),
            ]
        ],
    )
    def test_float_failure_prints_only_the_error_line(self, flags, named):
        """Arithmetic that leaves the float range exits 2 without numpy warnings."""
        out = subprocess.run(
            [sys.executable, "-m", "pathgap.cli", "simulate", "--steps", "8", "--paths", "9"]
            + flags,
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stdout) == (2, "")
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")
        for word in named:
            assert word in out.stderr
