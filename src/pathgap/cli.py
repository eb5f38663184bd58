"""Command-line front end.

Subcommands:

* ``bounds``      -- closed-form bound tables over a horizon grid.
* ``simulate``    -- Monte-Carlo runs: chi estimation, pathwise inequality
                     verification, or the statistical entropy check.
* ``asymptotics`` -- small-horizon slope fit against the first-order
  prediction from the starting-point Ricci action.

Primary output (CSV or JSON) goes to stdout and is byte-stable for a fixed
seed and configuration; diagnostics go to stderr.  Exit codes: 0 all
requested checks pass, 1 a check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds as bd
from . import estimators as est
from .config import SCHEMA_VERSION, ExperimentConfig
from .geometry import ModelManifold, euclidean, hyperbolic, sphere

BOUNDS_COLUMNS = (
    "T",
    "k1",
    "k2",
    "lambda0",
    "lambdaT",
    "t_star",
    "lambda_sup",
    "psi",
    "gap_lo_sup",
    "gap_lo_psi",
)
PROFILE_COLUMNS = ("T", "k1", "k2", "t", "lambda")
SIMULATE_COLUMNS = (
    "T",
    "manifold",
    "dim",
    "kappa",
    "n_paths",
    "n_steps",
    "seed",
    "metric",
    "mean",
    "stderr",
)

DEFAULT_SEED = 20240
# --threads is still parsed, so that existing command lines and written configs
# run; every run takes its chunks of paths in turn on the calling thread.
THREADS_HELP = "has no effect (paths run on one thread); must be at least 1"

USAGE_ERROR = 2
CHECK_FAILED = 1


class CliError(Exception):
    """Configuration/usage problem: reported on stderr, exit code 2."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(columns, rows, fmt: str, out=None):
    """Write the rows, after checking that every float in them is finite."""
    for row in rows:
        named = dict(zip(columns, row))
        for col, x in named.items():
            if isinstance(x, float) and not math.isfinite(x):
                metric = f"{named['metric']} {col}" if "metric" in named else col
                raise CliError(f"non-finite result: {metric} = {x!r}")
    out = out or sys.stdout
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        out.write(json.dumps(payload, default=_fmt) + "\n")


def _manifold(name: str, dim: int, kappa: float) -> ModelManifold:
    name = name.lower()
    if name == "euclidean":
        if kappa != 0.0:
            raise CliError("euclidean manifold requires kappa = 0")
        return euclidean(dim)
    if name == "sphere":
        return sphere(dim, kappa if kappa != 0.0 else 1.0)
    if name == "hyperbolic":
        return hyperbolic(dim, kappa if kappa != 0.0 else -1.0)
    raise CliError(f"unknown manifold {name!r} (euclidean, sphere, hyperbolic)")


def _horizons(args) -> list[float]:
    if args.T and args.T_grid:
        raise CliError("give either --T or --T-grid, not both")
    if args.T:
        return [float(t) for t in args.T]
    if args.T_grid:
        try:
            start, stop, count = args.T_grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise CliError("--T-grid expects start:stop:count") from exc
        if count < 1 or stop < start:
            raise CliError("--T-grid expects stop >= start and count >= 1")
        return np.linspace(start, stop, count).tolist()
    raise CliError("a horizon is required: --T or --T-grid")


def _require_at_least(args, least: int, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < least:
            raise CliError(f"--{name} must be >= {least}, got {value}")


def cmd_bounds(args) -> int:
    cb = bd.CurvatureBounds(args.k1, args.k2)
    if args.profile:
        columns, rows = PROFILE_COLUMNS, [
            (T, args.k1, args.k2, float(t), bd.lambda_profile(float(t), T, cb))
            for T in _horizons(args)
            for t in np.linspace(0.0, T, args.profile)
        ]
    else:
        columns = BOUNDS_COLUMNS
        rows = [dataclasses.astuple(bd.bound_report(T, cb)) for T in _horizons(args)]
    _emit(columns, rows, args.format)
    return 0


def _simulate_rows(m, args):
    base = (args.T, m.kind, m.dim, m.kappa, args.paths, args.steps, args.seed)
    if args.mode == "chi":
        rep = est.estimate_chi(m, args.T, args.steps, args.paths, args.seed)
        base = base[:4] + (rep.n_paths,) + base[5:]
        rows = [
            base + ("chi", rep.chi.mean, rep.chi.stderr),
            base + ("chi_predicted", rep.predicted_first_order, 0.0),
            base + ("var_F", rep.var_F.mean, rep.var_F.stderr),
            base + ("dirichlet", rep.dirichlet.mean, rep.dirichlet.stderr),
        ]
        return rows, 0
    if args.mode == "theorem1":
        family = est.random_two_point_family(m, args.T, args.functionals, args.seed)
        rep = est.verify_theorem1(
            m, m.curvature_window, family, args.T, args.steps, args.paths, args.seed
        )
        rows = [
            base + ("max_violation", rep.max_violation, 0.0),
            base + ("satisfied_fraction", rep.satisfied_fraction, 0.0),
        ]
        return rows, 0 if rep.satisfied_fraction == 1.0 else CHECK_FAILED
    if args.mode == "lsi":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(9100,)))
        b = rng.normal(size=m.ambient_dim)
        b /= np.linalg.norm(b)
        if m.kind == "euclidean":
            F = est.truncated_exponential_functional(b, args.T, cap=1.5)
        else:
            F = est.exponential_functional(m, b, args.T)
        rep = est.verify_lsi(m, F, args.T, args.steps, args.paths, args.seed)
        rows = [
            base + ("entropy", rep.entropy, 0.0),
            base + ("dirichlet_twice", rep.dirichlet_twice, 0.0),
            base + ("gap", rep.gap, rep.gap_stderr),
        ]
        return rows, 0 if not rep.violated else CHECK_FAILED
    raise CliError(f"unknown simulate mode {args.mode!r} (chi, theorem1, lsi)")


def cmd_simulate(args) -> int:
    _require_at_least(args, 1, "paths", "steps", "functionals", "threads")
    _require_at_least(args, 0, "seed")
    m = _manifold(args.manifold, args.dim, args.kappa)
    rows, status = _simulate_rows(m, args)
    _emit(SIMULATE_COLUMNS, rows, args.format)
    return status


def cmd_asymptotics(args) -> int:
    _require_at_least(args, 1, "paths", "threads")
    _require_at_least(args, 0, "seed")
    if not 0.0 < args.tol_rel < math.inf:  # also rejects nan
        raise CliError(f"--tol-rel must be positive and finite, got {args.tol_rel}")
    m = _manifold(args.manifold, args.dim, args.kappa)
    rep = est.small_time_slope(m, args.T_ladder, args.paths, args.seed)

    def head(p):
        return (p.T, m.kind, m.dim, m.kappa, p.n_paths, p.n_steps, args.seed)

    rows = [head(p) + ("chi", p.chi.mean, p.chi.stderr) for p in rep.points]
    tail = head(rep.points[-1])
    rows.append(tail + ("slope_fitted", rep.slope.mean, rep.slope.stderr))
    rows.append(tail + ("slope_predicted", rep.predicted_slope, 0.0))
    _emit(SIMULATE_COLUMNS, rows, args.format)
    if rep.predicted_slope != 0.0:
        ok = abs(rep.slope.mean - rep.predicted_slope) <= args.tol_rel * abs(rep.predicted_slope)
    else:
        ok = abs(rep.slope.mean) <= max(4.0 * rep.slope.stderr, 1e-9)
    return 0 if ok else CHECK_FAILED


# Flags that exclude each other: setting one on the command line drops both
# from a config file.
_EXCLUSIVE = {"T": "T_grid", "T_grid": "T"}


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


def _dests_given(parser: argparse.ArgumentParser, argv: list[str]) -> set[str]:
    """Destinations that argv sets itself, abbreviated flags included."""
    probe = _subparser(parser, argv[0])
    for action in probe._actions:
        action.default, action.required = argparse.SUPPRESS, False
    given, _ = probe.parse_known_args(argv[1:])
    return set(vars(given))


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, letting --config supply defaults that flags override.

    A config key is dropped when argv sets that key, or a flag that excludes
    it (--T and --T-grid), so an explicit flag replaces a file value rather
    than adding to it.  A key a written config never stores (``_NOT_CONFIG``)
    is refused: a file must not redirect the run to --write-config or --help.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv[1:])
    if known.config:
        try:
            cfg = ExperimentConfig.read(known.config)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read config {known.config}: {exc}") from exc
        if cfg.command != argv[0]:
            raise CliError(
                f"config section [{cfg.command}] does not match command {argv[0]!r}"
            )
        for key in cfg.params:
            if key.replace("_", "-") in _NOT_CONFIG:
                raise CliError(
                    f"config {known.config} sets {key!r}, which is a command-line flag only"
                )
        given = _dests_given(build_parser(), argv)
        flat = []
        for key, val in cfg.params.items():
            dest = key.replace("-", "_")
            if dest in given or _EXCLUSIVE.get(dest) in given:
                continue
            flat += [f"--{key.replace('_', '-')}", val]
        argv = [argv[0]] + flat + argv[1:]
    return parser.parse_args(argv)


# Flags of a command that a config file does not store.
_NOT_CONFIG = {"help", "config", "write-config"}


def _resolved_config(parser: argparse.ArgumentParser, args) -> ExperimentConfig:
    """The run's parameters, keyed by each flag of the command in declaration order."""
    params = {}
    for action in _subparser(parser, args.command)._actions:
        key = action.option_strings[-1].removeprefix("--")
        if key in _NOT_CONFIG:
            continue
        val = getattr(args, action.dest)
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(str(x) for x in val)
        params[key] = str(val)
    return ExperimentConfig(command=args.command, params=params)


def float_list(text: str) -> list[float]:
    """Comma-separated floats, blank items skipped: how a written config stores a list."""
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgap",
        description="Spectral-gap bounds on path space: closed forms and Monte-Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="closed-form bound tables")
    p_bounds.add_argument("--config", help="config file supplying defaults")
    p_bounds.add_argument("--k1", type=float, required=True)
    p_bounds.add_argument("--k2", type=float, required=True)
    p_bounds.add_argument(
        "--T", type=float_list, action="extend", help="horizon (repeatable, or comma-separated)"
    )
    p_bounds.add_argument("--T-grid", dest="T_grid", help="start:stop:count horizon grid")
    p_bounds.add_argument(
        "--profile", type=int, default=0, metavar="N",
        help="emit the weight profile on an N-point grid instead of the report table",
    )
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--write-config", help="write the resolved config and exit")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimation and verification")
    p_sim.add_argument("--config", help="config file supplying defaults")
    p_sim.add_argument("--manifold", required=True)
    p_sim.add_argument("--dim", type=int, default=2)
    p_sim.add_argument("--kappa", type=float, default=0.0)
    p_sim.add_argument("--T", type=float, required=True)
    p_sim.add_argument("--steps", type=int, default=128)
    p_sim.add_argument("--paths", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--mode", default="chi", help="chi | theorem1 | lsi")
    p_sim.add_argument("--functionals", type=int, default=10,
                       help="family size for theorem1 mode")
    p_sim.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--write-config", help="write the resolved config and exit")

    p_asym = sub.add_parser("asymptotics", help="small-horizon slope fit")
    p_asym.add_argument("--config", help="config file supplying defaults")
    p_asym.add_argument("--manifold", required=True)
    p_asym.add_argument("--dim", type=int, default=2)
    p_asym.add_argument("--kappa", type=float, default=0.0)
    p_asym.add_argument(
        "--T-ladder", dest="T_ladder", type=float_list, default="0.005,0.01,0.02,0.04"
    )
    p_asym.add_argument("--paths", type=int, default=10000)
    p_asym.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_asym.add_argument("--tol-rel", dest="tol_rel", type=float, default=0.1)
    p_asym.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_asym.add_argument("--format", choices=("csv", "json"), default="csv")
    p_asym.add_argument("--write-config", help="write the resolved config and exit")
    return parser


_COMMANDS = {"bounds": cmd_bounds, "simulate": cmd_simulate, "asymptotics": cmd_asymptotics}


def main(argv=None) -> int:
    """Run one command; every usage error, wherever raised, exits 2 here."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        args = _apply_config(parser, argv)
        if getattr(args, "write_config", None):
            cfg = _resolved_config(parser, args)
            try:
                cfg.write(args.write_config)
            except OSError as exc:
                raise CliError(f"cannot write config {args.write_config}: {exc}") from exc
            print(f"wrote {args.write_config}", file=sys.stderr)
            return 0
        # a float that overflows or turns nan stops the run here instead of
        # printing a numpy warning and carrying on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: the arithmetic leaves the float range ({exc})", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: the run does not fit in memory ({exc})", file=sys.stderr)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
