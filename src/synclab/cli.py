"""Command-line frontend: scenario configs in, reports and CSV data out.

Subcommands are the keys of one runner table, `_RUNNERS`: simulate, compare,
reconstruct, determinability, certify, cluster, sweep, probe.  Config fields
take the kinds their `ScenarioConfig` annotations name.  Exit codes: 0 verdict
pass, 1 verdict fail, 2 usage/config error, 3 numerical or internal failure.
All errors print one machine-parsable line `error: <kind>: <detail>` on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .experiments import (
    ConfigError,
    ExperimentReport,
    ScenarioConfig,
    probe_conjecture_r,
    run_cluster_experiment,
    run_determinability_demo,
    run_identical_comparison,
    run_reconstruction_demo,
    run_single_simulation,
    run_sync_certification,
    run_tikhonov_sweep,
)
from .integrate import IntegrationError, Trajectory
from .observables import order_parameter
from .reconstruct import determinability_threshold

__all__ = ["main", "parse_and_dispatch", "load_config", "write_trajectory_csv", "validate_report"]

_HINTS = typing.get_type_hints(ScenarioConfig)


def _scalar(key: str, value, kind):
    # JSON reads 1e400 as inf, which int() cannot take
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"field '{key}' takes {'integers' if kind is int else 'numbers'} only")
    return kind(value)


def _coerce(key: str, value):
    """One JSON value as the kind its ScenarioConfig annotation names; only an
    annotation that includes None takes null."""
    kind = _HINTS[key]
    if type(None) in typing.get_args(kind):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field '{key}' must be a list")
        item = typing.get_args(kind)[0]
        return tuple(_scalar(key, v, item) for v in value)
    if kind is bool or kind is str:
        if not isinstance(value, kind):
            raise ConfigError(f"field '{key}' must be a {'boolean' if kind is bool else 'string'}")
        return value
    return _scalar(key, value, kind)


def load_config(path: str | None, overrides: dict[str, str]) -> ScenarioConfig:
    """Strict-schema config load: unknown keys are errors, angles in radians,
    times in seconds, kappa in 1/s.  Overrides apply after the file."""
    valid = set(ScenarioConfig.__dataclass_fields__.keys())
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in raw.items():
            if key not in valid:
                raise ConfigError(f"unknown config key '{key}'")
            data[key] = _coerce(key, value)

    for key, text in overrides.items():
        if key not in valid:
            raise ConfigError(f"unknown override key '{key}'")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        data[key] = _coerce(key, value)

    try:
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Grid samples as CSV: t, theta_1..N, omega_1..N, R, D_theta, D_omega.

    Values are written with 17 significant digits so a read-back reproduces
    them bit-exactly.
    """
    n = traj.params.n
    header = (
        ["t"]
        + [f"theta_{i}" for i in range(1, n + 1)]
        + [f"omega_{i}" for i in range(1, n + 1)]
        + ["R", "D_theta", "D_omega"]
    )
    th, om = traj.theta_grid, traj.omega_grid
    r = order_parameter(th)
    d_th = th.max(axis=1) - th.min(axis=1)
    d_om = om.max(axis=1) - om.min(axis=1)
    rows = np.column_stack([traj.grid, th, om, r, d_th, d_om])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def validate_report(payload: dict) -> None:
    """Structural check of a report payload; raises ValueError on violation."""
    for key in ("experiment", "config", "checks", "summaries", "verdict"):
        if key not in payload:
            raise ValueError(f"report missing key '{key}'")
    if payload["verdict"] not in ("pass", "fail"):
        raise ValueError("verdict must be 'pass' or 'fail'")
    if not isinstance(payload["checks"], list):
        raise ValueError("checks must be a list")
    for c in payload["checks"]:
        if "name" not in c or "passed" not in c or not isinstance(c["passed"], bool):
            raise ValueError("each check needs 'name' and boolean 'passed'")
    expect = all(c["passed"] for c in payload["checks"])
    if (payload["verdict"] == "pass") != expect:
        raise ValueError("verdict does not equal the conjunction of checks")


_RUNNERS = {
    "simulate": run_single_simulation,
    "compare": run_identical_comparison,
    "reconstruct": run_reconstruction_demo,
    "determinability": run_determinability_demo,
    "certify": run_sync_certification,
    "cluster": run_cluster_experiment,
    "sweep": run_tikhonov_sweep,
    "probe": probe_conjecture_r,
}
SUBCOMMANDS = tuple(_RUNNERS)


def _build_parser(subcommand: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"synclab {subcommand}", add_help=True)
    parser.add_argument("--config", type=str, default=None, help="scenario JSON path")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (repeatable)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--strict", action="store_true", help="enable strict bound modes")
    # frequently used direct knobs (sugar for --set)
    parser.add_argument("--m", type=float, default=None, help="inertia override")
    parser.add_argument("--kappa", type=float, default=None, help="coupling override")
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not KEY=VALUE")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.m is not None:
        overrides["inertia_m"] = repr(args.m)
    if args.kappa is not None:
        overrides["coupling_kappa"] = repr(args.kappa)
    if args.seed is not None:
        overrides["seed"] = repr(args.seed)
    if args.strict:
        overrides["strict"] = "true"
    return overrides


def _emit_report(report: ExperimentReport, out_dir: Path, verbose: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if report.trajectory is not None:
        write_trajectory_csv(report.trajectory, out_dir / "trajectory.csv")
    payload = report.to_payload()
    validate_report(payload)
    with open(out_dir / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if verbose:
        for c in report.checks:
            print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}")
    print(f"verdict: {'pass' if report.verdict else 'fail'}")


def parse_and_dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    if not argv:
        print("error: usage: synclab <subcommand> [options]", file=sys.stderr)
        return 2
    sub = argv[0]
    if sub in ("-h", "--help"):
        print("subcommands: " + ", ".join(SUBCOMMANDS))
        return 0
    if sub not in SUBCOMMANDS:
        print(f"error: usage: unknown subcommand '{sub}'", file=sys.stderr)
        return 2

    parser = _build_parser(sub)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        overrides = _collect_overrides(args)
        # determinability with no config is a pure threshold query
        if sub == "determinability" and args.config is None and args.m is not None:
            kappa = args.kappa if args.kappa is not None else 1.0
            value = determinability_threshold(kappa, args.m)
            print("inf" if value == float("inf") else f"{value:.9g}")
            return 0
        report = _RUNNERS[sub](load_config(args.config, overrides))
        _emit_report(report, Path(args.out), args.verbose)
        return 0 if report.verdict else 1
    except IntegrationError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError among them
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never a traceback: exit 1 is reserved for "verdict fail"
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
