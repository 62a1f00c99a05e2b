"""The benchmark's four workloads: inputs drawn from the seed, calls, checks.

`build(name, seed, out_dir)` draws a workload's inputs, writes the files its
CLI calls read, and returns its operations.  One operation is one scenario
call (a CLI dispatch or a library entry call) together with its output check.
Calls go through module attributes looked up at call time, so the traced mode
sees them.  Every check compares against a computation made apart from the
program or against a property the method must have, never against a stored
copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from synclab import cli, reconstruct, tikhonov
from synclab.model import PhaseState, SystemParams

# The package attribute `synclab.integrate` is the function; this is the module.
_integrate_mod = importlib.import_module("synclab.integrate")

# desk: the criterion-08 scenario pairs (seed 42 + k at n = 2, 43 + k at n = 3),
# k = seed mod 5, the five pairs the acceptance test certifies.
DESK_PAIRS = 5
# small_m: the middle scale of the smallness-scaling test (seed 5), shifted by seed mod 5.
SMALL_M_SEEDS = 5
# theory: the shared sweep scenario of the test suite.
SWEEP_SEED = 20250401
SWEEP_M_LIST = (0.1, 0.05, 0.025, 0.0125)
SWEEP_TOL = 1e-9
WIDE_N = 128


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# _pcg and _spread_to copy two private helpers of synclab.experiments, so that
# a change under test can move them without changing the benchmark's inputs.
def _pcg(seed: int, stream: int) -> np.random.Generator:
    """The package's scenario generator: PCG64 substream `stream` of `seed`."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _spread_to(values: np.ndarray, target: float) -> np.ndarray:
    v = values - values.mean()
    return v * (target / (v.max() - v.min()))


def _dispatch(argv: list[str]) -> int:
    # The CLI prints its verdict line; keep the benchmark's stdout for the result.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.parse_and_dispatch(argv)


def _write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def _certify_op(name: str, config: dict, floor: float, out_dir: Path) -> Op:
    cfg_path = _write_json(out_dir / f"{name}.json", config)
    run_dir = out_dir / name

    def call():
        return _dispatch(["certify", "--config", str(cfg_path), "--out", str(run_dir)])

    def check(code):
        _require(code == 0, f"{name}: exit code {code}")
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        _require(report["verdict"] == "pass", f"{name}: verdict {report['verdict']}")
        r_end = report["summaries"]["r_end"][0]
        _require(r_end > floor, f"{name}: R_end {r_end} not above the floor {floor}")

    return Op(name, call, check)


def _desk(seed: int, out_dir: Path) -> list[Op]:
    k = seed % DESK_PAIRS
    eps = 0.05
    ops = []
    for n, base, floor in ((2, 42, 1.0 - eps), (3, 43, 1.0 - 2.0 / 3.0 - eps)):
        config = {"seed": base + k, "n": n, "horizon": 200.0, "tol": 1e-8, "eps": eps, "seeds": 1}
        ops.append(_certify_op(f"certify_n{n}", config, floor, out_dir))
    return ops


def _small_m(seed: int, out_dir: Path) -> list[Op]:
    config = {
        "seed": 5 + seed % SMALL_M_SEEDS,
        "n": 2,
        "horizon": 150.0,
        "tol": 1e-8,
        "eps": 0.05,
        "seeds": 1,
        "a_freq_spread": 0.005,
        "b_velocity_spread": 0.005,
        "c_inertia": 1e-3,
    }
    return [_certify_op("certify_small_m", config, 1.0 - 0.05, out_dir)]


def _sweep_op() -> Op:
    rng = _pcg(SWEEP_SEED, 0)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, 5)
    rng2 = _pcg(SWEEP_SEED, 1000)
    nu = _spread_to(rng2.normal(0.0, 1.0, 5), 0.3)
    om0 = _spread_to(rng2.normal(0.0, 1.0, 5), 0.5)
    params0 = SystemParams(5, 0.0, 1.0, nu)
    init = PhaseState(0.0, theta0, om0)

    def call():
        return tikhonov.compare_trajectories(
            params0, init, list(SWEEP_M_LIST), 3.0, n_max=5, tol=SWEEP_TOL, strict=True
        )

    def check(res):
        failed = [c.name for cl in res["checks"].values() for c in cl if not c.passed]
        _require(not failed, f"sweep: bound checks failed: {failed[:5]}")
        for m, traj in res["trajectories"].items():
            _require(traj.duhamel_sup <= 50.0 * SWEEP_TOL, f"sweep: residual at m={m}")
        # the sup gap is linear in m: halving m halves it
        for r in res["ratios"]:
            _require(0.40 <= r <= 0.60, f"sweep: sup-gap ratio {r} outside [0.40, 0.60]")

    return Op("compare_trajectories", call, check)


def _reconstruct_op(seed: int) -> Op:
    rng = np.random.default_rng([seed % 2**32, 4])
    n, m, kappa, t0 = 4, 0.2, 1.0, 0.4
    nu = rng.normal(0.0, 0.2, n)
    nu -= nu.mean()
    theta0 = rng.uniform(0.0, 2.0 * math.pi, n)
    omega0 = nu + rng.normal(0.0, 0.3, n)
    params = SystemParams(n, m, kappa, nu)
    init = PhaseState(0.0, theta0, omega0)

    def call():
        traj = _integrate_mod.integrate(params, init, t0, 1e-11)
        theta_star, _ = traj.eval_many(np.array([t0]))
        return reconstruct.reconstruct_velocity(params, omega0, theta_star[0], t0, tol=1e-9)

    def check(res):
        err = float(np.abs(res.theta0 - theta0).max())
        _require(err < 1e-6, f"reconstruct: theta0 recovered to {err:.2e}, not 1e-6")

    return Op("reconstruct_velocity", call, check)


def _threshold_op() -> Op:
    ms = (0.1, 0.25, 0.5, 1.0)
    kappas = (0.25, 0.5, 1.0, 2.0)

    def call():
        return {(m, k): reconstruct.determinability_threshold(k, m) for m in ms for k in kappas}

    def check(table):
        _require(abs(table[(1.0, 0.5)] - 1.5 * math.pi) < 1e-9, "threshold: T*(1, 0.5) != 3pi/2")
        want = 4.0 * math.pi / (3.0 * math.sqrt(3.0))
        _require(abs(table[(1.0, 1.0)] - want) < 1e-9, "threshold: T*(1, 1) != 4pi/(3 sqrt 3)")
        for (m, k), value in table.items():
            _require(math.isinf(value) == (m * k <= 0.25), f"threshold: T*({m}, {k}) = {value}")

    return Op("determinability_threshold", call, check)


def _pendulum_first_zero(m: float, kappa: float, eta: float, t_max: float) -> float:
    """First zero of m x'' + x' = -kappa sin x, x(0) = eta, x'(0) = 0 (DOP853)."""

    def rhs(_t, y):
        return [y[1], (-y[1] - kappa * math.sin(y[0])) / m]

    def hit(_t, y):
        return y[0]

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, t_max), [eta, 0.0], method="DOP853", rtol=1e-12, atol=1e-12, events=hit)
    return float(sol.t_events[0][0]) if sol.t_events[0].size else math.inf


def _counterexample_op() -> Op:
    m, kappa, t_star = 1.0, 1.0, 3.0

    def call():
        return reconstruct.counterexample_bipolar(1, 1, kappa, m, t_star)

    def check(out):
        z = _pendulum_first_zero(m, kappa, out["eta"], 2.0 * t_star)
        _require(abs(z - t_star) < 1e-7, f"counterexample: reference first zero at {z!r}")
        _require(out["phase_gap_at_t_star"] < 1e-6, "counterexample: phases do not collide")

    return Op("counterexample_bipolar", call, check)


def _theory(seed: int, out_dir: Path) -> list[Op]:
    return [_sweep_op(), _reconstruct_op(seed), _threshold_op(), _counterexample_op()]


def _mean_field_reference(nu, theta0, omega0, m, kappa, times):
    """Phases and velocities at `times` from DOP853 on the mean-field form."""
    n = len(nu)

    def rhs(_t, y):
        th, om = y[:n], y[n:]
        z = np.exp(1j * th).mean()
        coupling = kappa * np.imag(z * np.exp(-1j * th))
        return np.concatenate([om, (nu - om + coupling) / m])

    y0 = np.concatenate([theta0, omega0])
    sol = solve_ivp(
        rhs, (0.0, times[-1]), y0, method="DOP853", t_eval=times, rtol=1e-12, atol=1e-12
    )
    return sol.y[:n].T, sol.y[n:].T


def _wide(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng([seed % 2**32, WIDE_N])
    n, m, kappa, horizon, tol = WIDE_N, 0.5, 1.0, 10.0, 1e-8
    nu = rng.normal(0.0, 0.3, n)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, n)
    omega0 = rng.normal(0.0, 0.3, n)
    config = {
        "n": n,
        "inertia_m": m,
        "coupling_kappa": kappa,
        "horizon": horizon,
        "tol": tol,
        "init_mode": "explicit",
        "nat_freq": nu.tolist(),
        "theta0": theta0.tolist(),
        "omega0": omega0.tolist(),
    }
    cfg_path = _write_json(out_dir / "simulate.json", config)
    run_dir = out_dir / "simulate"

    def call():
        return _dispatch(["simulate", "--config", str(cfg_path), "--out", str(run_dir)])

    def check(code):
        _require(code == 0, f"simulate: exit code {code}")
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        _require(report["verdict"] == "pass", f"simulate: verdict {report['verdict']}")
        rows = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        t, th, om = rows[:, 0], rows[:, 1 : n + 1], rows[:, n + 1 : 2 * n + 1]
        # the ensemble means obey m x'' + x' = mean(nu) exactly
        e = np.exp(-t / m)
        nu_c, th_c0, om_c0 = nu.mean(), theta0.mean(), omega0.mean()
        theta_c = th_c0 + m * om_c0 * (1.0 - e) + nu_c * (t - m + m * e)
        omega_c = om_c0 * e + nu_c * (1.0 - e)
        err_c = max(np.abs(th.mean(axis=1) - theta_c).max(), np.abs(om.mean(axis=1) - omega_c).max())
        _require(err_c < 50.0 * tol, f"simulate: ensemble means off the closed form by {err_c:.2e}")
        picks = np.unique(np.searchsorted(t, horizon * np.array([0.25, 0.5, 0.75, 1.0])).clip(0, len(t) - 1))
        th_ref, om_ref = _mean_field_reference(nu, theta0, omega0, m, kappa, t[picks])
        err = max(np.abs(th[picks] - th_ref).max(), np.abs(om[picks] - om_ref).max())
        _require(err < 50.0 * tol, f"simulate: states off the DOP853 reference by {err:.2e}")

    return [Op("simulate_wide", call, check)]


def build(name: str, seed: int, out_dir: Path) -> list[Op]:
    """Draw the named workload's inputs from `seed` and return its operations."""
    builders = {"desk": _desk, "small_m": _small_m, "theory": _theory, "wide": _wide}
    return builders[name](seed, out_dir / name)
