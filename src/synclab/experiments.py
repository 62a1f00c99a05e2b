"""Reproducible scenario pipelines wrapping the measurement machinery.

Every runner takes one ScenarioConfig, the only config schema (the CLI reads
each field's kind off its annotation), and returns one ExperimentReport.  The
config is valid since it was built.  The report rejects a per-oscillator field
its runner does not read, echoes the config, times itself from construction to
`done()`, passes when all its checks do, and carries the run of `simulate` for
the CLI's CSV.  Randomness flows through PCG64 substreams of the seed: `_draw`
takes the first phase draw that passes the R0 filter and the generator on
substream 1000 + its index, so identical configs reproduce bit-equal results.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass, field, replace
from typing import Sequence

import numpy as np

from .integrate import CERTIFICATION_FACTOR, Trajectory, integrate
from .model import PhaseState, SystemParams, walk_cells
from .observables import (
    DEFAULT_EPS_THETA,
    DEFAULT_WINDOW_FRACTION,
    ClusterSpec,
    cluster_stability_check,
    diameter,
    lock_certificate,
    order_parameter,
    variance,
    xi_functional,
)
from .reconstruct import (
    ZERO_TOL,
    bipolar_phases,
    contraction_horizon,
    counterexample_bipolar,
    determinability_threshold,
    lipschitz_constant,
    reconstruct_velocity,
)
from .tikhonov import SLACK_FACTOR, BoundCheck, compare_trajectories

__all__ = [
    "ScenarioConfig",
    "ExperimentReport",
    "ConfigError",
    "run_sync_certification",
    "run_tikhonov_sweep",
    "run_identical_comparison",
    "run_cluster_experiment",
    "run_reconstruction_demo",
    "run_determinability_demo",
    "run_single_simulation",
    "probe_conjecture_r",
]

R0_FLOOR = 0.05
DEFAULT_ABC = (0.05, 0.05, 0.01)


class ConfigError(ValueError):
    """A scenario configuration violates the schema or an invariant."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Seeded scenario description; the CLI reads each field's JSON kind off its annotation."""

    seed: int = 0
    n: int = 2
    inertia_m: float = 0.01
    coupling_kappa: float = 1.0
    nat_freq: tuple[float, ...] | None = None
    theta0: tuple[float, ...] | None = None
    omega0: tuple[float, ...] | None = None
    init_mode: str = "random"  # random | explicit | bipolar
    horizon: float = 10.0
    tol: float = 1e-8
    # experiment-specific knobs
    eps: float = 0.05
    a_freq_spread: float | None = None
    b_velocity_spread: float | None = None
    c_inertia: float | None = None
    m_list: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    n_max: int = 5
    t0: float = 0.4
    t_star: float = 3.0
    n1: int = 1
    n2: int = 1
    bipolar_eta: float = 0.8
    cluster_indices: tuple[int, ...] | None = None
    cluster_lambda: float = 0.7
    cluster_ell: float = 1.4
    cluster_eta: float = 1.0
    t1: float | None = None
    window_fraction: float = DEFAULT_WINDOW_FRACTION
    eps_omega: float | None = None
    eps_theta: float = DEFAULT_EPS_THETA
    strict: bool = False
    seeds: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{name} must be finite")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.coupling_kappa <= 0:
            raise ConfigError("coupling_kappa must be positive")
        if self.inertia_m < 0:
            raise ConfigError("inertia_m must be nonnegative")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.t0 <= 0:
            raise ConfigError("t0 must be positive")
        if self.t1 is not None and not 0.0 <= self.t1 <= self.horizon:
            raise ConfigError("t1 must lie in [0, horizon]")
        for name in ("eps", "eps_omega", "eps_theta"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not (0.0 < self.window_fraction < 1.0):
            raise ConfigError("window_fraction must lie in (0, 1)")
        if not (1e-13 <= self.tol <= 1e-3):
            raise ConfigError("tol must lie in [1e-13, 1e-3]")
        if self.init_mode not in ("random", "explicit", "bipolar"):
            raise ConfigError("init_mode must be random, explicit, or bipolar")
        for name in ("nat_freq", "theta0", "omega0"):
            v = getattr(self, name)
            if v is not None and len(v) != self.n:
                raise ConfigError(f"{name} must have n entries")
        if self.init_mode == "explicit" and self.theta0 is None:
            raise ConfigError("theta0 is required for explicit init")
        if self.init_mode == "bipolar":
            if self.n1 < 1 or self.n2 < 1:
                raise ConfigError("bipolar init needs n1 >= 1 and n2 >= 1")
            if self.n1 + self.n2 != self.n:
                raise ConfigError("bipolar init needs n1 + n2 == n")
            if not (0.0 < self.bipolar_eta < math.pi):
                raise ConfigError("bipolar_eta must lie in (0, pi)")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        idx = self.cluster_indices or ()
        if not all(isinstance(i, int) and 0 <= i < self.n for i in idx) or len(set(idx)) < len(idx):
            raise ConfigError("cluster_indices must be distinct integers in 0..n-1")


@dataclass
class ExperimentReport:
    """One runner's checks and summaries; its clock starts when it is built.

    An explicit per-oscillator field not in `reads` is a ConfigError, not an
    echo of a value the run ignored.  `trajectory` is the run for the CSV.
    """

    experiment: str
    config: ScenarioConfig
    checks: list[dict] = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    reads: InitVar[tuple[str, ...]] = ()
    wall_time_s: float = field(default=0.0, init=False)
    trajectory: Trajectory | None = field(default=None, init=False, repr=False)
    _t_start: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def __post_init__(self, reads: tuple[str, ...]) -> None:
        for name in ("nat_freq", "theta0", "omega0"):
            if name not in reads and getattr(self.config, name) is not None:
                raise ConfigError(f"{self.experiment} does not read {name}")

    def done(self) -> ExperimentReport:
        """Stamp the wall time since the report was built, and return it."""
        self.wall_time_s = time.perf_counter() - self._t_start
        return self

    @property
    def verdict(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, passed: bool, **detail) -> None:
        self.checks.append({"name": name, "passed": bool(passed), **detail})

    def add_residual_check(self, name: str, traj: Trajectory) -> None:
        """The certificate's 50 * tol gate on a trajectory, at its own tol."""
        gate = CERTIFICATION_FACTOR * traj.tol
        self.add_check(name, traj.duhamel_sup <= gate, residual=traj.duhamel_sup)

    def add_bound_checks(self, checks: Sequence[BoundCheck], prefix: str = "") -> None:
        for c in checks:
            s = c.summary()
            s["name"] = prefix + s["name"]
            self.checks.append(s)

    def to_payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": _plain(vars(self.config)),
            "checks": self.checks,
            "summaries": self.summaries,
            "verdict": "pass" if self.verdict else "fail",
            "wall_time_s": self.wall_time_s,
        }


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _spread_to(values: np.ndarray, target: float) -> np.ndarray:
    """Center a draw and rescale so its diameter equals target exactly."""
    v = values - values.mean()
    width = v.max() - v.min()
    if width == 0.0:
        return v
    return v * (target / width)


def draw_initial_phases(config: ScenarioConfig):
    """Uniform phases on [0, 2pi) with the generic-data filter R0 > 0.05.

    Rejected draws move to the next substream, so the accepted configuration
    is a pure function of the seed.
    """
    for attempt in range(64):
        rng = _rng(config.seed, attempt)
        theta0 = rng.uniform(0.0, 2.0 * math.pi, config.n)
        if config.n == 1 or order_parameter(theta0) > R0_FLOOR:
            return theta0, attempt
    raise ConfigError("could not draw initial phases with R0 above the floor")


def _draw(config: ScenarioConfig) -> tuple[np.ndarray, np.random.Generator]:
    """The filtered phases, and the generator on substream 1000 + their attempt."""
    theta0, attempt = draw_initial_phases(config)
    return theta0, _rng(config.seed, 1000 + attempt)


def _lock(config: ScenarioConfig, traj: Trajectory):
    return lock_certificate(traj, config.window_fraction, config.eps_omega, config.eps_theta)


def _sync_scenario(config: ScenarioConfig, seed_offset: int) -> dict:
    kappa = config.coupling_kappa
    a = config.a_freq_spread if config.a_freq_spread is not None else DEFAULT_ABC[0]
    b = config.b_velocity_spread if config.b_velocity_spread is not None else DEFAULT_ABC[1]
    c = config.c_inertia if config.c_inertia is not None else DEFAULT_ABC[2]
    theta0, rng = _draw(replace(config, seed=config.seed + seed_offset))
    nu = _spread_to(rng.normal(0.0, 1.0, config.n), a * kappa)
    om0 = nu + _spread_to(rng.normal(0.0, 1.0, config.n), b * kappa)
    m = c / kappa

    params = SystemParams(config.n, m, kappa, nu)
    init = PhaseState(0.0, theta0, om0)
    traj = integrate(params, init, config.horizon, config.tol)
    cert = _lock(config, traj)

    distinct = True
    red = np.mod(theta0, 2.0 * math.pi)
    for i in range(config.n):
        for j in range(i + 1, config.n):
            if abs(red[i] - red[j]) < 1e-9 or abs(abs(red[i] - red[j]) - 2 * math.pi) < 1e-9:
                distinct = False
    if config.n == 2:
        case, floor = "n2", 1.0 - config.eps
    elif config.n == 3 or distinct:
        case, floor = "n3_or_distinct", 1.0 - 2.0 / config.n - config.eps
    else:
        case, floor = "otherwise", order_parameter(theta0) - config.eps
    return {
        "trajectory": traj,
        "certificate": cert,
        "case": case,
        "r_floor": floor,
        "r0": order_parameter(theta0),
        "abc": (a, b, c),
    }


def run_sync_certification(config: ScenarioConfig) -> ExperimentReport:
    """Phase-locking desk run: integrate, certify the lock, check the
    limiting order-parameter floor for the applicable case."""
    report = ExperimentReport("sync_certification", config)
    r_ends, cases = [], []
    for s in range(config.seeds):
        out = _sync_scenario(config, s)
        cert = out["certificate"]
        r_end = cert.limiting_r_estimate
        r_ends.append(r_end)
        cases.append(out["case"])
        report.add_check(
            f"locked_seed{s}",
            cert.locked,
            max_freq_spread=cert.max_freq_spread,
            max_phase_drift=cert.max_phase_drift,
        )
        report.add_check(
            f"r_floor_seed{s}",
            r_end > out["r_floor"],
            r_end=r_end,
            floor=out["r_floor"],
            case=out["case"],
            r0=out["r0"],
        )
        report.add_residual_check(f"residual_seed{s}", out["trajectory"])
    report.summaries = {"r_end": r_ends, "cases": cases, "abc": list(out["abc"])}
    return report.done()


def _sweep_init(config: ScenarioConfig):
    d_nu = config.a_freq_spread if config.a_freq_spread is not None else 0.3
    d_om = config.b_velocity_spread if config.b_velocity_spread is not None else 0.5
    theta0, rng = _draw(config)
    nu = _spread_to(rng.normal(0.0, 1.0, config.n), d_nu)
    om0 = _spread_to(rng.normal(0.0, 1.0, config.n), d_om)
    params = SystemParams(config.n, 0.0, config.coupling_kappa, nu)
    return params, PhaseState(0.0, theta0, om0)


def run_tikhonov_sweep(config: ScenarioConfig) -> ExperimentReport:
    """Small-inertia sweep: full bound suite plus the linear-in-m verdict."""
    report = ExperimentReport("tikhonov_sweep", config)
    params0, init = _sweep_init(config)

    res = compare_trajectories(
        params0,
        init,
        list(config.m_list),
        config.horizon,
        n_max=config.n_max,
        tol=config.tol,
        strict=config.strict,
    )
    for m in config.m_list:
        report.add_bound_checks(res["checks"][m], prefix=f"m{m:g}/")
        report.add_residual_check(f"residual_m{m:g}", res["trajectories"][m])
    for i, r in enumerate(res["ratios"]):
        report.add_check(f"linear_ratio_{i}", 0.40 <= r <= 0.60, ratio=r)
    report.summaries = {
        "sup_gap": {str(m): res["sup_gap"][m] for m in config.m_list},
        "ratios": res["ratios"],
    }
    return report.done()


def run_identical_comparison(config: ScenarioConfig) -> ExperimentReport:
    """Compare the first-order flow against its identical-frequency version
    in normalized time; classify the identical-frequency limit."""
    report = ExperimentReport("identical_comparison", config, reads=("theta0", "nat_freq"))

    if config.theta0 is not None:
        theta0, rng = np.asarray(config.theta0, dtype=float), _rng(config.seed, 1000)
    else:
        theta0, rng = _draw(config)
    if config.nat_freq is not None:
        nu = np.asarray(config.nat_freq, dtype=float)
    else:
        d_nu = config.a_freq_spread if config.a_freq_spread is not None else 0.05
        nu = _spread_to(rng.normal(0.0, 1.0, config.n), d_nu * config.coupling_kappa)

    # normalized time: unit coupling, frequencies nu/kappa; the identical-
    # frequency run continues past the comparison window so its limit settles
    kappa = config.coupling_kappa
    horizon_tau = config.horizon
    horizon_class = max(horizon_tau, 30.0)
    p_id = SystemParams(config.n, 0.0, 1.0, np.zeros(config.n))
    p_nid = SystemParams(config.n, 0.0, 1.0, nu / kappa)
    init = PhaseState(0.0, theta0, np.zeros(config.n))
    traj_id = integrate(p_id, init, horizon_class, config.tol)
    traj_nid = integrate(p_nid, init, horizon_tau, config.tol)

    # over tau > 0: at tau = 0 the gap and its bound are both exactly 0
    taus = np.linspace(0.0, horizon_tau, 601)[1:]
    th_id, _ = traj_id.eval_many(taus)
    th_nid, _ = traj_nid.eval_many(taus)
    gap = th_nid - th_id
    measured = gap.max(axis=1) - gap.min(axis=1)
    bound = (diameter(nu) / kappa) * (np.exp(2.0 * taus) - 1.0)
    slack = SLACK_FACTOR * config.tol
    check = BoundCheck("identical_comparison_gap", taus, measured, bound, slack)
    report.add_bound_checks([check])

    th_end = traj_id.theta_grid[-1]
    z = np.exp(1j * th_end).mean()
    psi = float(np.angle(z))
    near_pole = np.cos(th_end - psi) > 0.0
    aligned = np.abs(np.sin(th_end - psi)) < 1e-2
    r_end = order_parameter(th_end)
    if bool(np.all(near_pole)) and bool(np.all(aligned)):
        classification = "synchronized"
        majority = config.n
    else:
        classification = "bipolar"
        majority = int(near_pole.sum())
    report.add_check("limit_classified", bool(np.all(aligned)), classification=classification)
    report.summaries = {
        "classification": classification,
        "majority_size": majority,
        "r_end_identical": r_end,
    }
    return report.done()


def _cluster_scenario(config: ScenarioConfig):
    """The cluster run's params, initial state and ClusterSpec.

    Without `cluster_indices` the cluster is the fewest leading indices, at
    least n - 1, that hold the fraction lambda of the n oscillators which
    `ClusterSpec.validate_size` asks for.
    """
    n = config.n
    rng = _rng(config.seed, 0)
    if config.cluster_indices is not None:
        idx = np.asarray(config.cluster_indices, dtype=int)
    else:
        idx = np.arange(min(n, max(n - 1, math.ceil(config.cluster_lambda * n))))
    outsiders = np.setdiff1d(np.arange(n), idx)
    theta0 = np.empty(n)
    theta0[idx] = rng.uniform(-0.35, 0.35, idx.size)
    theta0[outsiders] = rng.uniform(1.8, 2.2, outsiders.size)
    nu = _spread_to(rng.normal(0.0, 1.0, n), 0.1 * config.coupling_kappa)
    om0 = nu + _spread_to(rng.normal(0.0, 1.0, n), 0.05 * config.coupling_kappa)
    params = SystemParams(n, config.inertia_m, config.coupling_kappa, nu)
    spec = ClusterSpec(
        tuple(int(i) for i in idx), config.cluster_lambda, config.cluster_ell, config.cluster_eta
    )
    return params, PhaseState(0.0, theta0, om0), spec


def run_cluster_experiment(config: ScenarioConfig) -> ExperimentReport:
    """Majority-cluster confinement check plus whole-ensemble locking."""
    report = ExperimentReport("cluster", config)
    params, init, spec = _cluster_scenario(config)

    traj = integrate(params, init, config.horizon, config.tol)
    t1 = config.t1 if config.t1 is not None else max(2.5 * spec.eta * params.inertia_m, 1e-3)
    out = cluster_stability_check(traj, spec, t1)
    report.add_check(
        "hypotheses_satisfied",
        out["hypotheses_satisfied"],
        xi=out["xi"],
        xi_threshold=out["xi_threshold"],
        diameter_at_t1=out["diameter_at_t1"],
    )
    if out["hypotheses_satisfied"]:
        report.add_check(
            "cluster_confined", out["confined"], sup_diameter=out["sup_diameter"], ell=out["ell"]
        )
        report.add_check(
            "terminal_below_ceiling",
            out["terminal_below_ceiling"],
            terminal=out["terminal_diameter"],
            ceiling=out["asymptotic_ceiling"],
        )
    # whole-ensemble confinement hypothesis (eta = inf variant) and locking
    xi_all = xi_functional(
        params.inertia_m, params.coupling_kappa, params.nat_freq, init.omega, math.inf
    )
    report.add_check("xi_whole_ensemble", xi_all < out["xi_threshold"], xi=xi_all)
    cert = _lock(config, traj)
    report.add_check(
        "ensemble_locked",
        cert.locked,
        max_freq_spread=cert.max_freq_spread,
        max_phase_drift=cert.max_phase_drift,
    )
    report.add_residual_check("residual", traj)
    report.summaries = {"cluster_report": _plain(out), "r_end": cert.limiting_r_estimate}
    return report.done()


def run_reconstruction_demo(config: ScenarioConfig) -> ExperimentReport:
    """Forward-simulate, then recover the velocity history from (theta(t0), omega0)."""
    report = ExperimentReport("reconstruction", config)

    theta0, rng = _draw(config)
    nu = _spread_to(rng.normal(0.0, 1.0, config.n), 0.2 * config.coupling_kappa)
    om0 = nu + _spread_to(rng.normal(0.0, 1.0, config.n), 0.5 * config.coupling_kappa)
    params = SystemParams(config.n, config.inertia_m, config.coupling_kappa, nu)
    init = PhaseState(0.0, theta0, om0)

    horizon_c = contraction_horizon(config.coupling_kappa, config.inertia_m)
    t0 = config.t0
    traj = integrate(params, init, t0, min(config.tol, 1e-10))
    th_t0, _ = traj.eval_many(np.array([t0]))
    res = reconstruct_velocity(params, om0, th_t0[0], t0, tol=1e-9)

    ts = np.linspace(0.0, t0, 2001)
    err_omega = float(np.abs(res.omega.eval_many(ts)[1] - traj.eval_many(ts)[1]).max())
    err_theta0 = float(np.abs(res.theta0 - theta0).max())
    lip = lipschitz_constant(config.coupling_kappa, config.inertia_m, t0)

    report.add_check("omega_recovered", err_omega < 1e-6, error=err_omega)
    report.add_check("theta0_recovered", err_theta0 < 1e-6, error=err_theta0)
    report.add_check(
        "contraction_within_bound",
        res.empirical_contraction <= lip + 0.05,
        empirical=res.empirical_contraction,
        lipschitz=lip,
    )
    report.add_check("iterations_bounded", res.iterations <= 60, iterations=res.iterations)
    report.summaries = {
        "iterations": res.iterations,
        "final_residual": res.final_residual,
        "empirical_contraction": res.empirical_contraction,
        "error_bound": res.error_bound,
        "contraction_horizon": horizon_c,
        "t0": t0,
    }
    return report.done()


def run_determinability_demo(config: ScenarioConfig) -> ExperimentReport:
    """Threshold table over an (m, kappa) grid plus the collision construction."""
    report = ExperimentReport("determinability", config)

    table = []
    for m in (0.1, 0.25, 0.5, 1.0):
        for kappa in (0.25, 0.5, 1.0, 2.0):
            table.append(
                {
                    "m": m,
                    "kappa": kappa,
                    "threshold": determinability_threshold(kappa, m),
                }
            )
    infinite_rows = all(
        math.isinf(row["threshold"]) for row in table if row["m"] * row["kappa"] <= 0.25
    )
    report.add_check("small_inertia_rows_infinite", infinite_rows)

    mk = config.inertia_m * config.coupling_kappa
    if mk > 0.25 and config.t_star > determinability_threshold(
        config.coupling_kappa, config.inertia_m
    ):
        out = counterexample_bipolar(
            config.n1, config.n2, config.coupling_kappa, config.inertia_m, config.t_star
        )
        report.add_check(
            "collision_found", abs(out["first_zero"] - config.t_star) < ZERO_TOL, eta=out["eta"]
        )
        report.add_check(
            "phases_collide", out["phase_gap_at_t_star"] < 1e-6, gap=out["phase_gap_at_t_star"]
        )
        report.add_check(
            "velocities_differ",
            out["velocity_gap_diameter"] > 0.01,
            gap=out["velocity_gap_diameter"],
        )
        report.summaries["counterexample"] = {
            "eta": out["eta"],
            "first_zero": out["first_zero"],
            "threshold": out["threshold"],
        }
    report.summaries["threshold_table"] = table
    return report.done()


def run_single_simulation(config: ScenarioConfig) -> ExperimentReport:
    """Plain integration with the lock certificate; the report carries the run."""
    explicit = config.init_mode == "explicit"
    reads = ("nat_freq", "theta0", "omega0") if explicit else ("nat_freq",)
    report = ExperimentReport("simulate", config, reads=reads)

    if explicit:
        theta0 = np.asarray(config.theta0, dtype=float)
        omega0 = (
            np.asarray(config.omega0, dtype=float)
            if config.omega0 is not None
            else np.zeros(config.n)
        )
    elif config.init_mode == "bipolar":
        theta0 = bipolar_phases(config.n1, config.n2, config.bipolar_eta)
        omega0 = np.zeros(config.n)
    else:
        theta0, rng = _draw(config)
        omega0 = rng.normal(0.0, 0.1 * config.coupling_kappa, config.n)
    nu = (
        np.asarray(config.nat_freq, dtype=float)
        if config.nat_freq is not None
        else np.zeros(config.n)
    )
    params = SystemParams(config.n, config.inertia_m, config.coupling_kappa, nu)
    traj = integrate(params, PhaseState(0.0, theta0, omega0), config.horizon, config.tol)

    cert = _lock(config, traj)
    report.trajectory = traj
    report.add_residual_check("residual", traj)
    report.summaries = {
        "locked": cert.locked,
        "r_end": cert.limiting_r_estimate,
        "grid_points": int(len(traj.grid)),
        "method": traj.method,
    }
    return report.done()


def probe_conjecture_r(config: ScenarioConfig) -> ExperimentReport:
    """Informational probe of the conjectured limiting order-parameter window.

    Compares the extremes of R over the trailing window, read at the offsets
    of `walk_cells`, against
    1 - (1/2 +- eps) Var(nu)/kappa^2.  Non-binding: the verdict only records
    that the probe ran, not whether the window held.
    """
    report = ExperimentReport("conjecture_probe", config, reads=("nat_freq",))

    theta0, rng = _draw(config)
    if config.nat_freq is not None:
        nu = np.asarray(config.nat_freq, dtype=float)
    else:
        nu = _spread_to(rng.normal(0.0, 1.0, config.n), 0.1 * config.coupling_kappa)
    params = SystemParams(config.n, config.inertia_m, config.coupling_kappa, nu)
    om0 = nu.copy()
    traj = integrate(params, PhaseState(0.0, theta0, om0), config.horizon, config.tol)

    t_end = traj.horizon
    r_min, r_max = math.inf, -math.inf
    for _, _, (th, _) in walk_cells(params, traj.eval_many, traj.grid,
                                    t_end * (1.0 - config.window_fraction), t_end):
        r_vals = order_parameter(th)
        r_min, r_max = min(r_min, float(r_vals.min())), max(r_max, float(r_vals.max()))
    var_ratio = variance(nu) / config.coupling_kappa**2
    lower = 1.0 - (0.5 + config.eps) * var_ratio
    upper = 1.0 - (0.5 - config.eps) * var_ratio

    report.add_check("probe_ran", True, non_binding=True)
    report.summaries = {
        "r_liminf": r_min,
        "r_limsup": r_max,
        "conjectured_window": [lower, upper],
        "inside_window": lower <= r_min and r_max <= upper,
        "non_binding": True,
    }
    return report.done()


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj
