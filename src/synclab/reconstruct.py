"""Reconstruction of velocities from terminal phases plus initial velocities.

Given theta(t0) and omega(0) of the inertial system, the velocity history on
[0, t0] is the unique fixed point of the map

    F_i(w)(t) = w0_i e^{-t/m} + nu_i (1 - e^{-t/m})
      + (k/(N m)) sum_l int_0^t e^{-(t-s)/m}
            sin( theta_l(t0) - theta_i(t0) - int_s^{t0} (w_l - w_i) dtau ) ds,

which contracts in the channelwise sup norm whenever
t0 < max(1/(2k), sqrt(m/k)).  Past the determinability threshold
T*(kappa, m) the data (theta(t*), omega(0)) no longer pins down omega(t*):
a bipolar two-group configuration and its mirror image collide at t* with
opposite velocity patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import relaxation_convolution
from .integrate import IntegrationError, Trajectory, first_zero, integrate
from .model import PhaseState, SystemParams, coupling_and_rate
from .observables import mismatch_l2

__all__ = [
    "GridFunction",
    "ReconstructionResult",
    "contraction_map",
    "lipschitz_constant",
    "contraction_horizon",
    "reconstruct_velocity",
    "determinability_threshold",
    "pendulum_relative",
    "first_relative_zero",
    "bipolar_phases",
    "counterexample_bipolar",
    "sturm_picone_monitor",
    "sturm_picone_tstar",
]

MIN_STEPS = 256
MAX_ITERATIONS = 200  # fixed-point sweeps of reconstruct_velocity before it gives up
ZERO_TOL = 1e-8  # how close the counterexample's first zero must come to t_star
COUNTEREXAMPLE_TOL = 1e-10  # integration tol of the counterexample's runs


@dataclass(frozen=True)
class GridFunction:
    """N-channel function sampled on a uniform grid over [0, t0], sup metric."""

    t0: float
    values: np.ndarray  # (steps + 1, n)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] < 9:
            raise ValueError("values must be (steps + 1, n) with steps >= 8")
        if not (self.t0 > 0.0 and math.isfinite(self.t0)):
            raise ValueError("t0 must be positive and finite")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t0, self.steps + 1)

    def sup_distance(self, other: "GridFunction") -> float:
        if other.values.shape != self.values.shape or other.t0 != self.t0:
            raise ValueError("grid mismatch")
        return float(np.abs(self.values - other.values).max())


@dataclass(frozen=True)
class ReconstructionResult:
    omega: GridFunction
    theta0: np.ndarray
    iterations: int
    final_residual: float
    empirical_contraction: float


def default_steps(t0: float, m: float) -> int:
    """Grid resolution resolving the exp(-(t-s)/m) kernel."""
    return max(MIN_STEPS, int(math.ceil(20.0 * t0 / m)))


def _cumulative_from_right(values: np.ndarray, dt: float) -> np.ndarray:
    """W(t_k) = int_{t_k}^{t0} f dtau via piecewise-parabolic cells.

    Cell [k, k+1] integrates the parabola through nodes (k-1, k, k+1)
    (through (k, k+1, k+2) for the first cell), then accumulates from the
    right end, where W = 0.
    """
    kk = values.shape[0] - 1
    cell = np.empty_like(values[:-1])
    # interior cells: (dt/12) * (-f_{k-1} + 8 f_k + 5 f_{k+1})
    cell[1:] = (dt / 12.0) * (-values[:-2] + 8.0 * values[1:-1] + 5.0 * values[2:])
    cell[0] = (dt / 12.0) * (5.0 * values[0] + 8.0 * values[1] - values[2])
    out = np.zeros_like(values)
    out[:-1] = cell[::-1].cumsum(axis=0)[::-1]
    return out


def contraction_map(
    params: SystemParams,
    omega0: np.ndarray,
    theta_star: np.ndarray,
    omega_star: GridFunction,
) -> GridFunction:
    """One application of the velocity-history map F (see module docstring).

    The inner phase integral uses the piecewise-parabolic cumulative rule on
    the grid; the outer relaxation integral is exact against the cubic
    Hermite model of the coupling (values and exact slopes at the nodes).
    """
    m = params.inertia_m
    if m <= 0.0:
        raise ValueError("contraction map requires m > 0")
    n = params.n
    omega0 = np.asarray(omega0, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if omega0.shape != (n,) or theta_star.shape != (n,):
        raise ValueError("omega0 and theta_star must have n entries")

    w = omega_star.values
    t = omega_star.times
    big_w = _cumulative_from_right(w, omega_star.t0 / omega_star.steps)
    # theta(s) = theta*(t0) - int_s^{t0} w dtau, so theta'(s) = w(s)
    g, dg = coupling_and_rate(params, theta_star[None, :] - big_w, w)
    conv = relaxation_convolution(t, g, dg, m)

    e = np.exp(-t / m)[:, None]
    out = omega0[None, :] * e + params.nat_freq[None, :] * (1.0 - e) + conv
    return GridFunction(omega_star.t0, out)


def lipschitz_constant(kappa: float, m: float, t0: float) -> float:
    """Worst-case sup-norm Lipschitz constant of F: min(2 k t0, k t0^2 / m)."""
    if kappa <= 0 or m <= 0 or t0 < 0:
        raise ValueError("kappa, m must be positive and t0 nonnegative")
    return min(2.0 * kappa * t0, kappa * t0**2 / m)


def contraction_horizon(kappa: float, m: float) -> float:
    """Largest guaranteed-contractive window: max(1/(2k), sqrt(m/k))."""
    if kappa <= 0 or m <= 0:
        raise ValueError("kappa and m must be positive")
    return max(1.0 / (2.0 * kappa), math.sqrt(m / kappa))


def reconstruct_velocity(
    params: SystemParams,
    omega0: np.ndarray,
    theta_star: np.ndarray,
    t0: float,
    tol: float = 1e-10,
) -> ReconstructionResult:
    """Fixed-point iteration of F on the `default_steps(t0, m)` grid from the
    constant guess w(t) = omega0, at most MAX_ITERATIONS sweeps.

    Stops when the sup-norm step falls below tol (or tol/10 relatively);
    recovers the initial phases from theta(t) = theta*(t0) - int_t^{t0} w.
    """
    m = params.inertia_m
    if t0 >= contraction_horizon(params.coupling_kappa, m):
        raise ValueError("t0 must be below the contraction horizon")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    steps = default_steps(t0, m)

    omega0 = np.asarray(omega0, dtype=float)
    current = GridFunction(t0, np.tile(omega0, (steps + 1, 1)))
    steps_hist: list[float] = []
    scale = max(1.0, float(np.abs(omega0).max()))
    for it in range(1, MAX_ITERATIONS + 1):
        new = contraction_map(params, omega0, theta_star, current)
        step = new.sup_distance(current)
        steps_hist.append(step)
        current = new
        if step < tol or step < tol / 10.0 * scale:
            break
    else:
        raise IntegrationError(
            f"no convergence in {MAX_ITERATIONS} iterations; step history tail "
            f"{steps_hist[-5:]}"
        )

    ratios = [
        steps_hist[k + 1] / steps_hist[k]
        for k in range(len(steps_hist) - 1)
        if steps_hist[k] > 10.0 * tol
    ]
    contraction = max(ratios) if ratios else 0.0
    dt = t0 / steps
    big_w = _cumulative_from_right(current.values, dt)
    theta_rec = np.asarray(theta_star, dtype=float)[None, :] - big_w
    return ReconstructionResult(
        omega=current,
        theta0=theta_rec[0],
        iterations=it,
        final_residual=steps_hist[-1],
        empirical_contraction=contraction,
    )


def determinability_threshold(kappa: float, m: float) -> float:
    """Largest elapsed time for which (theta(t*), omega(0)) decides omega(t*).

    This is the positivity window T*(m, 1, kappa): infinite for m*kappa <= 1/4,
    otherwise pi*m/sqrt(4mk - 1) + (2m/sqrt(4mk - 1)) * asin(1/sqrt(4mk)).
    """
    if not (0.0 < kappa < math.inf and 0.0 < m < math.inf):  # NaN fails too
        raise ValueError("kappa and m must be positive and finite")
    return sturm_picone_tstar(m, 1.0, kappa)


def sturm_picone_tstar(a: float, b: float, c: float) -> float:
    """Positivity window T*(a,b,c) for a y'' + b y' + c y > 0 comparisons.

    Infinite for 4ac <= b^2; otherwise
    pi*a/sqrt(4ac - b^2) + (2a/sqrt(4ac - b^2)) * asin(b / (2 sqrt(ac))).
    """
    if not all(0.0 < v < math.inf for v in (a, b, c)):  # NaN fails too
        raise ValueError("a, b, c must be positive and finite")
    disc = 4.0 * a * c - b * b
    if disc <= 0.0:
        return math.inf
    root = math.sqrt(disc)
    return math.pi * a / root + (2.0 * a / root) * math.asin(b / (2.0 * math.sqrt(a * c)))


def pendulum_relative(
    m: float, kappa: float, eta: float, horizon: float, tol: float = 1e-10
) -> Trajectory:
    """Relative-phase pendulum m x'' + x' = -kappa sin x, x(0) = eta, x'(0) = 0.

    Realized exactly as the two-oscillator system with zero natural
    frequencies and antipodal initial phases (+eta/2, -eta/2); the relative
    phase theta_1 - theta_2 is the pendulum variable.
    """
    if not (0.0 < eta < math.pi):
        raise ValueError("eta must lie in (0, pi)")
    params = SystemParams(2, m, kappa, [0.0, 0.0])
    init = PhaseState(0.0, [eta / 2.0, -eta / 2.0], [0.0, 0.0])
    return integrate(params, init, horizon, tol)


def first_relative_zero(traj: Trajectory) -> float | None:
    """First zero of the relative phase on the trajectory span, to 1e-12 in time, or None."""
    vals = traj.theta_grid[:, 0] - traj.theta_grid[:, 1]
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0]
    if flips.size == 0:
        return None
    k = int(flips[0])
    return first_zero(
        traj,
        lambda st: float(st.theta[0] - st.theta[1]),
        (float(traj.grid[k]), float(traj.grid[k + 1])),
        tol=1e-12,
    )


def bipolar_phases(n1: int, n2: int, eta: float) -> np.ndarray:
    """Two groups of n1 and n2 phases, eta apart, with zero mean: eta (+n2/N, ..., -n1/N)."""
    n = n1 + n2
    return np.concatenate([np.full(n1, eta * n2 / n), np.full(n2, -eta * n1 / n)])


def counterexample_bipolar(
    n1: int,
    n2: int,
    kappa: float,
    m: float,
    t_star: float,
) -> dict:
    """Construct two-group data whose two mirror solutions collide at t_star.

    Finds the opening angle eta whose relative phase first crosses zero at
    t_star by Illinois regula falsi on F(eta) = z(eta) - t_star, with z the
    first zero of the pendulum `pendulum_relative`; it bisects only while
    the upper end's zero lies past the horizon.  eta -> z is increasing, so
    each search run stops just past the upper end's zero.  The bracket
    starts at [1e-4, pi - 1e-3] and its upper end moves to pi - 1e-4,
    pi - 1e-5 and pi - 1e-6 while its zero comes before t_star; a t_star
    beyond the last is a ValueError.  Then verifies on full N-oscillator
    simulations that the phases agree at t_star while the velocities carry
    opposite (+n2/N, ..., -n1/N) patterns.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both groups need at least one oscillator")
    if m * kappa <= 0.25:
        raise ValueError("requires m * kappa > 1/4 (threshold is infinite otherwise)")
    threshold = determinability_threshold(kappa, m)
    if t_star <= threshold:
        raise ValueError(f"t_star must exceed the threshold {threshold:.6f}")

    horizon = 1.3 * t_star + 2.0 * m  # zeros past this read as +inf (eta too wide)
    margin = 0.01 * t_star  # a search run ends this far past the upper end's zero

    def zero_for(eta: float, span: float = horizon) -> float:
        traj = pendulum_relative(m, kappa, eta, span, COUNTEREXAMPLE_TOL)
        z = first_relative_zero(traj)
        return math.inf if z is None else z

    lo = 1e-4
    z_lo = zero_for(lo)
    if not z_lo < t_star:
        raise IntegrationError(
            f"bracket failure: the first zero at eta = {lo:g} is {z_lo:.10g}, "
            f"not below t_star {t_star:.10g}"
        )
    # The first zero grows like log(1/(pi - eta)) as eta approaches pi (the
    # pendulum rests ever longer near the inverted equilibrium), so the opening
    # angle may exceed pi/2 and the upper end moves towards pi until its zero
    # passes t_star.  Past pi - 1e-6 one ulp of eta moves z by about 1e-9.
    for delta in (1e-3, 1e-4, 1e-5, 1e-6):
        hi = math.pi - delta
        z_hi = zero_for(hi)
        if z_hi > t_star:
            break
        lo, z_lo = hi, z_hi
    else:
        raise ValueError(
            f"t_star {t_star:g} is out of reach: the first zero is at most "
            f"{z_lo:.6g} (eta = pi - 1e-6)"
        )

    # Illinois regula falsi: a kept endpoint's stored F is halved when it is
    # kept twice in a row, so neither end sticks.
    f_lo, f_hi = z_lo - t_star, z_hi - t_star
    kept = None  # the end the last step kept
    for _ in range(200):
        if math.isfinite(f_hi):
            eta = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        else:
            eta = 0.5 * (lo + hi)
        z_eta = zero_for(eta, min(horizon, z_hi + margin))
        f_eta = z_eta - t_star
        if abs(f_eta) < ZERO_TOL:
            break
        if f_eta < 0.0:
            lo, f_lo = eta, f_eta
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, z_hi, f_hi = eta, z_eta, f_eta
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    else:
        raise IntegrationError("regula falsi did not reach the zero tolerance")

    n = n1 + n2
    theta0 = bipolar_phases(n1, n2, eta)
    phi0 = -theta0
    params = SystemParams(n, m, kappa, np.zeros(n))
    span = t_star * 1.001
    traj_theta = integrate(params, PhaseState(0.0, theta0, np.zeros(n)), span, COUNTEREXAMPLE_TOL)
    traj_phi = integrate(params, PhaseState(0.0, phi0, np.zeros(n)), span, COUNTEREXAMPLE_TOL)

    th_t, om_t = traj_theta.eval_many(np.array([t_star]))
    ph_t, pm_t = traj_phi.eval_many(np.array([t_star]))
    vel_gap = om_t[0] - pm_t[0]
    # the groups' phase difference theta_a - theta_b obeys the pendulum equation
    rel_rate = float(om_t[0, 0] - om_t[0, n1])

    report = {
        "eta": eta,
        "first_zero": z_eta,
        "threshold": threshold,
        "phase_gap_at_t_star": float(np.abs(th_t[0] - ph_t[0]).max()),
        "phase_sup_at_t_star": float(max(np.abs(th_t[0]).max(), np.abs(ph_t[0]).max())),
        "velocity_gap": vel_gap,
        "velocity_gap_diameter": float(vel_gap.max() - vel_gap.min()),
        "relative_rate_at_t_star": rel_rate,
        "rate_negative": rel_rate < 0.0,
        "pattern": bipolar_phases(n1, n2, 1.0),
        "theta0": theta0,
        "phi0": phi0,
        "trajectories": (traj_theta, traj_phi),
    }
    return report


def sturm_picone_monitor(
    traj_a: Trajectory,
    traj_b: Trajectory,
    kappa: float,
    m: float,
) -> dict:
    """Track the pairwise mismatch L(t) of two equal-initial-velocity solutions.

    L must stay positive at least until T*(m, 1, kappa).  Reports the first
    time L dips below 1e-7 * L(0) (located by trisection on the
    bracketing dip), or None when it never does.  Positivity can only be
    certified down to the integration noise floor: two solutions locking to
    the same profile drive L to zero exponentially, and the monitor reads
    that as a zero once L crosses the floor.
    """
    if traj_a.params.n != traj_b.params.n:
        raise ValueError("trajectories must share the oscillator count")
    om_a0, om_b0 = traj_a.omega_grid[0], traj_b.omega_grid[0]
    if float(np.abs(om_a0 - om_b0).max()) > 1e-12:
        raise ValueError("trajectories must share the initial velocities")
    l0 = mismatch_l2(traj_a.theta_grid[0], traj_b.theta_grid[0])
    if l0 <= 0.0:
        raise ValueError("initial mismatch must be positive (phase gaps not constant)")

    horizon = min(traj_a.horizon, traj_b.horizon)
    ts = np.linspace(0.0, horizon, 4001)
    th_a, _ = traj_a.eval_many(ts)
    th_b, _ = traj_b.eval_many(ts)
    d = th_a - th_b
    nn = d.shape[1]
    l_vals = np.sqrt(np.maximum(nn * (d**2).sum(axis=1) - d.sum(axis=1) ** 2, 0.0))

    tstar = sturm_picone_tstar(m, 1.0, kappa)
    floor = 1e-7 * l0

    def lfun(t: float) -> float:
        a, _ = traj_a.eval_many(np.array([t]))
        b, _ = traj_b.eval_many(np.array([t]))
        return mismatch_l2(a[0], b[0])

    def refine_min(lo: float, hi: float) -> tuple[float, float]:
        for _ in range(200):
            third = (hi - lo) / 3.0
            if third < 1e-13 * max(1.0, hi):
                break
            m1, m2 = lo + third, hi - third
            if lfun(m1) < lfun(m2):
                hi = m2
            else:
                lo = m1
        mid = 0.5 * (lo + hi)
        return mid, lfun(mid)

    # candidate dips: sampled local minima small enough to possibly touch zero
    trigger = 0.02 * l0
    first_zero_t: float | None = None
    interior = np.nonzero(
        (l_vals[1:-1] <= l_vals[:-2]) & (l_vals[1:-1] <= l_vals[2:]) & (l_vals[1:-1] < trigger)
    )[0]
    for k in interior + 1:
        t_min, v_min = refine_min(ts[k - 1], ts[k + 1])
        if v_min <= floor:
            first_zero_t = t_min
            break

    window_end = min(tstar, horizon)
    in_window = ts <= window_end + 1e-12
    if first_zero_t is None:
        positive_until_tstar = bool(np.all(l_vals[in_window] > floor))
    else:
        positive_until_tstar = first_zero_t >= window_end - 1e-9
    return {
        "l0": l0,
        "tstar": tstar,
        "min_l": float(l_vals.min()),
        "min_l_in_window": float(l_vals[in_window].min()),
        "first_zero": first_zero_t,
        "positive_until_tstar": positive_until_tstar,
        "times": ts,
        "l_values": l_vals,
    }
