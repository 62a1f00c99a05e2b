"""Certified trajectories for both oscillator systems.

Two steppers share one Trajectory contract:

* an embedded Dormand-Prince 5(4) pair with PI step control and the standard
  quartic dense-output polynomial, used whenever the inertia is resolvable;
* an integrating-factor stepper for m below 1e-4 * horizon, which solves the
  velocity relaxation exactly per step and models the coupling by a quadratic
  fit through the step endpoints and midpoint (step doubling for control).

In both, error control and the remaining span alone set the step: the first
attempt spans the whole horizon and rejections shrink it.

Every inertial trajectory is certified on construction: the residual of the
velocity integral representation must stay below 50 * tol.  An rk45
trajectory is certified by that residual itself, taken at every grid point
and at most m/10 apart between them (`model.duhamel_residual_grid`).  An exp
trajectory is certified by a bound on it from the ODE defect of the dense
output, sampled per cell, so its cost follows the cells rather than
horizon/m; where that bound cannot prove the gate, the exact residual decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model as _model
from ._kernels import one_sided_moments, scalar_relax_moments
from .model import PhaseState, SystemParams, rhs_first_order

__all__ = [
    "Trajectory",
    "TaylorJet",
    "IntegrationError",
    "integrate",
    "taylor_jet",
    "first_zero",
]

MAX_JET_ORDER = 12
CERTIFICATION_FACTOR = 50.0
EXP_SWITCH = 1e-4  # integrating-factor stepper below m < EXP_SWITCH * horizon
STEP_SAFETY = 0.3  # steppers target this fraction of the requested tol
_CORRECTOR_SWEEPS = 3  # fixed-point sweeps of the exp step's quadratic coupling model


class IntegrationError(RuntimeError):
    """Raised when step control or certification cannot meet the tolerance."""


# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output weights (Shampine): y(t0 + x*h) = y0 + h * sum_p x^(p+1) * (K^T P)_p
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


def _cell_index(t0s, ts, cells):
    """The dense cell of each query: `cells` if given, else the cell starting at or before it."""
    if cells is not None:
        return np.asarray(cells)
    return np.clip(np.searchsorted(t0s, ts, side="right") - 1, 0, len(t0s) - 1)


class _RKDense:
    """Per-step quartic polynomials from the 5(4) stage values."""

    def __init__(self, t0s, hs, y0s, coefs):
        self.t0s = np.asarray(t0s)
        self.hs = np.asarray(hs)
        self.y0s = np.asarray(y0s)
        self.coefs = np.asarray(coefs)  # (S, 4, dim)

    def eval(self, ts: np.ndarray, cells=None) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        idx = _cell_index(self.t0s, ts, cells)
        h = self.hs[idx]
        x = (ts - self.t0s[idx]) / h
        q = self.coefs[idx]  # (Q, 4, dim)
        acc = q[:, 3]
        for p in (2, 1, 0):
            acc = acc * x[:, None] + q[:, p]
        return self.y0s[idx] + (h * x)[:, None] * acc

    def eval_rate(self, ts: np.ndarray, cells=None) -> np.ndarray:
        """dy/dt = sum_p (p+1) x^p q_p of the quartic."""
        ts = np.asarray(ts, dtype=float)
        idx = _cell_index(self.t0s, ts, cells)
        x = (ts - self.t0s[idx]) / self.hs[idx]
        q = self.coefs[idx]
        acc = 4.0 * q[:, 3]
        for p in (2, 1, 0):
            acc = acc * x[:, None] + (p + 1) * q[:, p]
        return acc


class _ExpDense:
    """Per-step quadratic-coupling relaxation model (integrating-factor steps)."""

    def __init__(self, m, t0s, hs, theta0, omega0, ga, gb, gc):
        self.m = m
        self.t0s = np.asarray(t0s)
        self.hs = np.asarray(hs)
        self.theta0 = np.asarray(theta0)
        self.omega0 = np.asarray(omega0)
        self.ga = np.asarray(ga)
        self.gb = np.asarray(gb)
        self.gc = np.asarray(gc)

    def eval_both(self, ts: np.ndarray, cells=None, *, with_rate=False):
        """(theta, omega), and with `with_rate` also omega' = (g(s) - omega) / m,
        g being the cell's quadratic coupling model."""
        ts = np.asarray(ts, dtype=float)
        idx = _cell_index(self.t0s, ts, cells)
        s = ts - self.t0s[idx]
        m = self.m
        mom, jom = one_sided_moments(s, m, 2)
        e = np.exp(-s / m)
        th0, om0 = self.theta0[idx], self.omega0[idx]
        a, b, c = self.ga[idx], self.gb[idx], self.gc[idx]
        conv_w = (a * mom[0][:, None] + b * mom[1][:, None] + c * mom[2][:, None]) / m
        conv_t = a * jom[0][:, None] + b * jom[1][:, None] + c * jom[2][:, None]
        omega = om0 * e[:, None] + conv_w
        theta = th0 + m * (1.0 - e)[:, None] * om0 + conv_t
        if not with_rate:
            return theta, omega
        s = s[:, None]
        return theta, omega, (a + s * (b + s * c) - omega) / m


@dataclass(frozen=True)
class Trajectory:
    """Time grid, per-grid states, and dense output over [0, horizon].

    `duhamel_sup` (None for m = 0) is what certified the trajectory against
    the 50 * tol gate: on an rk45 trajectory the largest velocity residual;
    on an exp trajectory the defect bound on it, or the largest residual
    where the bound could not prove the gate.
    """

    params: SystemParams
    grid: np.ndarray
    theta_grid: np.ndarray
    omega_grid: np.ndarray
    tol: float
    method: str
    duhamel_sup: float | None
    _dense: object = field(repr=False)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def _queries(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.grid[0] - 1e-12 or ts.max() > self.grid[-1] + 1e-12):
            raise ValueError("query time outside the trajectory span")
        return ts

    def eval_many(self, ts, cells=None) -> tuple[np.ndarray, np.ndarray]:
        """Dense (theta, omega) arrays of shape (len(ts), n).

        Each time is read in the grid cell that starts at or before it, or in
        the cell `cells` names, so that a cell can be read at its right end.
        """
        ts = self._queries(ts)
        if self.method == "exp":
            return self._dense.eval_both(ts, cells)
        y = self._dense.eval(ts, cells)
        if self.params.is_inertial:
            n = self.params.n
            return y[:, :n], y[:, n:]
        return y, rhs_first_order(self.params, y)

    def eval_rate(self, ts, cells=None) -> np.ndarray:
        """The time derivative of the dense omega, (len(ts), n), read like eval_many."""
        ts = self._queries(ts)
        if self.method == "exp":
            return self._dense.eval_both(ts, cells, with_rate=True)[2]
        dy = self._dense.eval_rate(ts, cells)
        if self.params.is_inertial:
            return dy[:, self.params.n :]
        # m = 0: omega = nu + c(theta), so omega' is the coupling's rate along theta'
        theta = self._dense.eval(ts, cells)
        return _model.coupling_and_rate(self.params, theta, dy)[1]

    def eval_with_rate(self, ts, cells=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eval_many and eval_rate together; an exp trajectory reads its cells once."""
        if self.method == "exp":
            return self._dense.eval_both(self._queries(ts), cells, with_rate=True)
        return (*self.eval_many(ts, cells), self.eval_rate(ts, cells))

    def state_at_time(self, t: float) -> PhaseState:
        th, om = self.eval_many(np.array([t]))
        return PhaseState(float(t), th[0], om[0])


def _scaled_error(err_vec, y_old, y_new, tol):
    scale = tol * (1.0 + np.maximum(np.abs(y_old), np.abs(y_new)))
    return float(np.max(np.abs(err_vec) / scale))


def _integrate_rk(params, theta0, omega0, horizon, tol, max_steps):
    """Dormand-Prince 5(4) loop with PI control and quartic dense output.

    For m > 0 the accept test scales the local error by max(1, 2m/h): the
    velocity-residual certificate integrates step defects over the kernel
    memory window of width m, so per-step errors must shrink with h/m for
    the 50*tol threshold to hold independently of the tolerance regime.
    """
    m = params.inertia_m
    n = params.n
    if params.is_inertial:
        def f(y):
            th, om = y[:n], y[n:]
            return np.concatenate([om, (params.nat_freq - om + _model.coupling_term(params, th)) / m])

        y = np.concatenate([theta0, omega0])
    else:
        def f(y):
            return rhs_first_order(params, y)

        y = np.array(theta0)

    dim = y.shape[0]
    t = 0.0
    h = horizon
    err_prev = 1.0
    k_stages = np.empty((7, dim))
    k_stages[6] = f(y)  # FSAL seed

    grid = [0.0]
    ys = [y.copy()]
    t0s: list[float] = []
    hs: list[float] = []
    y0s: list[np.ndarray] = []
    coefs: list[np.ndarray] = []

    steps = 0
    while t < horizon - 1e-14 * max(1.0, horizon):
        if steps >= max_steps:
            raise IntegrationError(
                f"step budget exhausted at t={t:.6g} (h={h:.3g}, tol={tol:.1g})"
            )
        h = min(h, horizon - t)
        k_stages[0] = k_stages[6]
        for i in range(1, 7):
            yi = y + h * (k_stages[:i].T @ _A[i])
            k_stages[i] = f(yi)
        y_new = y + h * (k_stages.T @ _B)
        # stage 7 is f(y_new) for FSAL and the error estimate
        k_stages[6] = f(y_new)
        err_vec = h * (k_stages.T @ _E)
        err = _scaled_error(err_vec, y, y_new, tol)
        if params.is_inertial:
            err *= max(1.0, 2.0 * m / h)
        steps += 1
        if err <= 1.0:
            t0s.append(t)
            hs.append(h)
            y0s.append(y.copy())
            coefs.append((k_stages.T @ _P).T)
            t += h
            y = y_new
            grid.append(t)
            ys.append(y.copy())
            fac = 0.9 * (err + 1e-16) ** -0.17 * err_prev**0.04
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, fac))
        else:
            k_stages[6] = k_stages[0]  # restore FSAL slot
            h *= max(0.2, 0.9 * err**-0.2)
            if h < 1e-15 * max(1.0, horizon):
                raise IntegrationError("step size underflow; tolerance unachievable")

    grid = np.asarray(grid)
    ys = np.asarray(ys)
    dense = _RKDense(t0s, hs, y0s, coefs)
    if params.is_inertial:
        theta_g, omega_g = ys[:, :n], ys[:, n:]
    else:
        theta_g = ys
        omega_g = rhs_first_order(params, theta_g)
    return grid, theta_g, omega_g, dense


def _exp_substep(params, theta0, omega0, h, g_fun):
    """One integrating-factor step: exact relaxation, quadratic coupling model.

    Returns endpoint state and the monomial coefficients (a, b, c) of the
    coupling model g(s) ~ a + b*s + c*s^2 on [0, h].
    """
    m = params.inertia_m
    g0 = g_fun(theta0)
    a, b, c = g0, np.zeros_like(g0), np.zeros_like(g0)
    mh0, mh1, mh2, jh0, jh1, jh2 = scalar_relax_moments(h, m)
    _, _, _, jm0, jm1, jm2 = scalar_relax_moments(h / 2.0, m)
    eh = math.exp(-h / m)
    em = math.exp(-h / (2.0 * m))
    drift_mid = theta0 + m * (1.0 - em) * omega0
    drift_end = theta0 + m * (1.0 - eh) * omega0
    for _ in range(_CORRECTOR_SWEEPS):
        gm = g_fun(drift_mid + (a * jm0 + b * jm1 + c * jm2))
        g1 = g_fun(drift_end + (a * jh0 + b * jh1 + c * jh2))
        a = g0
        b = (4.0 * gm - 3.0 * g0 - g1) / h
        c = 2.0 * (g0 - 2.0 * gm + g1) / h**2
    th_end = drift_end + (a * jh0 + b * jh1 + c * jh2)
    om_end = omega0 * eh + (a * mh0 + b * mh1 + c * mh2) / m
    return th_end, om_end, (a, b, c)


def _integrate_exp(params, theta0, omega0, horizon, tol, max_steps):
    m = params.inertia_m

    def g_fun(th):
        return params.nat_freq + _model.coupling_term(params, th)

    t = 0.0
    theta, omega = np.array(theta0), np.array(omega0)
    h = horizon

    grid = [0.0]
    thetas = [theta.copy()]
    omegas = [omega.copy()]
    seg_t0, seg_h, seg_th0, seg_om0, seg_a, seg_b, seg_c = [], [], [], [], [], [], []

    steps = 0
    while t < horizon - 1e-14 * max(1.0, horizon):
        if steps >= max_steps:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        h = min(h, horizon - t)
        th_f, om_f, _ = _exp_substep(params, theta, omega, h, g_fun)
        th_a, om_a, mod_a = _exp_substep(params, theta, omega, h / 2.0, g_fun)
        th_b, om_b, mod_b = _exp_substep(params, th_a, om_a, h / 2.0, g_fun)
        err = max(
            _scaled_error(th_f - th_b, theta, th_b, tol),
            _scaled_error(om_f - om_b, omega, om_b, tol),
        )
        steps += 1
        if err <= 1.0:
            for t_start, hh, th_s, om_s, mod in (
                (t, h / 2.0, theta, omega, mod_a),
                (t + h / 2.0, h / 2.0, th_a, om_a, mod_b),
            ):
                seg_t0.append(t_start)
                seg_h.append(hh)
                seg_th0.append(th_s.copy())
                seg_om0.append(om_s.copy())
                seg_a.append(mod[0])
                seg_b.append(mod[1])
                seg_c.append(mod[2])
            grid.extend([t + h / 2.0, t + h])
            thetas.extend([th_a.copy(), th_b.copy()])
            omegas.extend([om_a.copy(), om_b.copy()])
            theta, omega = th_b, om_b
            t += h
            h *= min(4.0, max(0.3, 0.85 * (err + 1e-16) ** -0.25))
        else:
            h *= max(0.3, 0.85 * err**-0.25)
            if h < 1e-15 * max(1.0, horizon):
                raise IntegrationError("step size underflow; tolerance unachievable")

    dense = _ExpDense(m, seg_t0, seg_h, seg_th0, seg_om0, seg_a, seg_b, seg_c)
    return np.asarray(grid), np.asarray(thetas), np.asarray(omegas), dense


def integrate(
    params: SystemParams,
    init: PhaseState,
    horizon: float,
    tol: float,
    *,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate either system over [0, horizon] with local tolerance tol.

    For m = 0 the initial omega is ignored and recomputed from the phase
    configuration.  Inertial trajectories are certified against the velocity
    integral representation (sup residual must be <= 50 * tol): exp ones by
    the defect bound of `model._defect_bound` where it proves that, rk45 ones
    and the rest by `model.duhamel_residual_grid`.
    """
    if not (math.isfinite(horizon) and horizon > 1e-14):
        raise ValueError("horizon must be finite and longer than 1e-14")
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError("tol must lie in [1e-13, 1e-3]")
    if init.n != params.n:
        raise ValueError("initial state size does not match params.n")
    if init.t != 0.0:
        raise ValueError("initial state must be stamped t = 0")

    theta0 = np.array(init.theta, dtype=float)
    omega0 = np.array(init.omega, dtype=float) if params.is_inertial else None
    method = "exp" if params.is_inertial and params.inertia_m < EXP_SWITCH * horizon else "rk45"
    stepper = _integrate_exp if method == "exp" else _integrate_rk
    # Overflow and NaN raise no numpy warning here: they end in a rejected
    # step, a step-size underflow or a residual that fails the gate below.
    with np.errstate(all="ignore"):
        grid, th, om, dense = stepper(params, theta0, omega0, horizon, STEP_SAFETY * tol, max_steps)
        traj = Trajectory(params, grid, th, om, tol, method, None, dense)
        sup = None
        if params.is_inertial:
            gate = CERTIFICATION_FACTOR * tol
            bound = _model._defect_bound(params, traj, gate) if method == "exp" else None
            if bound is not None and bound.max() <= gate:
                sup = float(bound.max())
            else:
                sup = float(np.max(np.abs(_model.duhamel_residual_grid(params, traj))))
            if not sup <= gate:  # a NaN residual fails too
                raise IntegrationError(f"certification failed: residual {sup:.3e} > {gate:.3e}")
    return Trajectory(params, grid, th, om, tol, method, sup, dense)


@dataclass(frozen=True)
class TaylorJet:
    """Raw time derivatives theta^(k) (k = 0..order) at one state."""

    t: float
    order: int
    coeffs: np.ndarray  # (order + 1, n); coeffs[k][i] = d^k theta_i / dt^k

    def derivative(self, k: int) -> np.ndarray:
        return self.coeffs[k]


def taylor_jet(params: SystemParams, state: PhaseState, order: int) -> TaylorJet:
    """Exact solution derivatives at a state via power-series recurrences.

    Propagates normalized Taylor coefficients of theta_i together with those
    of the phasors z_i = e^{i (theta_i - theta_0)}, taken in the frame that
    co-rotates with oscillator 0, through z' = i (theta - theta_0)' z:
    z_i[k] = (i/k) sum_{j=1..k} j (p_i[j] - p_0[j]) z_i[k-j].  The coupling
    coefficient of order k is the mean-field (kappa/N) Im sum_j Z[j]
    conj(z_i[k-j]) with Z = sum_l z_l, and the equation of motion gives the
    next phase coefficient.  The common rotation cancels from Z conj(z_i), and
    leaving it out keeps the coupling of oscillators that share their phase
    series exactly zero: rounding there would otherwise be amplified by 1/m
    at every order.  O(order^2 n); works for both m > 0 and m = 0.
    """
    if not (1 <= order <= MAX_JET_ORDER):
        raise ValueError(f"order must be in 1..{MAX_JET_ORDER}")
    n = params.n
    m = params.inertia_m
    kk = order

    p = np.zeros((kk + 1, n))  # p[k] = theta^(k)/k!; p[1] of m = 0 comes at k = 0
    p[0] = state.theta
    if params.is_inertial:
        p[1] = state.omega

    z = np.zeros((kk + 1, n), dtype=complex)  # z[k] = series of e^{i (theta - theta_0)}
    z[0] = np.exp(1j * (p[0] - p[0, 0]))
    dp = np.zeros((kk + 1, n))  # dp[k] = k (p[k] - p_0[k])
    for k in range(0, kk - 1 if params.is_inertial else kk):
        if k >= 1:
            dp[k] = k * (p[k] - p[k, 0])
            z[k] = (1j / k) * (dp[1 : k + 1] * z[k - 1 :: -1]).sum(axis=0)
        big_z = z[: k + 1].sum(axis=1)
        rhs_k = (params.coupling_kappa / n) * (big_z @ z[k::-1].conj()).imag
        if k == 0:
            rhs_k = rhs_k + params.nat_freq
        if params.is_inertial:
            p[k + 2] = (rhs_k - (k + 1) * p[k + 1]) / (m * (k + 1) * (k + 2))
        else:
            p[k + 1] = rhs_k / (k + 1)

    fact = np.array([math.factorial(k) for k in range(kk + 1)], dtype=float)
    return TaylorJet(state.t, kk, p * fact[:, None])


def first_zero(
    traj: Trajectory,
    signal: Callable[[PhaseState], float],
    bracket: tuple[float, float],
    *,
    tol: float = 1e-10,
) -> float:
    """Locate a sign change of a scalar state functional on the dense output."""
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = signal(traj.state_at_time(lo))
    f_hi = signal(traj.state_at_time(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("signal has no sign change over the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = signal(traj.state_at_time(mid))
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
