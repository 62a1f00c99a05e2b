"""Certified trajectories for both oscillator systems.

Two steppers share one Trajectory contract:

* DOP853, Hairer's explicit Runge-Kutta pair of order 8 with its 7th-order
  dense output, used whenever the inertia is resolvable and for m = 0; a
  step it accepts must also pass a check of the ODE defect of its own dense
  output at three points of the cell;
* exponential collocation for m below 1e-4 * horizon: each step solves the
  velocity relaxation exactly and models the coupling by the degree-6
  polynomial through its values at the step's Chebyshev-Lobatto nodes, found
  by simplified Newton; the ODE defect at the midpoints between the nodes
  controls the step, so past the O(m) layer steps follow the first-order
  flow's time scale 1/kappa rather than m.

In both, error control and the remaining span alone set the step: the first
attempt spans the whole horizon and rejections shrink it.  Every accepted
step of either has passed a check of the same ODE defect that the
certificate below reads.

Every inertial trajectory is certified on construction: the residual of the
velocity integral representation must stay below 50 * tol.  It is certified
by a bound on that residual from the ODE defect of the dense output, sampled
per cell (`model._defect_bound`), so its cost follows the cells rather than
horizon/m; where that bound cannot prove the gate, the residual itself,
taken at most m/10 apart (`model.duhamel_residual_grid`), decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import model as _model
from ._kernels import one_sided_moments
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
EXP_SWITCH = 1e-4  # exponential collocation below m < EXP_SWITCH * horizon
STEP_SAFETY = 0.3  # steppers target this fraction of the requested tol


class IntegrationError(RuntimeError):
    """Raised when step control or certification cannot meet the tolerance."""


def _sparse_rows(rows) -> np.ndarray:
    """A (len(rows), 16) matrix from one {stage: weight} dict per row."""
    out = np.zeros((len(rows), 16))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10): 12
# stages, a 13th that is f(y_new) (FSAL), and three more, taken on accepted
# steps only, for the 7th-order dense output.  The system is autonomous, so
# the nodes c_i = sum_j a_ij are not needed.
_A = np.vstack([np.zeros(16), _sparse_rows([
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
])])
_B = _A[12, :12]  # stage 13 is f(y_new), so its weights are the solution weights
# Weights of the embedded 5th- and 3rd-order error estimates.
_E5 = _sparse_rows([
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
])[0, :12]
_E3 = _B - _sparse_rows([
    {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766},
])[0, :12]
# Hairer's dense output y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...)))),
# x = (t - t0)/h, with F_j = h * (row j of _NESTED) . K over the 16 stages:
# F0 = y_new - y0, F1 = h f0 - F0, F2 = 2 F0 - h (f0 + f_new), F3..F6 from D.
_NESTED = np.vstack([
    _A[12],
    np.eye(16)[0] - _A[12],
    2.0 * _A[12] - np.eye(16)[0] - np.eye(16)[12],
    _sparse_rows([
        {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
         7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
         10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
         13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
        {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
         7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
         10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
         13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
        {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
         7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
         10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
         13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
        {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
         7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
         10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
         13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
    ]),
])
# Row p - 1 gives the coefficient of x^p (p = 1..7) of the nested form in F.
_MONOMIALS = np.array([
    [1, 1, 0, 0, 0, 0, 0],
    [0, -1, 1, 1, 0, 0, 0],
    [0, 0, -1, -2, 1, 1, 0],
    [0, 0, 0, 1, -2, -3, 1],
    [0, 0, 0, 0, 1, 3, -3],
    [0, 0, 0, 0, 0, -1, 3],
    [0, 0, 0, 0, 0, 0, -1],
], dtype=float)
_DENSE = _MONOMIALS @ _NESTED  # dense monomial coefficients = h * _DENSE @ K
# Where an accepted step reads the ODE defect of its own dense output: the
# interpolant's defect changes sign near the midpoint, so one point misses it.
_DEFECT_X = np.array([0.35, 0.7, 0.95])
_DEFECT_VALUE = _DEFECT_X[:, None] ** np.arange(1, 8)  # x^p
_DEFECT_SLOPE = np.arange(1, 8) * _DEFECT_X[:, None] ** np.arange(7)  # p x^(p-1)
_DEFECT_FACTOR = 3.0  # a step's sampled defect must stay below this times its tol
# The sampled defect's rounding floor per unit of 1 + max|omega|: the dense
# output's derivative weights amplify the rounding of the stages about this
# much, so at tol near 1e-13 the check would otherwise reject every step.  The
# exp stepper takes it per unit of kappa, which bounds the coupling it fits;
# scaled by |omega| its check would pass steps that the certificate fails.
_DEFECT_NOISE = 2.0**10 * np.finfo(float).eps
# The exp stepper: a degree-_DEGREE coupling model through the Chebyshev-Lobatto
# nodes of [0, 1]; _VINV maps node values to monomial coefficients.  It is
# built from the Lagrange basis, whose products keep every entry within an ulp
# or so, where inverting the Vandermonde matrix (condition 1.6e4) would not.
_DEGREE = 6
_NODES = 0.5 * (1.0 - np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE))


def _lagrange_coefficients(nodes):
    """Column j: the coefficients of prod_{k != j} (x - x_k) / (x_j - x_k), lowest power first."""
    cols = []
    for j, xj in enumerate(nodes):
        others = nodes[:j] + nodes[j + 1 :]
        c = [1.0]
        for r in others:  # times (x - r)
            c = [prev - r * cur for prev, cur in zip([0.0] + c, c + [0.0])]
        cols.append([v / math.prod(xj - r for r in others) for v in c])
    return np.array(cols).T


_VINV = _lagrange_coefficients(_NODES.tolist())
_MIDS = 0.5 * (_NODES[:-1] + _NODES[1:])  # where a step reads its defect
_MID_POWERS = _MIDS[:, None] ** np.arange(_DEGREE + 1)
_STEP_X = np.concatenate([_MIDS, _NODES[1:]])  # every offset a step evaluates
_CHECK = np.r_[:_DEGREE, 2 * _DEGREE - 1]  # the midpoints and the step end in _STEP_X
_NEWTON_ITERATIONS = 8
_NEWTON_GROWTH = 4  # a step that needed more Newton iterations does not grow the next


def _cell_index(t0s, ts, cells):
    """The dense cell of each query: `cells` if given, else the cell starting at or before it."""
    if cells is not None:
        return np.asarray(cells)
    return np.clip(np.searchsorted(t0s, ts, side="right") - 1, 0, len(t0s) - 1)


class _PolyDense:
    """Per-step degree-7 polynomials y0 + sum_p c_p x^p, x = (t - t0)/h."""

    def __init__(self, t0s, hs, y0s, coefs):
        self.t0s = np.asarray(t0s)
        self.hs = np.asarray(hs)
        self.y0s = np.asarray(y0s)
        self.coefs = np.asarray(coefs)  # (S, 7, dim); [:, p - 1] multiplies x^p

    def eval(self, ts: np.ndarray, cells=None, *, with_rate=False):
        """y at `ts`, and with `with_rate` also dy/dt.

        Horner's scheme gathers one coefficient row per query at a time, so
        no (Q, 7, dim) block is formed.
        """
        ts = np.asarray(ts, dtype=float)
        idx = _cell_index(self.t0s, ts, cells)
        h = self.hs[idx]
        x = ((ts - self.t0s[idx]) / h)[:, None]
        c = self.coefs
        y = c[idx, 6]
        for p in range(5, -1, -1):
            y = y * x + c[idx, p]
        y = self.y0s[idx] + x * y
        if not with_rate:
            return y
        dy = 7.0 * c[idx, 6]
        for p in range(5, -1, -1):
            dy = dy * x + (p + 1) * c[idx, p]
        return y, dy / h[:, None]


class _ExpDense:
    """Per-step exponential collocation cells: the relaxation solved exactly
    under a degree-_DEGREE coupling model g(s) = sum_p coefs[p] (s/h)^p."""

    def __init__(self, m, t0s, hs, theta0, omega0, coefs):
        self.m = m
        self.t0s = np.asarray(t0s)
        self.hs = np.asarray(hs)
        self.theta0 = np.asarray(theta0)
        self.omega0 = np.asarray(omega0)
        self.coefs = np.asarray(coefs)  # (S, _DEGREE + 1, n); nu is in the constant term

    def eval_both(self, ts: np.ndarray, cells=None, *, with_rate=False):
        """(theta, omega), and with `with_rate` also omega' = (g(s) - omega) / m.

        One coefficient row per query is gathered at a time, so no
        (Q, _DEGREE + 1, n) block is formed.
        """
        ts = np.asarray(ts, dtype=float)
        idx = _cell_index(self.t0s, ts, cells)
        s = ts - self.t0s[idx]
        h = self.hs[idx]
        mom, jom = _scaled_moments(s, h, self.m)
        rows = (self.coefs[idx, p] for p in range(_DEGREE + 1))
        decay = np.exp(-s / self.m)
        theta, omega = _relax(self.m, self.theta0[idx], self.omega0[idx], rows, decay, mom, jom)
        if not with_rate:
            return theta, omega
        x = (s / h)[:, None]
        g = self.coefs[idx, _DEGREE]
        for p in range(_DEGREE - 1, -1, -1):
            g = g * x + self.coefs[idx, p]
        return theta, omega, (g - omega) / self.m


@dataclass(frozen=True)
class Trajectory:
    """Time grid, per-grid states, and dense output over [0, horizon].

    `duhamel_sup` (None for m = 0) is what certified the trajectory against
    the 50 * tol gate: the defect bound on the velocity residual, or the
    largest residual itself where the bound could not prove the gate.
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
        return self.eval_with_rate(ts, cells)[2]

    def eval_with_rate(self, ts, cells=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eval_many and eval_rate together, from one read of the cells."""
        ts = self._queries(ts)
        if self.method == "exp":
            return self._dense.eval_both(ts, cells, with_rate=True)
        y, dy = self._dense.eval(ts, cells, with_rate=True)
        if self.params.is_inertial:
            n = self.params.n
            return y[:, :n], y[:, n:], dy[:, n:]
        # m = 0: omega = nu + c(theta), so omega' is the coupling's rate along theta'
        g, dg = _model.coupling_and_rate(self.params, y, dy)
        return y, self.params.nat_freq + g, dg

    def state_at_time(self, t: float) -> PhaseState:
        th, om = self.eval_many(np.array([t]))
        return PhaseState(float(t), th[0], om[0])


def _integrate_dop853(params, theta0, omega0, horizon, tol, max_steps):
    """DOP853 loop with 7th-order dense output and a defect check per step.

    The error is Hairer's blend of the 5th- and 3rd-order estimates in the
    max norm.  For m > 0 the accept test scales it by max(1, 2m/h): the
    velocity-residual certificate integrates step defects over the kernel
    memory window of width m, so per-step errors must shrink with h/m for
    the 50*tol threshold to hold independently of the tolerance regime.

    A step that passes the error test must also pass a defect check on its
    own dense output at _DEFECT_X: for m > 0 the defect m omega' + omega -
    nu - c(theta) that `model._defect_bound` reads, for m = 0 the defect
    theta' - nu - c(theta), scaled like the local error.  The next step
    follows the error as err^(-1/8) and the defect as its 1/7th power.
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
    k = np.empty((16, dim))
    k[0] = f(y)

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
        steps += 1
        h = min(h, horizon - t)
        for i in range(1, 12):
            k[i] = f(y + h * (_A[i, :i] @ k[:i]))
        y_new = y + h * (_B @ k[:12])
        k[12] = f(y_new)
        size = 1.0 + np.maximum(np.abs(y), np.abs(y_new))  # the error scale is tol * size
        err5 = float(np.max(np.abs(_E5 @ k[:12]) / size)) / tol
        err3 = float(np.max(np.abs(_E3 @ k[:12]) / size)) / tol
        denom = err5 * err5 + 0.01 * err3 * err3
        err = 0.0 if denom == 0.0 else h * err5 * err5 / math.sqrt(denom)
        if params.is_inertial:
            err *= max(1.0, 2.0 * m / h)
        accept = err <= 1.0  # a NaN rejects too
        if accept:
            for i in range(13, 16):
                k[i] = f(y + h * (_A[i, :i] @ k[:i]))
            # the rows of _DENSE sum to (1, 0, ..., 0): weighing k - k[0] keeps
            # the large weights from amplifying the rounding of k itself
            coef = h * (_DENSE @ (k - k[0]))
            coef[0] += h * k[0]
            y_chk = y + _DEFECT_VALUE @ coef
            rate = (_DEFECT_SLOPE @ coef) / h
            limit = _DEFECT_FACTOR * tol
            if params.is_inertial:
                delta = m * rate[:, n:] + y_chk[:, n:] - params.nat_freq
                delta -= _model.coupling_term(params, y_chk[:, :n])
                limit += _DEFECT_NOISE * float(size[n:].max())
            else:
                delta = h * (rate - rhs_first_order(params, y_chk)) / size
            defect = float(np.max(np.abs(delta))) / limit
            accept = defect <= 1.0
        if accept:
            t0s.append(t)
            hs.append(h)
            y0s.append(y)
            coefs.append(coef)
            t += h
            y = y_new
            k[0] = k[12]
            grid.append(t)
            ys.append(y)
            grow = min((err + 1e-16) ** -0.125, (defect + 1e-16) ** (-1.0 / 7.0))
            h *= min(5.0, max(0.2, 0.9 * grow))
        else:
            shrink = err**-0.125 if not err <= 1.0 else defect ** (-1.0 / 7.0)
            h *= max(0.2, 0.9 * shrink)
            if h < 1e-15 * max(1.0, horizon):
                raise IntegrationError("step size underflow; tolerance unachievable")

    grid = np.asarray(grid)
    ys = np.asarray(ys)
    dense = _PolyDense(t0s, hs, y0s, coefs)
    if params.is_inertial:
        theta_g, omega_g = ys[:, :n], ys[:, n:]
    else:
        theta_g = ys
        omega_g = rhs_first_order(params, theta_g)
    return grid, theta_g, omega_g, dense


def _scaled_moments(s, h, m):
    """The relaxation moments of (u/h)^p at offsets s, M_p(s)/h^p and J_p(s)/h^p.

    Two (_DEGREE + 1, Q) arrays; `h` is a scalar or one width per offset.
    """
    mom, jom = one_sided_moments(s, m, _DEGREE)
    scale = np.asarray(h, dtype=float) ** -np.arange(_DEGREE + 1.0)[:, None]
    return np.asarray(mom) * scale, np.asarray(jom) * scale


def _relax(m, theta0, omega0, coefs, decay, mom, jom):
    """theta and omega at offsets s into a cell under the coupling model sum_p coefs[p] (u/h)^p.

    theta(s) = theta0 + m (1 - e^{-s/m}) omega0 + sum_p coefs[p] J_p(s)/h^p,
    omega(s) = omega0 e^{-s/m} + sum_p coefs[p] M_p(s)/(m h^p);
    `decay` is e^{-s/m} (Q,), `mom` and `jom` come from `_scaled_moments`, and
    `coefs` yields one row per order that broadcasts against (Q, n).
    """
    theta = theta0 + mom[0][:, None] * omega0  # M_0(s) = m (1 - e^{-s/m})
    omega = omega0 * decay[:, None]
    for p, row in enumerate(coefs):
        theta = theta + jom[p][:, None] * row
        omega = omega + (mom[p] / m)[:, None] * row
    return theta, omega


class _Collocation:
    """One exp step's linear algebra at a step size h, for a Jacobian frozen at its start.

    The unknowns X (_DEGREE, n) are the coupling at the nodes x_1..x_q; the
    phases there are theta_base + w0 c(theta0) + W X.  Newton's correction
    equation dX - W dX D = F, with the mean-field Jacobian
    D = (kappa/N) (P P^T - diag(d)), P = [cos theta0, sin theta0] and
    d_i = sum_l cos(theta0_l - theta0_i), splits per oscillator into
    A_i = I + (kappa/N) d_i W and a rank-2 remainder, which a 2q x 2q
    Woodbury capacitance solves.  Memory is O(q^2 n).
    """

    def __init__(self, params, theta0, omega0, h):
        m = params.inertia_m
        mom, jom = _scaled_moments(_STEP_X * h, h, m)
        self.mom, self.jom = mom, jom
        self.decay = np.exp(-_STEP_X * h / m)
        lag = jom[:, _DEGREE:].T @ _VINV  # theta at the nodes is linear in the node values
        self.w0, self.w = lag[:, 0], lag[:, 1:]
        nodes = slice(_DEGREE, None)
        self.base = theta0 + mom[0, nodes, None] * omega0 + jom[0, nodes, None] * params.nat_freq
        scale = params.coupling_kappa / params.n
        pmat = np.column_stack([np.cos(theta0), np.sin(theta0)])
        d = pmat @ pmat.sum(axis=0)
        # (n, q, q): per oscillator A_i^-1, and B_i = A_i^-1 W
        self.a_inv = np.linalg.inv(np.eye(_DEGREE) + (scale * d)[:, None, None] * self.w)
        self.b = self.a_inv @ self.w
        cap = np.einsum("ia,ib,ijk->ajbk", pmat, pmat, self.b).reshape(2 * _DEGREE, 2 * _DEGREE)
        self.cap = np.eye(2 * _DEGREE) - scale * cap
        self.scale, self.pmat = scale, pmat

    def thetas(self, g0, x):
        """Phases at the nodes x_1..x_q for coupling values g0 (node 0) and x."""
        return self.base + np.outer(self.w0, g0) + self.w @ x

    def correction(self, f):
        """dX with dX - W dX D = f."""
        r = np.einsum("ijk,ki->ji", self.a_inv, f)
        y = np.linalg.solve(self.cap, (r @ self.pmat).T.ravel()).reshape(2, _DEGREE).T
        return r + self.scale * np.einsum("ijk,ki->ji", self.b, y @ self.pmat.T)


def _collocate(params, theta, omega, g0, h, prev, limit):
    """One exp step of width h from (theta, omega), where c(theta) = g0.

    Returns None if Newton does not converge; else the midpoint defect over
    `limit`, the Newton iterations, the coefficients of the c model and of
    g = nu + c, (_DEGREE + 1, n) each, and theta, omega and c at the step end.
    """
    try:
        col = _Collocation(params, theta, omega, h)
    except np.linalg.LinAlgError:
        return None
    if prev is None:
        x = np.tile(g0, (_DEGREE, 1))
    else:  # the previous step's c model, extrapolated to this step's nodes
        h_prev, coef_prev = prev
        x = ((1.0 + _NODES[1:, None] * h / h_prev) ** np.arange(_DEGREE + 1)) @ coef_prev
    best = math.inf
    for iterations in range(1, _NEWTON_ITERATIONS + 1):
        f = _model.coupling_term(params, col.thetas(g0, x)) - x
        err = float(np.max(np.abs(f)))
        if not err < best:  # diverging, stalled or not finite
            return None
        if err <= 0.1 * limit:
            break
        best = err
        try:
            x = x + col.correction(f)
        except np.linalg.LinAlgError:
            return None
    else:
        return None
    # the monomial coefficients amplify the rounding of what they fit up to
    # 7e3 times, so they fit the change from node 0, which is small on short steps
    coef_c = _VINV[:, 1:] @ (x - g0)
    coef_c[0] += g0
    coef = coef_c.copy()
    coef[0] += params.nat_freq
    th, om = _relax(params.inertia_m, theta, omega, coef,
                    col.decay[_CHECK], col.mom[:, _CHECK], col.jom[:, _CHECK])
    c = _model.coupling_term(params, th)  # at the midpoints and the step end
    defect = float(np.max(np.abs(_MID_POWERS @ coef_c - c[:-1]))) / limit
    return defect, iterations, coef_c, coef, th[-1], om[-1], c[-1]


def _integrate_exp(params, theta0, omega0, horizon, tol, max_steps):
    """Exponential collocation under defect control.

    Each step treats the relaxation -omega/m exactly and models the coupling
    c(theta) by the degree-q polynomial through its values at q + 1
    Chebyshev-Lobatto nodes of the step (Hochbruck & Ostermann, Acta Numerica
    19, 2010).  Node 0 is c(theta0); the others solve the collocation
    equations by simplified Newton with the Jacobian frozen at the step start,
    from the previous step's polynomial extrapolated.  A step is accepted when
    the ODE defect m omega' + omega - nu - c(theta) at the q midpoints between
    the nodes, the quantity `model._defect_bound` reads, stays below
    _DEFECT_FACTOR * tol plus a rounding floor; the next step follows that
    defect as its 1/(q + 1)th power.  A Newton iteration that does not
    converge halves the step.
    """
    limit = _DEFECT_FACTOR * tol + _DEFECT_NOISE * params.coupling_kappa
    t = 0.0
    theta, omega = np.array(theta0), np.array(omega0)
    g0 = _model.coupling_term(params, theta)
    h = horizon
    prev = None  # (h, c-model coefficients) of the last accepted step

    grid = [0.0]
    thetas = [theta.copy()]
    omegas = [omega.copy()]
    seg_t0, seg_h, seg_th0, seg_om0, seg_coef = [], [], [], [], []

    steps = 0
    while t < horizon - 1e-14 * max(1.0, horizon):
        if steps >= max_steps:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        steps += 1
        h = min(h, horizon - t)
        step = _collocate(params, theta, omega, g0, h, prev, limit)
        if step is None:  # Newton did not converge
            h *= 0.5
        else:
            defect, iterations, coef_c, coef, th_end, om_end, g_end = step
            if defect <= 1.0:
                seg_t0.append(t)
                seg_h.append(h)
                seg_th0.append(theta)
                seg_om0.append(omega)
                seg_coef.append(coef)
                t += h
                theta, omega, g0 = th_end, om_end, g_end
                grid.append(t)
                thetas.append(theta)
                omegas.append(omega)
                prev = (h, coef_c)
                grow = min(5.0, max(0.2, 0.9 * (defect + 1e-16) ** (-1.0 / (_DEGREE + 1))))
                h *= grow if iterations <= _NEWTON_GROWTH else min(grow, 1.0)
                continue
            h *= max(0.2, 0.9 * defect ** (-1.0 / (_DEGREE + 1)))
        if h < 1e-15 * max(1.0, horizon):
            raise IntegrationError("step size underflow; tolerance unachievable")

    dense = _ExpDense(params.inertia_m, seg_t0, seg_h, seg_th0, seg_om0, seg_coef)
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
    integral representation (sup residual must be <= 50 * tol) by the defect
    bound of `model._defect_bound` where it proves that, and by the residual
    itself, `model.duhamel_residual_grid`, where it does not.
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
    method = "exp" if params.is_inertial and params.inertia_m < EXP_SWITCH * horizon else "dop853"
    stepper = _integrate_exp if method == "exp" else _integrate_dop853
    # Overflow and NaN raise no numpy warning here: they end in a rejected
    # step, a step-size underflow or a residual that fails the gate below.
    with np.errstate(all="ignore"):
        grid, th, om, dense = stepper(params, theta0, omega0, horizon, STEP_SAFETY * tol, max_steps)
        traj = Trajectory(params, grid, th, om, tol, method, None, dense)
        sup = None
        if params.is_inertial:
            gate = CERTIFICATION_FACTOR * tol
            bound = _model._defect_bound(params, traj, gate)
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
