"""Certified trajectories for both oscillator systems, from one stepper.

Exponential collocation steps both: each step solves the velocity relaxation
exactly and models the coupling by the degree-6 polynomial through its values
at the step's Chebyshev-Lobatto nodes, found by simplified Newton; the ODE
defect at the midpoints between the nodes controls the step, so past the O(m)
layer steps follow the first-order flow's time scale 1/kappa rather than m.
The first-order system (m = 0) is the limit m -> 0 of the same formulas,
taken in the relaxation's weights (`relaxation_weights`) and the defect bound:
the step is classical collocation at the same nodes, a method of Lobatto IIIA
type (Hairer & Wanner, Solving ODEs II, IV.5), and omega is slaved to
nu + c(theta).

Error control and the remaining span set the step.  The first attempt is
sized from the defect estimated on the two time scales of the Tikhonov
picture, the O(m) initial layer and the first-order flow, and error control
accepts or rejects it like any other.

Every trajectory is certified on construction: the residual of the velocity
integral representation must stay below 50 * tol.  A bound on that residual
from the ODE defect of the dense output, sampled per cell
(`model._defect_bound`), certifies it, so its cost follows the cells rather
than horizon/m; a run whose bound does not prove the gate raises.  That
defect is the collocation error g - nu - c(theta) of each cell's model g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import model as _model
from ._kernels import relaxation_chain, relaxation_weights
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
STEP_SAFETY = 0.3  # the stepper targets this fraction of the requested tol
MAX_STEPS = 2_000_000  # step attempts before a run gives up


class IntegrationError(RuntimeError):
    """Raised when step control or certification cannot meet the tolerance."""


_DEFECT_FACTOR = 3.0  # a step's sampled defect must stay below this times its tol
# The exp stepper's rounding floor on its sampled defect, per unit of kappa,
# which bounds the coupling it fits: at tol near 1e-13 the check would
# otherwise reject every step.  Scaled by |omega| instead, the check would
# pass steps that the certificate fails.
_DEFECT_NOISE = 2.0**10 * np.finfo(float).eps
# The exp stepper: a degree-_DEGREE coupling model through the Chebyshev-Lobatto
# nodes of [0, 1]; _VINV maps node values to monomial coefficients.  It is
# built from the Lagrange basis, whose products keep every entry within an ulp
# or so, where inverting the Vandermonde matrix (condition 1.6e4) would not.
_NODES = _model._COLLOCATION_NODES
_DEGREE = len(_NODES) - 1


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
# A step's midpoint defect is about this times h^(q+1) |c^(q+1)|: the largest
# |prod_k (x - x_k)| over the midpoints, 2.36e-4, over (q + 1)!.
_DEFECT_SCALE = np.abs(np.prod(_MIDS[:, None] - _NODES, axis=1)).max() / math.factorial(_DEGREE + 1)
_NEWTON_ITERATIONS = 8
_NEWTON_GROWTH = 4  # a step that needed more Newton iterations does not grow the next


@dataclass(frozen=True)
class Trajectory:
    """Time grid, per-grid states, and dense output over [0, horizon].

    Cell k is one exp step (a reconstruction's "picard" iterates refit it) of
    width _hs[k] from grid[k], theta_grid[k] and omega_grid[k] (of weight 0 at
    m = 0), under the coupling model
    g(s) = sum_p _coefs[k, p] (s/h)^p, nu in the constant term, to which its
    dense omega relaxes exactly.  `duhamel_sup` (None on an uncertified "picard"
    iterate) bounds the velocity residual that certified it against 50 * tol.
    """

    params: SystemParams
    grid: np.ndarray
    theta_grid: np.ndarray
    omega_grid: np.ndarray
    tol: float
    method: str
    duhamel_sup: float | None
    _hs: np.ndarray = field(repr=False)
    _coefs: np.ndarray = field(repr=False)  # (cells, _DEGREE + 1, n)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def _table(self) -> np.ndarray:
        """The cell table [g coefficients; omega_k; theta_k] of each cell, (cells, _DEGREE + 3, n)."""
        return np.concatenate([self._coefs, self.omega_grid[:-1, None], self.theta_grid[:-1, None]], 1)

    def eval_many(self, ts, cells=None) -> tuple[np.ndarray, np.ndarray]:
        """Dense (theta, omega) arrays of shape (len(ts), n).

        Each time is read in the grid cell that starts at or before it, or in
        the cell `cells` names, so that a cell can be read at its right end.
        """
        return self._read(ts, cells, False)

    def eval_with_model(self, ts, cells=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """eval_many and the coupling model g = nu + p_c of each time's cell, (len(ts), n).

        In each cell the dense omega solves m omega' + omega = g exactly
        (omega = g at m = 0), so the certificate reads the ODE defect
        m omega' + omega - nu - c(theta) as g - nu - c(theta).
        """
        return self._read(ts, cells, True)

    def _read(self, ts, cells, with_model):
        """theta, omega and, with_model, g at each time, (Q, n) each.

        In cell k every output is a weight row times the cell table
        `_table[k]`.  One `relaxation_weights` call gives every query's rows
        (`_weight_rows`), and each run of consecutive queries in one cell
        takes one batched matrix product into the preallocated outputs, so
        memory is the outputs plus O(Q q + cells q n).
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.grid[0] - 1e-12 or ts.max() > self.grid[-1] + 1e-12):
            raise ValueError("query time outside the trajectory span")
        if cells is None:  # the cell starting at or before each query
            cells = np.clip(np.searchsorted(self.grid[:-1], ts, side="right") - 1, 0, len(self._hs) - 1)
        rows = _weight_rows(ts - self.grid[cells], self._hs[cells], self.params.inertia_m, with_model)
        outs = np.empty(rows.shape[:2] + (self.params.n,))
        starts = np.flatnonzero(np.diff(cells, prepend=-1))
        for a, b, k in zip(starts.tolist(), starts[1:].tolist() + [len(ts)], cells[starts].tolist()):
            np.matmul(rows[:, a:b], self._table[k], out=outs[:, a:b])
        return tuple(outs)

    def state_at_time(self, t: float) -> PhaseState:
        th, om = self.eval_many(np.array([t]))
        return PhaseState(float(t), th[0], om[0])


def _weight_rows(s, h, m, with_model=False):
    """Rows (2 + with_model, Q, _DEGREE + 3) against the cell table [a_p; omega_k; theta_k].

    At offsets s into cells of width h they give theta_k + M_0(s) omega_k + sum_p a_p J_p(s)/h^p,
    omega_k e^{-s/m} + sum_p a_p M_p(s)/(m h^p) and the model g = sum_p a_p (s/h)^p.
    """
    decay, mom0, rate, jom = relaxation_weights(s, h, m, _DEGREE)
    rows = np.zeros((2 + with_model, len(decay), _DEGREE + 3))
    rows[0, :, :-2], rows[0, :, -2], rows[0, :, -1] = jom.T, mom0, 1.0
    rows[1, :, :-2], rows[1, :, -2] = rate.T, decay
    if with_model:
        rows[2, :, :-2] = (s / h)[:, None] ** np.arange(_DEGREE + 1)
    return rows


def _fit(g0, x, nat_freq):
    """The c model through g0 (..., n) at node 0 and x (..., _DEGREE, n) after it, and nu + c.

    Their monomial coefficients (..., _DEGREE + 1, n) amplify the rounding of
    what they fit up to 7e3 times, so they fit the change from node 0.
    """
    coef_c = _VINV[:, 1:] @ (x - g0[..., None, :])
    coef_c[..., 0, :] += g0
    coef = coef_c.copy()
    coef[..., 0, :] += nat_freq
    return coef_c, coef


def _relax_cells(cells, coefs, omega0, theta_end):
    """The uncertified "picard" trajectory on the cells of `cells` under the g models `coefs`.

    Its omega relaxes exactly from omega0 cell after cell, and its theta, the
    integral of omega, is accumulated from theta_end at the right end.
    """
    grid, hs, m = cells.grid, cells._hs, cells.params.inertia_m
    rows = _weight_rows(hs, hs, m)  # each cell read at its right end
    rise, gain = np.einsum("rkj,kjn->rkn", rows[:, :, :-2], coefs)  # what it adds from rest
    omega = np.exp(-grid / m)[:, None] * omega0 + relaxation_chain(grid, gain, m)
    rise += rows[0, :, -2, None] * omega[:-1]  # theta(t_{k+1}) - theta(t_k), with M_0(h_k) omega_k
    theta = theta_end - np.cumsum(np.vstack([rise, np.zeros_like(omega0)])[::-1], axis=0)[::-1]
    return Trajectory(cells.params, grid, theta, omega, cells.tol, "picard", None, hs, coefs)


def _certified(traj):
    """traj with the sup of `model._defect_bound`; IntegrationError if unresolved or > 50 * tol."""
    gate = CERTIFICATION_FACTOR * traj.tol
    with np.errstate(all="ignore"):
        bound = _model._defect_bound(traj.params, traj, gate)
    if bound is None:
        raise IntegrationError("certification failed: defect bound unresolved")
    sup = float(bound.max())
    if not sup <= gate:  # a NaN bound fails too
        raise IntegrationError(f"certification failed: residual {sup:.3e} > {gate:.3e}")
    return replace(traj, duhamel_sup=sup)


class _Collocation:
    """One exp step's linear algebra at a step size h, for a Jacobian frozen at its start.

    The unknowns X (_DEGREE, n) are the coupling at the nodes x_1..x_q; the
    phases there are `base` + W X, where `base` holds what theta0, omega0, nu
    and g0 = c(theta0) at node 0 contribute.  Newton's correction equation
    dX - W dX D = F, with the mean-field Jacobian
    D = (kappa/N) (P P^T - diag(d)), P = [cos theta0, sin theta0] and
    d_i = sum_l cos(theta0_l - theta0_i), splits per oscillator into
    A_i = I + (kappa/N) d_i W and a rank-2 remainder, which a 2q x 2q
    Woodbury capacitance solves.  Both are inverted once per step and serve
    every Newton iteration.  Memory is O(q^2 n).
    """

    def __init__(self, params, theta0, omega0, g0, h):
        self.weights = relaxation_weights(_STEP_X * h, h, params.inertia_m, _DEGREE)
        _, mom0, _, jom = self.weights
        lag = jom[:, _DEGREE:].T @ _VINV  # theta at the nodes is linear in the node values
        self.w = lag[:, 1:]
        nodes = slice(_DEGREE, None)
        self.base = theta0 + mom0[nodes, None] * omega0 + jom[0, nodes, None] * params.nat_freq
        self.base += np.outer(lag[:, 0], g0)
        scale = params.coupling_kappa / params.n
        pmat = np.column_stack([np.cos(theta0), np.sin(theta0)])
        d = pmat @ pmat.sum(axis=0)
        # (n, q, q): per oscillator A_i^-1, and B_i = A_i^-1 W
        self.a_inv = np.linalg.inv(np.eye(_DEGREE) + (scale * d)[:, None, None] * self.w)
        self.b = self.a_inv @ self.w
        cap = np.einsum("ia,ib,ijk->ajbk", pmat, pmat, self.b).reshape(2 * _DEGREE, 2 * _DEGREE)
        self.cap_inv = np.linalg.inv(np.eye(2 * _DEGREE) - scale * cap)
        self.scale, self.pmat = scale, pmat

    def thetas(self, x):
        """Phases at the nodes x_1..x_q for coupling values x there."""
        return self.base + self.w @ x

    def correction(self, f):
        """dX with dX - W dX D = f."""
        r = np.einsum("ijk,ki->ji", self.a_inv, f)
        y = (self.cap_inv @ (r @ self.pmat).T.ravel()).reshape(2, _DEGREE).T
        return r + self.scale * np.einsum("ijk,ki->ji", self.b, y @ self.pmat.T)


def _collocate(params, theta, omega, g0, h, prev, limit):
    """One exp step of width h from (theta, omega), where c(theta) = g0.

    Returns None if Newton does not converge; else the midpoint defect over
    `limit`, the Newton iterations, the coefficients of the c model and of
    g = nu + c, (_DEGREE + 1, n) each, and theta, omega and c at the step end.
    """
    try:
        col = _Collocation(params, theta, omega, g0, h)
    except np.linalg.LinAlgError:
        return None
    if prev is None:
        x = np.tile(g0, (_DEGREE, 1))
    else:  # the previous step's c model, extrapolated to this step's nodes
        h_prev, coef_prev = prev
        x = ((1.0 + _NODES[1:, None] * h / h_prev) ** np.arange(_DEGREE + 1)) @ coef_prev
    best = math.inf
    for iterations in range(1, _NEWTON_ITERATIONS + 1):
        f = _model.coupling_term(params, col.thetas(x)) - x
        err = float(np.max(np.abs(f)))
        if not err < best:  # diverging, stalled or not finite
            return None
        if err <= 0.1 * limit:
            break
        best = err
        x = x + col.correction(f)
    else:
        return None
    coef_c, coef = _fit(g0, x, params.nat_freq)
    # theta and omega at the midpoints and the step end, one product per output
    decay, mom0, rate, jom = (w[..., _CHECK] for w in col.weights)
    th = theta + mom0[:, None] * omega + jom.T @ coef
    om = decay[:, None] * omega + rate.T @ coef
    c = _model.coupling_term(params, th)  # at the midpoints and the step end
    defect = float(np.max(np.abs(_MID_POWERS @ coef_c - c[:-1]))) / limit
    return defect, iterations, coef_c, coef, th[-1], om[-1], c[-1]


def _first_step(params, omega0, g0, horizon, limit):
    """The first attempt's width: where the estimated defect reaches limit, at most the horizon.

    The defect follows c^(q+1) (_DEFECT_SCALE), estimated on the two time
    scales of the Tikhonov picture.  In the O(m) initial layer omega relaxes
    from omega0 to nu + c(theta0), so theta leaves the first-order flow by
    about m delta0 e^{-t/m} with delta0 = |omega0 - nu - c(theta0)|, and
    c^(q+1) ~ kappa delta0 m / m^(q+1).  On the flow's own scale 1/Omega,
    with Omega = kappa plus the spread of nu or of omega0, whichever is
    larger, c^(q+1) ~ kappa Omega^(q+1).  An amplitude a over a time scale
    tau gives the step tau (limit / (_DEFECT_SCALE a))^(1/(q+1)), taken in
    logarithms so that no product can overflow; a vanishing amplitude
    (kappa = 0, delta0 = 0 or m = 0) sets no step.
    """
    kappa, m = params.coupling_kappa, params.inertia_m
    delta0 = float(np.max(np.abs(omega0 - params.nat_freq - g0)))
    rate = kappa + max(float(np.ptp(params.nat_freq)), float(np.ptp(omega0)))
    scales = []  # (log amplitude, log time scale)
    if kappa > 0.0:
        scales.append((math.log(kappa), -math.log(rate)))
        if delta0 > 0.0 and m > 0.0:
            scales.append((math.log(kappa) + math.log(delta0) + math.log(m), math.log(m)))
    reach = math.log(limit / _DEFECT_SCALE)
    log_h = min((tau + (reach - a) / (_DEGREE + 1) for a, tau in scales), default=math.inf)
    return horizon if log_h >= math.log(horizon) else math.exp(log_h)


def _integrate_exp(params, theta0, omega0, horizon, tol):
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
    defect as its 1/(q + 1)th power.  The first step is the width at which
    `_first_step` estimates the defect reaches that limit.  A Newton
    iteration that does not converge halves the step.  At m = 0 the weights
    of `relaxation_weights` make this classical collocation, and the defect
    theta' - nu - c(theta).
    Returns the grid, its states and each cell's h and g = nu + c model.
    """
    limit = _DEFECT_FACTOR * tol + _DEFECT_NOISE * params.coupling_kappa
    t = 0.0
    theta, omega = np.array(theta0), np.array(omega0)
    g0 = _model.coupling_term(params, theta)
    h = _first_step(params, omega, g0, horizon, limit)
    prev = None  # (h, c-model coefficients) of the last accepted step

    grid = [0.0]
    thetas = [theta.copy()]
    omegas = [omega.copy()]
    hs, coefs = [], []

    steps = 0
    while t < horizon - 1e-14 * max(1.0, horizon):
        if steps >= MAX_STEPS:
            raise IntegrationError(f"step budget exhausted at t={t:.6g}")
        steps += 1
        h = min(h, horizon - t)
        step = _collocate(params, theta, omega, g0, h, prev, limit)
        if step is None:  # Newton did not converge
            h *= 0.5
        else:
            defect, iterations, coef_c, coef, th_end, om_end, g_end = step
            if defect <= 1.0:
                hs.append(h)
                coefs.append(coef)
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

    return (np.asarray(grid), np.asarray(thetas), np.asarray(omegas),
            np.asarray(hs), np.asarray(coefs))


def integrate(
    params: SystemParams,
    init: PhaseState,
    horizon: float,
    tol: float,
) -> Trajectory:
    """Integrate either system over [0, horizon] with local tolerance tol.

    Both take the exp stepper.  At m = 0 omega is slaved to the phases,
    nu + c(theta), so the initial omega is ignored.  Both are certified
    against the velocity integral representation, at m = 0 its limit
    omega = nu + c(theta): the defect bound of `model._defect_bound` must
    prove its sup residual <= 50 * tol, or IntegrationError is raised.
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
    slaved = not params.is_inertial
    omega0 = rhs_first_order(params, theta0) if slaved else np.array(init.omega, dtype=float)
    # Overflow and NaN raise no numpy warning here: they end in a rejected
    # step, a step-size underflow or a bound that fails the gate below.
    with np.errstate(all="ignore"):
        grid, th, om, hs, coefs = _integrate_exp(params, theta0, omega0, horizon, STEP_SAFETY * tol)
        if slaved:
            om = rhs_first_order(params, th)  # what the dense output reads at each cell start
    return _certified(Trajectory(params, grid, th, om, tol, "exp", None, hs, coefs))


@dataclass(frozen=True)
class TaylorJet:
    """Raw time derivatives theta^(k) (k = 0..order) at one state."""

    t: float
    order: int
    coeffs: np.ndarray  # (order + 1, n); coeffs[k][i] = d^k theta_i / dt^k


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


def _regula_falsi(f, lo, hi, f_lo, f_hi, *, tol=0.0, f_tol=0.0) -> float:
    """Illinois regula falsi for a zero of f in [lo, hi], f_lo and f_hi of opposite signs.

    The secant through the bracket ends picks the next point (the midpoint
    while f_hi is not finite), and an end kept twice in a row has its value
    halved, so both ends close in.  Each new point stays tol/2 inside the
    bracket, so once one end sits within tol/2 of the zero the next one lands
    past it.  Returns a point where f is 0 or below f_tol in size, or the
    midpoint once the bracket is no wider than tol.
    """
    kept = 0  # -1 while lo was kept last, +1 while hi was
    for _ in range(200):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo) if math.isfinite(f_hi) else 0.5 * (lo + hi)
        t = min(max(t, lo + 0.5 * tol), hi - 0.5 * tol)
        f_t = f(t)
        if f_t == 0.0 or abs(f_t) < f_tol:
            return t
        if (f_t < 0.0) == (f_lo < 0.0):
            lo, f_lo = t, f_t
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = t, f_t
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    raise IntegrationError("regula falsi did not reach the zero tolerance")


def first_zero(
    traj: Trajectory,
    signal: Callable[[PhaseState], float],
    bracket: tuple[float, float],
    *,
    tol: float = 1e-10,
) -> float:
    """Locate a sign change of a scalar state functional on the dense output,
    by Illinois regula falsi to a bracket no wider than tol."""
    lo, hi = float(bracket[0]), float(bracket[1])
    f_lo = signal(traj.state_at_time(lo))
    f_hi = signal(traj.state_at_time(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("signal has no sign change over the bracket")
    return _regula_falsi(lambda t: signal(traj.state_at_time(t)), lo, hi, f_lo, f_hi, tol=tol)
