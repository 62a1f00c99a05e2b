"""Inertial and first-order Kuramoto systems, their symmetries, and residuals.

The second-order (inertial) system for phases theta_i on the real line is

    m * theta_i'' + theta_i' = nu_i + (kappa/N) * sum_j sin(theta_j - theta_i),

with initial data (theta_i(0), theta_i'(0)) = (theta0_i, omega0_i).  Setting
m = 0 gives the classical first-order model, which is treated as a separate
Cauchy problem (omega0 is then slaved to the phase configuration).

Phases are stored unwrapped on R; reduction mod 2*pi only ever happens
implicitly inside sin/cos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import relaxation_chain, relaxation_convolution

# Times times oscillators (or pairs) per block of `walk_cells`, of the exact
# residual and of the pairwise speed check; it bounds their arrays whatever horizon/m.
_CHUNK_ENTRIES = 1 << 16
# Level L of the defect bound's 2^L + 1 even nodes per cell.
_DEFECT_LEVEL = 4
# The exp stepper's collocation nodes, the Chebyshev-Lobatto points of a cell
# [0, 1] for its degree-6 coupling model.
_COLLOCATION_NODES = 0.5 * (1.0 - np.cos(np.pi * np.arange(7) / 6))


def _nodal_extrema(nodes):
    """The extrema of prod_k (x - x_k) between consecutive nodes.

    Newton's method on the derivative, from the midpoints.  `np.roots` would
    call an eigenvalue solver at import, which adds about 1 MiB to the peak
    RSS of every process that imports the package.
    """
    slope = np.polyder(np.poly(nodes))
    curvature = np.polyder(slope)
    x = 0.5 * (nodes[:-1] + nodes[1:])
    for _ in range(8):
        x = x - np.polyval(slope, x) / np.polyval(curvature, x)
    return x


# A cell's defect is about c^(7) h^7 / 7! times the nodal polynomial, so it
# peaks near these.
_DEFECT_PEAKS = _nodal_extrema(_COLLOCATION_NODES)

__all__ = [
    "SystemParams",
    "PhaseState",
    "GalileanShift",
    "coupling_term",
    "coupling_and_rate",
    "rhs_second_order",
    "rhs_first_order",
    "duhamel_residual",
    "duhamel_residual_grid",
    "walk_cells",
    "apply_galilean",
    "apply_dilation",
    "apply_reflection",
    "apply_permutation",
    "mean_phase_frequency",
]


def _freeze(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SystemParams:
    """Oscillator count, inertia m >= 0, coupling kappa > 0, natural frequencies."""

    n: int
    inertia_m: float
    coupling_kappa: float
    nat_freq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nat_freq", _freeze(self.nat_freq))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.nat_freq.shape != (self.n,):
            raise ValueError("nat_freq must have exactly n entries")
        if not (self.coupling_kappa > 0.0 and math.isfinite(self.coupling_kappa)):
            raise ValueError("coupling_kappa must be positive and finite")
        if not (self.inertia_m >= 0.0 and math.isfinite(self.inertia_m)):
            raise ValueError("inertia_m must be nonnegative and finite")
        if not np.all(np.isfinite(self.nat_freq)):
            raise ValueError("nat_freq entries must be finite")

    @property
    def is_inertial(self) -> bool:
        return self.inertia_m > 0.0


@dataclass(frozen=True)
class PhaseState:
    """Time-stamped unwrapped phases and instantaneous frequencies."""

    t: float
    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _freeze(self.theta))
        object.__setattr__(self, "omega", _freeze(self.omega))
        if self.theta.shape != self.omega.shape or self.theta.ndim != 1:
            raise ValueError("theta and omega must be 1-d arrays of equal length")
        if self.t < 0.0 or not math.isfinite(self.t):
            raise ValueError("t must be a nonnegative finite time")

    @property
    def n(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class GalileanShift:
    """Constant shifts (nu, omega, theta) applied to the whole ensemble."""

    nu_shift: float
    omega_shift: float
    theta_shift: float

    def __post_init__(self):
        for v in (self.nu_shift, self.omega_shift, self.theta_shift):
            if not math.isfinite(v):
                raise ValueError("shift components must be finite")


def _mean_field(params: SystemParams, z: np.ndarray):
    """(kappa/N) Im(Z conj z_i) and Z = sum_l z_l, from phasors z = e^{i theta} (..., n)."""
    big_z = z.sum(axis=-1, keepdims=True)
    return (params.coupling_kappa / params.n) * (big_z * z.conj()).imag, big_z


def coupling_term(params: SystemParams, theta: np.ndarray) -> np.ndarray:
    """(kappa/N) * sum_l sin(theta_l - theta_i) over phases of shape (..., n).

    Mean-field form, O(n) per state (Strogatz, Physica D 143, 2000): with
    z_l = e^{i theta_l} and Z = sum_l z_l the sum is Im(Z conj z_i).
    """
    return _mean_field(params, np.exp(1j * np.asarray(theta, dtype=float)))[0]


def coupling_and_rate(params: SystemParams, theta: np.ndarray, omega: np.ndarray):
    """The coupling c_i and its time derivative along (theta, theta' = omega).

    With z_l = e^{i theta_l}, Z = sum_l z_l and W = sum_l omega_l z_l,

        c_i     = (kappa/N) Im(Z conj z_i),
        dc_i/dt = (kappa/N) sum_l cos(theta_l - theta_i) (omega_l - omega_i)
                = (kappa/N) Re((W - omega_i Z) conj z_i);

    theta and omega have shape (..., n).
    """
    z = np.exp(1j * np.asarray(theta, dtype=float))
    g, big_z = _mean_field(params, z)
    big_w = (omega * z).sum(axis=-1, keepdims=True)
    dg = (params.coupling_kappa / params.n) * ((big_w - omega * big_z) * z.conj()).real
    return g, dg


def rhs_second_order(params: SystemParams, state: PhaseState):
    """Right-hand side (dtheta, domega) of the inertial system; requires m > 0."""
    if not params.is_inertial:
        raise ValueError("rhs_second_order requires inertia_m > 0; use rhs_first_order")
    dtheta = np.array(state.omega, dtype=float)
    domega = (params.nat_freq - state.omega + coupling_term(params, state.theta)) / params.inertia_m
    return dtheta, domega


def rhs_first_order(params: SystemParams, theta: Sequence[float]) -> np.ndarray:
    """Right-hand side of the first-order model, nu + coupling, for theta (..., n)."""
    return params.nat_freq + coupling_term(params, theta)


def _chunk_residual(params: SystemParams, eval_many, ts, carry):
    """Signed residual (Q, n) at the sub-nodes `ts` and the model velocity at ts[-1].

    `carry` is the model velocity at ts[0]; None at t = 0, where it is omega(0).
    A function of its own so that a chunk's arrays are freed before the next
    chunk is evaluated.
    """
    m = params.inertia_m
    theta, omega = eval_many(ts)
    g, dg = coupling_and_rate(params, theta, omega)
    conv = relaxation_convolution(ts, g, dg, m)
    decay = np.exp(-(ts - ts[0]) / m)[:, None]
    start = omega[0] if carry is None else carry
    model = start * decay + params.nat_freq * (1.0 - decay) + conv
    return omega - model, model[-1]


def _velocity_residual(params: SystemParams, eval_many, nodes):
    """Residual of the velocity integral representation, sampled densely.

    residual_i(t) = omega_i(t) - [omega_i(0) e^{-t/m} + nu_i (1 - e^{-t/m})
                    + (1/m) int_0^t e^{-(t-s)/m} c_i(s) ds],

    with `nodes` increasing from t = 0.  Each cell between nodes is split
    into equal sub-cells below the kernel scale m/10; `eval_many` gives
    (theta, omega) at the sub-nodes, and the coupling is replaced by its
    cubic Hermite model there (values and exact time derivatives); its error
    does not grow with t/m but with m kappa (1.8e-7 against a gate of 1.4e-9
    at m = 0.41, kappa = 3.5).  It is taken at every sub-node, so a defect
    anywhere in a cell, however long, shows.

    The sub-nodes are walked in chunks of about _CHUNK_ENTRIES / n, so
    memory is O(chunk * n) whatever horizon/m.  Consecutive chunks share one
    node t_a and hand on the model velocity there; from it the model reads
    carry e^{-(t-t_a)/m} + nu (1 - e^{-(t-t_a)/m}) + (1/m) int_{t_a}^t ...,
    which equals the formula above.  Returns the largest residual magnitude
    per cell (K, n) -- row 0 at t = 0, row k over (nodes[k-1], nodes[k]] --
    and the signed residual at nodes[-1] (n,).
    """
    m = params.inertia_m
    widths = np.diff(nodes)
    counts = np.maximum(1, np.ceil(widths / (m / 10.0) - 1e-12).astype(int))
    out_idx = np.concatenate(([0], np.cumsum(counts)))
    spacing = np.append(widths / counts, 0.0)  # the last sub-node is nodes[-1]
    total = int(out_idx[-1])
    chunk = max(1, _CHUNK_ENTRIES // params.n)
    cell_max = np.zeros((len(nodes), params.n))
    carry = None
    for a in range(0, max(total, 1), chunk):  # one pass even for nodes = [0]
        j = np.arange(a, min(a + chunk, total) + 1)
        cell = np.searchsorted(out_idx, j, side="right") - 1
        ts = (j - out_idx[cell]) * spacing[cell] + nodes[cell]
        res, carry = _chunk_residual(params, eval_many, ts, carry)

        rows = np.searchsorted(out_idx, j, side="left")
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        seg = rows[starts]
        chunk_max = np.maximum.reduceat(np.abs(res), starts, axis=0)
        cell_max[seg] = np.maximum(cell_max[seg], chunk_max)
    return cell_max, res[-1]


def walk_cells(params: SystemParams, read, grid, t_from: float, t_to: float):
    """Read a run over [t_from, t_to] at the certificate's offsets, in blocks of whole cells.

    Each cell of `grid` that meets the window is read at its start, at the
    nodes m/10 * 2^j covering the layer of width m in the widest cell (none
    at m = 0), at _DEFECT_PEAKS, and at the 2^L even nodes after its start
    (L = _DEFECT_LEVEL): the last 2^L columns, of which the last is the cell
    end and every other one from the first is new at level L.  Each time is
    clipped to its cell and to the window, so the walk reads t_from first and
    t_to last; `read(ts, cells)` (a run's `eval_many` or `eval_with_model`)
    reads each in its cell.  Yields (cells (b,), times (b, P), outputs
    (b, P, n) each) per block of about _CHUNK_ENTRIES entries.  A window
    outside the span raises ValueError when the walk starts.
    """
    if not grid[0] - 1e-12 <= t_from <= t_to <= grid[-1] + 1e-12:  # a NaN fails too
        raise ValueError("window outside the trajectory span")
    t_from, t_to = max(t_from, grid[0]), min(t_to, grid[-1])
    m, n, widths = params.inertia_m, params.n, np.diff(grid)
    # the cells that end at or after t_from and start at or before t_to
    cells = np.arange(np.searchsorted(grid[1:], t_from), np.searchsorted(grid[:-1], t_to, "right"))
    layers = max(1, math.ceil(math.log2(10.0 * widths.max() / m))) if m > 0.0 else 0
    layer = np.broadcast_to(m / 10.0 * 2.0 ** np.arange(layers), (len(cells), layers))
    x = np.r_[_DEFECT_PEAKS, np.arange(1, 2**_DEFECT_LEVEL) / 2**_DEFECT_LEVEL]
    inner = np.hstack([layer, np.outer(widths[cells], x)])  # the offsets between start and end
    lo, hi = np.maximum(grid[cells], t_from)[:, None], np.minimum(grid[cells + 1], t_to)[:, None]
    ts = np.hstack([lo, np.clip(grid[cells, None] + inner, lo, hi), hi])
    per = ts.shape[1]
    chunk = max(1, _CHUNK_ENTRIES // (n * per))
    for a in range(0, len(cells), chunk):
        c, t = cells[a : a + chunk], ts[a : a + chunk]
        yield c, t, tuple(out.reshape(len(c), per, n) for out in read(t.ravel(), np.repeat(c, per)))


def _defect_bound(params: SystemParams, traj, gate: float):
    """Bound on the velocity residual per grid cell from the ODE defect, or None.

    Inside a grid cell the residual r of `duhamel_residual_grid` obeys
    m r' + r = delta, the defect of the dense output (the collocation error
    g - nu - c(theta) of the cell's coupling model g), and at a grid point it
    jumps by the jump J_k of the dense omega there.  With D_k = sup |delta| on
    cell k this gives |r| <= max(B_k + J_k, D_k) on the cell and
    B_{k+1} = e^{-h_k/m} (B_k + J_k) + (1 - e^{-h_k/m}) D_k, per oscillator.

    D_k is sampled at every offset `walk_cells` reads, over the whole run:
    the sup over all of them plus its excess over the sup at level L - 1
    (every offset but the even nodes new at level L), an estimate of the
    sampling error.  D_k is a sampled sup, so the rows bound the residual up
    to that error; in cells far below the gate a row can fall a fraction of
    a percent short of the exact residual there.
    At m = 0 the residual is the defect itself, with no memory: there are no
    layer nodes, and row k + 1 is D_k, whose samples at both ends of cell k
    cover the one-sided residuals at the jumps.  Returns (K, n) in the layout
    of duhamel_residual_grid, or None if a cell's excess is above gate/10 (or
    NaN).  Memory is O(chunk * n) besides a fixed number of entries per cell.
    """
    m, n = params.inertia_m, params.n
    grid = traj.grid
    defect = np.empty((len(grid) - 1, n))
    excess = np.empty_like(defect)
    ends = np.empty((len(grid) - 1, 2, n))  # omega at each cell's start and end
    walk = walk_cells(params, traj.eval_with_model, grid, grid[0], grid[-1])
    for c, _, (theta, omega, g) in walk:
        delta = g - params.nat_freq
        delta -= _mean_field(params, np.exp(1j * theta))[0]
        delta = np.abs(delta)
        coarse = np.ones(delta.shape[1], dtype=bool)
        coarse[-(2**_DEFECT_LEVEL) :: 2] = False  # the even nodes new at level L
        defect[c] = delta.max(axis=1)
        excess[c] = defect[c] - delta[:, coarse].max(axis=1)
        ends[c] = omega[:, [0, -1]]
    if not np.all(excess <= gate / 10.0):  # a NaN fails too
        return None
    defect += excess
    rows = np.zeros((len(grid), n))
    if m == 0.0:  # the residual is the defect itself, and D_k samples both ends of cell k
        rows[1:] = defect
        return rows
    jumps = np.zeros((len(grid), n))  # |omega(t_k+) - omega(t_k-)|; none at either end
    jumps[1:-1] = np.abs(ends[1:, 0] - ends[:-1, 1])

    z = np.diff(grid)[:, None] / m  # h_k/m
    local = np.exp(-z) * jumps[:-1] - np.expm1(-z) * defect
    entry = relaxation_chain(grid, local, m) + jumps  # bound on |r(t_k+)|
    rows[1:] = np.maximum(np.maximum(entry[:-1], defect), entry[1:])
    return rows


def duhamel_residual_grid(params: SystemParams, traj) -> np.ndarray:
    """Largest residual magnitude of the velocity integral representation per grid cell.

    Row 0 is the residual at t = 0; row k > 0 the largest one over the cell
    (t_{k-1}, t_k], sampled at most m/10 apart on the dense output in one
    streamed pass of bounded memory.  It vanishes identically along exact
    solutions, up to a quadrature error that grows with m kappa.  Returns (K, n).
    """
    if not params.is_inertial:
        raise ValueError("Duhamel residual is defined for m > 0 only")
    return _velocity_residual(params, traj.eval_many, traj.grid)[0]


def duhamel_residual(params: SystemParams, traj, t: float) -> np.ndarray:
    """Residual of the velocity integral representation at a single time.

    The same pass as the grid residual, over the grid points before t and t.
    """
    if not params.is_inertial:
        raise ValueError("Duhamel residual is defined for m > 0 only")
    grid = traj.grid
    if t < grid[0] - 1e-12 or t > grid[-1] + 1e-12:
        raise ValueError("t outside the trajectory span")
    t = min(max(t, grid[0]), grid[-1])
    k = int(np.searchsorted(grid, t, side="left"))
    return _velocity_residual(params, traj.eval_many, np.append(grid[:k], t))[1]


def apply_galilean(params: SystemParams, init_state: PhaseState, shift: GalileanShift):
    """Shift frame by constants (nu, omega, theta); valid for m > 0.

    Returns transformed params/initial data plus a map sending states of the
    original solution to states of the transformed one:

        theta~(t) = theta(t) - theta_s - m*omega_s*(1-e^{-t/m})
                    - nu_s*(t - m + m e^{-t/m}),
        omega~(t) = omega(t) - omega_s e^{-t/m} - nu_s (1 - e^{-t/m}).
    """
    if not params.is_inertial:
        raise ValueError("the Galilean map is defined for m > 0")
    m = params.inertia_m
    new_params = SystemParams(
        params.n, m, params.coupling_kappa, params.nat_freq - shift.nu_shift
    )
    new_init = PhaseState(
        init_state.t,
        init_state.theta - shift.theta_shift,
        init_state.omega - shift.omega_shift,
    )

    def trajectory_map(state: PhaseState) -> PhaseState:
        t = state.t
        e = math.exp(-t / m)
        th = state.theta - shift.theta_shift - m * shift.omega_shift * (1.0 - e) \
            - shift.nu_shift * (t - m + m * e)
        om = state.omega - shift.omega_shift * e - shift.nu_shift * (1.0 - e)
        return PhaseState(t, th, om)

    return new_params, new_init, trajectory_map


def apply_dilation(params: SystemParams, init_state: PhaseState, alpha: float):
    """Speed time up by alpha: kappa' = a*kappa, nu' = a*nu, m' = m/a, omega0' = a*omega0.

    The returned time map sends new time t to old time alpha*t, i.e. the
    transformed solution satisfies theta'(t) = theta(alpha*t).
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    new_params = SystemParams(
        params.n,
        params.inertia_m / alpha,
        alpha * params.coupling_kappa,
        alpha * params.nat_freq,
    )
    new_init = PhaseState(init_state.t, init_state.theta, alpha * init_state.omega)

    def time_map(t_new: float) -> float:
        return alpha * t_new

    return new_params, new_init, time_map


def apply_reflection(params: SystemParams, init_state: PhaseState):
    """Negate frequencies, phases, and velocities."""
    new_params = SystemParams(params.n, params.inertia_m, params.coupling_kappa, -params.nat_freq)
    new_init = PhaseState(init_state.t, -init_state.theta, -init_state.omega)
    return new_params, new_init


def apply_permutation(params: SystemParams, init_state: PhaseState, perm: Sequence[int]):
    """Relabel oscillators by a permutation of 0..n-1."""
    p = np.asarray(perm, dtype=int)
    if p.shape != (params.n,) or sorted(p.tolist()) != list(range(params.n)):
        raise ValueError("perm must be a permutation of range(n)")
    new_params = SystemParams(
        params.n, params.inertia_m, params.coupling_kappa, params.nat_freq[p]
    )
    new_init = PhaseState(init_state.t, init_state.theta[p], init_state.omega[p])
    return new_params, new_init


def mean_phase_frequency(params: SystemParams, init_state: PhaseState, t: float):
    """Closed-form ensemble means (theta_c(t), omega_c(t)) for m > 0.

    theta_c(t) = m*omega_c0*(1-e^{-t/m}) + nu_c*(t - m + m e^{-t/m}) + theta_c0,
    omega_c(t) = omega_c0 e^{-t/m} + nu_c (1 - e^{-t/m}).
    """
    if not params.is_inertial:
        raise ValueError("mean_phase_frequency requires m > 0")
    m = params.inertia_m
    nu_c = float(np.mean(params.nat_freq))
    th_c0 = float(np.mean(init_state.theta))
    om_c0 = float(np.mean(init_state.omega))
    e = math.exp(-t / m)
    theta_c = m * om_c0 * (1.0 - e) + nu_c * (t - m + m * e) + th_c0
    omega_c = om_c0 * e + nu_c * (1.0 - e)
    return theta_c, omega_c
