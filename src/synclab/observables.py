"""Diagnostic functionals and decision criteria for oscillator trajectories.

Includes the order parameter R, phase/frequency diameters, the pairwise
mismatch functional, the cluster-confinement functional xi with its
stability checker, and a finite-horizon phase-locking certificate.

The checker and the certificate read a run where its certificate does: at
the per-cell offsets of `model.walk_cells`, block by block, so their cost
and memory follow the cells that meet their window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrate import Trajectory
from .model import walk_cells

__all__ = [
    "ClusterSpec",
    "LockCertificate",
    "order_parameter",
    "diameter",
    "restricted_diameter",
    "variance",
    "mismatch_l2",
    "xi_functional",
    "cluster_stability_check",
    "lock_certificate",
]

DEFAULT_WINDOW_FRACTION = 0.2
DEFAULT_EPS_THETA = 1e-6


@dataclass(frozen=True)
class ClusterSpec:
    """A majority cluster: indices A, weight lambda, arc length ell, layer eta."""

    indices: tuple[int, ...]
    lam: float
    ell: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(set(int(i) for i in self.indices))))
        if not (0.5 < self.lam <= 1.0):
            raise ValueError("lambda must lie in (1/2, 1]")
        ell_max = 2.0 * math.acos(1.0 / self.lam - 1.0)
        if not (0.0 < self.ell < ell_max):
            raise ValueError(f"ell must lie in (0, {ell_max:.6g}) for lambda={self.lam}")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")

    def validate_size(self, n: int) -> None:
        if len(self.indices) < self.lam * n:
            raise ValueError("cluster must contain at least lambda * N indices")
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= n):
            raise ValueError("cluster indices out of range")


@dataclass(frozen=True)
class LockCertificate:
    """Finite-horizon proxy for asymptotic phase-locking."""

    locked: bool
    max_freq_spread: float
    max_phase_drift: float
    limiting_r_estimate: float


def order_parameter(theta):
    """R = |mean_j exp(i*theta_j)| over theta (..., n), clipped to [0, 1] against rounding.

    A float for one phase vector, an array of shape (...) otherwise.
    """
    th = np.asarray(theta, dtype=float)
    r = np.clip(np.abs(np.exp(1j * th).mean(axis=-1)), 0.0, 1.0)
    return float(r) if r.ndim == 0 else r


def diameter(x: Sequence[float]) -> float:
    """max - min of a nonempty sequence."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("diameter of an empty sequence")
    return float(arr.max() - arr.min())


def restricted_diameter(x: Sequence[float], indices) -> float:
    """Diameter of the subvector selected by `indices`."""
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("empty index set")
    return diameter(np.asarray(x, dtype=float)[idx])


def variance(x: Sequence[float]) -> float:
    """Population variance (1/N) sum (x_i - mean)^2."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("variance of an empty sequence")
    return float(np.mean((arr - arr.mean()) ** 2))


def mismatch_l2(theta: np.ndarray, phi: np.ndarray) -> float | np.ndarray:
    """sqrt(sum_{i<j} ((theta_i - phi_i) - (theta_j - phi_j))^2) over the last axis.

    Vanishes exactly when theta - phi is a constant vector.  Takes (..., n)
    arrays; a float for 1-d input, else an array of shape (...).
    """
    a = np.asarray(theta, dtype=float)
    b = np.asarray(phi, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    d = a - b
    e = d - d.mean(axis=-1, keepdims=True)  # N sum e^2; N sum d^2 - (sum d)^2 cancels
    out = np.sqrt(d.shape[-1] * (e * e).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def xi_functional(m: float, kappa: float, nu_a, omega0_a, eta: float) -> float:
    """Cluster-confinement functional.

    xi = m*D(nu_A) + 2*m*kappa + D(nu_A)/(2*kappa)
         + D(omega0_A) * m * max(1, eta) * exp(-max(1, eta))
         + (D(omega0_A)/(2*kappa)) * exp(-eta)/(1 - exp(-eta)),

    where eta = +inf drops the two trailing (initial-layer) terms.
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    d_nu = diameter(nu_a)
    base = m * d_nu + 2.0 * m * kappa + d_nu / (2.0 * kappa)
    if math.isinf(eta):
        return base
    d_om = diameter(omega0_a)
    me = max(1.0, eta)
    tail = d_om * m * me * math.exp(-me) + (d_om / (2.0 * kappa)) * math.exp(-eta) / (
        1.0 - math.exp(-eta)
    )
    return base + tail


def cluster_stability_check(traj: Trajectory, spec: ClusterSpec, t1: float) -> dict:
    """Monitor confinement of the cluster after time t1.

    Hypotheses checked: t1 >= eta*m, D(Theta_A(t1)) <= ell, and
    xi < (lambda/2) sin(ell) - (1 - lambda) sin(ell/2).  When they hold, the
    report records whether sup_{t in [t1, horizon]} D(Theta_A(t)), read at
    the offsets of `walk_cells`, stays within ell and whether the terminal
    cluster diameter is already below the asymptotic ceiling
    (3*pi / (4*(2*lambda - 1))) * (2*m*D(nu_A) + 4*m*kappa + D(nu_A)/kappa).
    """
    params = traj.params
    spec.validate_size(params.n)
    idx = np.asarray(spec.indices, dtype=int)
    m, kappa = params.inertia_m, params.coupling_kappa

    rhs = (spec.lam / 2.0) * math.sin(spec.ell) - (1.0 - spec.lam) * math.sin(spec.ell / 2.0)
    xi = xi_functional(
        m, kappa, params.nat_freq[idx], traj.omega_grid[0][idx], spec.eta
    )
    th_t1, _ = traj.eval_many(np.array([t1]))
    d_t1 = diameter(th_t1[0][idx])

    hyps = {
        "t1_after_layer": t1 >= spec.eta * m,
        "initial_confinement": d_t1 <= spec.ell,
        "xi_condition": xi < rhs,
    }
    report = {
        "hypotheses_satisfied": all(hyps.values()),
        "hypotheses": hyps,
        "xi": xi,
        "xi_threshold": rhs,
        "diameter_at_t1": d_t1,
        "ell": spec.ell,
    }
    if not report["hypotheses_satisfied"]:
        report["conclusion_checked"] = False
        return report

    sup = 0.0
    for _, _, (th, _) in walk_cells(params, traj.eval_many, traj.grid, t1, traj.horizon):
        diams = np.ptp(th[..., idx], axis=-1)
        sup = max(sup, float(diams.max()))
    terminal = float(diams[-1, -1])  # at the horizon, the walk's last time
    d_nu = diameter(params.nat_freq[idx])
    ceiling = (3.0 * math.pi / (4.0 * (2.0 * spec.lam - 1.0))) * (
        2.0 * m * d_nu + 4.0 * m * kappa + d_nu / kappa
    )
    report.update(conclusion_checked=True, sup_diameter=sup, confined=sup <= spec.ell,
                  terminal_diameter=terminal, asymptotic_ceiling=ceiling,
                  terminal_below_ceiling=terminal < ceiling)
    return report


def lock_certificate(
    traj: Trajectory,
    window_fraction: float = DEFAULT_WINDOW_FRACTION,
    eps_omega: float | None = None,
    eps_theta: float = DEFAULT_EPS_THETA,
) -> LockCertificate:
    """Finite-horizon phase-locking certificate over a trailing window.

    locked is true iff, over the trailing window, the frequency spread stays
    within eps_omega and every pairwise phase difference stays within
    eps_theta of its terminal value.  The default eps_omega is 1e-6 * kappa.
    Both are running maxima over the blocks of `walk_cells` on the window.
    """
    if not (0.0 < window_fraction < 1.0):
        raise ValueError("window_fraction must lie in (0, 1)")
    if eps_omega is None:
        eps_omega = 1e-6 * traj.params.coupling_kappa

    t_end = traj.horizon
    th_end = traj.eval_many(np.array([t_end]))[0][0]
    freq_spread = max_phase_drift = 0.0
    for _, _, (th, om) in walk_cells(traj.params, traj.eval_many, traj.grid,
                                     t_end * (1.0 - window_fraction), t_end):
        freq_spread = max(freq_spread, float(np.ptp(om, axis=-1).max()))
        # max over pairs of |(theta_i - theta_j)(t) - (theta_i - theta_j)(t_end)|
        # equals the diameter of the per-channel deviation from the terminal state
        max_phase_drift = max(max_phase_drift, float(np.ptp(th - th_end, axis=-1).max()))

    locked = freq_spread <= eps_omega and max_phase_drift <= eps_theta
    return LockCertificate(locked, freq_spread, max_phase_drift, order_parameter(th_end))
