"""Small-inertia limit bounds and their certification against trajectory pairs.

Every bound here is a closed-form function of the system data (m, kappa,
initial velocities, natural frequencies) and time; the certification
machinery measures the corresponding quantity on simulated trajectory pairs
(inertial vs first order, identical initial phases) and records margins.

Conventions: D(.) is the diameter max minus min, ||.|| the max norm; the
initial layer has width O(m), and velocity bounds carry an exp(-t/m) term
that dominates inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import model as _model
from .integrate import Trajectory, integrate, taylor_jet
from .model import PhaseState, SystemParams, coupling_term
from .observables import diameter

__all__ = [
    "BoundCheck",
    "bound_c0_abs",
    "bound_c0_rel",
    "bound_c1_abs",
    "bound_c1_rel",
    "bound_c0_sharp",
    "bound_cn",
    "bound_thm13_cn",
    "approxaut_bound",
    "propagation_bounds_check",
    "gronwall_v",
    "gronwall_identity_residual",
    "faa_di_bruno_mass",
    "derivative_bound_suite",
    "compare_trajectories",
]

SLACK_FACTOR = 50.0  # a BoundCheck forgives SLACK_FACTOR * tol of measurement error
_MAX_FACTORIAL = 21
_FACT = [float(math.factorial(k)) for k in range(_MAX_FACTORIAL + 1)]


@dataclass(frozen=True)
class BoundCheck:
    """A named inequality evaluated at a set of times."""

    name: str
    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    slack: float

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        me = np.atleast_1d(np.asarray(self.measured, dtype=float))
        bo = np.atleast_1d(np.asarray(self.bound, dtype=float))
        if not (t.shape == me.shape == bo.shape):
            raise ValueError("times, measured, bound must share a shape")
        if not t.size:
            raise ValueError(f"bound check {self.name} has no times")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "measured", me)
        object.__setattr__(self, "bound", bo)

    @property
    def margin(self) -> np.ndarray:
        return self.bound - self.measured

    @property
    def passed(self) -> bool:
        return bool(np.all(self.margin > -self.slack))

    @property
    def min_margin(self) -> float:
        return float(self.margin.min())

    def summary(self) -> dict:
        worst = int(np.argmin(self.margin))
        return {
            "name": self.name,
            "passed": self.passed,
            "margin_min": self.min_margin,
            "worst_time": float(self.times[worst]),
            "n_points": int(self.times.size),
            "slack": self.slack,
        }


def _fact(n: int) -> float:
    if n > _MAX_FACTORIAL:
        raise ValueError(f"factorial beyond {_MAX_FACTORIAL}! is rejected")
    return _FACT[n]


def _data(params: SystemParams, init: PhaseState):
    m = params.inertia_m
    if m <= 0.0:
        raise ValueError("inertial bounds require m > 0")
    om = np.asarray(init.omega, dtype=float)
    nu = np.asarray(params.nat_freq, dtype=float)
    return m, params.coupling_kappa, om, nu


def bound_c0_abs(params: SystemParams, init: PhaseState, t) -> np.ndarray | float:
    """Phase gap to the zero-inertia solution, max norm, plain form.

    m*|(max_i + min_i)(omega0 - nu)/2| + (m/2)*(D(omega0 - nu) + 2k)*e^{2kt}.
    """
    m, kappa, om, nu = _data(params, init)
    dev = om - nu
    center = abs(dev.max() + dev.min()) / 2.0
    return m * center + 0.5 * m * (diameter(dev) + 2.0 * kappa) * np.exp(2.0 * kappa * np.asarray(t))


def bound_c0_rel(params: SystemParams, init: PhaseState, t) -> np.ndarray | float:
    """Pairwise phase-gap version: m*(D(omega0 - nu) + 2k)*e^{2kt}."""
    m, kappa, om, nu = _data(params, init)
    return m * (diameter(om - nu) + 2.0 * kappa) * np.exp(2.0 * kappa * np.asarray(t))


def bound_c1_abs(params: SystemParams, init: PhaseState, t) -> np.ndarray | float:
    """Velocity gap, max norm: layer term + m*k terms.

    (||omega0 - nu|| + k) e^{-t/m} + m k (D(nu) + 2k) + m k (D(omega0 - nu) + 2k) e^{2kt}.
    """
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    dev = om - nu
    return (
        (np.abs(dev).max() + kappa) * np.exp(-t / m)
        + m * kappa * (diameter(nu) + 2.0 * kappa)
        + m * kappa * (diameter(dev) + 2.0 * kappa) * np.exp(2.0 * kappa * t)
    )


def bound_c1_rel(params: SystemParams, init: PhaseState, t) -> np.ndarray | float:
    """Velocity gap, pairwise version (doubled m*k terms, diameter layer term)."""
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    dev = om - nu
    return (
        (diameter(dev) + 2.0 * kappa) * np.exp(-t / m)
        + 2.0 * m * kappa * (diameter(nu) + 2.0 * kappa)
        + 2.0 * m * kappa * (diameter(dev) + 2.0 * kappa) * np.exp(2.0 * kappa * t)
    )


def _sharp_kernel(m: float, kappa: float, t: np.ndarray) -> np.ndarray:
    """e^{-t/2m} (e^{bt/2m} - e^{-bt/2m}) / b with b = sqrt(1+8mk), stably."""
    b = math.sqrt(1.0 + 8.0 * m * kappa)
    up = (b - 1.0) / (2.0 * m)  # equals 4k/(b+1) <= 2k
    dn = (b + 1.0) / (2.0 * m)
    return (np.exp(up * t) - np.exp(-dn * t)) / b


def bound_c0_sharp(params: SystemParams, init: PhaseState, t):
    """Strengthened phase-gap bounds (abs, rel); always below the plain forms."""
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    dev = om - nu
    c0 = diameter(dev) + 2.0 * kappa
    ker = _sharp_kernel(m, kappa, t)
    center = abs(dev.max() + dev.min()) / 2.0
    abs_bound = m * center * (1.0 - np.exp(-t / m)) + 0.5 * m * c0 * ker
    rel_bound = m * c0 * ker
    return abs_bound, rel_bound


def bound_cn(params: SystemParams, init: PhaseState, n: int, t):
    """Derivative-gap bounds of order n >= 2, (abs, rel).

    abs: (n-1)! A1^n (1+t/m)^n e^{-t/m}
         + (9/8) m k n! e^{2kt} A2^n (1+t/m)^n e^{-t/m}
         + (3/4) m k (n+1)! e^{2kt} A3^n (1 - e^{-t/m}),
    rel: 2 (n-1)! A2^n (1+t/m)^n e^{-t/m}
         + (3/2) (n+1)! m k e^{2kt} A2^n (1+t/m)^n e^{-t/m}
         + (3/2) (n+1)! m k e^{2kt} A3^n (1 - e^{-t/m}),
    with A1 = 2k + ||omega0|| + ||nu|| + 9/(8m),
         A2 = 2k + D(omega0) + D(nu) + 9/(8m), A3 = 2k + D(omega0) + D(nu).
    """
    if n < 2:
        raise ValueError("bound_cn requires n >= 2")
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    a1 = 2.0 * kappa + np.abs(om).max() + np.abs(nu).max() + 9.0 / (8.0 * m)
    a2 = 2.0 * kappa + diameter(om) + diameter(nu) + 9.0 / (8.0 * m)
    a3 = 2.0 * kappa + diameter(om) + diameter(nu)
    layer = (1.0 + t / m) ** n * np.exp(-t / m)
    grow = np.exp(2.0 * kappa * t)
    tail = 1.0 - np.exp(-t / m)
    abs_bound = (
        _fact(n - 1) * a1**n * layer
        + 1.125 * m * kappa * _fact(n) * grow * a2**n * layer
        + 0.75 * m * kappa * _fact(n + 1) * grow * a3**n * tail
    )
    rel_bound = (
        2.0 * _fact(n - 1) * a2**n * layer
        + 1.5 * _fact(n + 1) * m * kappa * grow * a2**n * layer
        + 1.5 * _fact(n + 1) * m * kappa * grow * a3**n * tail
    )
    return abs_bound, rel_bound


def bound_thm13_cn(params: SystemParams, init: PhaseState, n: int, t):
    """Coarser derivative-gap bound valid from n = 1.

    (n+1)! 2^n (k + ||omega0|| + ||nu|| + 1/m)^n
        * ((1+t/m)^n e^{-t/m} (1 + m k e^{2kt}) + m k e^{2kt}).
    """
    if n < 1:
        raise ValueError("bound_thm13_cn requires n >= 1")
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    base = kappa + np.abs(om).max() + np.abs(nu).max() + 1.0 / m
    grow = m * kappa * np.exp(2.0 * kappa * t)
    return (
        _fact(n + 1)
        * 2.0**n
        * base**n
        * ((1.0 + t / m) ** n * np.exp(-t / m) * (1.0 + grow) + grow)
    )


def approxaut_bound(params: SystemParams, init: PhaseState, t):
    """Error ceiling of the autonomous velocity approximant.

    k D(omega0) t e^{-t/m} (1 - e^{-t/m}) + m k (D(nu) + 2k) (1 - e^{-t/m})^3.
    """
    m, kappa, om, nu = _data(params, init)
    t = np.asarray(t, dtype=float)
    e = np.exp(-t / m)
    return kappa * diameter(om) * t * e * (1.0 - e) + m * kappa * (
        diameter(nu) + 2.0 * kappa
    ) * (1.0 - e) ** 3


def approxaut_measured(params: SystemParams, om0, ts, th, om) -> np.ndarray:
    """Measured LHS of the autonomous approximant inequality, max over channels, from
    the run's initial velocity om0 and its phases and velocities (th, om) at ts."""
    if not params.is_inertial:
        raise ValueError("inertial bounds require m > 0")
    m, nu = params.inertia_m, params.nat_freq
    ts = np.asarray(ts, dtype=float)
    e = np.exp(-ts / m)[:, None]
    approx = om0 * e + nu * (1.0 - e) + coupling_term(params, th) * (1.0 - e)
    return np.abs(om - approx).max(axis=1)


def propagation_bounds_check(traj: Trajectory, slack: float | None = None) -> list[BoundCheck]:
    """Velocity envelope inequalities on the dense output, at the offsets of `walk_cells` (m > 0).

    (1) e^{-t/m} w0_i + (1-e^{-t/m})(nu_i - k) <= w_i(t)
        <= e^{-t/m} w0_i + (1-e^{-t/m})(nu_i + k);
    (2) |w_i - w_j|(t) <= e^{-t/m}|w0_i - w0_j| + (1-e^{-t/m})(|nu_i - nu_j| + 2k);
    (3) D(omega(t)) <= e^{-t/m} D(omega0) + (1-e^{-t/m})(D(nu) + 2k).

    The run is read block by block over [0, horizon] (`walk_times`), and
    each check keeps one value per time read in each cell.
    """
    params = traj.params
    if not params.is_inertial:
        raise ValueError("propagation bounds require m > 0")
    if slack is None:
        slack = 10.0 * traj.tol
    m, kappa, n = params.inertia_m, params.coupling_kappa, params.n
    nu = params.nat_freq
    om0 = traj.eval_many(np.zeros(1))[1][0]
    # each pair has its own bound; the (Q, n, n) differences are taken in
    # chunks of times so that memory stays O(chunk * n^2)
    dw0 = np.abs(om0[:, None] - om0[None, :])
    dnu = np.abs(nu[:, None] - nu[None, :])
    pair_chunk = max(1, _model._CHUNK_ENTRIES // n**2)
    rows = []  # per block: times, upper, lower, pairwise, diameter and its bound
    for t, (_, om) in _model.walk_times(params, [traj], 0.0, traj.horizon):
        e = np.exp(-t / m)[:, None]
        upper = e * om0 + (1.0 - e) * (nu + kappa)
        lower = e * om0 + (1.0 - e) * (nu - kappa)
        pair = np.empty_like(t)
        for a in range(0, len(t), pair_chunk):
            w, ec = om[a : a + pair_chunk], e[a : a + pair_chunk, :, None]
            dw = np.abs(w[:, :, None] - w[:, None, :])
            pair_bound = ec * dw0[None] + (1.0 - ec) * (dnu[None] + 2.0 * kappa)
            pair[a : a + pair_chunk] = (dw - pair_bound).max(axis=(1, 2))
        d_bound = e[:, 0] * np.ptp(om0) + (1.0 - e[:, 0]) * (diameter(nu) + 2.0 * kappa)
        rows.append((t, (om - upper).max(axis=1), (lower - om).max(axis=1), pair,
                     np.ptp(om, axis=1), d_bound))
    t, upper, lower, pair, d_om, d_bound = (np.concatenate(col) for col in zip(*rows))
    zero = np.zeros_like(t)
    return [BoundCheck("speed_envelope_lower", t, lower, zero, slack),
            BoundCheck("speed_envelope_upper", t, upper, zero, slack),
            BoundCheck("speed_pairwise", t, pair, zero, slack),
            BoundCheck("speed_diameter", t, d_om, d_bound, slack)]


def gronwall_v(m: float, kappa: float, c0: float, t) -> np.ndarray | float:
    """Closed-form comparison solution v(t) of the delayed-kernel integral identity.

    v(t) = (c0 m / b) e^{-t/2m} (e^{bt/2m} - e^{-bt/2m}), b = sqrt(1 + 8mk).
    """
    if m <= 0 or kappa <= 0:
        raise ValueError("m and kappa must be positive")
    t = np.asarray(t, dtype=float)
    return c0 * m * _sharp_kernel(m, kappa, t)


def gronwall_identity_residual(m: float, kappa: float, c0: float, t_max: float) -> float:
    """Max residual of v(t) = m c0 (1-e^{-t/m}) + 2k int_0^t v(s)(1-e^{-(t-s)/m}) ds.

    The integral is evaluated by composite 16-point Gauss-Legendre quadrature
    on panels at most m/2 wide, independent of the closed form being verified.
    """
    from numpy.polynomial.legendre import leggauss  # only this self-check loads it

    x, w = leggauss(16)
    worst = 0.0
    for t in np.linspace(0.0, t_max, 33)[1:]:
        edges = np.linspace(0.0, t, math.ceil(2.0 * t / m) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        s = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        val = float((half * w * gronwall_v(m, kappa, c0, s) * -np.expm1(-(t - s) / m)).sum())
        resid = abs(
            float(gronwall_v(m, kappa, c0, t))
            - m * c0 * (1.0 - math.exp(-t / m))
            - 2.0 * kappa * val
        )
        worst = max(worst, resid)
    return worst


def faa_di_bruno_mass(n: int, alpha: Fraction | int) -> Fraction:
    """Exact partition sum  sum over (m_1..m_n), sum l*m_l = n, of
    prod alpha^{m_l} / (m_l! l^{m_l}), by exhaustive enumeration in rationals.

    Equals the rising-factorial binomial alpha(alpha+1)...(alpha+n-1)/n!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 20:
        raise ValueError("enumeration budget is n <= 20")
    a = Fraction(alpha)
    total = Fraction(0)

    def rec(l: int, remaining: int, partial: Fraction):
        nonlocal total
        if remaining == 0:
            total += partial
            return
        if l > remaining:
            return
        max_m = remaining // l
        for m_l in range(0, max_m + 1):
            factor = (a**m_l) / (
                Fraction(math.factorial(m_l)) * Fraction(l) ** m_l
            )
            rec(l + 1, remaining - l * m_l, partial * factor)

    rec(1, n, Fraction(1))
    return total


def rising_binomial(n: int, alpha: Fraction | int) -> Fraction:
    """alpha(alpha+1)...(alpha+n-1)/n!, the independent closed form."""
    a = Fraction(alpha)
    num = Fraction(1)
    for k in range(n):
        num *= a + k
    return num / Fraction(math.factorial(n))


def _jet_suite_checks(
    params: SystemParams,
    jets_m: dict[float, "np.ndarray"],
    jets_0: dict[float, "np.ndarray"],
    init: PhaseState,
    n_max: int,
    slack: float,
) -> list[BoundCheck]:
    """Derivative magnitude/spread bounds against measured jets.

    jets_m/jets_0 map time -> (n_max+1, n) matrices of raw derivatives of the
    inertial and first-order solutions.
    """
    m, kappa, om0, nu = _data(params, init)
    d_sum = diameter(om0) + diameter(nu)
    a_first = diameter(nu) + 2.0 * kappa
    a_layer = 2.0 * kappa + d_sum + 9.0 / (8.0 * m)
    a_tail = 2.0 * kappa + diameter(nu)

    times = np.array(sorted(jets_m.keys()))
    checks: list[BoundCheck] = []

    def spread(vec: np.ndarray) -> float:
        return float(vec.max() - vec.min())

    for n in range(1, n_max + 1):
        meas_abs0, meas_rel0, meas_relm = [], [], []
        bnd_abs0, bnd_rel0, bnd_relm, bnd_sum = [], [], [], []
        meas_summ = []
        for t in times:
            e = math.exp(-t / m)
            layer = (1.0 + t / m) ** n * e
            meas_abs0.append(float(np.abs(jets_0[t][n]).max()))
            meas_rel0.append(spread(jets_0[t][n]))
            meas_relm.append(spread(jets_m[t][n]))
            bnd_abs0.append(kappa * _fact(n - 1) * a_first ** (n - 1))
            bnd_rel0.append(_fact(n - 1) * a_first**n)
            bnd_relm.append(
                _fact(n - 1) * (a_layer**n * layer + a_tail**n * (1.0 - e))
            )
            meas_summ.append(max(spread(jets_m[t][n]), spread(jets_0[t][n])))
            bnd_sum.append(_fact(n - 1) * a_layer**n * (1.0 + t / m) ** n)
        if n >= 2:
            checks.append(
                BoundCheck(f"first_order_abs_n{n}", times, meas_abs0, bnd_abs0, slack)
            )
        checks.append(BoundCheck(f"first_order_rel_n{n}", times, meas_rel0, bnd_rel0, slack))
        checks.append(BoundCheck(f"inertial_rel_n{n}", times, meas_relm, bnd_relm, slack))
        checks.append(BoundCheck(f"combined_rel_n{n}", times, meas_summ, bnd_sum, slack))

    # initial-time bounds (computed from the exact initial state)
    jet0 = taylor_jet(params, init, n_max)
    t0 = np.zeros(1)
    for n in range(1, n_max + 1):
        b_rel = 2.0 * _fact(n - 1) * (kappa + d_sum / 2.0 + 9.0 / (16.0 * m)) ** n
        b_abs = (
            _fact(n - 1)
            * (kappa + np.abs(om0).max() + np.abs(nu).max() + 9.0 / (16.0 * m)) ** n
        )
        checks.append(
            BoundCheck(f"initial_rel_n{n}", t0, [spread(jet0.coeffs[n])], [b_rel], slack)
        )
        checks.append(
            BoundCheck(
                f"initial_abs_n{n}", t0, [float(np.abs(jet0.coeffs[n]).max())], [b_abs], slack
            )
        )
    return checks


def derivative_bound_suite(
    params: SystemParams,
    init: PhaseState,
    n_max: int,
    times: Sequence[float],
    *,
    tol: float = 1e-9,
) -> list[BoundCheck]:
    """Measure jets of both systems at the given times and check all
    derivative bounds (first-order, initial-time, time-dependent, combined).
    """
    horizon = max(times) * 1.01 if times else 1.0
    traj_m = integrate(params, init, horizon, tol)
    params0 = SystemParams(params.n, 0.0, params.coupling_kappa, params.nat_freq)
    traj_0 = integrate(params0, init, horizon, tol)

    jets_m, jets_0 = {}, {}
    for t in times:
        jets_m[t] = taylor_jet(params, traj_m.state_at_time(t), n_max).coeffs
        jets_0[t] = taylor_jet(params0, traj_0.state_at_time(t), n_max).coeffs
    return _jet_suite_checks(params, jets_m, jets_0, init, n_max, SLACK_FACTOR * tol)


def compare_trajectories(
    params_base: SystemParams,
    init: PhaseState,
    m_list: Sequence[float],
    horizon: float,
    n_max: int = 5,
    *,
    tol: float = 1e-9,
    strict: bool = False,
) -> dict:
    """Integrate the zero-inertia solution once and one inertial run per m,
    then certify every phase/velocity/derivative gap bound.

    Gaps are read on both runs' cells (`model.read_cells`), jets taken at
    t = 0.5, 1, 2; the velocity bounds c1_abs and c1_rel skip the initial
    layer t < 5m, and `strict` adds them over all times as c1_abs_full and c1_rel_full.

    Returns a dict with per-m BoundCheck lists, measured sup phase gaps, and
    the consecutive sup-gap ratios used for the linear-in-m verdict; a ratio
    over a sup gap of 0 is a ValueError.
    """
    if len(m_list) == 0 or min(m_list) <= 0 or any(a <= b for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be nonempty, positive and strictly descending")
    slack = SLACK_FACTOR * tol

    params0 = SystemParams(params_base.n, 0.0, params_base.coupling_kappa, params_base.nat_freq)
    traj0 = integrate(params0, init, horizon, tol)
    jt = [t for t in (0.5, 1.0, 2.0) if t <= horizon]
    jets_0 = {t: taylor_jet(params0, traj0.state_at_time(t), n_max).coeffs for t in jt}

    result: dict = {"checks": {}, "sup_gap": {}, "trajectories": {}}
    for m in m_list:
        params_m = SystemParams(params_base.n, m, params_base.coupling_kappa, params_base.nat_freq)
        traj_m = integrate(params_m, init, horizon, tol)
        ts, (th0, om0_t, th_m, om_m) = _model.read_cells(params_m, [traj0, traj_m], 0.0, horizon)

        gap = th_m - th0
        gap_abs = np.abs(gap).max(axis=1)
        gap_rel = gap.max(axis=1) - gap.min(axis=1)
        vgap = om_m - om0_t
        vgap_abs = np.abs(vgap).max(axis=1)
        vgap_rel = vgap.max(axis=1) - vgap.min(axis=1)

        plain_abs, plain_rel = bound_c0_abs(params_m, init, ts), bound_c0_rel(params_m, init, ts)
        sharp_abs, sharp_rel = bound_c0_sharp(params_m, init, ts)
        c1_abs, c1_rel = bound_c1_abs(params_m, init, ts), bound_c1_rel(params_m, init, ts)
        mask = ts >= 5.0 * m
        checks = [
            BoundCheck("c0_abs", ts, gap_abs, plain_abs, slack),
            BoundCheck("c0_rel", ts, gap_rel, plain_rel, slack),
            BoundCheck("c0_abs_sharp", ts, gap_abs, sharp_abs, slack),
            BoundCheck("c0_rel_sharp", ts, gap_rel, sharp_rel, slack),
            BoundCheck(
                "sharp_below_plain",
                np.concatenate([ts, ts]),
                np.concatenate([sharp_abs, sharp_rel]),
                np.concatenate([plain_abs, plain_rel]),
                1e-12,
            ),
            BoundCheck("c1_abs", ts[mask], vgap_abs[mask], c1_abs[mask], slack),
            BoundCheck("c1_rel", ts[mask], vgap_rel[mask], c1_rel[mask], slack),
        ]
        if strict:
            checks.append(BoundCheck("c1_abs_full", ts, vgap_abs, c1_abs, slack))
            checks.append(BoundCheck("c1_rel_full", ts, vgap_rel, c1_rel, slack))

        jets_m = {t: taylor_jet(params_m, traj_m.state_at_time(t), n_max).coeffs for t in jt}
        for t in jt:
            for n in range(2, n_max + 1):
                dvec = jets_m[t][n] - jets_0[t][n]
                meas_abs = float(np.abs(dvec).max())
                meas_rel = float(dvec.max() - dvec.min())
                b_abs, b_rel = bound_cn(params_m, init, n, t)
                checks.append(
                    BoundCheck(f"cn_abs_n{n}_t{t:g}", [t], [meas_abs], [float(b_abs)], slack)
                )
                checks.append(
                    BoundCheck(f"cn_rel_n{n}_t{t:g}", [t], [meas_rel], [float(b_rel)], slack)
                )
                checks.append(
                    BoundCheck(
                        f"coarse_cn_n{n}_t{t:g}",
                        [t],
                        [meas_abs],
                        [float(bound_thm13_cn(params_m, init, n, t))],
                        slack,
                    )
                )
        checks.extend(_jet_suite_checks(params_m, jets_m, jets_0, init, n_max, slack))

        aut = ts > 0
        measured = approxaut_measured(params_m, init.omega, ts[aut], th_m[aut], om_m[aut])
        checks.append(BoundCheck("autonomous_approximant", ts[aut], measured,
                                 approxaut_bound(params_m, init, ts[aut]), slack))
        checks.extend(propagation_bounds_check(traj_m, slack=slack))

        result["checks"][m] = checks
        result["sup_gap"][m] = float(gap_abs.max())
        result["trajectories"][m] = traj_m

    sups = [result["sup_gap"][m] for m in m_list]
    if 0.0 in sups[:-1]:
        m = m_list[sups.index(0.0)]
        raise ValueError(f"the sup phase gap at m = {m:g} is 0: the linear-in-m ratio is undefined")
    result["ratios"] = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    return result
