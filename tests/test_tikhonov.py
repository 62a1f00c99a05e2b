"""Closed-form bound evaluators and their certification machinery."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from synclab import model
from synclab.integrate import integrate
from synclab.model import PhaseState, SystemParams
from synclab.tikhonov import (
    BoundCheck,
    approxaut_bound,
    approxaut_measured,
    bound_c0_abs,
    bound_c0_rel,
    bound_c0_sharp,
    bound_c1_abs,
    bound_cn,
    bound_thm13_cn,
    compare_trajectories,
    faa_di_bruno_mass,
    gronwall_identity_residual,
    gronwall_v,
    propagation_bounds_check,
    rising_binomial,
)


def _single(m=0.1, kappa=1.0, nu=0.0, omega0=1.0):
    return SystemParams(1, m, kappa, [nu]), PhaseState(0.0, [0.0], [omega0])


def test_bound_c0_abs_values():
    p, s = _single()
    assert float(bound_c0_abs(p, s, 0.0)) == pytest.approx(0.2)
    # zero deviation data leaves only the coupling growth term
    p2 = SystemParams(2, 0.2, 1.5, [0.4, -0.4])
    s2 = PhaseState(0.0, [0.0, 1.0], [0.4, -0.4])
    t = 0.7
    assert float(bound_c0_abs(p2, s2, t)) == pytest.approx(
        0.2 * 1.5 * math.exp(2 * 1.5 * t)
    )


def test_bound_c0_rel_form_and_monotonicity():
    p2 = SystemParams(2, 0.2, 1.5, [0.4, -0.4])
    s2 = PhaseState(0.0, [0.0, 1.0], [0.4, -0.4])
    assert float(bound_c0_rel(p2, s2, 0.0)) == pytest.approx(0.2 * (0.0 + 3.0))
    ts = np.linspace(0.0, 2.0, 40)
    vals = bound_c0_rel(p2, s2, ts)
    assert np.all(np.diff(vals) > 0)
    vals_abs = bound_c0_abs(p2, s2, ts)
    assert np.all(np.diff(vals_abs) > 0)


def test_bound_c1_abs_at_zero():
    # omega0 = nu and D(nu) = 0 collapse the bound to kappa + 4 m kappa^2
    m, kappa = 0.25, 1.3
    p = SystemParams(2, m, kappa, [0.6, 0.6])
    s = PhaseState(0.0, [0.0, 1.0], [0.6, 0.6])
    assert float(bound_c1_abs(p, s, 0.0)) == pytest.approx(kappa + 4 * m * kappa**2)


def test_bound_c1_rel_structure():
    from synclab.tikhonov import bound_c1_rel

    m, kappa, t = 0.2, 1.1, 0.6
    p = SystemParams(2, m, kappa, [0.3, -0.1])
    s = PhaseState(0.0, [0.0, 1.0], [0.7, 0.1])
    dev = np.array([0.7 - 0.3, 0.1 + 0.1])
    d_dev = float(dev.max() - dev.min())
    expect = (
        (d_dev + 2 * kappa) * math.exp(-t / m)
        + 2 * m * kappa * (0.4 + 2 * kappa)
        + 2 * m * kappa * (d_dev + 2 * kappa) * math.exp(2 * kappa * t)
    )
    assert float(bound_c1_rel(p, s, t)) == pytest.approx(expect, rel=1e-13)


def test_single_oscillator_gaps_below_bounds():
    m, kappa, nu, w0 = 0.1, 1.0, 0.3, 1.3
    p, s = _single(m, kappa, nu, w0)
    ts = np.linspace(0.0, 2.0, 50)
    # closed forms: theta(m,t)-theta(0,t) = m (w0-nu)(1-e^{-t/m}); velocity gap decays
    gap_th = m * (w0 - nu) * (1.0 - np.exp(-ts / m))
    gap_om = (w0 - nu) * np.exp(-ts / m)
    assert np.all(np.abs(gap_th) < bound_c0_abs(p, s, ts))
    assert np.all(np.abs(gap_om) < bound_c1_abs(p, s, ts))
    sharp_abs, _ = bound_c0_sharp(p, s, ts)
    assert np.all(np.abs(gap_th) <= sharp_abs + 1e-15)


def test_sharp_bounds_below_plain():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = float(rng.uniform(0.01, 1.0))
        kappa = float(rng.uniform(0.2, 2.0))
        p = SystemParams(n, m, kappa, rng.normal(0, 1, n))
        s = PhaseState(0.0, rng.uniform(0, 2 * np.pi, n), rng.normal(0, 1, n))
        ts = np.linspace(0.0, 3.0, 31)
        sharp_abs, sharp_rel = bound_c0_sharp(p, s, ts)
        assert np.all(sharp_abs <= bound_c0_abs(p, s, ts) + 1e-12)
        assert np.all(sharp_rel <= bound_c0_rel(p, s, ts) + 1e-12)
    # the relative sharp form vanishes at t = 0 and as m -> 0 at fixed t
    p, s = _single()
    assert float(bound_c0_sharp(p, s, 0.0)[1]) == 0.0
    p_small, s_small = _single(m=1e-9)
    assert float(bound_c0_sharp(p_small, s_small, 1.0)[1]) < 1e-6


def test_bound_cn_guard_and_cross_check():
    p = SystemParams(2, 0.25, 1.0, [0.3, -0.3])
    s = PhaseState(0.0, [0.0, 1.0], [0.5, -0.5])
    with pytest.raises(ValueError):
        bound_cn(p, s, 1, 0.5)
    with pytest.raises(ValueError):
        bound_cn(p, s, 21, 0.5)

    # independent recomputation with exact rational coefficient arithmetic
    m, kappa, t, n = 0.25, 1.0, 0.5, 4
    fm, fk, ft = Fraction(m), Fraction(kappa), Fraction(t)
    om = [Fraction(1, 2), Fraction(-1, 2)]
    nu = [Fraction(3, 10), Fraction(-3, 10)]
    d_om, d_nu = om[0] - om[1], nu[0] - nu[1]
    a1 = 2 * fk + max(abs(v) for v in om) + max(abs(v) for v in nu) + Fraction(9) / (8 * fm)
    a2 = 2 * fk + d_om + d_nu + Fraction(9) / (8 * fm)
    a3 = 2 * fk + d_om + d_nu
    layer = float((1 + ft / fm) ** n) * math.exp(-t / m)
    grow = math.exp(2 * kappa * t)
    tail = 1.0 - math.exp(-t / m)
    expect_abs = (
        math.factorial(n - 1) * float(a1**n) * layer
        + float(Fraction(9, 8) * fm * fk) * math.factorial(n) * grow * float(a2**n) * layer
        + float(Fraction(3, 4) * fm * fk) * math.factorial(n + 1) * grow * float(a3**n) * tail
    )
    got_abs, _ = bound_cn(p, s, n, t)
    assert float(got_abs) == pytest.approx(expect_abs, rel=1e-12)
    assert float(got_abs) > 0.0 and math.isfinite(float(got_abs))


def test_bound_cn_large_time_behavior():
    p = SystemParams(2, 0.25, 1.0, [0.3, -0.3])
    s = PhaseState(0.0, [0.0, 1.0], [0.5, -0.5])
    # at large t only the e^{2kt} tail survives; doubling t squares the growth factor
    a3 = 2 * 1.0 + 1.0 + 0.6
    b1, _ = bound_cn(p, s, 2, 8.0)
    expect = 0.75 * 0.25 * 1.0 * math.factorial(3) * math.exp(2 * 8.0) * a3**2
    assert float(b1) == pytest.approx(expect, rel=1e-8)


def test_bound_thm13_value():
    m, kappa = 0.5, 1.0
    p = SystemParams(2, m, kappa, [0.3, -0.3])
    s = PhaseState(0.0, [0.0, 1.0], [0.5, -0.5])
    base = kappa + 0.5 + 0.3 + 1.0 / m
    expect = math.factorial(2) * 2.0 * base * ((1.0) * 1.0 * (1 + m * kappa) + m * kappa)
    assert float(bound_thm13_cn(p, s, 1, 0.0)) == pytest.approx(expect, rel=1e-13)
    with pytest.raises(ValueError):
        bound_thm13_cn(p, s, 0, 1.0)


def test_approxaut_bound_limits_and_measurement():
    m, kappa = 0.2, 1.0
    p = SystemParams(3, m, kappa, [0.2, 0.0, -0.2])
    s = PhaseState(0.0, [0.0, 1.0, 2.0], [0.4, 0.0, -0.4])
    assert float(approxaut_bound(p, s, 0.0)) == 0.0
    # long-time limit: m k (D(nu) + 2k)
    assert float(approxaut_bound(p, s, 1e6 * m)) == pytest.approx(m * kappa * (0.4 + 2.0))
    traj = integrate(p, s, 3.0, 1e-10)
    ts = np.linspace(0.05, 3.0, 60)
    measured = approxaut_measured(p, s.omega, ts, *traj.eval_many(ts))
    assert np.all(measured <= approxaut_bound(p, s, ts) + 5e-9)


def test_the_comparison_reads_the_initial_layer():
    # the walk's layer nodes m/10 * 2^j read inside (0, m/5]; an even
    # 601-point read over horizon 3 would read first at 0.005 > 0.0125/5
    rng = np.random.default_rng(5)
    nu = rng.normal(0.0, 0.3, 3)
    init = PhaseState(0.0, rng.uniform(0.0, 2 * np.pi, 3), nu + rng.normal(0.0, 0.3, 3))
    res = compare_trajectories(SystemParams(3, 0.0, 1.0, nu), init, [0.05, 0.0125], 3.0, n_max=2)
    for m, checks in res["checks"].items():
        for c in checks:
            if c.name in ("c0_abs", "autonomous_approximant"):
                assert np.any((0.0 < c.times) & (c.times <= m / 5)), (m, c.name)


def test_gronwall_closed_form():
    assert float(gronwall_v(0.3, 1.0, 3.0, 0.0)) == 0.0
    h = 1e-8
    slope = (float(gronwall_v(0.3, 1.0, 3.0, h))) / h
    assert slope == pytest.approx(3.0, rel=1e-6)
    resid = gronwall_identity_residual(0.3, 1.0, 3.0, 5.0)
    assert resid < 1e-8


def test_faa_di_bruno_exact_values():
    for n in range(1, 9):
        assert faa_di_bruno_mass(n, 1) == Fraction(1)
        assert faa_di_bruno_mass(n, 2) == Fraction(n + 1)
    assert faa_di_bruno_mass(3, 3) == Fraction(10)
    with pytest.raises(ValueError):
        faa_di_bruno_mass(21, 1)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1, 2, 3, Fraction(7, 3)])
def test_faa_di_bruno_matches_rising_binomial(alpha):
    for n in range(1, 13):
        assert faa_di_bruno_mass(n, alpha) == rising_binomial(n, alpha)


def test_weighted_power_inequality():
    # (p a^n + (1-p) b^n)(p a^m + (1-p) b^m) <= p a^(n+m) + (1-p) b^(n+m)
    rng = np.random.default_rng(9)
    for _ in range(200):
        pr = rng.uniform()
        a, b = rng.uniform(0, 5, 2)
        n, mm = rng.integers(0, 6, 2)
        lhs = (pr * a**n + (1 - pr) * b**n) * (pr * a**mm + (1 - pr) * b**mm)
        rhs = pr * a ** (n + mm) + (1 - pr) * b ** (n + mm)
        assert lhs <= rhs + 1e-12


def test_product_difference_inequality():
    # |prod a - prod b| <= (sum eps) prod c + (sum delta) prod d under the
    # majorization hypotheses
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.uniform(0, 2, n)
        b = rng.uniform(0, 2, n)
        c = np.maximum(a, b) * rng.uniform(1.0, 1.5, n)
        d = np.maximum(a, b) * rng.uniform(1.0, 1.5, n)
        eps = np.abs(a - b) / (2 * c)
        delta = np.abs(a - b) / (2 * d)
        lhs = abs(np.prod(a) - np.prod(b))
        rhs = eps.sum() * np.prod(c) + delta.sum() * np.prod(d)
        assert lhs <= rhs + 1e-12


def test_bound_check_bookkeeping():
    chk = BoundCheck("demo", [0.0, 1.0], [0.5, 0.4], [1.0, 0.5], 1e-9)
    assert chk.passed
    assert chk.min_margin == pytest.approx(0.1)
    bad = BoundCheck("demo", [0.0], [2.0], [1.0], 1e-9)
    assert not bad.passed
    with pytest.raises(ValueError):
        BoundCheck("demo", [0.0, 1.0], [0.0], [0.0, 0.0], 1e-9)


def test_propagation_check_flags_corruption(sweep_result):
    traj = sweep_result["trajectories"][0.1]

    def shift(ts):
        return 3.0 * (1.0 - np.exp(-np.asarray(ts) / 0.1))[:, None]

    class Corrupted:
        params = traj.params
        tol = traj.tol
        grid = traj.grid
        horizon = traj.horizon
        theta_grid = traj.theta_grid
        omega_grid = traj.omega_grid + shift(traj.grid)

        @staticmethod
        def eval_many(ts, cells=None):
            th, om = traj.eval_many(ts)
            return th, om + shift(ts)

    checks = propagation_bounds_check(Corrupted())
    assert not all(c.passed for c in checks)


class _RelaxingOscillators:
    """n uncoupled oscillators, each relaxing to its own frequency, on an even grid."""

    def __init__(self, n, m, horizon, cells):
        rng = np.random.default_rng(3)
        self.params = SystemParams(n, m, 1.0, rng.normal(0.0, 0.3, n))
        self.omega0 = rng.normal(0.0, 0.5, n)
        self.grid = np.linspace(0.0, horizon, cells + 1)
        self.horizon, self.tol = horizon, 1e-9

    def eval_many(self, ts, cells=None):
        ts = np.asarray(ts, dtype=float)[:, None]
        e = np.exp(-ts / self.params.inertia_m)
        nu, gap = self.params.nat_freq, self.omega0 - self.params.nat_freq
        return nu * ts + self.params.inertia_m * gap * (1.0 - e), nu + gap * e


def test_pairwise_speed_check_memory_is_bounded():
    # about 4000 samples at n = 128, 26 in each of 170 cells: one (Q, n, n)
    # float array over them takes 500 MiB
    traj = _RelaxingOscillators(128, 0.1, 10.0, 170)
    tracemalloc.start()
    try:
        checks = propagation_bounds_check(traj)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert [c.name for c in checks][2] == "speed_pairwise"
    assert len(checks[2].times) > 4000
    assert all(c.passed for c in checks)
    assert peak < 40.0, peak


def test_pairwise_speed_check_is_chunk_invariant(sweep_result, monkeypatch):
    traj = sweep_result["trajectories"][0.1]
    default = propagation_bounds_check(traj)
    monkeypatch.setattr(model, "_CHUNK_ENTRIES", 3 * traj.params.n**2)
    chunked = propagation_bounds_check(traj)
    for a, b in zip(default, chunked):
        assert a.name == b.name
        assert np.array_equal(a.measured, b.measured)
        assert np.array_equal(a.bound, b.bound)
