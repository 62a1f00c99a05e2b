"""Velocity reconstruction, determinability threshold, collision construction."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from synclab import model, reconstruct
from synclab.cli import parse_and_dispatch
from synclab.integrate import Trajectory, _relax_cells, integrate
from synclab.model import PhaseState, SystemParams, coupling_term
from synclab.reconstruct import (
    contraction_horizon,
    contraction_map,
    counterexample_bipolar,
    determinability_threshold,
    first_relative_zero,
    lipschitz_constant,
    pendulum_relative,
    reconstruct_velocity,
    sturm_picone_monitor,
    sturm_picone_tstar,
)


def test_lipschitz_and_horizon_values():
    assert lipschitz_constant(1.0, 0.5, 0.0) == 0.0
    assert lipschitz_constant(1.0, 0.5, 0.5) == pytest.approx(0.5)
    assert lipschitz_constant(1.0, 2.0, 1.0) == pytest.approx(0.5)
    assert contraction_horizon(1.0, 1.0) == pytest.approx(1.0)
    assert contraction_horizon(2.0, 0.02) == pytest.approx(0.25)
    # branch continuity at m = 1/(4 kappa)
    assert contraction_horizon(1.0, 0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        lipschitz_constant(-1.0, 0.5, 0.5)


def test_determinability_threshold_values():
    assert determinability_threshold(0.5, 1.0) == pytest.approx(1.5 * math.pi, rel=1e-12)
    assert determinability_threshold(1.0, 1.0) == pytest.approx(
        4 * math.pi / (3 * math.sqrt(3)), rel=1e-12
    )
    assert determinability_threshold(0.25, 1.0) == math.inf
    assert determinability_threshold(1.0, 0.1) == math.inf
    # divergence just past the critical product
    m = 1.0
    assert determinability_threshold(0.25 + 1e-6, m) > 1e3 * m
    with pytest.raises(ValueError):
        determinability_threshold(0.0, 1.0)


def test_sturm_picone_tstar_matches_determinability():
    assert sturm_picone_tstar(1.0, 1.0, 1.0) == pytest.approx(
        determinability_threshold(1.0, 1.0)
    )
    assert sturm_picone_tstar(0.2, 1.0, 1.0) == math.inf
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sturm_picone_tstar(1.0, bad, 1.0)


def _sup_omega_gap(a, b, t0):
    ts = np.linspace(0.0, t0, 2001)
    return float(np.abs(a.eval_many(ts)[1] - b.eval_many(ts)[1]).max())


def test_contraction_map_single_oscillator_exact():
    # self-coupling vanishes: one application lands on the closed form
    m, kappa, nu, w0 = 0.3, 1.0, 0.6, 1.4
    params = SystemParams(1, m, kappa, [nu])
    t0 = 0.4
    grid = np.linspace(0.0, t0, 9)
    zeros = np.zeros((9, 1))
    cells = Trajectory(params, grid, zeros, zeros, 1e-10, "exp", None, np.diff(grid),
                       np.zeros((8, 7, 1)))
    coefs = np.random.default_rng(0).normal(0.0, 3.0, (8, 7, 1))
    garbage = _relax_cells(cells, coefs, np.array([-2.0]), np.array([2.2]))
    out = contraction_map(params, np.array([w0]), np.array([2.2]), garbage)
    t = np.linspace(0.0, t0, 2001)
    exact = w0 * np.exp(-t / m) + nu * (1 - np.exp(-t / m))
    assert np.abs(out.eval_many(t)[1][:, 0] - exact).max() < 1e-14
    # the map pins the initial value, and its theta ends at theta*
    assert out.omega_grid[0, 0] == pytest.approx(w0, abs=1e-15)
    assert out.theta_grid[-1, 0] == pytest.approx(2.2, abs=1e-15)


def test_contraction_map_fixed_point_on_true_solution():
    rng = np.random.default_rng(11)
    n = 4
    nu = rng.normal(0, 0.2, n)
    nu -= nu.mean()
    params = SystemParams(n, 0.2, 1.0, nu)
    theta0 = rng.uniform(0, 2 * np.pi, n)
    omega0 = nu + rng.normal(0, 0.3, n)
    t0 = 0.4
    traj = integrate(params, PhaseState(0.0, theta0, omega0), t0, 1e-11)
    out = contraction_map(params, omega0, traj.theta_grid[-1], traj)
    assert _sup_omega_gap(traj, out, t0) < 1e-8


def test_contraction_map_lipschitz_on_random_pairs():
    params = SystemParams(4, 0.2, 1.0, [0.1, 0.05, -0.05, -0.1])
    t0 = 0.4
    om0 = np.array([0.3, 0.1, -0.1, -0.3])
    th_star = np.array([0.5, 1.0, 1.5, 2.0])
    cells = integrate(params, PhaseState(0.0, th_star - om0 * t0, om0), t0, 1e-10)
    shape = cells._coefs.shape
    lip = lipschitz_constant(1.0, 0.2, t0)
    for k in range(20):
        rng = np.random.default_rng(k)
        c1 = rng.normal(0, 1, shape)
        w1 = _relax_cells(cells, c1, om0, th_star)
        w2 = _relax_cells(cells, c1 + rng.normal(0, 0.5, shape), om0, th_star)
        num = _sup_omega_gap(
            contraction_map(params, om0, th_star, w1), contraction_map(params, om0, th_star, w2), t0
        )
        assert num <= (lip + 0.05) * _sup_omega_gap(w1, w2, t0)


def _round_trip(m, tol):
    rng = np.random.default_rng(11)
    n = 4
    nu = rng.normal(0, 0.2, n)
    nu -= nu.mean()
    params = SystemParams(n, m, 1.0, nu)
    theta0 = rng.uniform(0, 2 * np.pi, n)
    omega0 = nu + rng.normal(0, 0.3, n)
    t0 = 0.4
    traj = integrate(params, PhaseState(0.0, theta0, omega0), t0, 1e-11)
    t_start = time.perf_counter()
    res = reconstruct_velocity(params, omega0, traj.theta_grid[-1], t0, tol=tol)
    wall = time.perf_counter() - t_start
    return res, _sup_omega_gap(res.omega, traj, t0), float(np.abs(res.theta0 - theta0).max()), wall


def test_reconstruct_round_trip():
    res, err_omega, err_theta0, _ = _round_trip(0.2, 1e-10)
    assert err_omega < 1e-8
    assert err_theta0 < 1e-7
    assert res.empirical_contraction <= lipschitz_constant(1.0, 0.2, 0.4) + 0.05
    assert res.omega.duhamel_sup <= 50 * 1e-10
    assert err_omega <= res.error_bound


def test_reconstruct_small_inertia_is_cheap_and_bounded():
    # the cells follow the dynamics, not t0/m: a uniform grid resolving m
    # would take 20 t0/m = 80,000 steps here
    res, err_omega, err_theta0, wall = _round_trip(1e-4, 1e-9)
    assert wall < 0.1
    assert len(res.omega.grid) < 50
    assert err_omega <= res.error_bound < 1e-7
    assert err_theta0 < 1e-8


def test_reconstruct_single_oscillator_fast():
    params = SystemParams(1, 0.3, 1.0, [0.5])
    res = reconstruct_velocity(params, np.array([1.0]), np.array([0.9]), 0.4, tol=1e-10)
    assert res.iterations <= 2


def test_reconstruct_horizon_guard():
    params = SystemParams(2, 0.2, 1.0, [0.1, -0.1])
    with pytest.raises(ValueError):
        reconstruct_velocity(params, np.zeros(2), np.zeros(2), 0.6, tol=1e-9)


def test_pendulum_guard_and_monotonicity():
    with pytest.raises(ValueError):
        pendulum_relative(1.0, 1.0, math.pi, 5.0)
    zeros = []
    for eta in (0.2, 0.6, 1.0, 1.4):
        traj = pendulum_relative(1.0, 1.0, eta, 5.0, 1e-10)
        zeros.append(first_relative_zero(traj))
    assert all(a < b for a, b in zip(zeros, zeros[1:]))
    assert all(z > determinability_threshold(1.0, 1.0) for z in zeros)


def test_counterexample_guards():
    with pytest.raises(ValueError):
        counterexample_bipolar(1, 1, 1.0, 1.0, 2.0)  # below the threshold
    with pytest.raises(ValueError):
        counterexample_bipolar(1, 1, 0.2, 1.0, 10.0)  # m*kappa <= 1/4


def test_counterexample_reduction_to_relative_phase():
    n1, n2 = 2, 1
    rep = counterexample_bipolar(n1, n2, 1.0, 1.0, 2.9)
    traj_theta, _ = rep["trajectories"]
    pend = pendulum_relative(1.0, 1.0, rep["eta"], 2.9, 1e-10)
    ts = np.linspace(0.0, 2.9, 30)
    th, _ = traj_theta.eval_many(ts)
    rel = pend.eval_many(ts)[0]
    theta_rel = rel[:, 0] - rel[:, 1]
    n = n1 + n2
    assert np.abs(th[:, 0] - (n2 / n) * theta_rel).max() < 1e-7
    assert np.abs(th[:, -1] + (n1 / n) * theta_rel).max() < 1e-7
    # velocity mismatch carries the two-group pattern: the gap is
    # 2 * (relative rate) * (+n2/N, ..., -n1/N), with opposite group signs
    assert rep["velocity_gap_diameter"] > 0.01
    assert rep["rate_negative"]
    expect_gap = 2.0 * rep["relative_rate_at_t_star"] * rep["pattern"]
    assert np.abs(rep["velocity_gap"] - expect_gap).max() < 1e-7


def _dop853_first_zero(m, kappa, eta, t_max):
    """First zero of m x'' + x' = -kappa sin x, x(0) = eta, x'(0) = 0, by scipy's DOP853."""

    def rhs(_t, y):
        return [y[1], (-y[1] - kappa * math.sin(y[0])) / m]

    def hit(_t, y):
        return y[0]

    hit.terminal = True
    sol = solve_ivp(rhs, (0.0, t_max), [eta, 0.0], method="DOP853", rtol=1e-12, atol=1e-12, events=hit)
    return float(sol.t_events[0][0]) if sol.t_events[0].size else math.inf


def test_counterexample_search_makes_few_short_runs(monkeypatch):
    spans = []
    couplings = []

    def counted(params, init, horizon, tol, **kwargs):
        spans.append(horizon)
        return integrate(params, init, horizon, tol, **kwargs)

    def counted_coupling(params, theta):
        couplings.append(1)
        return coupling_term(params, theta)

    monkeypatch.setattr(reconstruct, "integrate", counted)
    monkeypatch.setattr(model, "coupling_term", counted_coupling)
    rep = counterexample_bipolar(1, 1, 1.0, 1.0, 3.0)
    assert abs(rep["first_zero"] - 3.0) < 1e-8
    assert len(spans) <= 12
    # the runs take about 4,200 coupling calls; many short steps would show
    assert len(couplings) <= 6000
    # the two mirror runs come last; the last search run stops near t* = 3
    assert spans[-2:] == [3.0 * 1.001] * 2
    assert spans[-3] < 1.02 * 3.0


@pytest.mark.parametrize(
    "n1, n2, kappa, m, t_star",
    [
        (1, 1, 1.0, 1.0, 2.5),  # within 0.1 of T* = 2.4184
        (1, 3, 2.0, 0.5, 2.0),
        (1, 1, 0.5, 1.0, 5.0),
        (2, 1, 1.0, 1.0, 8.0),
    ],
)
def test_counterexample_eta_against_dop853(n1, n2, kappa, m, t_star):
    rep = counterexample_bipolar(n1, n2, kappa, m, t_star)
    assert abs(_dop853_first_zero(m, kappa, rep["eta"], 2.0 * t_star) - t_star) < 1e-7
    assert rep["phase_gap_at_t_star"] < 1e-6
    expect_gap = 2.0 * rep["relative_rate_at_t_star"] * rep["pattern"]
    assert np.abs(rep["velocity_gap"] - expect_gap).max() < 1e-7


def test_counterexample_widens_the_bracket_towards_pi():
    # the first zero at eta = pi - 1e-3 is 14.70, so t* = 16 needs a wider bracket
    rep = counterexample_bipolar(1, 1, 1.0, 1.0, 16.0)
    assert abs(rep["first_zero"] - 16.0) < 1e-8
    assert rep["eta"] > math.pi - 1e-3
    assert abs(_dop853_first_zero(1.0, 1.0, rep["eta"], 32.0) - 16.0) < 1e-6
    assert rep["phase_gap_at_t_star"] < 1e-6


def test_counterexample_out_of_reach_is_a_config_error(tmp_path, capsys):
    # the first zero at eta = pi - 1e-6 is 25.87, and the one at the lower end
    # eta = 1e-4 lies about 1.6e-8 above the threshold, so t* = T* + 1e-9 is
    # out of reach below the bracket
    near = determinability_threshold(1.0, 1.0) + 1e-9
    for t_star, match in ((30.0, "out of reach"), (near, "too close to the threshold")):
        with pytest.raises(ValueError, match=match):
            counterexample_bipolar(1, 1, 1.0, 1.0, t_star)
        args = ["determinability", "--out", str(tmp_path)]
        for item in ("inertia_m=1", "coupling_kappa=1", f"t_star={t_star!r}"):
            args += ["--set", item]
        assert parse_and_dispatch(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config:")


def test_monitor_rejects_equal_trajectories():
    params = SystemParams(2, 0.5, 1.0, [0.0, 0.0])
    traj = integrate(params, PhaseState(0.0, [0.4, -0.4], [0.0, 0.0]), 3.0, 1e-9)
    with pytest.raises(ValueError):
        sturm_picone_monitor(traj, traj, 1.0, 0.5)


def test_monitor_requires_equal_initial_velocities():
    params = SystemParams(2, 0.5, 1.0, [0.0, 0.0])
    a = integrate(params, PhaseState(0.0, [0.4, -0.4], [0.0, 0.0]), 3.0, 1e-9)
    b = integrate(params, PhaseState(0.0, [0.5, -0.5], [0.1, -0.1]), 3.0, 1e-9)
    with pytest.raises(ValueError):
        sturm_picone_monitor(a, b, 1.0, 0.5)


def test_monitor_small_inertia_stays_positive():
    # drifting regime (no locking), so the mismatch stays well above noise
    params = SystemParams(2, 0.2, 1.0, [2.0, -2.0])
    a = integrate(params, PhaseState(0.0, [0.7, -0.2], [2.0, -2.0]), 20.0, 1e-9)
    b = integrate(params, PhaseState(0.0, [-0.4, 0.9], [2.0, -2.0]), 20.0, 1e-9)
    out = sturm_picone_monitor(a, b, 1.0, 0.2)
    assert out["tstar"] == math.inf
    assert out["positive_until_tstar"]
    assert out["min_l"] > 1e-3


def test_monitor_curve_does_not_cancel_under_a_phase_offset():
    # b starts 3 rad ahead of a with a 1e-7 twist: the two lock to the same
    # profile, so L falls to 2e-9 while the mean of d stays near 3
    params = SystemParams(3, 0.5, 1.0, [0.3, 0.0, -0.3])
    theta0 = np.array([0.2, 1.1, 2.0])
    omega0 = np.array([0.1, 0.0, -0.1])
    a = integrate(params, PhaseState(0.0, theta0, omega0), 5.0, 1e-10)
    b = integrate(params, PhaseState(0.0, theta0 + 3.0 + np.array([1e-7, 0.0, 0.0]), omega0),
                  5.0, 1e-10)
    out = sturm_picone_monitor(a, b, 1.0, 0.5)
    th_a, _ = a.eval_many(out["times"])
    th_b, _ = b.eval_many(out["times"])
    direct = np.array([
        math.sqrt(sum((da - db) ** 2 for i, da in enumerate(d) for db in d[i + 1 :]))
        for d in th_a - th_b
    ])
    assert np.abs(out["l_values"] - direct).max() < 1e-12
    assert out["min_l"] > 1e-9
    assert out["positive_until_tstar"]
