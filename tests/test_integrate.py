"""Integrator accuracy, dense output, Taylor jets, and event location."""

from __future__ import annotations

import importlib
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from synclab import model
from synclab._kernels import relaxation_weights
from synclab.experiments import ScenarioConfig, _sync_scenario
from synclab.integrate import (
    MAX_JET_ORDER,
    IntegrationError,
    _regula_falsi,
    first_zero,
    integrate,
    taylor_jet,
)
from synclab.model import PhaseState, SystemParams, rhs_first_order
from synclab.tikhonov import propagation_bounds_check

from pairwise_oracles import pairwise_coupling, pairwise_taylor_jet

# The package attribute `synclab.integrate` is the function; this is the module.
_integrate_module = importlib.import_module("synclab.integrate")


def single_oscillator_solution(m, nu, theta0, omega0, t):
    theta = theta0 + nu * t + m * (omega0 - nu) * (1.0 - math.exp(-t / m))
    omega = nu + (omega0 - nu) * math.exp(-t / m)
    return theta, omega


def test_single_oscillator_closed_form():
    p = SystemParams(1, 0.1, 1.0, [1.0])
    tol = 1e-10
    traj = integrate(p, PhaseState(0.0, [0.0], [2.0]), 2.0, tol)
    for t in (0.02, 0.15, 0.8, 2.0):
        st = traj.state_at_time(t)
        th, om = single_oscillator_solution(0.1, 1.0, 0.0, 2.0, t)
        assert st.theta[0] == pytest.approx(th, abs=tol)
        assert st.omega[0] == pytest.approx(om, abs=10 * tol)


def test_identical_pair_stays_identical():
    p = SystemParams(2, 0.3, 1.0, [0.5, 0.5])
    traj = integrate(p, PhaseState(0.0, [1.2, 1.2], [0.7, 0.7]), 5.0, 1e-10)
    assert np.abs(traj.theta_grid[:, 0] - traj.theta_grid[:, 1]).max() < 1e-12


def test_first_order_pair_diameter_contracts():
    p = SystemParams(2, 0.0, 1.0, [0.0, 0.0])
    traj = integrate(p, PhaseState(0.0, [0.0, math.pi - 0.1], [0.0, 0.0]), 12.0, 1e-9)
    d = traj.theta_grid[:, 1] - traj.theta_grid[:, 0]
    assert np.all(np.diff(d) < 1e-12)
    assert d[-1] < 1e-3


def test_dense_eval_trivials():
    p = SystemParams(2, 0.2, 1.0, [0.1, -0.1])
    init = PhaseState(0.0, [0.4, 1.0], [0.2, 0.0])
    traj = integrate(p, init, 1.0, 1e-9)
    st0 = traj.state_at_time(0.0)
    assert np.array_equal(st0.theta, init.theta)
    k = len(traj.grid) // 2
    st = traj.state_at_time(float(traj.grid[k]))
    assert np.abs(st.theta - traj.theta_grid[k]).max() < 1e-12
    assert np.abs(st.omega - traj.omega_grid[k]).max() < 1e-12
    with pytest.raises(ValueError):
        traj.state_at_time(1.5)


def test_dense_eval_linear_drift_midpoint():
    p = SystemParams(1, 0.0, 1.0, [0.7])
    traj = integrate(p, PhaseState(0.0, [0.2], [0.0]), 1.0, 1e-10)
    st = traj.state_at_time(0.5)
    assert st.theta[0] == pytest.approx(0.2 + 0.7 * 0.5, abs=1e-12)
    assert st.omega[0] == pytest.approx(0.7, abs=1e-12)


def test_integrate_validation(monkeypatch):
    p = SystemParams(1, 0.1, 1.0, [0.0])
    init = PhaseState(0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        integrate(p, init, -1.0, 1e-9)
    with pytest.raises(ValueError):
        integrate(p, init, 1.0, 1e-2)
    with pytest.raises(ValueError):
        integrate(p, init, 1.0, 1e-14)
    # the budget needs a system that moves: a still one is done in one step
    moving = SystemParams(2, 0.1, 1.0, [0.5, -0.5])
    monkeypatch.setattr(_integrate_module, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError):
        integrate(moving, PhaseState(0.0, [0.0, 1.0], [1.0, -1.0]), 10.0, 1e-9)


def test_nan_residual_fails_certification(monkeypatch):
    # a NaN residual compares False with the gate; the NaN is driven through
    # it on clean runs inside and past the O(m) layer
    def nan_rows(params, traj, *_):
        return np.full((len(traj.grid), params.n), np.nan)

    init = PhaseState(0.0, [0.0, 1.0], [0.0, 0.0])
    runs = [SystemParams(2, 5e-5, 1.0, [0.5, -0.5]), SystemParams(2, 0.01, 1.0, [0.5, -0.5])]
    assert [integrate(params, init, 1.0, 1e-8).method for params in runs] == ["exp", "exp"]
    monkeypatch.setattr(model, "_defect_bound", nan_rows)
    for params in runs:
        with pytest.raises(IntegrationError, match="certification failed: residual nan"):
            integrate(params, init, 1.0, 1e-8)


def test_an_unachievable_exp_run_raises_after_few_coupling_calls(monkeypatch):
    # nu = +-1e300 at m = 1e-7, or +-1e20 at m = 0, swamps the phases'
    # rounding, so no step passes its defect check: the run must end in a
    # step-size underflow after a few dozen attempts, not in the step budget
    calls = []
    coupling = model.coupling_term

    def counted(params, theta):
        calls.append(1)
        if len(calls) > 500:
            raise AssertionError("the stepper keeps evaluating the coupling")
        return coupling(params, theta)

    monkeypatch.setattr(model, "coupling_term", counted)
    for m, nu in [(1e-7, 1e300), (0.0, 1e20)]:
        calls.clear()
        params = SystemParams(2, m, 1.0, [nu, -nu])
        with pytest.raises(IntegrationError, match="step size underflow"):
            integrate(params, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 1.0, 1e-8)
        assert len(calls) <= 500


@pytest.mark.parametrize("m, method", [(0.1, "exp"), (1e-6, "exp")])
def test_residual_above_the_gate_fails_certification(monkeypatch, m, method):
    def above_gate(params, traj, *_):
        return np.full((len(traj.grid), params.n), 60.0 * traj.tol)

    params = SystemParams(2, m, 1.0, [0.5, -0.5])
    init = PhaseState(0.0, [0.0, 1.0], [0.0, 0.0])
    assert integrate(params, init, 1.0, 1e-8).method == method
    monkeypatch.setattr(model, "_defect_bound", above_gate)
    with pytest.raises(IntegrationError, match="certification failed"):
        integrate(params, init, 1.0, 1e-8)


@pytest.mark.parametrize(
    "m, nu, kappa, tol, horizon", [(1.0, 0.3, 1.0, 1e-13, 10.0), (0.3, 1.0, 4.0, 1e-13, 20.0)]
)
def test_tightest_tolerances_certify(m, nu, kappa, tol, horizon):
    # the defect check of each step must not ask for less than the rounding
    # of the coupling it fits allows
    params = SystemParams(3, m, kappa, [nu, 0.0, -nu])
    traj = integrate(params, PhaseState(0.0, [0.0, 1.0, 2.0], [nu, 0.1, -nu]), horizon, tol)
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol


def test_a_tolerance_below_rounding_fails_the_gate_not_the_budget(monkeypatch):
    # |omega| = 50 at tol 1e-13 is a few ulps: the run must not creep along at
    # steps of 1e-14 into the step budget.  The exp stepper's defect check
    # reads the coupling it fits, not omega, so the gate certifies this run;
    # its bound must then cover the residual taken on cells split 64 times,
    # fine enough to stay clear of the exact residual's quadrature floor
    params = SystemParams(3, 0.1, 1.0, [50.0, 0.0, -50.0])
    init = PhaseState(0.0, [0.0, 1.0, 2.0], [50.0, 0.1, -50.0])
    monkeypatch.setattr(_integrate_module, "MAX_STEPS", 20_000)
    traj = integrate(params, init, 1.0, 1e-13)
    grid = traj.grid
    nodes = grid[:-1, None] + np.diff(grid)[:, None] * np.arange(64) / 64
    exact = model._velocity_residual(params, traj.eval_many, np.append(nodes, grid[-1]))[0]
    assert np.abs(exact).max() <= traj.duhamel_sup <= 50 * 1e-13


def test_first_order_omega_slaved_to_phases():
    p = SystemParams(3, 0.0, 1.3, [0.4, 0.0, -0.4])
    init = PhaseState(0.0, [0.0, 1.0, 2.0], [9.9, 9.9, 9.9])  # omega0 ignored
    traj = integrate(p, init, 1.0, 1e-9)
    for k in (0, len(traj.grid) // 2, -1):
        expect = rhs_first_order(p, traj.theta_grid[k])
        assert np.abs(traj.omega_grid[k] - expect).max() < 1e-12


def test_taylor_jet_first_coefficients_match_rhs():
    rng = np.random.default_rng(4)
    p = SystemParams(3, 0.4, 1.0, rng.normal(0, 0.3, 3))
    state = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.3, 3))
    jet = taylor_jet(p, state, 3)
    assert np.array_equal(jet.coeffs[0], state.theta)
    assert np.array_equal(jet.coeffs[1], state.omega)
    from synclab.model import rhs_second_order

    _, dom = rhs_second_order(p, state)
    assert jet.coeffs[2] == pytest.approx(dom, rel=1e-13)

    p0 = SystemParams(3, 0.0, 1.0, p.nat_freq)
    jet0 = taylor_jet(p0, state, 2)
    assert jet0.coeffs[1] == pytest.approx(rhs_first_order(p0, state.theta), rel=1e-13)


def test_taylor_jet_single_oscillator_geometric():
    p = SystemParams(1, 0.2, 1.0, [1.0])
    jet = taylor_jet(p, PhaseState(0.0, [0.0], [3.0]), 8)
    for k in range(2, 9):
        assert jet.coeffs[k][0] == pytest.approx((-1 / 0.2) ** (k - 1) * 2.0, rel=1e-12)


def test_taylor_jet_against_finite_difference():
    rng = np.random.default_rng(17)
    p = SystemParams(3, 0.5, 1.0, rng.normal(0, 0.2, 3))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.2, 3))
    traj = integrate(p, init, 2.0, 1e-12)
    t0 = 1.0
    jet = taylor_jet(p, traj.state_at_time(t0), 2)
    h = 1e-5
    _, om_p = traj.eval_many(np.array([t0 + h]))
    _, om_m = traj.eval_many(np.array([t0 - h]))
    fd = (om_p[0] - om_m[0]) / (2 * h)
    assert np.abs(fd - jet.coeffs[2]).max() / np.abs(jet.coeffs[2]).max() < 1e-6


@st.composite
def _jet_cases(draw):
    n = draw(st.sampled_from([1, 2, 3, 16]))
    m = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    params = SystemParams(
        n,
        m,
        draw(st.floats(0.1, 10.0)),
        draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0))),
    )
    theta = draw(hnp.arrays(float, n, elements=st.floats(-100.0, 100.0)))
    omega = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
    return params, PhaseState(0.0, theta, omega), draw(st.integers(1, MAX_JET_ORDER))


@settings(deadline=None, max_examples=150)
@given(_jet_cases())
def test_taylor_jet_matches_pairwise_jet(case):
    params, state, order = case
    jet = taylor_jet(params, state, order).coeffs
    ref = pairwise_taylor_jet(params, state, order)
    assert jet.shape == ref.shape == (order + 1, params.n)
    # compare the Taylor coefficients theta^(k) h^k / k! at a step h below the
    # radius the coefficients show, so that each is at most 1 in magnitude;
    # rounding then shows at eps times the phase magnitude the sums start from
    k = np.arange(order + 1)
    fact = np.array([math.factorial(j) for j in k], dtype=float)[:, None]
    rate = max(1.0, float((np.abs(ref[1:] / fact[1:]).max(axis=1) ** (1.0 / k[1:])).max()))
    scaled = np.abs(jet - ref) / fact * rate ** -k[:, None].astype(float)
    bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(state.theta).max())
    assert scaled.max() <= bound


def test_taylor_jet_synchronized_state_is_exact():
    # oscillators that share one state move as theta_i = theta + nu t: every
    # derivative past the first is zero, at any n and however small m is
    for n, m in [(1, 2.0**-9), (3, 1e-3), (5, 0.0), (16, 1e-3)]:
        p = SystemParams(n, m, 10.0, np.full(n, 1.0))
        jet = taylor_jet(p, PhaseState(0.0, np.full(n, 77.7), np.full(n, 1.0)), MAX_JET_ORDER)
        assert np.all(jet.coeffs[1] == 1.0)
        assert np.all(jet.coeffs[2:] == 0.0)


def test_taylor_jet_order_guard():
    p = SystemParams(1, 0.5, 1.0, [0.0])
    with pytest.raises(ValueError):
        taylor_jet(p, PhaseState(0.0, [0.0], [0.0]), 13)


def test_taylor_remainder_order():
    rng = np.random.default_rng(2)
    p = SystemParams(3, 0.5, 1.0, [0.3, 0.0, -0.3])
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), [0.4, 0.0, -0.4])
    traj = integrate(p, init, 2.0, 1e-12)
    t0, order = 1.0, 3
    jet = taylor_jet(p, traj.state_at_time(t0), order)
    hs = np.geomspace(0.02, 0.2, 8)
    rem = []
    for h in hs:
        th_d, _ = traj.eval_many(np.array([t0 + h]))
        taylor = sum(jet.coeffs[k] * h**k / math.factorial(k) for k in range(order + 1))
        rem.append(np.abs(th_d[0] - taylor).max())
    slope = np.polyfit(np.log(hs), np.log(rem), 1)[0]
    assert abs(slope - (order + 1)) < 0.25


def test_first_zero_uniform_rotation():
    p = SystemParams(1, 0.0, 1.0, [1.0])
    traj = integrate(p, PhaseState(0.0, [0.0], [0.0]), 3.0, 1e-11)
    z = first_zero(traj, lambda st: math.cos(st.theta[0]), (0.0, 3.0))
    assert z == pytest.approx(math.pi / 2, abs=1e-9)


def test_first_zero_requires_sign_change():
    p = SystemParams(1, 0.0, 1.0, [1.0])
    traj = integrate(p, PhaseState(0.0, [0.0], [0.0]), 1.0, 1e-9)
    with pytest.raises(ValueError):
        first_zero(traj, lambda st: 1.0 + st.theta[0] * 0, (0.0, 1.0))


def _counted(signal):
    calls = []

    def counted(state):
        calls.append(state.t)
        return signal(state)

    return counted, calls


def test_first_zero_takes_few_signal_calls():
    # regula falsi closes a 1e-10 bracket around a smooth zero in about ten
    # reads of the dense output, where bisection needs about forty
    p = SystemParams(1, 0.0, 1.0, [1.0])
    traj = integrate(p, PhaseState(0.0, [0.0], [0.0]), 3.0, 1e-11)
    signal, calls = _counted(lambda st: math.cos(st.theta[0]))
    assert first_zero(traj, signal, (0.0, 3.0)) == pytest.approx(math.pi / 2, abs=1e-10)
    assert len(calls) <= 15, len(calls)

    from synclab.reconstruct import pendulum_relative

    traj = pendulum_relative(1.0, 1.0, 2.0, 6.0, 1e-10)  # m = kappa = 1
    vals = traj.theta_grid[:, 0] - traj.theta_grid[:, 1]
    k = int(np.flatnonzero(vals[1:] <= 0.0)[0])
    signal, calls = _counted(lambda st: float(st.theta[0] - st.theta[1]))
    z = first_zero(traj, signal, (float(traj.grid[k]), float(traj.grid[k + 1])), tol=1e-12)
    th, _ = traj.eval_many(np.array([z - 1e-9, z + 1e-9]))
    assert th[0, 0] - th[0, 1] > 0.0 > th[1, 0] - th[1, 1]
    assert len(calls) <= 15, len(calls)


def test_regula_falsi_bisects_past_an_infinite_end_and_stops_after_200_points():
    # the counterexample's upper end reads +inf when its zero lies past the horizon
    z = _regula_falsi(lambda x: x - 0.3 if x < 0.6 else math.inf, 0.0, 1.0, -0.3, math.inf,
                      tol=1e-12)
    assert z == pytest.approx(0.3, abs=1e-12)
    # a jump has no zero to close in on: the bracket stops at one ulp
    calls = []
    with pytest.raises(IntegrationError, match="regula falsi"):
        _regula_falsi(lambda x: calls.append(x) or (1.0 if x > 0.3 else -1.0), 0.0, 1.0, -1.0, 1.0)
    assert len(calls) == 200


def test_first_zero_linearized_pendulum_value():
    # tiny opening angle: the first zero approaches the linearized value
    from synclab.reconstruct import first_relative_zero, pendulum_relative

    traj = pendulum_relative(1.0, 1.0, 1e-4, 4.0, 1e-11)
    z = first_relative_zero(traj)
    assert z == pytest.approx(4 * math.pi / (3 * math.sqrt(3)), abs=1e-6)


def test_self_convergence():
    rng = np.random.default_rng(2)
    p = SystemParams(3, 0.5, 1.0, [0.3, 0.0, -0.3])
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), [0.4, 0.0, -0.4])
    for tol in (1e-7, 1e-9):
        t1 = integrate(p, init, 2.0, tol)
        t2 = integrate(p, init, 2.0, tol / 2)
        diff = max(
            np.abs(t1.theta_grid[-1] - t2.theta_grid[-1]).max(),
            np.abs(t1.omega_grid[-1] - t2.omega_grid[-1]).max(),
        )
        assert diff <= 10 * tol


def test_propagation_bounds_along_trajectory():
    rng = np.random.default_rng(31)
    p = SystemParams(4, 0.3, 1.0, rng.normal(0, 0.3, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.5, 4))
    tol = 1e-9
    traj = integrate(p, init, 4.0, tol)
    for check in propagation_bounds_check(traj, slack=10 * tol):
        assert check.passed, check.summary()


def test_exp_branch_matches_rk_branch():
    rng = np.random.default_rng(0)
    p = SystemParams(2, 0.01, 1.0, [0.025, -0.025])
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 2), [0.02, -0.03])
    long = integrate(p, init, 200.0, 1e-8)  # steps grow far past m once locked
    assert long.method == "exp"
    ts = np.array([0.5, 1.0, 2.0])
    tha, oma = long.eval_many(ts)
    thb, omb = _dop853_reference(p, init, 2.0, ts)
    assert np.abs(tha - thb).max() < 1e-7
    assert np.abs(oma - omb).max() < 1e-7


@pytest.mark.parametrize("m", [1e10, 1e300])
def test_large_inertia_certifies_near_free_flight(m):
    # past any resolvable inertia the oscillators coast: the coupling, at most
    # kappa, moves theta by at most kappa t^2 / (2 m) off the uncoupled flight
    kappa, tol = 1.0, 1e-8
    p = SystemParams(3, m, kappa, [0.3, 0.0, -0.3])
    init = PhaseState(0.0, [0.0, 1.0, 2.0], [0.5, 0.0, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(p, init, 10.0, tol)
        ts = np.linspace(0.0, 10.0, 41)
        theta, omega = traj.eval_many(ts)
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol
    fade = -np.expm1(-ts / m)[:, None]  # 1 - e^{-t/m}
    free = init.theta + m * fade * init.omega + (ts[:, None] - m * fade) * p.nat_freq
    assert np.all(np.abs(theta - free) <= kappa * ts[:, None] ** 2 / m + tol)
    free_rate = init.omega + fade * (p.nat_freq - init.omega)
    assert np.all(np.abs(omega - free_rate) <= kappa * ts[:, None] / m + tol)


@pytest.mark.parametrize("horizon", [99.0, 101.0])
def test_desk_run_costs_no_more_just_below_horizon_1e4_m(horizon):
    # criterion-08 seed 42 at m = 0.01: once the ensemble locks, steps follow
    # the locked flow whatever the horizon's ratio to m
    cfg = ScenarioConfig(seed=42, n=2, horizon=horizon, tol=1e-8, eps=0.05)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.params.inertia_m == 0.01
    assert len(traj.grid) <= 100, len(traj.grid)


def _dop853_reference(params, init, horizon, ts):
    """scipy's DOP853 on the pairwise vector field, apart from the package's coupling."""
    n, m, kappa = params.n, params.inertia_m, params.coupling_kappa

    def first_order(theta):
        return params.nat_freq + pairwise_coupling(kappa, theta)

    if params.is_inertial:
        y0 = np.concatenate([init.theta, init.omega])

        def f(_t, y):
            return np.concatenate(
                [y[n:], (params.nat_freq - y[n:] + pairwise_coupling(kappa, y[:n])) / m]
            )
    else:
        y0 = np.array(init.theta)

        def f(_t, y):
            return first_order(y)

    sol = solve_ivp(f, (0.0, horizon), y0, method="DOP853", rtol=1e-13, atol=1e-13, t_eval=ts)
    theta = sol.y[:n].T
    omega = sol.y[n:].T if params.is_inertial else first_order(theta)
    return theta, omega


def _dense_error(traj, init):
    # grid points, and the 0.13 point and the midpoint of every cell
    grid = traj.grid
    cells = np.diff(grid)
    ts = np.sort(np.concatenate([grid, grid[:-1] + 0.13 * cells, grid[:-1] + 0.5 * cells]))
    theta, omega = traj.eval_many(ts)
    theta_ref, omega_ref = _dop853_reference(traj.params, init, traj.horizon, ts)
    return max(np.abs(theta - theta_ref).max(), np.abs(omega - omega_ref).max())


@pytest.mark.parametrize(
    "m, n, horizon, method",
    [
        (1e-3, 3, 20.0, "exp"),
        (0.3, 4, 10.0, "exp"),
        (0.0, 4, 10.0, "exp"),
        (0.0, 4, 200.0, "exp"),  # locks: cells grow to several time units
    ],
)
def test_dense_output_between_grid_points(m, n, horizon, method):
    # the lock certificate and the cluster check sample between grid points
    rng = np.random.default_rng(11)
    p = SystemParams(n, m, 1.0, rng.normal(0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, n), rng.normal(0, 0.5, n))
    tol = 1e-8
    traj = integrate(p, init, horizon, tol)
    assert traj.method == method
    err = _dense_error(traj, init)
    assert err <= 50 * tol, err


def test_dense_output_on_a_desk_run():
    # criterion-08 seed 42: past the O(m) layer accepted steps may grow 5x to
    # cells more than 100 m long, so a long step accepted on a wrong error
    # estimate would show here against the independent reference
    cfg = ScenarioConfig(seed=42, n=2, horizon=200.0, tol=1e-8, eps=0.05)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.method == "exp" and np.diff(traj.grid).max() > 100 * traj.params.inertia_m
    err = _dense_error(traj, traj.state_at_time(0.0))
    assert err <= 50 * cfg.tol, err


def _logged_attempts(monkeypatch):
    """The exp stepper's step attempts as they come: (h, accepted) each."""
    attempts = []
    collocate = _integrate_module._collocate

    def logged(params, theta, omega, g0, h, prev, limit):
        step = collocate(params, theta, omega, g0, h, prev, limit)
        attempts.append((h, step is not None and step[0] <= 1.0))
        return step

    monkeypatch.setattr(_integrate_module, "_collocate", logged)
    return attempts


_DESK_SEEDS = [(42 + k, 2) for k in range(5)] + [(43 + k, 3) for k in range(5)]


@pytest.mark.parametrize("seed, n", _DESK_SEEDS)
def test_desk_runs_size_the_first_step_to_the_layer(monkeypatch, seed, n):
    # criterion-08 runs: a first attempt over the whole horizon took about ten
    # Newton failures and defect rejections to come down to the O(m) layer
    attempts = _logged_attempts(monkeypatch)
    cfg = ScenarioConfig(seed=seed, n=n, horizon=200.0, tol=1e-8, eps=0.05)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.duhamel_sup <= 50 * cfg.tol
    accepted = [ok for _, ok in attempts]
    assert accepted.index(True) <= 2, attempts[:4]


_EDGE_RUNS = {
    # identical phases and omega0 = nu: no initial velocity defect
    "delta0=0": (SystemParams(3, 0.1, 1.0, [0.2, 0.0, -0.3]),
                 PhaseState(0.0, np.zeros(3), [0.2, 0.0, -0.3]), 10.0, 1e-8),
    "n=1": (SystemParams(1, 0.1, 1.0, [0.3]), PhaseState(0.0, [0.5], [-0.2]), 10.0, 1e-8),
    "m=1e-4, delta0=1e3": (SystemParams(2, 1e-4, 1.0, [0.05, -0.05]),
                           PhaseState(0.0, [0.0, 1.0], [1e3, -1e3]), 2.0, 1e-8),
    "tol=1e-13": (SystemParams(3, 0.3, 1.0, [0.1, 0.0, -0.1]),
                  PhaseState(0.0, [0.0, 1.0, 2.0], [0.3, 0.0, -0.2]), 3.0, 1e-13),
    "m=0": (SystemParams(4, 0.0, 1.0, [0.1, 0.0, -0.1, 0.3]),
            PhaseState(0.0, [0.0, 1.0, 2.0, 4.0], np.zeros(4)), 10.0, 1e-8),
}


@pytest.mark.parametrize("case", list(_EDGE_RUNS))
def test_first_step_at_the_edges(monkeypatch, case):
    params, init, horizon, tol = _EDGE_RUNS[case]
    attempts = _logged_attempts(monkeypatch)
    traj = integrate(params, init, horizon, tol)
    h = attempts[0][0]
    assert math.isfinite(h) and 0.0 < h <= horizon, h
    assert traj.duhamel_sup <= 50 * tol
    if not params.is_inertial:
        assert _dense_error(traj, init) <= 50 * tol
    if case == "m=1e-4, delta0=1e3":  # inside the layer, not on the flow's scale
        assert h < 10 * params.inertia_m, h


def test_first_step_without_coupling_spans_the_horizon():
    # kappa = 0 (which SystemParams refuses) estimates no defect on either scale
    params = SimpleNamespace(coupling_kappa=0.0, inertia_m=0.1, nat_freq=np.array([0.1, -0.1]))
    h = _integrate_module._first_step(params, np.array([1.0, 2.0]), np.zeros(2), 7.0, 1e-8)
    assert h == 7.0


@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("h_over_m", [0.3, 5.0, 400.0])
def test_newton_correction_solves_the_dense_system(n, h_over_m):
    # dX - W dX D = f, with D the Jacobian of the coupling at theta0 and W
    # the map from node values to node phases, as one (q n) x (q n) system
    rng = np.random.default_rng([n, int(h_over_m * 10)])
    m = 0.05
    params = SystemParams(n, m, rng.uniform(0.5, 3.0), rng.normal(0.0, 0.5, n))
    theta0 = rng.uniform(0.0, 2.0 * np.pi, n)
    omega0 = rng.normal(0.0, 0.5, n)
    g0 = model.coupling_term(params, theta0)
    col = _integrate_module._Collocation(params, theta0, omega0, g0, h_over_m * m)
    q = col.w.shape[0]
    f = rng.normal(0.0, 1.0, (q, n))
    dx = col.correction(f)
    cosines = np.cos(theta0[None, :] - theta0[:, None])
    jac = (params.coupling_kappa / n) * (cosines - np.diag(cosines.sum(axis=1)))
    dense = np.eye(q * n) - np.kron(jac.T, col.w)  # acting on dX stacked by columns
    want = np.linalg.solve(dense, f.ravel(order="F")).reshape((q, n), order="F")
    assert np.abs(dx - want).max() <= 1e-12 * np.abs(want).max()
    coupled = col.w @ dx @ jac
    assert np.abs(dx - coupled - f).max() <= 1e-12 * max(np.abs(dx).max(), np.abs(coupled).max())


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_run(seed, i):
    """Run i of a random set, drawn in the order n in 2..8, the horizon, m,
    tol log-uniform in [1e-11, 1e-5], kappa U(0.3, 5), nu ~ N(0, 0.5^2),
    theta0 U(0, 2 pi) and, for m > 0, omega0 ~ N(0, 0.5^2).

    Seed 7: horizon U(3, 200), m log-uniform in [1e-4, 1e-4 horizon], cells
    many m long.  Seed 11: horizon U(3, 200), m log-uniform in
    [1e-4 horizon, 3].  Seed 3: the first-order system, horizon U(5, 200).
    """
    rng = np.random.default_rng([seed, i])
    n = int(rng.integers(2, 9))
    horizon = rng.uniform(5.0 if seed == 3 else 3.0, 200.0)
    if seed == 3:
        m = 0.0
    else:
        m = _log_uniform(rng, *((1e-4, 1e-4 * horizon) if seed == 7 else (1e-4 * horizon, 3.0)))
    tol = _log_uniform(rng, 1e-11, 1e-5)
    params = SystemParams(n, m, rng.uniform(0.3, 5.0), rng.normal(0.0, 0.5, n))
    theta0 = rng.uniform(0.0, 2.0 * math.pi, n)
    omega0 = rng.normal(0.0, 0.5, n) if m > 0 else np.zeros(n)
    return params, PhaseState(0.0, theta0, omega0), horizon, tol


@pytest.mark.parametrize("seed, runs", [(7, 40), (11, 30)])
def test_random_inertial_runs_are_certified(seed, runs):
    # a standing audit of the certificate: every run certifies by the defect
    # bound alone; the largest bound was 0.019 of the gate on either set
    for i in range(runs):
        params, init, horizon, tol = _random_run(seed, i)
        traj = integrate(params, init, horizon, tol)
        assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol, i


def test_random_first_order_runs_match_dop853():
    # 12 first-order runs: each is certified, and their end phases lay within
    # 0.1 tol of scipy's DOP853 at 1e-13 when this test was written
    for i in range(12):
        params, init, horizon, tol = _random_run(3, i)
        traj = integrate(params, init, horizon, tol)
        assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol, i
        theta, _ = _dop853_reference(params, init, horizon, [horizon])
        assert np.abs(traj.theta_grid[-1] - theta[0]).max() <= tol, i


@pytest.mark.parametrize("m, horizon", [(1e-3, 20.0), (0.3, 10.0), (0.0, 10.0)])
def test_dense_omega_relaxes_to_the_coupling_model(m, horizon):
    # the certificate reads the ODE defect m omega' + omega - nu - c(theta) as
    # g - nu - c(theta): in each cell the dense omega must solve
    # m omega' + omega = g, the cell's coupling model, and equal g at m = 0
    rng = np.random.default_rng(5)
    p = SystemParams(3, m, 1.0, rng.normal(0, 0.3, 3))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.5, 3))
    traj = integrate(p, init, horizon, 1e-8)
    widths = np.diff(traj.grid)
    cells = np.arange(len(widths))
    ts = traj.grid[:-1] + 0.37 * widths
    if m == 0.0:  # each cell read at its start, inside and at its right end
        for t in (traj.grid[:-1], ts, traj.grid[1:]):
            _, omega, g = traj.eval_with_model(t, cells)
            assert np.abs(omega - g).max() <= 1e-12
        return
    d = 1e-5 * np.minimum(widths, m)  # inside each cell
    fd = (traj.eval_many(ts + d)[1] - traj.eval_many(ts - d)[1]) / (2 * d[:, None])
    _, omega, g = traj.eval_with_model(ts)
    rate = (g - omega) / m
    assert np.all(np.abs(fd - rate) <= 1e-6 * (1.0 + np.abs(rate)))
    # a cell read at its right end gives the left limit at the next grid
    # point, and read at its start the right limit at its own
    for ends, near in ((traj.grid[1:], traj.grid[1:] - d), (traj.grid[:-1], traj.grid[:-1] + d)):
        _, omega, g = traj.eval_with_model(ends, cells)
        _, omega_near, g_near = traj.eval_with_model(near, cells)
        rate, rate_near = (g - omega) / m, (g_near - omega_near) / m
        assert np.all(np.abs(rate - rate_near) <= 1e-4 * (1.0 + np.abs(rate)))


def test_trajectory_states_and_grid_alignment():
    for m in (0.2, 0.0):
        p = SystemParams(2, m, 1.0, [0.1, -0.1])
        traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 1.0, 1e-9)
        assert np.all(np.diff(traj.grid) > 0)
        assert traj.grid[0] == 0.0
        assert traj.grid[-1] == pytest.approx(1.0)
        assert traj.theta_grid.shape == traj.omega_grid.shape == (len(traj.grid), 2)
        assert np.array_equal(traj.state_at_time(float(traj.grid[3])).theta, traj.theta_grid[3])
        # every grid point read in the cell on each side: a cell's start
        # gives the grid state, its end the state up to rounding and, for
        # omega, the model's jump there, which the step's tolerance bounds
        cells = np.arange(len(traj.grid) - 1)
        theta, omega = traj.eval_many(traj.grid[:-1], cells)
        assert np.array_equal(theta, traj.theta_grid[:-1])
        assert np.array_equal(omega, traj.omega_grid[:-1])
        theta, omega = traj.eval_many(traj.grid[1:], cells)
        assert np.abs(theta - traj.theta_grid[1:]).max() < 1e-12
        assert np.abs(omega - traj.omega_grid[1:]).max() < traj.tol


def _per_query_read(traj, ts, cells=None):
    """Reference dense output: theta, omega and g of each query on its own.

    Every order's coefficient row is gathered per query and weighed by
    `relaxation_weights`, and g is summed by Horner's rule.
    """
    q = traj._coefs.shape[1] - 1
    if cells is None:
        cells = np.clip(np.searchsorted(traj.grid[:-1], ts, side="right") - 1, 0, len(traj._hs) - 1)
    s, h = ts - traj.grid[cells], traj._hs[cells]
    decay, mom0, rate, jom = relaxation_weights(s, h, traj.params.inertia_m, q)
    theta = traj.theta_grid[cells] + mom0[:, None] * traj.omega_grid[cells]
    omega = traj.omega_grid[cells] * decay[:, None]
    for p in range(q + 1):
        row = traj._coefs[cells, p]
        theta = theta + jom[p][:, None] * row
        omega = omega + rate[p][:, None] * row
    g = traj._coefs[cells, q]
    for p in range(q - 1, -1, -1):
        g = g * (s / h)[:, None] + traj._coefs[cells, p]
    return theta, omega, g


@pytest.mark.parametrize("n", [1, 3, 128])
@pytest.mark.parametrize("m", [0.0, 1e-3, 0.5])
def test_dense_readers_match_the_per_query_formula(m, n):
    # sorted times, shuffled times with repeats, and every grid point read at
    # the right end of the cell before it, as the certificate reads them
    rng = np.random.default_rng(17)
    p = SystemParams(n, m, 1.0, rng.normal(0.0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * np.pi, n), rng.normal(0.0, 0.3, n))
    traj = integrate(p, init, 10.0, 1e-8)
    sorted_ts = np.sort(np.concatenate([rng.uniform(0.0, 10.0, 400), traj.grid]))
    shuffled = rng.permutation(np.concatenate([sorted_ts, rng.choice(sorted_ts, 200)]))
    right_ends = (traj.grid[1:], np.arange(len(traj._hs)))
    for ts, cells in ((sorted_ts, None), (shuffled, None), right_ends):
        ref = _per_query_read(traj, ts, cells)
        scale = 1e-13 * np.maximum(1.0, np.abs(ref[0]))
        got = traj.eval_with_model(ts, cells)
        for a, b in zip(got + traj.eval_many(ts, cells), ref + ref[:2]):
            assert a.shape == (len(ts), n)
            assert np.all(np.abs(a - b) <= scale)
    empty = traj.eval_with_model(np.array([])) + traj.eval_many([])
    assert [a.shape for a in empty] == [(0, n)] * 5


def test_dense_reader_memory_is_its_outputs():
    # ~2006 times (2001 even ones and the grid points between them) on a
    # wide-style run at n = 1024: the two (Q, n) outputs take 31 MiB, and one
    # more (Q, n) temporary would add half of that; per-order gathers, as in
    # _per_query_read, peak at 3x
    rng = np.random.default_rng(23)
    n = 1024
    p = SystemParams(n, 0.5, 1.0, rng.normal(0.0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * np.pi, n), rng.normal(0.0, 0.3, n))
    traj = integrate(p, init, 10.0, 1e-8)
    inside = traj.grid[(traj.grid > 8.0) & (traj.grid < 10.0)]
    ts = np.union1d(np.linspace(8.0, 10.0, 2001), inside)
    tracemalloc.start()
    try:
        (theta, omega), peak = traj.eval_many(ts), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert theta.shape == omega.shape == (len(ts), n) and len(ts) > 2000
    assert peak <= 1.25 * (theta.nbytes + omega.nbytes)


def _walk(traj, t_from, t_to):
    """Every block of `model.walk_cells` over [t_from, t_to], concatenated."""
    blocks = list(model.walk_cells(traj.params, traj.eval_many, traj.grid, t_from, t_to))
    cells = np.concatenate([np.repeat(c, t.shape[1]) for c, t, _ in blocks])
    ts = np.concatenate([t.ravel() for _, t, _ in blocks])
    omega = np.concatenate([om.reshape(-1, traj.params.n) for _, _, (_, om) in blocks])
    return cells, ts, omega


@st.composite
def _walk_ends(draw, grid):
    """A time in [grid[0], grid[-1]]: often a grid point, else a fraction of the span."""
    if draw(st.booleans()):
        return float(grid[draw(st.integers(0, len(grid) - 1))])
    return float(grid[-1] * draw(st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([1, 3, 16]), st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
       st.integers(0, 2**16), st.data())
def test_the_cell_walk_reads_its_window_cell_by_cell(n, m, seed, data):
    rng = np.random.default_rng(seed)
    p = SystemParams(n, m, 1.0, rng.normal(0.0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * np.pi, n), rng.normal(0.0, 0.3, n))
    traj = integrate(p, init, 3.0, 1e-8)
    grid = traj.grid
    t_from, t_to = sorted(data.draw(_walk_ends(grid)) for _ in range(2))
    cells, ts, omega = _walk(traj, t_from, t_to)
    assert ts[0] == t_from and ts[-1] == t_to
    assert np.all((t_from <= ts) & (ts <= t_to))
    assert np.all((grid[cells] <= ts) & (ts <= grid[cells + 1]))
    meets = np.flatnonzero((grid[:-1] <= t_to) & (grid[1:] >= t_from))
    assert np.array_equal(np.unique(cells), meets)
    assert np.array_equal(omega, traj.eval_many(ts, cells)[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_CHUNK_ENTRIES", 1)  # one cell per block
        one_by_one = _walk(traj, t_from, t_to)
    assert np.array_equal(one_by_one[0], cells) and np.array_equal(one_by_one[1], ts)
    scale = 1e-13 * np.maximum(1.0, np.abs(omega))
    assert np.all(np.abs(one_by_one[2] - omega) <= scale)
    # a zero-width window reads its one time
    assert np.unique(_walk(traj, t_to, t_to)[1]).tolist() == [t_to]
    for window in ((-1e-3, t_to), (t_from, grid[-1] + 1e-3), (t_to, t_from - 1e-3)):
        with pytest.raises(ValueError):
            _walk(traj, *window)
