"""Integrator accuracy, dense output, Taylor jets, and event location."""

from __future__ import annotations

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from synclab import model
from synclab.experiments import ScenarioConfig, _sync_scenario
from synclab.integrate import (
    MAX_JET_ORDER,
    IntegrationError,
    first_zero,
    integrate,
    taylor_jet,
)
from synclab.model import PhaseState, SystemParams, rhs_first_order
from synclab.tikhonov import propagation_bounds_check

from pairwise_oracles import pairwise_coupling, pairwise_taylor_jet


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


def test_integrate_validation():
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
    with pytest.raises(IntegrationError):
        integrate(moving, PhaseState(0.0, [0.0, 1.0], [1.0, -1.0]), 10.0, 1e-9, max_steps=3)


def test_nan_residual_fails_certification(monkeypatch):
    # a NaN residual compares False with the gate; the NaN is driven through
    # it on clean runs inside and past the O(m) layer
    def nan_rows(params, traj, *_):
        return np.full((len(traj.grid), params.n), np.nan)

    init = PhaseState(0.0, [0.0, 1.0], [0.0, 0.0])
    runs = [SystemParams(2, 5e-5, 1.0, [0.5, -0.5]), SystemParams(2, 0.01, 1.0, [0.5, -0.5])]
    assert [integrate(params, init, 1.0, 1e-8).method for params in runs] == ["exp", "exp"]
    monkeypatch.setattr(model, "duhamel_residual_grid", nan_rows)
    monkeypatch.setattr(model, "_defect_bound", nan_rows)
    for params in runs:
        with pytest.raises(IntegrationError, match="certification failed: residual nan"):
            integrate(params, init, 1.0, 1e-8)


def test_an_unachievable_exp_run_raises_after_few_coupling_calls(monkeypatch):
    # nu = +-1e300 swamps the phases' rounding, so no step passes its defect
    # check: the run must end in the stepper, not in horizon/m = 1e7 nodes of
    # the exact residual
    calls = []
    coupling = model.coupling_term

    def counted(params, theta):
        calls.append(1)
        if len(calls) > 500:
            raise AssertionError("the stepper keeps evaluating the coupling")
        return coupling(params, theta)

    def exact(params, traj):
        raise AssertionError("the exact residual costs horizon / m")

    monkeypatch.setattr(model, "coupling_term", counted)
    monkeypatch.setattr(model, "duhamel_residual_grid", exact)
    params = SystemParams(2, 1e-7, 1.0, [1e300, -1e300])
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
    monkeypatch.setattr(model, "duhamel_residual_grid", above_gate)
    monkeypatch.setattr(model, "_defect_bound", above_gate)
    with pytest.raises(IntegrationError, match="certification failed"):
        integrate(params, init, 1.0, 1e-8)


def test_dop853_tableau_matches_scipy():
    # the package keeps its own copy of Hairer's constants (numpy-only runtime)
    mod = importlib.import_module("synclab.integrate")
    ref = dop853_coefficients
    assert np.array_equal(mod._A, ref.A)
    assert np.allclose(mod._A.sum(axis=1), ref.C, rtol=0.0, atol=1e-15)
    assert np.array_equal(mod._B, ref.B)
    assert np.array_equal(mod._E5, ref.E5[:12]) and not ref.E5[12]
    assert np.array_equal(mod._E3, ref.E3[:12]) and not ref.E3[12]
    assert np.array_equal(mod._NESTED[3:], ref.D)
    # the monomial coefficients give Hairer's nested form
    f = np.random.default_rng(3).normal(size=7)
    x = np.linspace(0.0, 1.0, 11)
    nested = f[6]
    for j in range(5, -1, -1):
        nested = f[j] + (x if j % 2 else 1.0 - x) * nested
    nested = x * nested
    monomial = (x[:, None] ** np.arange(1, 8)) @ (mod._MONOMIALS @ f)
    assert np.abs(monomial - nested).max() < 1e-13


@pytest.mark.parametrize(
    "m, nu, kappa, tol, horizon", [(1.0, 0.3, 1.0, 1e-13, 10.0), (0.3, 1.0, 4.0, 1e-13, 20.0)]
)
def test_tightest_tolerances_certify(m, nu, kappa, tol, horizon):
    # the defect check of each step must not ask for less than the rounding
    # of the coupling it fits allows
    params = SystemParams(3, m, kappa, [nu, 0.0, -nu])
    traj = integrate(params, PhaseState(0.0, [0.0, 1.0, 2.0], [nu, 0.1, -nu]), horizon, tol)
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol


def test_a_tolerance_below_rounding_fails_the_gate_not_the_budget():
    # |omega| = 50 at tol 1e-13 is a few ulps: the run must not creep along at
    # steps of 1e-14 into the step budget.  The exp stepper's defect check
    # reads the coupling it fits, not omega, so the gate certifies this run;
    # its bound must then cover the residual taken on cells split 64 times,
    # fine enough to stay clear of the exact residual's quadrature floor
    params = SystemParams(3, 0.1, 1.0, [50.0, 0.0, -50.0])
    init = PhaseState(0.0, [0.0, 1.0, 2.0], [50.0, 0.1, -50.0])
    traj = integrate(params, init, 1.0, 1e-13, max_steps=20_000)
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
        (0.0, 4, 10.0, "dop853"),
        (0.0, 4, 200.0, "dop853"),  # locks: cells grow to several time units
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
    # criterion-08 seed 42: the first attempted step spans all 200 time units
    # and accepted steps may grow 5x, so a long step accepted on a wrong error
    # estimate would show here against the independent reference
    cfg = ScenarioConfig(seed=42, n=2, horizon=200.0, tol=1e-8, eps=0.05)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.method == "exp" and np.diff(traj.grid).max() > 100 * traj.params.inertia_m
    err = _dense_error(traj, traj.state_at_time(0.0))
    assert err <= 50 * cfg.tol, err


@pytest.mark.parametrize(
    "m, horizon, method", [(1e-3, 20.0, "exp"), (0.3, 10.0, "exp"), (0.0, 10.0, "dop853")]
)
def test_eval_rate_is_the_derivative_of_the_dense_omega(m, horizon, method):
    rng = np.random.default_rng(5)
    p = SystemParams(3, m, 1.0, rng.normal(0, 0.3, 3))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.5, 3))
    traj = integrate(p, init, horizon, 1e-8)
    assert traj.method == method
    widths = np.diff(traj.grid)
    ts = traj.grid[:-1] + 0.37 * widths
    d = 1e-5 * (np.minimum(widths, m) if m > 0 else widths)  # inside each cell
    fd = (traj.eval_many(ts + d)[1] - traj.eval_many(ts - d)[1]) / (2 * d[:, None])
    rate = traj.eval_rate(ts)
    assert np.all(np.abs(fd - rate) <= 1e-6 * (1.0 + np.abs(rate)))
    # a cell read at its right end gives the left limit at the next grid point
    cells = np.arange(len(widths))
    left = traj.eval_rate(traj.grid[1:], cells)
    near = traj.eval_rate(traj.grid[1:] - d, cells)
    assert np.all(np.abs(left - near) <= 1e-4 * (1.0 + np.abs(left)))


def test_trajectory_states_and_grid_alignment():
    p = SystemParams(2, 0.2, 1.0, [0.1, -0.1])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 1.0, 1e-9)
    assert np.all(np.diff(traj.grid) > 0)
    assert traj.grid[0] == 0.0
    assert traj.grid[-1] == pytest.approx(1.0)
    assert traj.theta_grid.shape == traj.omega_grid.shape == (len(traj.grid), 2)
    assert np.array_equal(traj.state_at_time(float(traj.grid[3])).theta, traj.theta_grid[3])
