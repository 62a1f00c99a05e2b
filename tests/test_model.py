"""Vector fields, symmetries, conserved means, and the velocity residual."""

from __future__ import annotations

import math

import numpy as np
import pytest

from synclab.integrate import integrate
from synclab.model import (
    GalileanShift,
    PhaseState,
    SystemParams,
    apply_dilation,
    apply_galilean,
    apply_permutation,
    apply_reflection,
    duhamel_residual,
    duhamel_residual_grid,
    mean_phase_frequency,
    rhs_first_order,
    rhs_second_order,
)
from synclab.observables import order_parameter


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(0, 0.1, 1.0, [])
    with pytest.raises(ValueError):
        SystemParams(2, 0.1, 1.0, [1.0])
    with pytest.raises(ValueError):
        SystemParams(1, 0.1, -1.0, [0.0])
    with pytest.raises(ValueError):
        SystemParams(1, -0.1, 1.0, [0.0])


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState(-1.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        PhaseState(0.0, [0.0, 1.0], [0.0])


def test_rhs_second_order_single():
    p = SystemParams(1, 0.5, 1.0, [1.0])
    dth, dom = rhs_second_order(p, PhaseState(0.0, [0.0], [2.0]))
    assert dth[0] == 2.0
    assert dom[0] == pytest.approx((1.0 - 2.0 + 0.0) / 0.5)


def test_rhs_second_order_antisymmetric_pair():
    p = SystemParams(2, 1.0, 2.0, [0.0, 0.0])
    _, dom = rhs_second_order(p, PhaseState(0.0, [0.0, math.pi / 2], [0.0, 0.0]))
    assert dom == pytest.approx([1.0, -1.0])


def test_rhs_second_order_equilibrium():
    p = SystemParams(3, 0.3, 1.5, [0.4, -0.1, 0.2])
    state = PhaseState(0.0, [1.1, 1.1, 1.1], p.nat_freq)
    _, dom = rhs_second_order(p, state)
    assert np.abs(dom).max() < 1e-15


def test_rhs_second_order_rejects_zero_inertia():
    p = SystemParams(1, 0.0, 1.0, [0.0])
    with pytest.raises(ValueError):
        rhs_second_order(p, PhaseState(0.0, [0.0], [0.0]))


def test_rhs_first_order_values():
    p = SystemParams(2, 0.0, 1.0, [0.0, 0.0])
    assert rhs_first_order(p, [0.0, 0.0]) == pytest.approx([0.0, 0.0])
    p2 = SystemParams(2, 0.0, 2.0, [1.0, -1.0])
    assert rhs_first_order(p2, [0.0, math.pi]) == pytest.approx([1.0, -1.0], abs=1e-15)


def test_rhs_first_order_splay():
    # oracle: direct python summation over the splay configuration
    theta = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]
    direct = [
        3.0 / 3 * sum(math.sin(tj - ti) for tj in theta) for ti in theta
    ]
    p = SystemParams(3, 0.0, 3.0, [0.0, 0.0, 0.0])
    out = rhs_first_order(p, theta)
    assert out == pytest.approx(direct, abs=1e-15)
    assert np.abs(out).max() < 1e-14


@pytest.mark.parametrize("seed", range(6))
def test_coupling_term_sums_to_zero(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    p = SystemParams(n, 0.0, 1.0, np.zeros(n))
    theta = rng.uniform(-10, 10, n)
    total = rhs_first_order(p, theta).sum() * n  # kappa/N scaling undone by *n/kappa=n
    assert abs(total) < 1e-12 * n * n


def test_duhamel_residual_single_oscillator():
    p = SystemParams(1, 0.25, 1.0, [0.7])
    traj = integrate(p, PhaseState(0.0, [0.3], [1.4]), 2.0, 1e-10)
    r = duhamel_residual(p, traj, 1.0)
    assert abs(r[0]) < 1e-10


def test_duhamel_residual_certified_run():
    p = SystemParams(3, 0.4, 1.2, [0.2, 0.0, -0.2])
    tol = 1e-9
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0, 2.0], [0.1, 0.0, -0.1]), 3.0, tol)
    for t in (0.0, 0.5, 1.7, 3.0):
        assert np.abs(duhamel_residual(p, traj, t)).max() < 50 * tol


def test_duhamel_residual_detects_corruption():
    p = SystemParams(2, 0.5, 1.0, [0.1, -0.1])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 2.0, 1e-10)

    class Corrupted:
        # omega channel shifted by +1 away from t = 0 (initial data stays clean)
        grid = traj.grid
        theta_grid = traj.theta_grid
        omega_grid = traj.omega_grid + (traj.grid > 0)[:, None]

        @staticmethod
        def eval_many(ts):
            th, om = traj.eval_many(ts)
            return th, om + (np.asarray(ts) > 0)[:, None]

    r = duhamel_residual(p, Corrupted(), 1.5)
    assert r == pytest.approx([1.0, 1.0], abs=1e-8)


def test_duhamel_residual_detects_corruption_inside_one_long_cell():
    _check_corruption_inside_one_long_cell("near_right_end")


def test_duhamel_residual_detects_corruption_mid_cell():
    # the kernel fades a defect by e^{-1} per m before the next grid point,
    # so only a residual taken between grid points sees this one
    _check_corruption_inside_one_long_cell("mid_cell")


def _check_corruption_inside_one_long_cell(where):
    # exp-stepper cells are many m long; corrupt one of them between its grid
    # points only
    m, tol = 1e-3, 1e-8
    p = SystemParams(2, m, 1.0, [0.05, -0.05])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 20.0, tol)
    assert traj.method == "exp"
    k = int(np.searchsorted(traj.grid, 12.0))
    right = traj.grid[k + 1]
    assert right - traj.grid[k] > 10 * m
    center = right - 3 * m if where == "near_right_end" else 0.5 * (traj.grid[k] + right)
    width = 2 * m

    def bump(ts):
        x = (np.asarray(ts) - center) / width
        inside = np.abs(x) < 1.0
        b = np.where(inside, (1.0 - x**2) ** 4, 0.0)
        db = np.where(inside, -8.0 * x * (1.0 - x**2) ** 3 / width, 0.0)
        return 1e-3 * b, 1e-3 * db

    assert not np.any(bump(traj.grid)[0])  # every grid value stays as it was

    class Corrupted:
        grid = traj.grid
        theta_grid = traj.theta_grid
        omega_grid = traj.omega_grid

        @staticmethod
        def eval_many(ts):
            th, om = traj.eval_many(ts)
            b, db = bump(ts)
            return th + np.outer(b, [1.0, 0.0]), om + np.outer(db, [1.0, 0.0])

    res = duhamel_residual_grid(p, Corrupted())
    assert res[k + 1].max() > 50 * tol  # the corrupted cell itself
    assert res[: k + 1].max() < 50 * tol


def test_duhamel_residual_rejects_out_of_span():
    p = SystemParams(1, 0.25, 1.0, [0.0])
    traj = integrate(p, PhaseState(0.0, [0.0], [0.0]), 1.0, 1e-9)
    with pytest.raises(ValueError):
        duhamel_residual(p, traj, 2.0)


def test_galilean_identity_shift():
    p = SystemParams(2, 0.5, 1.0, [0.3, -0.3])
    init = PhaseState(0.0, [0.1, 0.2], [0.0, 0.1])
    p2, init2, tmap = apply_galilean(p, init, GalileanShift(0.0, 0.0, 0.0))
    assert np.array_equal(p2.nat_freq, p.nat_freq)
    state = PhaseState(1.3, [0.5, 0.7], [0.2, 0.1])
    mapped = tmap(state)
    assert np.array_equal(mapped.theta, state.theta)
    assert np.array_equal(mapped.omega, state.omega)


def test_galilean_single_oscillator_annihilates():
    # shifting by the oscillator's own data sends the solution to zero
    p = SystemParams(1, 0.5, 1.0, [0.7])
    init = PhaseState(0.0, [1.3], [0.4])
    _, init2, tmap = apply_galilean(p, init, GalileanShift(0.7, 0.4, 1.3))
    assert init2.theta[0] == 0.0 and init2.omega[0] == 0.0
    traj = integrate(p, init, 3.0, 1e-10)
    for t in (0.0, 0.7, 3.0):
        mapped = tmap(traj.state_at_time(t))
        assert abs(mapped.theta[0]) < 1e-9
        assert abs(mapped.omega[0]) < 1e-9


def test_galilean_preserves_diameter():
    rng = np.random.default_rng(5)
    p = SystemParams(3, 0.3, 1.0, rng.normal(0, 0.2, 3))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.3, 3))
    shift = GalileanShift(0.4, -0.2, 1.0)
    p2, init2, tmap = apply_galilean(p, init, shift)
    tol = 1e-9
    traj = integrate(p, init, 2.0, tol)
    traj2 = integrate(p2, init2, 2.0, tol)
    for t in (0.5, 1.0, 2.0):
        a = traj2.state_at_time(t).theta
        b = tmap(traj.state_at_time(t)).theta
        assert np.abs(a - b).max() < 10 * tol
        d1 = traj.state_at_time(t).theta
        assert (a.max() - a.min()) == pytest.approx(d1.max() - d1.min(), abs=10 * tol)


def test_dilation_identity_and_invariant():
    p = SystemParams(2, 0.4, 1.5, [0.2, -0.2])
    init = PhaseState(0.0, [0.0, 1.0], [0.1, -0.1])
    p1, init1, tmap = apply_dilation(p, init, 1.0)
    assert p1.inertia_m == p.inertia_m and p1.coupling_kappa == p.coupling_kappa
    assert tmap(0.7) == 0.7
    alpha = 2.5
    p2, _, _ = apply_dilation(p, init, alpha)
    assert p2.inertia_m * p2.coupling_kappa == pytest.approx(p.inertia_m * p.coupling_kappa)


def test_dilation_commutes_with_integration():
    rng = np.random.default_rng(8)
    p = SystemParams(3, 0.4, 1.0, rng.normal(0, 0.2, 3))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 3), rng.normal(0, 0.2, 3))
    alpha = 1.7
    p2, init2, tmap = apply_dilation(p, init, alpha)
    tol = 1e-9
    horizon = 2.0
    traj = integrate(p, init, horizon, tol)
    traj2 = integrate(p2, init2, horizon / alpha, tol)
    for t_new in (0.3, 0.8, horizon / alpha):
        a = traj2.state_at_time(t_new)
        b = traj.state_at_time(tmap(t_new))
        assert np.abs(a.theta - b.theta).max() < 10 * tol
        assert np.abs(a.omega - alpha * b.omega).max() < 10 * tol


def test_reflection_involution_and_permutation_identity():
    p = SystemParams(3, 0.2, 1.0, [0.3, 0.0, -0.3])
    init = PhaseState(0.0, [0.1, 0.5, 0.9], [0.2, 0.0, -0.2])
    p2, init2 = apply_reflection(*apply_reflection(p, init))
    assert np.array_equal(p2.nat_freq, p.nat_freq)
    assert np.array_equal(init2.theta, init.theta)
    p3, init3 = apply_permutation(p, init, [0, 1, 2])
    assert np.array_equal(init3.omega, init.omega)
    with pytest.raises(ValueError):
        apply_permutation(p, init, [0, 0, 2])


def test_permutation_preserves_order_parameter_history():
    rng = np.random.default_rng(13)
    p = SystemParams(4, 0.3, 1.0, rng.normal(0, 0.2, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.2, 4))
    perm = [2, 0, 3, 1]
    p2, init2 = apply_permutation(p, init, perm)
    tol = 1e-9
    traj = integrate(p, init, 2.0, tol)
    traj2 = integrate(p2, init2, 2.0, tol)
    for t in (0.5, 2.0):
        r1 = order_parameter(traj.state_at_time(t).theta)
        r2 = order_parameter(traj2.state_at_time(t).theta)
        assert r1 == pytest.approx(r2, abs=10 * tol)


def test_mean_phase_frequency_closed_forms():
    p = SystemParams(2, 1.0, 1.0, [1.5, 0.5])  # nu_c = 1
    init = PhaseState(0.0, [0.3, -0.3], [0.2, -0.2])  # theta_c0 = 0, omega_c0 = 0
    th_c, om_c = mean_phase_frequency(p, init, 2.0)
    assert th_c == pytest.approx(2.0 - 1.0 + math.exp(-2.0), rel=1e-14)
    assert om_c == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    # nu_c = omega_c0 = 0 keeps the mean phase frozen
    p0 = SystemParams(2, 0.7, 1.0, [0.4, -0.4])
    init0 = PhaseState(0.0, [1.0, 2.0], [0.3, -0.3])
    th_c0, om_c0 = mean_phase_frequency(p0, init0, 5.0)
    assert th_c0 == pytest.approx(1.5, rel=1e-14)
    assert om_c0 == pytest.approx(0.0, abs=1e-14)


def test_mean_formulas_match_simulation():
    rng = np.random.default_rng(21)
    p = SystemParams(4, 0.5, 1.0, rng.normal(0.2, 0.3, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.4, 4))
    traj = integrate(p, init, 3.0, 1e-11)
    for t in (0.2, 1.1, 3.0):
        st = traj.state_at_time(t)
        th_c, om_c = mean_phase_frequency(p, init, t)
        assert st.theta.mean() == pytest.approx(th_c, abs=1e-9)
        assert st.omega.mean() == pytest.approx(om_c, abs=1e-9)
