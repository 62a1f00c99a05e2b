"""Order parameter, diameters, mismatch, xi, and lock certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from synclab.integrate import integrate
from synclab.model import PhaseState, SystemParams
from synclab.observables import (
    ClusterSpec,
    cluster_stability_check,
    diameter,
    lock_certificate,
    mismatch_l2,
    order_parameter,
    restricted_diameter,
    variance,
    xi_functional,
)


def test_order_parameter_values():
    assert order_parameter([0.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert order_parameter([0.0, math.pi]) == pytest.approx(0.0, abs=1e-16)
    assert order_parameter([0.0, 2 * math.pi / 3, 4 * math.pi / 3]) == pytest.approx(0.0, abs=1e-15)


def test_order_parameter_never_exceeds_one():
    # the rounded phasor of this phase has modulus 1 + 2^-52 on the vector path
    th = 18.844673057094013
    rows = np.full((8, 1), th)
    assert np.all(order_parameter(rows) <= 1.0)
    assert order_parameter([th]) <= 1.0
    # one R per row of a batch equals R of each row alone
    rng = np.random.default_rng(3)
    batch = rng.uniform(-50.0, 50.0, (2, 5, 4))
    r = order_parameter(batch)
    assert r.shape == (2, 5)
    assert abs(r[1, 3] - order_parameter(batch[1, 3])) <= 1e-15
    assert np.all((0.0 <= r) & (r <= 1.0))


def test_diameter_and_variance_values():
    assert diameter([1.0, 4.0, 2.0]) == 3.0
    assert diameter([5.0, 5.0]) == 0.0
    assert restricted_diameter([1.0, 4.0, 2.0], [0, 2]) == 1.0
    assert variance([3.0, 3.0, 3.0]) == 0.0
    assert variance([0.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        diameter([])
    with pytest.raises(ValueError):
        restricted_diameter([1.0], [])


def test_mismatch_values():
    theta = np.array([0.3, 1.0, -0.4])
    assert mismatch_l2(theta, theta + 2.7) == pytest.approx(0.0, abs=1e-12)
    assert mismatch_l2([1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)
    # direct pairwise enumeration oracle for theta - phi = (1, 0, 0)
    d = [1.0, 0.0, 0.0]
    direct = math.sqrt(sum((d[i] - d[j]) ** 2 for i in range(3) for j in range(i + 1, 3)))
    assert mismatch_l2([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(direct)
    assert direct == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        mismatch_l2([0.0], [0.0, 1.0])


@pytest.mark.parametrize("seed", range(8))
def test_vector_identities_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    x = rng.normal(0, 3, n)
    y = rng.normal(0, 3, n)
    # rotation and permutation invariance of R
    c = rng.normal()
    assert abs(order_parameter(x) - order_parameter(x + c)) < 1e-12
    perm = rng.permutation(n)
    assert abs(order_parameter(x) - order_parameter(x[perm])) < 1e-12
    # diameter triangle inequality and the max-norm comparison
    assert diameter(x - y) >= abs(diameter(x) - diameter(y)) - 1e-12
    assert 0.5 * diameter(x) <= np.abs(x).max() + 1e-12
    # variance versus diameter
    assert variance(x) <= diameter(x) ** 2 / 4 + 1e-12
    # mismatch kernel: exactly the constant-difference directions
    assert mismatch_l2(x, x - c) < 1e-12
    if n >= 2:
        z = x.copy()
        z[0] += 1.0
        assert mismatch_l2(z, x) > 0.5


def test_xi_functional_values():
    # all data-dependent terms vanish
    assert xi_functional(0.2, 1.5, [0.7, 0.7], [1.1, 1.1], 2.0) == pytest.approx(2 * 0.2 * 1.5)
    # eta = inf drops the trailing terms
    assert xi_functional(0.1, 1.0, [0.1, -0.1], [0.0, 0.0], math.inf) == pytest.approx(0.32)
    # eta = 1 tail structure
    d_om = 0.6
    got = xi_functional(0.2, 1.0, [0.0, 0.0], [0.3, -0.3], 1.0)
    expect = 2 * 0.2 * 1.0 + d_om * 0.2 * math.exp(-1) + (d_om / 2.0) * math.exp(-1) / (
        1 - math.exp(-1)
    )
    assert got == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        xi_functional(0.1, 1.0, [0.0], [0.0], 0.0)


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec((0, 1), 0.5, 0.5, 1.0)  # lambda at the boundary
    with pytest.raises(ValueError):
        ClusterSpec((0, 1), 0.9, 3.0, 1.0)  # ell beyond its interval
    spec = ClusterSpec((0, 1, 2), 0.7, 1.0, 1.0)
    with pytest.raises(ValueError):
        spec.validate_size(8)  # 3 < 0.7 * 8


def test_cluster_checker_guard_path():
    # enormous velocity spread violates the xi condition: no claim is made
    p = SystemParams(4, 0.2, 1.0, [0.1, 0.0, -0.05, -0.05])
    init = PhaseState(0.0, [0.0, 0.1, 0.2, 0.3], [8.0, -8.0, 6.0, -6.0])
    traj = integrate(p, init, 2.0, 1e-8)
    spec = ClusterSpec((0, 1, 2, 3), 0.8, 1.2, 1.0)
    out = cluster_stability_check(traj, spec, 0.5)
    assert not out["hypotheses_satisfied"]
    assert out["conclusion_checked"] is False


def test_cluster_checker_tight_cluster():
    p = SystemParams(3, 0.05, 1.0, [0.02, 0.0, -0.02])
    init = PhaseState(0.0, [0.0, 0.05, 0.1], [0.02, 0.0, -0.02])
    traj = integrate(p, init, 20.0, 1e-8)
    spec = ClusterSpec((0, 1, 2), 0.9, 1.0, 1.0)
    out = cluster_stability_check(traj, spec, 0.2)
    assert out["hypotheses_satisfied"]
    assert out["confined"]


def test_lock_certificate_single_oscillator():
    p = SystemParams(1, 0.1, 1.0, [0.7])
    traj = integrate(p, PhaseState(0.0, [0.0], [1.0]), 5.0, 1e-9)
    cert = lock_certificate(traj)
    assert cert.locked


def test_lock_certificate_identical_pair_locks():
    p = SystemParams(2, 0.05, 1.0, [0.3, 0.3])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.3, 0.3]), 60.0, 1e-9)
    cert = lock_certificate(traj)
    assert cert.locked
    assert cert.limiting_r_estimate > 0.999
    # locked frequencies sit at the mean natural frequency
    nu_c = float(p.nat_freq.mean())
    assert np.abs(traj.omega_grid[-1] - nu_c).max() < 1e-6 * p.coupling_kappa


def test_lock_certificate_drifting_pair_never_locks():
    # frequency spread beyond the coupling: no rest point for the phase gap
    p = SystemParams(2, 0.0, 1.0, [1.5, -1.5])
    traj = integrate(p, PhaseState(0.0, [0.3, 0.1], [0.0, 0.0]), 50.0, 1e-9)
    cert = lock_certificate(traj)
    assert not cert.locked
    with pytest.raises(ValueError):
        lock_certificate(traj, window_fraction=1.5)
