"""Vector fields, symmetries, conserved means, and the velocity residual."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synclab import model
from synclab.experiments import ScenarioConfig, _sync_scenario
from synclab.integrate import IntegrationError, Trajectory, _certified, integrate, taylor_jet
from synclab.model import (
    GalileanShift,
    PhaseState,
    SystemParams,
    apply_dilation,
    apply_galilean,
    apply_permutation,
    apply_reflection,
    coupling_and_rate,
    coupling_term,
    duhamel_residual,
    duhamel_residual_grid,
    mean_phase_frequency,
    rhs_first_order,
    rhs_second_order,
)
from synclab.observables import lock_certificate, order_parameter

from conftest import SWEEP_M_LIST, SWEEP_TOL
from pairwise_oracles import pairwise_coupling_and_rate


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
    p, traj, k, tol, _, _ = _corrupted_long_cell("near_right_end")
    _check_flags_corrupted_cell(p, traj, k, tol)


def test_duhamel_residual_detects_corruption_mid_cell():
    # the kernel fades a defect by e^{-1} per m before the next grid point,
    # so only a residual taken between grid points sees this one
    p, traj, k, tol, _, _ = _corrupted_long_cell("mid_cell")
    _check_flags_corrupted_cell(p, traj, k, tol)


@pytest.mark.parametrize("where", ["near_right_end", "mid_cell"])
def test_corruption_flagged_with_a_chunk_boundary_inside_the_bump(monkeypatch, where):
    p, traj, k, tol, center, width = _corrupted_long_cell(where)
    _check_flags_corrupted_cell(p, traj, k, tol)  # records every sub-node
    # chunks of j // 4 sub-cells start at multiples of it, so one starts at
    # most 3 sub-nodes (0.3 m) before the bump's centre, sub-node j
    nodes = np.unique(np.concatenate(traj.queries))
    j = int(np.searchsorted(nodes, center))
    monkeypatch.setattr(model, "_CHUNK_ENTRIES", p.n * (j // 4))
    traj.queries.clear()
    _check_flags_corrupted_cell(p, traj, k, tol)
    starts = np.array([q[0] for q in traj.queries[1:]])
    assert np.any(np.abs(starts - center) < width)


def _corrupted_long_cell(where):
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
        queries = []  # the sub-nodes of every eval_many call, one per chunk

        @staticmethod
        def eval_many(ts):
            Corrupted.queries.append(np.asarray(ts))
            th, om = traj.eval_many(ts)
            b, db = bump(ts)
            return th + np.outer(b, [1.0, 0.0]), om + np.outer(db, [1.0, 0.0])

    return p, Corrupted(), k, tol, center, width


def _check_flags_corrupted_cell(p, traj, k, tol):
    res = duhamel_residual_grid(p, traj)
    assert res[k + 1].max() > 50 * tol  # the corrupted cell itself
    assert res[: k + 1].max() < 50 * tol


def _certified_run(m):
    """A certified run at m = 1e-3, with cells many m long, or at m = 0.3."""
    if m == 1e-3:
        p = SystemParams(2, m, 1.0, [0.05, -0.05])
        traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 12.0, 1e-8)
    else:
        p = SystemParams(3, m, 1.0, [0.2, 0.0, -0.2])
        traj = integrate(p, PhaseState(0.0, [0.0, 1.0, 2.0], [0.1, 0.0, -0.1]), 10.0, 1e-9)
    assert traj.method == "exp"
    return p, traj


@pytest.mark.parametrize("m, nodes_per_chunk", [(1e-3, 64), (0.3, 2), (0.3, 3), (0.3, 7)])
def test_duhamel_residual_grid_is_chunk_invariant(monkeypatch, m, nodes_per_chunk):
    # the m = 1e-3 run has 1.2e5 sub-nodes, so its chunks stay at 64 nodes:
    # about 1900 chunk boundaries, inside long cells and on grid points alike
    p, traj = _certified_run(m)
    default = duhamel_residual_grid(p, traj)
    t = 0.6 * traj.horizon
    single = duhamel_residual(p, traj, t)
    monkeypatch.setattr(model, "_CHUNK_ENTRIES", p.n * nodes_per_chunk)
    chunked = duhamel_residual_grid(p, traj)
    assert chunked.shape == default.shape
    assert np.abs(chunked - default).max() < 1e-14
    assert np.abs(duhamel_residual(p, traj, t) - single).max() < 1e-14


def _long_exp_cell():
    # a certified exp run and its last cell but one, many m long: cells
    # before it and one after it read the bound unchanged
    p, traj = _certified_run(1e-3)
    k = len(traj.grid) - 3
    assert traj.grid[k] > 6.0 and traj.grid[k + 1] - traj.grid[k] > 10 * p.inertia_m
    return p, traj, k, 50 * traj.tol


def _with_segment(traj, k, field, change):
    """traj with one cell's coupling model or start value changed, and nothing else."""
    values = getattr(traj, field).copy()
    values[k] += change
    return dataclasses.replace(traj, **{field: values})


def test_defect_bound_certifies_a_clean_exp_run():
    p, traj, _, gate = _long_exp_cell()
    bound = model._defect_bound(p, traj, gate)
    assert bound.shape == (len(traj.grid), p.n)
    assert bound.max() == traj.duhamel_sup
    assert np.abs(duhamel_residual_grid(p, traj)).max() <= traj.duhamel_sup <= gate


def _resolved_residual(p, traj, split=32):
    """The largest velocity residual with every grid cell split `split` times.

    Over a cell wider than m/10 the certifier's cubic Hermite sub-cells have
    a quadrature floor; on these finer sub-cells it lies far below the
    residual of a clean run.
    """
    grid = traj.grid
    nodes = grid[:-1, None] + np.diff(grid)[:, None] * np.arange(split) / split
    return np.abs(model._velocity_residual(p, traj.eval_many, np.append(nodes, grid[-1]))[0]).max()


def test_defect_bound_certifies_a_clean_dop853_run():
    p, traj = _certified_run(0.3)
    gate = 50 * traj.tol
    bound = model._defect_bound(p, traj, gate)
    assert bound.shape == (len(traj.grid), p.n)
    assert bound.max() == traj.duhamel_sup <= gate
    assert _resolved_residual(p, traj) <= traj.duhamel_sup


def _first_order_cell():
    # a certified first-order run and its last cell but one
    p = SystemParams(2, 0.0, 1.0, [0.05, -0.05])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 20.0, 1e-8)
    return p, traj, len(traj.grid) - 3, 50 * traj.tol


def test_defect_bound_flags_a_corrupted_coupling_model():
    # a wrong top coefficient in one cell's coupling model: the defect there
    # is about 1e-5 x^q, x = (t - t_k) / h_k.  At m = 0 the residual is that
    # defect itself, with no memory: the bound must catch it in row k + 1
    # and leave the next cell's row as it was
    for p, traj, k, gate in (_long_exp_cell(), _first_order_cell()):
        change = np.zeros(traj._coefs.shape[1:])
        change[-1, 0] = 1e-5
        bad = _with_segment(traj, k, "_coefs", change)
        bound = model._defect_bound(p, bad, gate)
        assert bound[k + 1].max() > gate
        assert bound[: k + 1].max() < gate
        with pytest.raises(IntegrationError, match="certification failed"):
            _certified(bad)
        if p.is_inertial:  # the exact residual is defined for m > 0 only
            assert np.abs(duhamel_residual_grid(p, bad))[k + 1].max() > gate
        else:
            clean = model._defect_bound(p, traj, gate)
            assert np.array_equal(bound[k + 2], clean[k + 2])
            assert clean[k + 2].max() < 0.1 * gate


def _bump(center, width, amp):
    """b, b' and b'' of amp (1 - x^2)^4, x = (t - center) / width."""
    def bump(ts):
        x = (np.asarray(ts) - center) / width
        u = np.clip(1.0 - x**2, 0.0, None)
        return (amp * u**4, -8.0 * amp * x * u**3 / width,
                -8.0 * amp * u**2 * (1.0 - 7.0 * x**2) / width**2)

    return bump


def _bumped(eval_with_model, m, bump):
    """eval_with_model with a bump b added to theta_0 and its rate b' to omega_0."""
    def bumped(ts, cells=None):
        # the bumped omega relaxes to g + m b'' + b', which the bound reads
        th, om, g = eval_with_model(ts, cells)
        first = np.eye(th.shape[1])[0]
        b, db, d2b = bump(ts)
        return (th + np.outer(b, first), om + np.outer(db, first),
                g + np.outer(m * d2b + db, first))

    return bumped


def _level4_bump(grid, m, k, peak):
    """A bump on cell k whose m b'' peaks at `peak`, seen by no level-3 node.

    It is centred on an odd sixteenth of the cell, a node of the defect bound
    new at level 4, and is a 32nd of the cell wide, so it vanishes at the
    even sixteenths; of those centres it takes the one farthest from the
    cell's layer nodes m/10 * 2^j.
    """
    h = grid[k + 1] - grid[k]
    odd = np.arange(1, 16, 2) / 16.0
    layer = np.minimum(m / 10.0 * 2.0 ** np.arange(64), h) / h
    gap = np.abs(odd[:, None] - layer).min(axis=1)
    assert gap.max() > 1.0 / 32.0
    width = h / 32.0
    return _bump(grid[k] + odd[np.argmax(gap)] * h, width, peak * width**2 / (8.0 * m))


def _bumped_run():
    m = 1.0
    p = SystemParams(2, m, 1.0, [0.05, -0.05])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 12.0, 1e-10)
    assert traj.method == "exp"
    widths = np.diff(traj.grid)
    k = int(np.argmin(widths[1:-1])) + 1
    assert widths[k] < 0.3 * m
    return p, traj, k, 50 * traj.tol


def test_defect_bound_flags_a_bump_between_dop853_grid_points():
    # a bump on theta_0 (and its rate on omega_0) inside one cell only; the
    # cell is shorter than m, so the bound hands on at most 1 - e^{-h/m} of
    # the cell's defect to the next cell, and only this cell reads above gate
    p, traj, k, gate = _bumped_run()
    m, width = p.inertia_m, 0.25 * (traj.grid[k + 1] - traj.grid[k])
    bump = _bump(0.5 * (traj.grid[k] + traj.grid[k + 1]), width,
                 2.0 * gate * width**2 / (8.0 * m))  # m b'' peaks at twice the gate
    assert not np.any(bump(traj.grid)[0])  # every grid value stays as it was
    bumped = SimpleNamespace(grid=traj.grid, eval_with_model=_bumped(traj.eval_with_model, m, bump))
    bound = model._defect_bound(p, bumped, gate)
    assert np.flatnonzero(bound.max(axis=1) > gate).tolist() == [k + 1]


def test_defect_bound_is_unresolved_by_a_bump_only_level_4_sees():
    # a defect of half the gate on one node new at level 4: the sup there
    # exceeds the level-3 sup by more than gate/10, which the one-level bound
    # cannot resolve
    p, traj, k, gate = _bumped_run()
    bump = _level4_bump(traj.grid, p.inertia_m, k, 0.5 * gate)
    bumped = SimpleNamespace(grid=traj.grid,
                             eval_with_model=_bumped(traj.eval_with_model, p.inertia_m, bump))
    assert model._defect_bound(p, traj, gate) is not None
    assert model._defect_bound(p, bumped, gate) is None


def test_defect_bound_flags_a_jump_at_a_grid_point():
    # omega restarts 1e-5 off at t_k; the residual jumps with it and then
    # fades over a few m inside the cell
    p, traj, k, gate = _long_exp_cell()
    bad = _with_segment(traj, k, "omega_grid", 1e-5)
    bound = model._defect_bound(p, bad, gate)
    assert bound[k + 1].max() > 1e-5
    assert bound[:k].max() < gate
    assert bound[k + 2 :].max() < gate
    assert np.abs(duhamel_residual_grid(p, bad))[k + 1].max() > gate


def test_defect_bound_is_chunk_invariant(monkeypatch):
    for p, traj in (_certified_run(1e-3), _certified_run(0.3)):
        gate = 50 * traj.tol
        default = model._defect_bound(p, traj, gate)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_CHUNK_ENTRIES", 1)  # one cell per chunk
            chunked = model._defect_bound(p, traj, gate)
        assert np.allclose(chunked, default, rtol=1e-12, atol=0.0)


def _check_falls_back(monkeypatch, fallback, m):
    # the defect bound is the only certificate integrate takes: a bound that
    # misses the gate or stays unresolved raises, and the exact residual
    # (model.duhamel_residual_grid) is left to the caller as the fallback
    # oracle; on these runs it proves the gate the bound was kept from proving
    def above_gate(params, traj, gate):
        return np.ones((len(traj.grid), params.n))

    with monkeypatch.context() as patch:
        if fallback == "level_cap":  # one cell unresolved at the bound's one level
            read = Trajectory.eval_with_model

            def unresolved(self, ts, cells=None):
                k = len(self.grid) // 2
                bump = _level4_bump(self.grid, m, k, 25 * self.tol)
                return _bumped(lambda *a: read(self, *a), m, bump)(ts, cells)

            patch.setattr(Trajectory, "eval_with_model", unresolved)
        else:
            patch.setattr(model, "_defect_bound", above_gate if fallback == "above_gate" else lambda *_: None)
        with pytest.raises(IntegrationError, match="certification failed"):
            _certified_run(m)
    p, traj = _certified_run(m)
    exact = float(np.max(np.abs(duhamel_residual_grid(p, traj))))
    assert exact <= 50 * traj.tol


@pytest.mark.parametrize("fallback", ["above_gate", "unresolved", "level_cap"])
def test_exp_certificate_falls_back_to_the_exact_residual(monkeypatch, fallback):
    _check_falls_back(monkeypatch, fallback, 1e-3)


@pytest.mark.parametrize("fallback", ["above_gate", "unresolved", "level_cap"])
def test_dop853_certificate_falls_back_to_the_exact_residual(monkeypatch, fallback):
    _check_falls_back(monkeypatch, fallback, 0.3)


def test_exp_certificate_skips_the_exact_residual_when_the_bound_holds(monkeypatch):
    def exact(params, traj):
        raise AssertionError("the defect bound proves this run")

    monkeypatch.setattr(model, "duhamel_residual_grid", exact)
    p = SystemParams(2, 1e-3, 1.0, [0.05, -0.05])
    traj = integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 12.0, 1e-8)
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * 1e-8


def test_resolved_inertia_runs_are_certified_by_the_bound_alone(monkeypatch, sweep_scenario):
    # criterion 10's run, the Tikhonov sweep and the reconstruction round trip
    def exact(params, traj):
        raise AssertionError("the defect bound proves this run")

    monkeypatch.setattr(model, "duhamel_residual_grid", exact)
    rng = np.random.default_rng(77)
    p = SystemParams(4, 0.5, 1.0, rng.normal(0.1, 0.3, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.4, 4))
    runs = [(p, init, 3.0, 1e-11)]
    params0, init = sweep_scenario
    runs += [(dataclasses.replace(params0, inertia_m=m), init, 3.0, SWEEP_TOL) for m in SWEEP_M_LIST]
    rng = np.random.default_rng(11)
    nu = rng.normal(0, 0.2, 4)
    nu -= nu.mean()
    theta0 = rng.uniform(0, 2 * np.pi, 4)
    init = PhaseState(0.0, theta0, nu + rng.normal(0, 0.3, 4))
    runs.append((SystemParams(4, 0.2, 1.0, nu), init, 0.4, 1e-11))
    for params, init, horizon, tol in runs:
        traj = integrate(params, init, horizon, tol)
        assert traj.method == "exp" and traj.duhamel_sup <= 50 * tol


_DESK_SEEDS = [(42 + k, 2) for k in range(5)] + [(43 + k, 3) for k in range(5)]


@pytest.mark.parametrize("seed, n", _DESK_SEEDS)
def test_defect_bound_covers_the_residual_on_the_desk_runs(seed, n):
    cfg = ScenarioConfig(seed=seed, n=n, horizon=200.0, tol=1e-8, eps=0.05)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.method == "exp"
    exact = np.abs(duhamel_residual_grid(traj.params, traj)).max()
    assert exact <= traj.duhamel_sup <= 50 * cfg.tol


def _exact_residual_forbidden(monkeypatch):
    def exact(params, traj):
        raise AssertionError("the defect bound proves this run")

    monkeypatch.setattr(model, "duhamel_residual_grid", exact)


@pytest.mark.parametrize("seed, n", _DESK_SEEDS)
def test_desk_runs_take_steps_on_the_time_scale_of_the_locked_flow(monkeypatch, seed, n):
    # past the O(m) layer the run follows the first-order flow, whose time
    # scale is 1/kappa = 1: steps tied to m = 0.01 or to tol^(1/4) would take
    # hundreds of grid points and thousands of coupling calls here, and once
    # the ensemble locks, twice the horizon costs next to nothing
    _exact_residual_forbidden(monkeypatch)
    calls = []
    coupling = model.coupling_term

    def counted(params, theta):
        calls.append(1)
        return coupling(params, theta)

    monkeypatch.setattr(model, "coupling_term", counted)
    points = []
    for horizon in (200.0, 400.0):
        calls.clear()
        cfg = ScenarioConfig(seed=seed, n=n, horizon=horizon, tol=1e-8, eps=0.05)
        traj = _sync_scenario(cfg, 0)["trajectory"]
        assert traj.method == "exp" and traj.duhamel_sup <= 50 * cfg.tol
        points.append(len(traj.grid))
        if horizon == 200.0:
            assert points[0] <= 100 and len(calls) <= 600, (points, len(calls))
    assert points[1] <= 1.1 * points[0], points


def test_small_inertia_run_is_certified_by_the_bound_alone(monkeypatch):
    # the benchmark's small-m scenario: m = 1e-3 over 150 time units
    _exact_residual_forbidden(monkeypatch)
    cfg = ScenarioConfig(seed=5, n=2, horizon=150.0, tol=1e-8, eps=0.05, a_freq_spread=0.005,
                         b_velocity_spread=0.005, c_inertia=1e-3)
    traj = _sync_scenario(cfg, 0)["trajectory"]
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * cfg.tol


class _RelaxingCluster:
    """n identical oscillators in one phase: the coupling vanishes, and each
    follows the single-oscillator relaxation in closed form."""

    def __init__(self, n, m, horizon, cells=1000):
        self.n, self.m, self.nu, self.omega0 = n, m, 0.3, -0.2
        self.params = SystemParams(n, m, 1.0, np.full(n, self.nu))
        self.grid = np.linspace(0.0, horizon, cells + 1)

    def eval_many(self, ts):
        ts = np.asarray(ts, dtype=float)[:, None]
        e = np.exp(-ts / self.m)
        theta = 0.4 + self.nu * ts + self.m * (self.omega0 - self.nu) * (1.0 - e)
        omega = self.nu + (self.omega0 - self.nu) * e
        return np.repeat(theta, self.n, axis=1), np.repeat(omega, self.n, axis=1)


def _traced_peak_mib(fn, *args):
    """fn(*args) and the tracemalloc peak of the call in MiB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def _certifier_peak_mib(traj):
    res, peak = _traced_peak_mib(duhamel_residual_grid, traj.params, traj)
    assert res.shape == (len(traj.grid), traj.n)
    assert res.max() < 1e-12  # an exact solution
    return peak


def test_certifier_memory_does_not_grow_with_horizon_over_m():
    # 1e6 and 2e6 sub-nodes: one (Q, n) array over all of them would take 15
    # and 30 MiB at n = 2, one (Q, n, n) array twice that
    m = 1e-3
    peak_1 = _certifier_peak_mib(_RelaxingCluster(2, m, 1e5 * m))
    peak_2 = _certifier_peak_mib(_RelaxingCluster(2, m, 2e5 * m))
    assert peak_1 < 20.0
    assert peak_2 < 1.05 * peak_1
    # at n = 128 one (Q, n, n) array over the 1e4 sub-nodes would take 1.2 GiB
    assert _certifier_peak_mib(_RelaxingCluster(128, m, 1e3 * m)) < 20.0


def test_coupling_and_jet_memory_is_linear_in_n():
    # one (n, n) float array takes 2 MiB at n = 512 and 32 MiB at n = 2048
    rng = np.random.default_rng(11)
    n = 512
    params = SystemParams(n, 0.1, 1.0, rng.normal(0.0, 0.3, n))
    state = PhaseState(0.0, rng.uniform(0.0, 2 * math.pi, n), rng.normal(0.0, 0.3, n))
    jet, peak = _traced_peak_mib(taylor_jet, params, state, 12)
    assert jet.coeffs.shape == (13, n)
    assert peak < 2.0
    n = 2048
    params = SystemParams(n, 0.1, 1.0, np.zeros(n))
    c, peak = _traced_peak_mib(coupling_term, params, rng.uniform(0.0, 2 * math.pi, n))
    assert c.shape == (n,)
    assert peak < 2.0


def test_exp_integration_memory_is_linear_in_n():
    # n = 1024: one (n, n) float array takes 8 MiB, one (q n, q n) array 288 MiB
    rng = np.random.default_rng(3)
    n = 1024
    params = SystemParams(n, 5e-4, 1.0, rng.normal(0.0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * math.pi, n), rng.normal(0.0, 0.3, n))
    traj, peak = _traced_peak_mib(integrate, params, init, 10.0, 1e-8)
    assert traj.method == "exp" and traj.duhamel_sup <= 50 * 1e-8
    assert peak < 32.0


def test_lock_memory_follows_a_block_not_the_window():
    # the wide draw at n = 8192 (15 cells): one (Q, n) float array over the
    # 2006 times read before the cell walk took 125 MiB, and three of them
    # peaked at 384.5 MiB
    n = 8192
    rng = np.random.default_rng([1, n])
    params = SystemParams(n, 0.5, 1.0, rng.normal(0.0, 0.3, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * math.pi, n), rng.normal(0.0, 0.3, n))
    traj = integrate(params, init, 10.0, 1e-8)
    cert, peak = _traced_peak_mib(lock_certificate, traj)
    assert not cert.locked and 0.0 < cert.limiting_r_estimate < 1.0
    assert peak <= 32.0, peak


@st.composite
def _phase_batches(draw):
    n = draw(st.sampled_from([1, 2, 3, 128]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=3)) + (n,)
    theta = draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3)))
    omega = draw(hnp.arrays(float, shape, elements=st.floats(-10.0, 10.0)))
    return draw(st.floats(0.1, 10.0)), theta, omega


@settings(deadline=None, max_examples=60)
@given(_phase_batches())
def test_mean_field_coupling_matches_pairwise(batch):
    kappa, theta, omega = batch
    n = theta.shape[-1]
    params = SystemParams(n, 0.1, kappa, np.zeros(n))
    g, dg = coupling_and_rate(params, theta, omega)
    c = coupling_term(params, theta)
    g_ref, dg_ref = pairwise_coupling_and_rate(kappa, theta, omega)
    assert g.shape == dg.shape == c.shape == theta.shape
    # the oracle rounds theta_l - theta_i, off by up to eps * |theta|
    scale = 8.0 * kappa * np.finfo(float).eps * (1.0 + np.abs(theta).max())
    assert np.abs(g - g_ref).max() <= scale
    assert np.abs(c - g_ref).max() <= scale
    assert np.abs(dg - dg_ref).max() <= scale * (1.0 + np.abs(omega).max())


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


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.floats(0.05, 1.0), st.floats(0.5, 2.0), st.integers(0, 2**16),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi)),
       st.floats(0.5, 2.0), st.data())
def test_symmetry_maps_commute_with_integration(n, m, horizon, seed, shift, alpha, data):
    # the four maps of criterion 11 on random draws, with its gaps and 1e-7 cap
    tol, cap = 1e-9, 1e-7
    rng = np.random.default_rng(seed)
    p = SystemParams(n, m, 1.0, rng.normal(0.0, 0.2, n))
    init = PhaseState(0.0, rng.uniform(0.0, 2 * math.pi, n), rng.normal(0.0, 0.3, n))
    traj = integrate(p, init, horizon, tol)
    sample = horizon * np.array([0.2, 0.55, 1.0])

    def worst(run, times, image):
        """Largest gap between run at t and the image of traj's state at t0, over (t, t0)."""
        out = 0.0
        for t, t0 in times:
            a, (theta, omega) = run.state_at_time(float(t)), image(traj.state_at_time(float(t0)))
            out = max(out, np.abs(a.theta - theta).max(), np.abs(a.omega - omega).max())
        return out

    p_g, init_g, tmap = apply_galilean(p, init, GalileanShift(*shift))
    run = integrate(p_g, init_g, horizon, tol)
    assert worst(run, zip(sample, sample), lambda s: (tmap(s).theta, tmap(s).omega)) < cap
    p_d, init_d, time_map = apply_dilation(p, init, alpha)
    run = integrate(p_d, init_d, horizon / alpha, tol)
    times = [(t, time_map(t)) for t in sample / alpha]
    assert worst(run, times, lambda s: (s.theta, alpha * s.omega)) < cap
    p_r, init_r = apply_reflection(p, init)
    run = integrate(p_r, init_r, horizon, tol)
    assert worst(run, zip(sample, sample), lambda s: (-s.theta, -s.omega)) < cap
    perm = data.draw(st.permutations(range(n)))
    p_p, init_p = apply_permutation(p, init, perm)
    run = integrate(p_p, init_p, horizon, tol)
    assert worst(run, zip(sample, sample), lambda s: (s.theta[perm], s.omega[perm])) < cap


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
