"""Scenario runners: determinism, verdict logic, and classifications."""

from __future__ import annotations

import json
import math

import pytest

from synclab import experiments
from synclab.experiments import (
    ScenarioConfig,
    _sync_scenario,
    draw_initial_phases,
    probe_conjecture_r,
    run_cluster_experiment,
    run_identical_comparison,
    run_reconstruction_demo,
    run_single_simulation,
    run_sync_certification,
    run_tikhonov_sweep,
)


def test_config_validation():
    with pytest.raises(Exception):
        ScenarioConfig(n=0).validate()
    with pytest.raises(Exception):
        ScenarioConfig(coupling_kappa=-1.0).validate()
    with pytest.raises(Exception):
        ScenarioConfig(init_mode="weird").validate()
    with pytest.raises(Exception):
        ScenarioConfig(n=3, theta0=(0.0, 1.0)).validate()
    ScenarioConfig().validate()


@pytest.mark.parametrize("seed", range(10))
def test_initial_phase_filter(seed):
    cfg = ScenarioConfig(seed=seed, n=4)
    theta0, _ = draw_initial_phases(cfg)
    from synclab.observables import order_parameter

    assert order_parameter(theta0) > 0.05
    again, _ = draw_initial_phases(cfg)
    assert (theta0 == again).all()


def test_no_runner_draws_from_one_stream_twice(monkeypatch):
    # seed 18 at n = 2 rejects its first phase draw, so draw_initial_phases
    # takes theta0 from stream 1; every other draw must come from a stream of
    # its own
    cfg = ScenarioConfig(seed=18, n=2, horizon=2.0, tol=1e-8, m_list=(0.1,), n_max=2)
    assert draw_initial_phases(cfg)[1] == 1
    draws = []
    rng = experiments._rng

    def recorded(seed, stream):
        draws.append((seed, stream))
        return rng(seed, stream)

    monkeypatch.setattr(experiments, "_rng", recorded)
    # of the cluster runner, only its scenario draws (the runner itself needs
    # more than one cluster member at n = 2)
    runners = (run_sync_certification, run_tikhonov_sweep, run_identical_comparison,
               experiments._cluster_scenario, run_reconstruction_demo, run_single_simulation,
               probe_conjecture_r)
    for runner in runners:
        draws.clear()
        runner(cfg)
        assert draws and len(set(draws)) == len(draws), (runner.__name__, draws)


def test_sweep_determinism_bit_exact():
    cfg = ScenarioConfig(seed=7, n=4, horizon=1.5, tol=1e-9, m_list=(0.1, 0.05), n_max=3)
    rep1 = run_tikhonov_sweep(cfg)
    rep2 = run_tikhonov_sweep(cfg)
    p1 = json.dumps(rep1.to_payload(include_timing=False), sort_keys=True)
    p2 = json.dumps(rep2.to_payload(include_timing=False), sort_keys=True)
    assert p1 == p2
    assert rep1.verdict


def test_verdict_is_conjunction_of_checks():
    cfg = ScenarioConfig(seed=7, n=3, horizon=1.0, tol=1e-9, m_list=(0.1,), n_max=2)
    rep = run_tikhonov_sweep(cfg)
    assert rep.verdict == all(c["passed"] for c in rep.checks)
    rep.add_check("forced_failure", False)
    assert not rep.verdict


def test_sync_first_order_sanity_floor():
    # identical natural frequencies with zero inertia: classical locking
    cfg = ScenarioConfig(
        seed=3, n=3, horizon=120.0, tol=1e-9, seeds=1,
        a_freq_spread=0.0, b_velocity_spread=0.0, c_inertia=0.0,
    )
    rep = run_sync_certification(cfg)
    assert rep.verdict
    assert rep.summaries["r_end"][0] > 0.9


def test_sync_smallness_scaling_never_flips():
    base = dict(seed=5, n=2, horizon=150.0, tol=1e-8, seeds=1)
    outcomes = []
    for scale in (1.0, 0.1, 0.01):
        cfg = ScenarioConfig(
            **base,
            a_freq_spread=0.05 * scale,
            b_velocity_spread=0.05 * scale,
            c_inertia=0.01 * scale,
        )
        outcomes.append(run_sync_certification(cfg).verdict)
    assert outcomes[0]
    assert all(outcomes)


@pytest.mark.parametrize("seed, n", [(42, 2), (43, 3)])
def test_step_count_follows_the_dynamics(seed, n):
    # the criterion-08 desk runs lock well before t = 200; past that the slow
    # flow is still, so twice the horizon may not cost twice the steps
    points = []
    for horizon in (200.0, 400.0):
        cfg = ScenarioConfig(seed=seed, n=n, horizon=horizon, tol=1e-8, eps=0.05)
        points.append(len(_sync_scenario(cfg, 0)["trajectory"].grid))
    assert points[1] < 1.5 * points[0], points


def test_identical_comparison_zero_spread_trivial():
    cfg = ScenarioConfig(seed=2, n=3, horizon=2.0, tol=1e-9, nat_freq=(0.0, 0.0, 0.0))
    rep = run_identical_comparison(cfg)
    assert rep.verdict
    gap_check = [c for c in rep.checks if c["name"] == "identical_comparison_gap"][0]
    assert gap_check["passed"]


def test_identical_comparison_bipolar_classification():
    cfg = ScenarioConfig(
        seed=1,
        n=3,
        horizon=3.0,
        tol=1e-9,
        theta0=(0.05, -0.05, math.pi),
        nat_freq=(0.0, 0.0, 0.0),
    )
    rep = run_identical_comparison(cfg)
    assert rep.summaries["classification"] == "bipolar"
    assert rep.summaries["majority_size"] == 2


def test_cluster_guard_reports_unsatisfied():
    # gigantic velocity spread: the confinement functional rejects
    cfg = ScenarioConfig(
        seed=4, n=5, inertia_m=0.3, horizon=5.0, tol=1e-8,
        cluster_lambda=0.7, cluster_ell=1.0,
    )
    rep = run_cluster_experiment(cfg)
    # construct directly: the hypotheses check is present either way
    names = [c["name"] for c in rep.checks]
    assert "hypotheses_satisfied" in names


def test_reconstruction_demo_runner():
    from synclab.experiments import run_reconstruction_demo

    cfg = ScenarioConfig(seed=3, n=4, inertia_m=0.2, t0=0.4, tol=1e-10, horizon=1.0)
    rep = run_reconstruction_demo(cfg)
    assert rep.verdict, [c for c in rep.checks if not c["passed"]]
    assert rep.summaries["iterations"] <= 60
    assert rep.summaries["contraction_horizon"] == pytest.approx(0.5)


def test_determinability_demo_runner():
    from synclab.experiments import run_determinability_demo

    cfg = ScenarioConfig(seed=1, n=2, inertia_m=1.0, coupling_kappa=1.0, t_star=3.0)
    rep = run_determinability_demo(cfg)
    assert rep.verdict, [c for c in rep.checks if not c["passed"]]
    table = rep.summaries["threshold_table"]
    assert any(math.isinf(row["threshold"]) for row in table)
    assert any(not math.isinf(row["threshold"]) for row in table)
    assert "counterexample" in rep.summaries


def test_probe_is_informational():
    cfg = ScenarioConfig(seed=12, n=5, inertia_m=0.02, horizon=60.0, tol=1e-8)
    rep = probe_conjecture_r(cfg)
    assert rep.verdict  # never binds
    assert rep.summaries["non_binding"] is True
    assert 0.0 <= rep.summaries["r_liminf"] <= rep.summaries["r_limsup"] <= 1.0
