"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS ...` line (visible under
pytest -s / -v with output capture disabled on failure).  Criterion 12
runs last and audits the velocity-residual certification of every
trajectory produced by the earlier criteria.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from synclab.experiments import ScenarioConfig, run_cluster_experiment, run_sync_certification
from synclab.integrate import integrate
from synclab.model import (
    GalileanShift,
    PhaseState,
    SystemParams,
    apply_dilation,
    apply_galilean,
    apply_permutation,
    apply_reflection,
    mean_phase_frequency,
)
from synclab.reconstruct import (
    counterexample_bipolar,
    determinability_threshold,
    first_relative_zero,
    lipschitz_constant,
    pendulum_relative,
    reconstruct_velocity,
    sturm_picone_monitor,
    sturm_picone_tstar,
)
from synclab.tikhonov import (
    faa_di_bruno_mass,
    gronwall_identity_residual,
    propagation_bounds_check,
    rising_binomial,
)

from conftest import SWEEP_M_LIST, SWEEP_TOL

MARGIN_FLOOR = -5e-7


def _checks_named(sweep_result, m, *prefixes):
    return [
        c
        for c in sweep_result["checks"][m]
        if any(c.name.startswith(p) for p in prefixes)
    ]


def test_criterion_01_c0_certification(sweep_result, residual_registry):
    for m in SWEEP_M_LIST:
        for check in _checks_named(sweep_result, m, "c0_abs", "c0_rel"):
            if "sharp" in check.name:
                continue
            assert check.min_margin > MARGIN_FLOOR, (m, check.summary())
        traj = sweep_result["trajectories"][m]
        residual_registry.append((f"sweep_m{m:g}", traj.duhamel_sup, SWEEP_TOL))
    ratios = sweep_result["ratios"]
    assert all(0.40 <= r <= 0.60 for r in ratios), ratios
    assert sweep_result["wall_time_s"] < 10.0
    print(
        f"[criterion 01] PASS C0 plain bounds hold (worst margin floor {MARGIN_FLOOR}); "
        f"ratios={['%.3f' % r for r in ratios]}; wall={sweep_result['wall_time_s']:.2f}s"
    )


def test_criterion_02_c1_and_sharp_bounds(sweep_result):
    for m in SWEEP_M_LIST:
        for check in _checks_named(sweep_result, m, "c1_abs", "c1_rel"):
            assert check.min_margin > MARGIN_FLOOR, (m, check.summary())
        for check in _checks_named(sweep_result, m, "c0_abs_sharp", "c0_rel_sharp"):
            assert check.min_margin > MARGIN_FLOOR, (m, check.summary())
        dom = _checks_named(sweep_result, m, "sharp_below_plain")
        assert dom and all(c.passed for c in dom)
    print("[criterion 02] PASS C1 bounds past the layer, sharp C0 bounds everywhere, sharp <= plain")


def test_criterion_03_derivative_bounds(sweep_scenario, sweep_result):
    jet_prefixes = (
        "cn_abs_",
        "cn_rel_",
        "coarse_cn_",
        "first_order_",
        "inertial_rel_",
        "combined_rel_",
        "initial_",
    )
    n_checked = 0
    for m in SWEEP_M_LIST:
        for check in _checks_named(sweep_result, m, *jet_prefixes):
            assert check.min_margin > 0.0, (m, check.summary())
            n_checked += 1

    # a standalone timed pass: fresh trajectories and jets for one m
    from synclab.tikhonov import derivative_bound_suite

    params0, init = sweep_scenario
    t_start = time.perf_counter()
    params_m = SystemParams(params0.n, 0.1, params0.coupling_kappa, params0.nat_freq)
    suite = derivative_bound_suite(params_m, init, 5, (0.5, 1.0, 2.0), tol=SWEEP_TOL)
    wall = time.perf_counter() - t_start
    assert all(c.min_margin > 0.0 for c in suite), [c.summary() for c in suite if not c.passed]
    assert wall < 5.0
    print(
        f"[criterion 03] PASS {n_checked} sweep checks + {len(suite)} standalone "
        f"derivative-bound checks, all positive margin; standalone wall={wall:.2f}s"
    )


def test_criterion_04_reconstruction_round_trip(residual_registry):
    t_start = time.perf_counter()
    rng = np.random.default_rng(11)
    n, m, kappa, t0 = 4, 0.2, 1.0, 0.4
    nu = rng.normal(0, 0.2, n)
    nu -= nu.mean()
    params = SystemParams(n, m, kappa, nu)
    theta0 = rng.uniform(0, 2 * np.pi, n)
    omega0 = nu + rng.normal(0, 0.3, n)
    sim_tol = 1e-11
    traj = integrate(params, PhaseState(0.0, theta0, omega0), t0, sim_tol)
    th_t0, _ = traj.eval_many(np.array([t0]))

    res = reconstruct_velocity(params, omega0, th_t0[0], t0, tol=1e-9)
    ts = np.linspace(0.0, t0, 2001)
    err_omega = float(np.abs(res.omega.eval_many(ts)[1] - traj.eval_many(ts)[1]).max())
    err_theta0 = float(np.abs(res.theta0 - theta0).max())
    lip = lipschitz_constant(kappa, m, t0)
    wall = time.perf_counter() - t_start

    assert err_omega < 1e-6
    assert err_theta0 < 1e-6
    assert lip == pytest.approx(0.8)
    assert res.empirical_contraction <= lip + 0.05
    assert res.iterations <= 60
    assert wall < 5.0
    assert res.omega.duhamel_sup <= 50 * 1e-9
    assert err_omega <= res.error_bound
    residual_registry.append(("reconstruction_forward", traj.duhamel_sup, sim_tol))
    print(
        f"[criterion 04] PASS round-trip err_omega={err_omega:.2e} err_theta0={err_theta0:.2e} "
        f"bound={res.error_bound:.2e} contraction={res.empirical_contraction:.3f} "
        f"iters={res.iterations}; wall={wall:.2f}s"
    )


def test_criterion_05_determinability_threshold():
    got1 = determinability_threshold(0.5, 1.0)
    want1 = 1.5 * math.pi
    got2 = determinability_threshold(1.0, 1.0)
    want2 = 4 * math.pi / (3 * math.sqrt(3))
    assert abs(got1 - want1) / want1 < 1e-9
    assert abs(got2 - want2) / want2 < 1e-9
    assert determinability_threshold(0.25, 1.0) == math.inf
    assert determinability_threshold(1.0, 0.25) == math.inf
    assert determinability_threshold(0.05, 2.0) == math.inf
    print(
        f"[criterion 05] PASS T*(m=1,k=0.5)={got1:.9f} (=3pi/2), "
        f"T*(1,1)={got2:.9f} (=4pi/(3sqrt3)), small products infinite"
    )


def test_criterion_06_counterexample(residual_registry):
    t_start = time.perf_counter()
    rep = counterexample_bipolar(1, 1, 1.0, 1.0, 3.0)
    assert abs(rep["first_zero"] - 3.0) < 1e-8
    assert rep["phase_sup_at_t_star"] < 1e-6
    assert rep["phase_gap_at_t_star"] < 1e-6
    assert rep["velocity_gap_diameter"] > 0.01
    assert rep["rate_negative"]

    # small opening angle limit reproduces the linearized first zero
    pend = pendulum_relative(1.0, 1.0, 1e-3, 4.0, 1e-11)
    z_small = first_relative_zero(pend)
    assert abs(z_small - determinability_threshold(1.0, 1.0)) < 1e-3
    wall = time.perf_counter() - t_start
    assert wall < 10.0

    traj_theta, traj_phi = rep["trajectories"]
    residual_registry.append(("counterexample_theta", traj_theta.duhamel_sup, 1e-10))
    residual_registry.append(("counterexample_phi", traj_phi.duhamel_sup, 1e-10))
    print(
        f"[criterion 06] PASS eta={rep['eta']:.6f} |t1-3.0|={abs(rep['first_zero']-3.0):.1e} "
        f"|Theta(t*)-Phi(t*)|={rep['phase_gap_at_t_star']:.1e} "
        f"D(dTheta-dPhi)={rep['velocity_gap_diameter']:.3f}; wall={wall:.2f}s"
    )


def test_criterion_07_sturm_picone_monitor(residual_registry):
    t_start = time.perf_counter()
    tol = 1e-9

    # m*kappa = 0.2 <= 1/4: positivity over the whole horizon 50
    params_a = SystemParams(4, 0.2, 1.0, [3.0, 1.0, -1.0, -3.0])
    rng = np.random.default_rng(3)
    om0 = np.array(params_a.nat_freq)
    traj1 = integrate(params_a, PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), om0), 50.0, tol)
    traj2 = integrate(params_a, PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), om0), 50.0, tol)
    mon_small = sturm_picone_monitor(traj1, traj2, 1.0, 0.2)
    assert mon_small["tstar"] == math.inf
    assert mon_small["first_zero"] is None
    assert mon_small["min_l"] > 0.0
    assert mon_small["positive_until_tstar"]

    # m*kappa = 1: positivity until T*, first zero past it
    params_b = SystemParams(2, 1.0, 1.0, [0.0, 0.0])
    eta = 0.8
    a = integrate(params_b, PhaseState(0.0, [eta / 2, -eta / 2], [0.0, 0.0]), 6.0, tol)
    b = integrate(params_b, PhaseState(0.0, [-eta / 2, eta / 2], [0.0, 0.0]), 6.0, tol)
    mon_big = sturm_picone_monitor(a, b, 1.0, 1.0)
    tstar = sturm_picone_tstar(1.0, 1.0, 1.0)
    assert mon_big["first_zero"] is not None
    assert mon_big["first_zero"] >= tstar - 1e-4
    assert mon_big["positive_until_tstar"]
    wall = time.perf_counter() - t_start
    assert wall < 10.0

    for label, tr in (("monitor_a1", traj1), ("monitor_a2", traj2), ("monitor_b1", a), ("monitor_b2", b)):
        residual_registry.append((label, tr.duhamel_sup, tol))
    print(
        f"[criterion 07] PASS min L={mon_small['min_l']:.3f} over horizon 50 (mk=0.2); "
        f"first zero {mon_big['first_zero']:.6f} >= T*={tstar:.6f} (mk=1); wall={wall:.2f}s"
    )


def test_criterion_08_sync_desk_runs(residual_registry):
    t_start = time.perf_counter()
    r2 = run_sync_certification(
        ScenarioConfig(seed=42, n=2, horizon=200.0, tol=1e-8, seeds=5, eps=0.05)
    )
    r3 = run_sync_certification(
        ScenarioConfig(seed=43, n=3, horizon=200.0, tol=1e-8, seeds=5, eps=0.05)
    )
    assert r2.verdict, [c for c in r2.checks if not c["passed"]]
    assert r3.verdict, [c for c in r3.checks if not c["passed"]]
    assert all(r > 0.95 for r in r2.summaries["r_end"])
    assert all(r > 1.0 / 3.0 - 0.05 for r in r3.summaries["r_end"])
    wall = time.perf_counter() - t_start
    assert wall < 30.0

    for rep, tag in ((r2, "sync_n2"), (r3, "sync_n3")):
        for c in rep.checks:
            if c["name"].startswith("residual_seed"):
                residual_registry.append((f"{tag}_{c['name']}", c["residual"], 1e-8))
    print(
        f"[criterion 08] PASS N=2 R_end min={min(r2.summaries['r_end']):.4f} (>0.95), "
        f"N=3 R_end min={min(r3.summaries['r_end']):.4f} (>0.2833), 5 seeds each; wall={wall:.1f}s"
    )


def test_criterion_09_cluster_criterion(residual_registry):
    t_start = time.perf_counter()
    tol = 1e-8
    cfg = ScenarioConfig(
        seed=9,
        n=5,
        inertia_m=0.02,
        coupling_kappa=1.0,
        horizon=100.0,
        tol=tol,
        cluster_lambda=0.7,
        cluster_ell=1.4,
        cluster_eta=1.0,
    )
    rep = run_cluster_experiment(cfg)
    assert rep.verdict, [c for c in rep.checks if not c["passed"]]
    by_name = {c["name"]: c for c in rep.checks}
    assert by_name["hypotheses_satisfied"]["passed"]
    assert by_name["xi_whole_ensemble"]["passed"]
    assert by_name["cluster_confined"]["passed"]
    assert by_name["ensemble_locked"]["passed"]
    residual_registry.append(("cluster", by_name["residual"]["residual"], tol))
    wall = time.perf_counter() - t_start
    print(
        f"[criterion 09] PASS xi={by_name['hypotheses_satisfied']['xi']:.4f} < "
        f"{by_name['hypotheses_satisfied']['xi_threshold']:.4f}; "
        f"sup D(Theta_A)={by_name['cluster_confined']['sup_diameter']:.3f} <= 1.4; "
        f"ensemble locked; wall={wall:.1f}s"
    )


def test_criterion_10_oracle_identities():
    # exact partition identity, zero tolerance
    for alpha in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 3)):
        for n in range(1, 13):
            assert faa_di_bruno_mass(n, alpha) == rising_binomial(n, alpha)

    # delayed-kernel integral identity on a 10-point (m, kappa) grid
    worst = 0.0
    for m in (0.1, 0.2, 0.3, 0.5, 1.0):
        for kappa in (0.5, 1.5):
            resid = gronwall_identity_residual(m, kappa, 2.0 * kappa + 1.0, 3.0)
            worst = max(worst, resid)
    assert worst < 1e-8

    # ensemble means match the closed forms along a simulation
    rng = np.random.default_rng(77)
    p = SystemParams(4, 0.5, 1.0, rng.normal(0.1, 0.3, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.4, 4))
    traj = integrate(p, init, 3.0, 1e-11)
    worst_mean = 0.0
    for t in np.linspace(0.0, 3.0, 13):
        st = traj.state_at_time(float(t))
        th_c, om_c = mean_phase_frequency(p, init, float(t))
        worst_mean = max(worst_mean, abs(st.theta.mean() - th_c), abs(st.omega.mean() - om_c))
    assert worst_mean < 1e-9

    # velocity envelope bounds with slack floor -1e-7
    checks = propagation_bounds_check(traj, slack=1e-7)
    assert all(c.passed for c in checks)
    print(
        f"[criterion 10] PASS partition identity exact (n<=12, 5 alphas); "
        f"kernel-identity residual={worst:.1e} (<1e-8); mean-formula gap={worst_mean:.1e} (<1e-9); "
        f"velocity envelopes hold at slack 1e-7"
    )


def test_criterion_11_symmetry_suite():
    tol = 1e-9
    cap = 1e-7
    rng = np.random.default_rng(101)
    p = SystemParams(4, 0.25, 1.0, rng.normal(0, 0.2, 4))
    init = PhaseState(0.0, rng.uniform(0, 2 * np.pi, 4), rng.normal(0, 0.3, 4))
    horizon = 2.0
    traj = integrate(p, init, horizon, tol)
    sample = np.array([0.4, 1.1, horizon])

    # Galilean
    shift = GalileanShift(0.3, -0.2, 0.9)
    p_g, init_g, tmap = apply_galilean(p, init, shift)
    traj_g = integrate(p_g, init_g, horizon, tol)
    worst = 0.0
    for t in sample:
        a = traj_g.state_at_time(float(t))
        b = tmap(traj.state_at_time(float(t)))
        worst = max(worst, np.abs(a.theta - b.theta).max(), np.abs(a.omega - b.omega).max())
    assert worst < cap

    # dilation
    alpha = 1.7
    p_d, init_d, time_map = apply_dilation(p, init, alpha)
    traj_d = integrate(p_d, init_d, horizon / alpha, tol)
    worst_d = 0.0
    for t_new in sample / alpha:
        a = traj_d.state_at_time(float(t_new))
        b = traj.state_at_time(time_map(float(t_new)))
        worst_d = max(
            worst_d, np.abs(a.theta - b.theta).max(), np.abs(a.omega - alpha * b.omega).max()
        )
    assert worst_d < cap

    # reflection
    p_r, init_r = apply_reflection(p, init)
    traj_r = integrate(p_r, init_r, horizon, tol)
    worst_r = 0.0
    for t in sample:
        a = traj_r.state_at_time(float(t))
        b = traj.state_at_time(float(t))
        worst_r = max(worst_r, np.abs(a.theta + b.theta).max(), np.abs(a.omega + b.omega).max())
    assert worst_r < cap

    # permutation
    perm = [3, 0, 2, 1]
    p_p, init_p = apply_permutation(p, init, perm)
    traj_p = integrate(p_p, init_p, horizon, tol)
    worst_p = 0.0
    for t in sample:
        a = traj_p.state_at_time(float(t))
        b = traj.state_at_time(float(t))
        worst_p = max(
            worst_p,
            np.abs(a.theta - b.theta[perm]).max(),
            np.abs(a.omega - b.omega[perm]).max(),
        )
    assert worst_p < cap
    print(
        f"[criterion 11] PASS symmetry commutation gaps: galilean={worst:.1e} "
        f"dilation={worst_d:.1e} reflection={worst_r:.1e} permutation={worst_p:.1e} (all < 1e-7)"
    )


def test_criterion_12_duhamel_certification(residual_registry):
    assert residual_registry, "earlier criteria must register their trajectories"
    for label, residual, tol in residual_registry:
        assert residual is not None, label
        assert residual <= 50.0 * tol, (label, residual, 50.0 * tol)
    worst = max(r / (50.0 * t) for _, r, t in residual_registry)
    print(
        f"[criterion 12] PASS velocity-residual certification on {len(residual_registry)} "
        f"trajectories; worst residual at {100 * worst:.1f}% of its 50*tol budget"
    )
