"""CLI exit codes, config schema, CSV format, and report structure."""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synclab import cli
from synclab.cli import load_config, parse_and_dispatch, validate_report, write_trajectory_csv
from synclab.experiments import ConfigError, ScenarioConfig, _cluster_scenario
from synclab.integrate import integrate
from synclab.model import PhaseState, SystemParams


def run_cli(args):
    return parse_and_dispatch(list(args))


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert "unknown subcommand" in capsys.readouterr().err


def test_determinability_query(capsys):
    assert run_cli(["determinability", "--m", "1", "--kappa", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4.71238898"
    assert run_cli(["determinability", "--m", "1", "--kappa", "0.2"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_config_errors_name_the_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"coupling_kappa": -2.0}')
    with pytest.raises(ConfigError, match="coupling_kappa"):
        load_config(str(bad), {})
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"coupling_strength": 1.0}')
    with pytest.raises(ConfigError, match="coupling_strength"):
        load_config(str(unknown), {})
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError, match="parse"):
        load_config(str(broken), {})
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"), {})


def test_overrides_apply_and_echo(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text('{"seed": 9, "n": 2, "horizon": 5.0}')
    cfg = load_config(str(cfg_file), {"inertia_m": "0.25"})
    assert cfg.inertia_m == 0.25
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(str(cfg_file), {"bogus_key": "1"})


def test_minimal_config_round_trips(tmp_path, capsys):
    cfg_file = tmp_path / "min.json"
    cfg_file.write_text(json.dumps({"seed": 5, "n": 2, "horizon": 4.0, "inertia_m": 0.2}))
    code = run_cli(
        ["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    validate_report(rep)
    # the echo equals the effective config, field for field
    effective = load_config(str(cfg_file), {})
    for key, value in vars(effective).items():
        echoed = rep["config"][key]
        if isinstance(value, tuple):
            assert echoed == list(value), key
        else:
            assert echoed == value, key


def test_bipolar_init_mode(tmp_path):
    cfg_file = tmp_path / "bi.json"
    cfg_file.write_text(
        json.dumps(
            {
                "seed": 1,
                "n": 3,
                "n1": 2,
                "n2": 1,
                "init_mode": "bipolar",
                "bipolar_eta": 0.9,
                "inertia_m": 0.5,
                "horizon": 2.0,
            }
        )
    )
    assert run_cli(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "trajectory.csv", newline="") as fh:
        first = fh.readlines()[1].split(",")
    # two-group antipodal layout with zero mean: (eta*n2/n, ..., -eta*n1/n)
    assert float(first[1]) == pytest.approx(0.9 / 3)
    assert float(first[3]) == pytest.approx(-0.9 * 2 / 3)
    bad = tmp_path / "bad_bi.json"
    # groups that do not add up to n, an empty group, a negative one
    for n, n1, n2 in ((3, 1, 1), (2, 0, 2), (2, -1, 3)):
        bad.write_text(json.dumps({"n": n, "n1": n1, "n2": n2, "init_mode": "bipolar"}))
        with pytest.raises(ConfigError, match="n1.*n2"):
            load_config(str(bad), {})


def test_exit_code_pass_fail(tmp_path):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"seed": 42, "n": 2, "horizon": 150.0, "tol": 1e-8, "seeds": 1}))
    assert run_cli(["certify", "--config", str(ok), "--out", str(tmp_path / "o1")]) == 0
    # too short a horizon: the lock certificate fails, exit code 1
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"seed": 42, "n": 2, "horizon": 1.0, "tol": 1e-8, "seeds": 1}))
    assert run_cli(["certify", "--config", str(short), "--out", str(tmp_path / "o2")]) == 1
    rep = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert rep["verdict"] == "fail"


@pytest.mark.parametrize(
    "command, inertia, check",
    [
        (["cluster", "--set", "n=4", "--set", "cluster_indices=[0,1,2]"], "inertia_m", "residual"),
        (["certify"], "c_inertia", "residual_seed0"),
        (["simulate"], "inertia_m", "residual"),
    ],
)
@pytest.mark.parametrize("m", [0.0, 0.05])
def test_residual_check_passes_for_both_systems(command, inertia, check, m, tmp_path, capsys):
    # m = 0 is certified as the limit m -> 0 of the same bound: the check is
    # there for both systems, and it passes
    argv = [*command, "--set", f"{inertia}={m}", "--set", "horizon=5", "--out", str(tmp_path)]
    assert run_cli(argv) in (0, 1)
    assert "error:" not in capsys.readouterr().err
    rep = json.loads((tmp_path / "report.json").read_text())
    validate_report(rep)
    found = [c for c in rep["checks"] if c["name"] == check]
    assert len(found) == 1 and found[0]["passed"]


def test_exit_code_numerical_failure(tmp_path, capsys):
    # nu = +-1e20 at m = 0 swamps the phases' rounding: the step size underflows
    cfg = tmp_path / "d.json"
    cfg.write_text(
        json.dumps({"seed": 1, "n": 2, "inertia_m": 0.0, "nat_freq": [1e20, -1e20], "horizon": 1})
    )
    code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o3")])
    assert code == 3
    assert "error: numerical:" in capsys.readouterr().err


def test_nan_residual_exits_3_with_one_error_line(tmp_path, capsys):
    argv = ["simulate", "--set", "nat_freq=[1e300,-1e300]", "--set", "horizon=1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli([*argv, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: numerical:")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_every_subcommand_takes_a_single_oscillator(sub, tmp_path, capsys):
    code = run_cli([sub, "--set", "n=1", "--set", "horizon=1", "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: config:")


def test_csv_format_and_round_trip(tmp_path):
    p = SystemParams(1, 0.2, 1.0, [0.5])
    traj = integrate(p, PhaseState(0.0, [0.3], [0.1]), 1.0, 1e-9)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == ["t", "theta_1", "omega_1", "R", "D_theta", "D_omega"]
    assert len(data) == len(traj.grid)
    # text round-trip reproduces the stored floats bit-exactly
    for k in (0, len(data) // 2, -1):
        row = data[k]
        idx = k if k >= 0 else len(data) - 1
        assert float(row[0]) == traj.grid[idx]
        assert float(row[1]) == traj.theta_grid[idx, 0]
        assert float(row[2]) == traj.omega_grid[idx, 0]
        assert 0.0 <= float(row[3]) <= 1.0
    raw = path.read_bytes()
    assert b"\r" not in raw


def test_csv_r_column_in_range(tmp_path):
    rng = np.random.default_rng(6)
    p = SystemParams(3, 0.3, 1.0, rng.normal(0, 0.2, 3))
    traj = integrate(p, PhaseState(0.0, rng.uniform(0, 2 * math.pi, 3), rng.normal(0, 0.2, 3)), 2.0, 1e-9)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    r_idx = rows[0].index("R")
    for row in rows[1:]:
        assert 0.0 <= float(row[r_idx]) <= 1.0


def test_report_validator_rejects_mismatched_verdict():
    payload = {
        "experiment": "x",
        "config": {},
        "checks": [{"name": "a", "passed": False}],
        "summaries": {},
        "verdict": "pass",
    }
    with pytest.raises(ValueError):
        validate_report(payload)


def test_sweep_subcommand_dispatches(tmp_path):
    cfg = tmp_path / "s.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 7,
                "n": 3,
                "horizon": 1.5,
                "tol": 1e-9,
                "m_list": [0.1, 0.05],
                "n_max": 2,
            }
        )
    )
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", "horizon=NaN"],
        ["simulate", "--set", "horizon=Infinity"],
        ["simulate", "--set", "horizon=1e-300"],
        ["reconstruct", "--set", "t0=NaN"],
        ["determinability", "--m", "nan"],
        ["determinability", "--m", "inf"],
        ["determinability", "--m", "1", "--kappa", "nan"],
        ["determinability", "--m", "1", "--kappa", "inf"],
        # null for a field that is not optional
        ["reconstruct", "--set", "t0=null"],
        ["certify", "--set", "eps=null"],
        ["probe", "--set", "eps=null"],
        ["sweep", "--set", "m_list=null"],
        ["cluster", "--set", "cluster_lambda=null"],
        ["cluster", "--set", "cluster_ell=null"],
        ["cluster", "--set", "cluster_eta=null"],
        ["determinability", "--set", "t_star=null"],
        ["simulate", "--set", "bipolar_eta=null"],
        ["certify", "--set", "eps_theta=null"],
        ["simulate", "--set", "horizon=null"],
    ],
)
def test_bad_numbers_exit_2_with_one_error_line(argv, tmp_path, capsys):
    assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config:")


@pytest.mark.parametrize(
    "overrides",
    [
        ["n=1e400"],
        ["seed=1e400"],
        ["n_max=-Infinity"],
        ["n1=Infinity"],
        ["seeds=NaN"],
        ["n=2.5"],
        ["m_list=[[1]]"],
        ["theta0=[true,1]"],
        ["n=4", "cluster_indices=[0,5]"],
        ["n=4", "cluster_indices=[0.7,1,2]"],
        ["n=4", "cluster_indices=[-1,1,2]"],
        ["n=4", "cluster_indices=[1,1,2]"],
        ["n=4", "cluster_indices=[0,1,2]", "eps=-1"],
        ["n=4", "cluster_indices=[0,1,2]", "eps_omega=-1"],
        ["n=4", "cluster_indices=[0,1,2]", "eps_theta=-1"],
        # these named the dense reader's span and the integrator's horizon
        ["t1=-5"],
        ["t1=10.5"],
        ["t0=0"],
    ],
)
def test_bad_fields_exit_2_with_one_config_error_line(overrides, tmp_path, capsys):
    argv = ["cluster", "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config:")
    assert overrides[-1].partition("=")[0] in err[0]  # the line names the bad field
    assert not (tmp_path / "o").exists()


def test_bare_cluster_does_not_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["cluster", "--out", str(out)]) != 2, capsys.readouterr().err
    assert (out / "report.json").is_file()


@pytest.mark.parametrize(
    "n, lam, size", [(1, 0.7, 1), (2, 0.7, 2), (3, 0.7, 3), (4, 0.7, 3), (5, 0.7, 4), (10, 0.7, 9),
                     (4, 1.0, 4)],
)
def test_default_cluster_is_the_fewest_leading_indices_lambda_allows(n, lam, size):
    # at least n - 1 indices, as before, and at least lambda * n of them
    spec = _cluster_scenario(ScenarioConfig(n=n, cluster_lambda=lam))[2]
    assert spec.indices == tuple(range(size))
    spec.validate_size(n)


@pytest.mark.parametrize(
    "override, message",
    [
        # the c1 checks read t >= 5 m, past a horizon of 0.1 at m = 0.1
        ("horizon=0.1", "bound check c1_abs has no times"),
        ("m_list=[]", "m_list must be nonempty"),
        # a repeated m ran, duplicated its check names and exited 1
        ("m_list=[0.1,0.1]", "strictly descending"),
    ],
)
def test_empty_bound_checks_exit_2_with_their_own_line(override, message, tmp_path, capsys):
    assert run_cli(["sweep", "--set", override, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: config:")
    assert message in err[0]


@pytest.mark.parametrize("fraction", ["0", "1", "-0.5"])
def test_window_fraction_outside_the_unit_interval_exits_2(fraction, tmp_path, capsys):
    # a zero-width window read R 401 times at one instant and exited 0
    assert run_cli(["probe", "--set", f"window_fraction={fraction}", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config: window_fraction must lie in (0, 1)"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ScenarioConfig.__dataclass_fields__)
def test_load_config_reads_every_default_back(name):
    # a field whose kind the CLI misreads from its annotation comes back as a
    # float (repr 5.0, not 5) or is rejected
    default = getattr(ScenarioConfig(), name)
    assert repr(load_config(None, {name: json.dumps(default)})) == repr(ScenarioConfig())


def test_validate_rejects_bad_cluster_indices():
    for idx in [(0, 0.7, 2), (0, 1, 4), (-1, 0, 1), (1, 1, 2)]:
        with pytest.raises(ConfigError, match="cluster_indices"):
            ScenarioConfig(n=4, cluster_indices=idx).validate()
    ScenarioConfig(n=4, cluster_indices=(0, 1, 2)).validate()


def test_unexpected_exception_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    def broken(config):
        raise IndexError("first line\nsecond line")

    monkeypatch.setitem(cli._RUNNERS, "probe", broken)
    assert run_cli(["probe", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: internal: IndexError: first line second line"]


OPTIONAL_FIELDS = ("nat_freq", "theta0", "omega0", "a_freq_spread", "b_velocity_spread",
                   "c_inertia", "cluster_indices", "t1", "eps_omega")
REQUIRED_FIELDS = tuple(f for f in ScenarioConfig.__dataclass_fields__ if f not in OPTIONAL_FIELDS)


@pytest.mark.parametrize("name", REQUIRED_FIELDS)
def test_null_is_a_config_error_for_a_field_that_is_not_optional(name):
    # a null float or list field was taken as None, and failed later or not at all
    assert len(REQUIRED_FIELDS) == 22
    with pytest.raises(ConfigError, match=f"field '{name}'"):
        load_config(None, {name: "null"})


def _wrong_kinds(name: str):
    """Values of a kind the field `name` does not take."""
    default = getattr(ScenarioConfig(), name)
    wrong = [st.lists(st.lists(st.integers(), max_size=2), min_size=1, max_size=3)]
    if name not in OPTIONAL_FIELDS:
        wrong.append(st.none())
    if not isinstance(default, str):
        wrong.append(st.text(max_size=8))
    if not isinstance(default, bool):
        wrong.append(st.booleans())
    if type(default) is int:
        wrong.append(st.just(2.5))
    return st.one_of(wrong)


@settings(max_examples=200, database=None, deadline=None)
@given(st.data())
def test_a_value_of_the_wrong_kind_is_a_config_error(data):
    name = data.draw(st.sampled_from(sorted(ScenarioConfig.__dataclass_fields__)))
    value = data.draw(_wrong_kinds(name))
    with pytest.raises(ConfigError):
        load_config(None, {name: json.dumps(value)})


# the per-oscillator fields each subcommand reads; simulate reads theta0 and
# omega0 in explicit init only
READS = {"compare": ("theta0", "nat_freq"), "probe": ("nat_freq",), "simulate": ("nat_freq",)}


@pytest.mark.parametrize("field", ["nat_freq", "theta0", "omega0"])
@pytest.mark.parametrize("sub", cli.SUBCOMMANDS)
def test_a_per_oscillator_field_the_runner_does_not_read_exits_2(sub, field, tmp_path, capsys):
    # such a field was echoed in report.json as if the run had used it
    argv = [sub, "--set", "horizon=2", "--set", f"{field}=[0.5,-0.5]", "--out", str(tmp_path / "o")]
    code = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    if field in READS.get(sub, ()):
        assert code in (0, 1) and err == []
    else:
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: config:") and field in err[0]
        assert not (tmp_path / "o").exists()


def test_explicit_simulate_reads_all_per_oscillator_fields(tmp_path):
    argv = ["simulate", "--set", "init_mode=explicit", "--set", "horizon=2",
            "--set", "nat_freq=[0.1,-0.1]", "--set", "theta0=[0,1]", "--set", "omega0=[0.5,-0.5]",
            "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[0, 1:5].tolist() == [0.0, 1.0, 0.5, -0.5]
