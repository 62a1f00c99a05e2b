"""The test session itself: a failing test is reported, never an internal error."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # the probe runs under this repository's pytest settings and conftest
    shutil.copy(REPO / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out


def test_importing_synclab_loads_no_scipy():
    # numpy is the package's only runtime dependency (pyproject.toml); scipy
    # serves the tests' reference solutions alone
    code = ("import sys, synclab; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout


def test_the_console_script_runs_the_cli(tmp_path):
    with open(REPO / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"synclab": "synclab.cli:main"}
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def synclab(*args):
        return subprocess.run([sys.executable, "-m", "synclab.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    usage = synclab("-h")
    assert usage.returncode == 0, usage.stderr
    assert usage.stdout == ("subcommands: simulate, compare, reconstruct, determinability, "
                            "certify, cluster, sweep, probe\n")
    bad = synclab("simulate", "--set", "horizon=-1", "--out", str(tmp_path / "o"))
    assert bad.returncode == 2
    assert bad.stderr.splitlines() == ["error: config: horizon must be positive"]
