"""Shared scenario fixtures; the heavy sweep is computed once per session."""

from __future__ import annotations

import time
import warnings

# A failing hypothesis test makes hypothesis's pytest plugin import
# hypothesis.extra._patching, whose libcst import warns that
# mypy_extensions.TypedDict is deprecated.  pyproject.toml turns that warning
# into an error inside a pytest hook, which ends the session in INTERNALERROR
# and leaves every later test unreported.  Imported here once, with that
# warning ignored, the module is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

import numpy as np
import pytest

from synclab.experiments import _rng, _spread_to
from synclab.model import PhaseState, SystemParams
from synclab.tikhonov import compare_trajectories

SWEEP_SEED = 20250401
SWEEP_M_LIST = (0.1, 0.05, 0.025, 0.0125)
SWEEP_TOL = 1e-9


@pytest.fixture(scope="session")
def sweep_scenario():
    """Seeded N=5 data with D(nu) = 0.3 and D(omega0) = 0.5 exactly."""
    rng = _rng(SWEEP_SEED, 0)
    theta0 = rng.uniform(0.0, 2.0 * np.pi, 5)
    rng2 = _rng(SWEEP_SEED, 1000)
    nu = _spread_to(rng2.normal(0.0, 1.0, 5), 0.3)
    om0 = _spread_to(rng2.normal(0.0, 1.0, 5), 0.5)
    params0 = SystemParams(5, 0.0, 1.0, nu)
    return params0, PhaseState(0.0, theta0, om0)


@pytest.fixture(scope="session")
def sweep_result(sweep_scenario):
    params0, init = sweep_scenario
    t_start = time.perf_counter()
    res = compare_trajectories(
        params0,
        init,
        list(SWEEP_M_LIST),
        3.0,
        n_max=5,
        tol=SWEEP_TOL,
        strict=True,
    )
    res["wall_time_s"] = time.perf_counter() - t_start
    res["tol"] = SWEEP_TOL
    return res


@pytest.fixture(scope="session")
def residual_registry():
    """Trajectory certification evidence accumulated across acceptance runs."""
    return []
