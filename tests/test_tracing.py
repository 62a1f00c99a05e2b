"""The benchmark's tracer finds every name it wraps in the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import synclab
from synclab import model
from synclab.model import PhaseState, SystemParams

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_around_one_run_and_restores():
    # install() looks up every traced name (hermite_cell_integrals,
    # duhamel_residual_grid, Trajectory.eval_many, contraction_map, ...), so
    # renaming one fails here and not only under the traced benchmark
    integrate, certify = synclab.integrate, model.duhamel_residual_grid
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        tracer.install_peak_probe()
        p = SystemParams(2, 0.5, 1.0, [0.1, -0.1])
        traj = synclab.integrate(p, PhaseState(0.0, [0.0, 1.0], [0.0, 0.0]), 2.0, 1e-8)
    finally:
        tracer.restore()
    assert traj.duhamel_sup <= 50 * traj.tol
    names = {span[0] for span in tracer.spans}
    assert {"integrate.integrate", "model.coupling_term"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["integrate.grid_points"] == len(traj.grid)
    # the certificate does not read the dense output through the traced
    # eval_many, so a bare integrate counts no dense calls
    assert metrics["integrate.dense_calls"] == 0
    assert synclab.integrate is integrate and model.duhamel_residual_grid is certify
