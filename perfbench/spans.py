"""Spans around the calls into each synclab module, taken from outside it.

`Tracer.install()` replaces each traced function by a wrapper under every
name the program calls it through: the defining module, every synclab module
that bound it by name (`from .integrate import integrate`), the package
attribute, and the CLI's runner table.  Each call records a span
(name, start, end, parent, amount) in memory; `install_peak_probe()` instead
records the allocation peak of each certifier call.  `restore()` puts the
originals back, `write()` dumps the spans and `layer_metrics()` reduces them
to the per-layer metrics.
"""

from __future__ import annotations

import importlib
import operator
import sys
import time
import tracemalloc

import numpy as np

MIB = float(1 << 20)

NAME, START, END, PARENT, AMOUNT = range(5)


def _grid_points(args, result):
    return len(result.grid)


def _query_points(args, result):
    return int(np.size(args[1]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.certify_peaks: list[int] = []

    def _wrapper(self, fn, name, amount=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, result)
            return result

        return traced

    def _peak_wrapper(self, fn):
        peaks = self.certify_peaks

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _patch(self, owner, key, value) -> None:
        setter = operator.setitem if isinstance(owner, dict) else setattr
        old = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((setter, owner, key, old))
        setter(owner, key, value)

    def _replace_everywhere(self, fn, wrapped) -> None:
        """Bind `wrapped` under every synclab name, and runner entry, bound to `fn`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "synclab" or mod_name.startswith("synclab."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        runners = importlib.import_module("synclab.cli")._RUNNERS
        for key, value in list(runners.items()):
            if value is fn:
                self._patch(runners, key, wrapped)

    def _trace(self, fn, name, amount=None) -> None:
        self._replace_everywhere(fn, self._wrapper(fn, name, amount))

    def install(self) -> None:
        mod = {
            name: importlib.import_module(f"synclab.{name}")
            for name in ("cli", "experiments", "integrate", "model", "_kernels",
                         "observables", "tikhonov", "reconstruct")
        }
        self._trace(mod["cli"].parse_and_dispatch, "cli.dispatch")
        for attr in mod["experiments"].__all__:
            if attr.startswith(("run_", "probe_")):
                self._trace(getattr(mod["experiments"], attr), "experiments.run")
        self._trace(mod["integrate"].integrate, "integrate.integrate", _grid_points)
        self._trace(mod["integrate"].taylor_jet, "integrate.taylor_jet")
        traj_cls = mod["integrate"].Trajectory
        self._patch(
            traj_cls,
            "eval_many",
            self._wrapper(traj_cls.eval_many, "integrate.eval_many", _query_points),
        )
        self._trace(mod["model"].coupling_term, "model.coupling_term")
        self._trace(mod["model"].duhamel_residual_grid, "model.certify")
        self._trace(mod["_kernels"].hermite_cell_integrals, "_kernels.hermite")
        self._trace(mod["observables"].lock_certificate, "observables.lock")
        self._trace(mod["tikhonov"].compare_trajectories, "tikhonov.compare")
        self._trace(mod["reconstruct"].contraction_map, "reconstruct.map")
        self._trace(mod["reconstruct"].counterexample_bipolar, "reconstruct.counterexample")

    def install_peak_probe(self) -> None:
        """Record the tracemalloc peak of every certifier call, and nothing else.

        Kept apart from the spans because tracing allocations slows the
        certifier's Python loops several times over.
        """
        certify = importlib.import_module("synclab.model").duhamel_residual_grid
        self._replace_everywhere(certify, self._peak_wrapper(certify))

    def restore(self) -> None:
        while self._patches:
            setter, owner, key, old = self._patches.pop()
            setter(owner, key, old)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start,end,parent,amount\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[AMOUNT]}\n")

    def _under(self, i: int, name: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Counts, total times and self times (span minus direct children) per layer."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]

        count: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        amount: dict[str, int] = {}
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            if name == "integrate.eval_many" and self._under(i, "model.certify"):
                name = "certify.eval_many"
            count[name] = count.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time[i]
            amount[name] = amount.get(name, 0) + s[AMOUNT]
        stepper_coupling = sum(
            1 for i, s in enumerate(spans)
            if s[NAME] == "model.coupling_term" and self._under(i, "integrate.integrate")
        )
        grid_points = amount.get("integrate.integrate", 0)
        return {
            "cli.self_s": own.get("cli.dispatch", 0.0),
            "experiments.self_s": own.get("experiments.run", 0.0),
            "integrate.calls": count.get("integrate.integrate", 0),
            "integrate.step_s": own.get("integrate.integrate", 0.0),
            "integrate.grid_points": grid_points,
            "integrate.dense_calls": count.get("integrate.eval_many", 0),
            "integrate.dense_points": amount.get("integrate.eval_many", 0),
            "integrate.dense_s": total.get("integrate.eval_many", 0.0),
            "integrate.jet_s": total.get("integrate.taylor_jet", 0.0),
            "model.coupling_calls": count.get("model.coupling_term", 0),
            "model.coupling_per_grid_point": stepper_coupling / grid_points if grid_points else 0.0,
            "model.coupling_s": total.get("model.coupling_term", 0.0),
            "model.certify_s": total.get("model.certify", 0.0),
            "model.certify_nodes": amount.get("certify.eval_many", 0),
            "model.certify_peak_mb": max(self.certify_peaks, default=0) / MIB,
            "kernels.hermite_s": total.get("_kernels.hermite", 0.0),
            "observables.lock_s": total.get("observables.lock", 0.0),
            "tikhonov.self_s": own.get("tikhonov.compare", 0.0),
            "reconstruct.map_calls": count.get("reconstruct.map", 0),
            "reconstruct.map_s": total.get("reconstruct.map", 0.0),
            "reconstruct.counterexample_s": total.get("reconstruct.counterexample", 0.0),
        }
