"""Run one benchmark workload in this process and print its metrics as JSON.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a synclab source tree; the package is imported from
`src/`.  Workload and metric names and units come from BENCHMARK.json.  The run
  1. imports synclab and draws the inputs from `--seed`,
  2. runs one untimed warm-up pass, then whole timed passes until `--seconds`
     have gone by, with a garbage collection before each pass,
  3. in untraced runs, times `SETUP_PROBES` fresh interpreters from start
     until the workload's inputs are ready (`setup_s`), one after each of
     several passes spread over the `--seconds` and not counted in them,
  4. with `--trace 1`, runs one more pass with spans around every call into
     the package's modules, and one with the certifier's allocations traced,
     and reports the per-layer metrics instead.
A pass runs every operation of the workload once; only the scenario calls
are timed, their output checks run untimed after each call.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _require_source() -> None:
    if not (SRC / "synclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no synclab source tree under {SRC}")


def _load(workload: str, seed: int):
    """Import synclab from this tree and build the workload; returns (ops, import_s)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import synclab  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(synclab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: synclab was imported from {synclab.__file__}, not {SRC}")
    import workloads

    return workloads.build(workload, seed, OUT), import_s


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run_pass(self, ops) -> tuple[float, float]:
        """Run every operation once; returns the wall and CPU time of the calls."""
        wall = cpu = 0.0
        for op in ops:
            self.attempted += 1
            w0, c0 = time.perf_counter(), _cpu_s()
            try:
                result = op.call()
            except Exception:
                w1, c1 = time.perf_counter(), _cpu_s()
                self.failed += 1
                self.correct = False
                print(f"{op.name}: raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                w1, c1 = time.perf_counter(), _cpu_s()
                try:
                    op.check(result)
                except Exception as exc:  # a wrong or unreadable output
                    self.failed += 1
                    self.correct = False
                    print(f"{op.name}: check failed: {exc!r}", file=sys.stderr)
            wall += w1 - w0
            cpu += c1 - c0
        return wall, cpu


def _setup_probe(workload: str, seed: int) -> None:
    _load(workload, seed)
    print(json.dumps({"ready": time.monotonic()}))


def _setup_seconds(workload: str, seed: int) -> float:
    """Time from a fresh interpreter's start until its inputs are ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: setup probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    ops, import_s = _load(args.workload, args.seed)
    counter = Counter()

    counter.run_pass(ops)  # warm-up
    walls, cpus, setups = [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    probe_s = 0.0  # time spent in set-up probes, left out of the window
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start - probe_s < args.seconds:
        gc.collect()
        wall, cpu = counter.run_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
        # Probe k is due at (k + 1) / (probes + 1) of the window, so that the
        # probes see the machine at the same moments as the passes.
        due = args.seconds * (len(setups) + 1) / (probes + 1)
        p0 = time.perf_counter()
        if len(setups) < probes and p0 - t_start - probe_s >= due:
            setups.append(_setup_seconds(args.workload, args.seed))
            probe_s += time.perf_counter() - p0
    while len(setups) < probes:
        setups.append(_setup_seconds(args.workload, args.seed))
    wall_s = statistics.median(walls)
    print("pass wall_s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)

    if args.trace:
        import spans

        tracer = spans.Tracer()
        gc.collect()
        tracer.install()
        try:
            traced_wall, _ = counter.run_pass(ops)
        finally:
            tracer.restore()
        tracer.install_peak_probe()
        try:
            counter.run_pass(ops)
        finally:
            tracer.restore()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"{args.workload}-spans.csv")
        values = tracer.layer_metrics()
        values["setup.import_s"] = import_s
        values["trace.overhead_s"] = traced_wall - wall_s
        units = _units(spec["per_layer"])
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = _units(spec["end_to_end"])
    if set(values) != set(units):
        raise SystemExit(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")

    print(json.dumps({
        "correct": counter.correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
