"""Make a set of benchmark runs, or compare two sets of one commit.

    python3 perfbench/sets.py run A              # seeds 1..10 x every workload
    python3 perfbench/sets.py run B              # the same, some time later
    python3 perfbench/sets.py compare A B

`run` executes `perfbench/run.py` untraced once per workload of BENCHMARK.json
and seed 1..10, each in a fresh process, with the command and run length from
BENCHMARK.json, saves the
results to `.perfbench-out/sets/<label>.json` and prints, per workload and
metric, the median, the quartiles and the quartile spread as a share of the
median.  `compare` prints both sets side by side with the change of the
median against the metric's bound, and the share of failed operations.
Make the two sets at different times to see the drift a bound must absorb.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ROOT / ".perfbench-out" / "sets"
RUN_TIMEOUT_S = 900.0
SEEDS = range(1, 11)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(runs: list[dict]) -> dict[str, dict[str, float]]:
    """Per metric: median, quartiles and (q3 - q1) / median over the runs."""
    names = runs[0]["metrics"].keys()
    out = {}
    for name in names:
        q1, med, q3 = _quartiles([r["metrics"][name]["value"] for r in runs])
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def run_set(label: str) -> None:
    spec = _spec()
    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in SEEDS:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} "
                  f"correct={result['correct']} {values} run={time.monotonic() - start:.1f}s",
                  flush=True)
    SETS.mkdir(parents=True, exist_ok=True)
    (SETS / f"{label}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    for workload, runs in results.items():
        for name, s in _summary(runs).items():
            print(f"{workload:8s} {name:32s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.2%}")


def compare(label_a: str, label_b: str) -> None:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    a = json.loads((SETS / f"{label_a}.json").read_text(encoding="utf-8"))
    b = json.loads((SETS / f"{label_b}.json").read_text(encoding="utf-8"))
    for workload in a:
        if workload not in b:
            continue
        sa, sb = _summary(a[workload]), _summary(b[workload])
        for name in sa:
            ma, mb = sa[name]["median"], sb[name]["median"]
            change = (mb - ma) / ma if ma else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else ("within" if change <= bound else "WORSE")
            print(f"{workload:8s} {name:32s} A={ma:.5g} ({sa[name]['spread']:.2%}) "
                  f"B={mb:.5g} ({sb[name]['spread']:.2%}) change={change:+.2%} "
                  f"bound={bound} {verdict}")
        fa = sum(r["failed"] for r in a[workload]) / sum(r["attempted"] for r in a[workload])
        fb = sum(r["failed"] for r in b[workload]) / sum(r["attempted"] for r in b[workload])
        print(f"{workload:8s} failed share A={fa:.4g} B={fb:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="make one set of runs")
    p_run.add_argument("label")
    p_cmp = sub.add_parser("compare", help="compare two saved sets")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        run_set(args.label)
    else:
        compare(args.a, args.b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
