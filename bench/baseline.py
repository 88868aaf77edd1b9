"""Run the benchmark over several seeds and summarize each end-to-end metric.

Usage, from the repository root::

    python3 bench/baseline.py --seeds 1-10 [--workload NAME ...] [--write bench/baseline.json]

Runs ``bench/run.py --trace 0`` once per (workload, seed), one run at a
time, and prints for every metric its median, quartiles and quartile spread
(``(q3 - q1) / median``, from ``statistics.quantiles(values, n=4)``) next
to the metric's bound in BENCHMARK.json.  ``--write`` stores the summary,
the per-seed values and the per-seed output digests as a baseline file;
``--against`` compares each median with such a file.  The exit code is 0
only when every spread but ``setup_s``'s is below a third of its bound and
no median is worse than the file's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from metrics import spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["all_end_to_end"] = detail["details"]["end_to_end"]
    result["digest"] = detail["details"]["digest"]
    result["ops"] = detail["details"]["ops"]
    result["op_tail_percentile"] = detail["details"]["op_tail_percentile"]
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--write", type=Path)
    ap.add_argument("--against", type=Path, help="a baseline file whose medians this set must not be worse than by more than each bound")
    args = ap.parse_args()
    against = json.loads(args.against.read_text())["workloads"] if args.against else {}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            runs.append(run_once(workload, seed, args.seconds))
            r = runs[-1]
            print(
                f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, {r['ops']} ops, "
                f"failed {r['failed']}, "
                + ", ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True,
            )
        entry = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "ops_per_run": [r["ops"] for r in runs],
            "op_tail_percentiles": [round(r["op_tail_percentile"], 2) for r in runs],
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            s = spread(values)
            entry["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": s,
                "bound": bound,
                "values": values,
            }
            mark = "ok" if name == "setup_s" or s < bound / 3 else "WIDE"
            steady &= mark == "ok"
            line = f"  {name:<14} median {statistics.median(values):<12.6g} spread {s:7.4f} bound {bound}  {mark}"
            if workload in against:
                old = against[workload]["metrics"][name]["median"]
                change = statistics.median(values) / old - 1.0
                worse = change if better[name] == "lower" else -change
                line += f"  vs baseline {change:+.4f} ({'ok' if worse <= bound else 'WORSE'})"
                steady &= worse <= bound
            print(line)
        for name in runs[0]["all_end_to_end"].keys() - bounds.keys():
            values = [r["all_end_to_end"][name] for r in runs]
            entry["metrics"][name] = {"median": statistics.median(values), "values": values, "gated": False}
        summary[workload] = entry
    if args.write:
        doc = {
            "measured": time.strftime("%Y-%m-%d"),
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "seconds": args.seconds,
            "seeds": seeds,
            "workloads": summary,
        }
        args.write.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
