"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 --seconds 15 \
        [--workloads freeness-sweep,cli-ops] [--trace 0] [--out FILE]

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, and the same for ``calibration_ms``, the speed of
a fixed pure-Python loop during each run, which shows how much of a spread
the machine itself caused, and for ``run_wall_s``, the wall time of a whole
run.  Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("freeness-sweep", "mc-trials", "cli-ops")


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "results" / f"{workload}.trace{args.trace}.json")
                                .read_text())
            result["calibration_ms"] = sum(record["calibration_ms_before_after"]) / 2
            result["run_wall_s"] = wall
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed", file=sys.stderr)
            runs.append(result)
        report[workload] = {name: summarize([r["metrics"][name]["value"] for r in runs])
                            for name in runs[0]["metrics"]}
        for extra in ("attempted", "calibration_ms", "run_wall_s"):
            report[workload][extra] = summarize([r[extra] for r in runs])
        for name, s in report[workload].items():
            print(f"{workload:<15} {name:<36} median {s['median']:>12.6g}  "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
