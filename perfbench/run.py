"""hexafield benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census|lottery|decide --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports hexafield from ./src.  Every
measurement happens in a fresh worker process (worker.py), which runs the
workload's CLI jobs in-process through hexafield.cli.run, one after another
(a closed loop with one client), with --threads 2 on every job that has it.

--trace 0 prints the end-to-end metrics: items_per_s, wall_s, peak_rss_mb
and setup_s.  --trace 1 prints the per-layer metrics of a traced warm-up
and one traced pass.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give the same numbers for people.
See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = {"census": "nullsets", "lottery": "samples", "decide": "decisions"}
SETUP_RUNS = 6  # half before the measured passes, half after
TIME_LIMIT_S = 170


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last == "tensor_bytes":
        return "B_computed"
    if last in ("rows", "samples", "calls", "chunks", "threads"):
        return "count"
    return "ratio"


def worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # set-up samples on both sides of the passes, so that one slow spell of
    # a shared machine does not move all of them
    setups = [worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
    res = worker("measure", args, deadline)
    setups += [worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_RUNS // 2)]
    walls = res["walls"]
    metrics = {
        "items_per_s": (res["items"] * len(walls) / sum(walls), "1/s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{args.workload}: {res['jobs']} jobs x {len(walls)} passes, "
          f"{res['items']} {WORKLOADS[args.workload]} per pass, "
          f"threads={res['threads']}, seed={args.seed}, passes start with warm caches")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>14.6g} {unit}")
    print(f"  wall_s is the median of {len(walls)} passes (max {max(walls):.4g} s); "
          f"too few passes for a percentile with ten beyond it")
    print(f"  setup_s is the median of {SETUP_RUNS} fresh processes: "
          + ", ".join(f"{s:.4f}" for s in setups))
    return res, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    res = worker("trace", args, deadline)
    untraced, traced, single = res["walls"]
    print(f"{args.workload} traced: untraced pass {untraced:.3f} s, traced pass "
          f"{traced:.3f} s, pass at --threads 1 {single:.3f} s, threads={res['threads']}")
    print("  largest self times over set-up and the traced pass (share of all self"
          " time), then the longest jobs: seconds untraced / traced / at --threads 1:")
    for line in res["top"]:
        print(f"    {line}")
    metrics = {name: (value, unit_of(name)) for name, value in res["metrics"].items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not __debug__:
        print("error: python -O strips hexafield's assert checks, so it would "
              "measure another program; run without -O", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "hexafield", "__init__.py")):
        print("error: run from the root of a hexafield checkout (no src/hexafield here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(f"  error_rate   {failed / attempted:>14.6g} ({failed} of {attempted} jobs failed)")
    for reason in res["reasons"]:
        print(f"  failed: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
