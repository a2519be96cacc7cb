"""One benchmark process: set up hexafield, then run passes over a workload.

    python3 perfbench/worker.py MODE --workload NAME --seed N --seconds S

MODE is one of
  setup    time the import of hexafield and the workload's warm-up;
  measure  set up, run passes until S seconds have gone, check every output;
  trace    set up under the tracer, then one untraced pass, one traced pass
           and one pass at --threads 1 (for parallel efficiency);
  pin      print the digests of one pass's outputs, for pinned.json.

It prints one JSON object on its last stdout line.  run.py starts a fresh
worker per measurement, so import time and peak RSS belong to that run alone.
The program is imported from src/ under the current directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import tempfile
from time import perf_counter

def run_pass(cli, jobs) -> tuple[float, list[tuple[int, str, float]]]:
    """Run every job once, in order: the pass's wall time, and each job's
    exit code, stdout and seconds."""
    results = []
    start = perf_counter()
    for job in jobs:
        buf = io.StringIO()
        began = perf_counter()
        code = cli.run(list(job.argv), stdout=buf)
        results.append((code, buf.getvalue(), perf_counter() - began))
    return perf_counter() - start, results


def check_passes(jobs, names, passes) -> tuple[int, int, list[str]]:
    """attempted, failed, and the reasons: a job fails unless it exits 0 with
    non-empty stdout that passes its check."""
    verdicts: dict[tuple[int, str], str | None] = {}
    attempted, failed, reasons = 0, 0, []
    for _, results in passes:
        for i, (job, (code, out, _)) in enumerate(zip(jobs, results)):
            attempted += 1
            if code != 0 or not out:
                why = f"exit code {code}, {len(out)} bytes of output"
            else:
                if (i, out) not in verdicts:
                    try:
                        verdicts[i, out] = job.check(out)
                    except (ValueError, KeyError, TypeError) as exc:
                        verdicts[i, out] = f"unreadable output: {exc!r}"
                why = verdicts[i, out]
            if why is not None:
                failed += 1
                reasons.append(f"{names[i]}: {why}")
    return attempted, failed, reasons


def cache_misses(hx) -> dict[str, int]:
    """Misses of every lru_cache in hexafield: constant while a pass runs warm."""
    out = {}
    for name, mod in vars(hx).items():
        if getattr(mod, "__name__", "").startswith("hexafield.") and hasattr(mod, "__file__"):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info"):
                    out[f"{name}.{attr}"] = obj.cache_info().misses
    return out


def per_layer(tracer, untraced_s: float, traced_s: float, single_s: float,
              threads: int) -> dict[str, float]:
    layers = tracer.layers()
    counts = tracer.counts

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    rows = counts["batch.is_hyperfield.rows"]
    m["batch.is_hyperfield.self_s"] = self_s("batch.is_hyperfield")
    m["batch.is_hyperfield.rows"] = rows
    m["batch.is_hyperfield.rows_per_s"] = ratio(rows, self_s("batch.is_hyperfield"))
    m["batch.is_hyperfield.tensor_bytes"] = tracer.tensor_bytes
    m["batch.axiom_oracle.self_s"] = self_s("batch.axiom_oracle")
    m["batch.axiom_oracle.rows"] = counts["batch.axiom_oracle.rows"]
    # the census's own oracle probe: rows it re-checks per row it evaluates
    probed, evaluated = (sum(tracer.span_rows[sid] for sid in tracer.under(name, "lottery.census"))
                         for name in ("batch.axiom_oracle", "batch.is_hyperfield"))
    m["batch.oracle_probe_ratio"] = ratio(probed, evaluated)
    for name in ("satisfies_star", "has_nontrivial_automorphism", "is_4full",
                 "is_zero_over_zero", "is_field", "bits_to_ints"):
        m[f"batch.{name}.self_s"] = self_s(f"batch.{name}")
    samples = counts["lottery.sample_bits.samples"]
    m["lottery.sample_bits.self_s"] = self_s("lottery.sample_bits")
    m["lottery.sample_bits.samples"] = samples
    m["lottery.sample_bits.samples_per_s"] = ratio(samples, self_s("lottery.sample_bits"))
    for name in ("census", "class_table", "estimate"):
        m[f"lottery.{name}.self_s"] = self_s(f"lottery.{name}")
    m["lottery.chunks"] = counts["lottery.chunks"]
    m["lottery.threads"] = tracer.pool_threads
    m["lottery.parallel_efficiency"] = ratio(single_s, threads * untraced_s)
    for name in ("morphisms.pasture_automorphisms", "morphisms.are_isomorphic",
                 "groups.automorphisms_fixing", "hexagons.build_table",
                 "galois.quotient_hyperfield", "galois.build_field",
                 "galois.is_quotient_of_finite_field", "pastures.is_hyperfield_fast",
                 "pastures.axiom_oracle", "pastures.is_4full",
                 "pastures.is_zero_over_zero", "pastures.is_field"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    decisions = calls("galois.is_quotient_of_finite_field")
    m["galois.candidates_per_decision"] = ratio(
        len(tracer.under("galois.quotient_hyperfield", "galois.is_quotient_of_finite_field")),
        decisions)
    m["galois.hit_ratio"] = ratio(counts["galois.quotient_verdicts"], decisions)
    m["products.product.self_s"] = self_s("products.product")
    m["skew.skew_hexagons.self_s"] = self_s("skew.skew_hexagons")
    for module in ("serialize", "cli"):
        m[f"{module}.self_s"] = sum(v["self_s"] for k, v in layers.items()
                                    if k.startswith(module + "."))
    m["trace.overhead_s"] = traced_s - untraced_s
    return m


def top_layers(layers: dict, count: int) -> list[str]:
    """The largest self times, with their share of all self time."""
    total = sum(v["self_s"] for v in layers.values()) or 1.0
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    return [f"{name} {v['self_s']:.3f} s ({v['self_s'] / total:.0%}, {v['calls']} calls)"
            for name, v in ranked[:count]]


def job_report(tracer, names, passes, count: int = 8) -> list[str]:
    """For the jobs that took longest traced: seconds untraced, traced and
    at --threads 1, and where the traced job's time went."""
    lines = []
    per_job = tracer.layers(under="cli.run")
    traced = passes[1][1]
    for i in sorted(range(len(names)), key=lambda i: -traced[i][2])[:count]:
        times = " / ".join(f"{results[i][2]:.3f}" for _, results in passes)
        lines.append(f"{names[i]}: {times} s")
        lines += [f"    {line}" for line in top_layers(per_job[i], 3)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace", "pin"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    start = perf_counter()
    import hexafield as hx
    import workloads
    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(hx)
    if not os.path.realpath(hx.__file__).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"hexafield was imported from {hx.__file__}, not {src}")
    workload = workloads.WORKLOADS[args.workload]
    workload.warm_up()
    setup_s = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-") as workdir:
        jobs = workload.jobs(args.seed, workdir)
        result = {"threads": workloads.THREADS, "jobs": len(jobs),
                  "items": sum(j.items for j in jobs)}
        if args.mode == "pin":
            _, outs = run_pass(hx.cli, jobs)
            print(json.dumps({workloads.job_key(j.argv): workloads.digest(out)
                              for j, (_, out, _) in zip(jobs, outs)}, indent=1))
            return 0
        before = cache_misses(hx)
        passes = []
        if args.mode == "measure":
            begin = perf_counter()
            while not passes or perf_counter() - begin < args.seconds:
                passes.append(run_pass(hx.cli, jobs))
        else:
            passes.append(run_pass(hx.cli, jobs))
            tracer.install(hx)
            try:
                passes.append(run_pass(hx.cli, jobs))
            finally:
                tracer.uninstall()
            passes.append(run_pass(hx.cli, workloads.with_threads(jobs, 1)))
        missed = {k: v - before[k] for k, v in cache_misses(hx).items() if v != before[k]}
        if missed:
            raise RuntimeError(f"a pass filled caches the warm-up left cold: {missed}")
        names = [workloads.job_key(j.argv) for j in jobs]
        attempted, failed, reasons = check_passes(jobs, names, passes)
    walls = [wall for wall, _ in passes]
    result.update(attempted=attempted, failed=failed, reasons=reasons[:20])
    if args.mode == "measure":
        result.update(
            setup_s=setup_s, walls=walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        untraced_s, traced_s, single_s = walls
        result.update(
            walls=walls,
            metrics=per_layer(tracer, untraced_s, traced_s, single_s, workloads.THREADS),
            top=top_layers(tracer.layers(), 8) + job_report(tracer, names, passes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
