"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/spread.py --workloads mc-suite,survey --seeds 1-10 \
        [--trace 0] [--label baseline]

For every workload and end-to-end metric (those of BENCHMARK.json and the
workload-specific ones printed by run.py) it prints the median over seeds, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  With ``--label`` the per-seed results and the summary go to
``benchmarks/results/BENCH_<label>.json``.  Runs are sequential; each is
waited for before the next starts.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    with open(os.path.join(ROOT, ".bench_out",
                           f"BENCH_{workload}_seed{seed}_trace{trace}.json")) as fh:
        record = json.load(fh)
    result["all_end_to_end"] = {k: v["value"] for k, v in record["end_to_end"].items()}
    result["machine"] = record["machine"]
    if trace:
        result["per_layer_record"] = {k: v for k, v in record["per_layer"].items()
                                      if k != "metrics"}
    return result


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {"trace": args.trace, "seeds": seeds, "run_seconds": spec["run_seconds"],
           "host_python": platform.python_version(), "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            r = run_once(spec, name, seed, args.trace)
            runs.append({"seed": seed, **r})
            print(f"{name} seed={seed} correct={r['correct']} failed={r['failed']}"
                  f"/{r['attempted']} elapsed={r['elapsed_s']:.1f}s", flush=True)
        metrics = {}
        source = "metrics" if args.trace else "all_end_to_end"
        for metric in runs[0][source]:
            vals = [r["metrics"][metric]["value"] if args.trace else r[source][metric]
                    for r in runs]
            if len(vals) < 2 or any(v is None for v in vals):
                continue
            metrics[metric] = spread(vals)
            s = metrics[metric]
            bound = bounds.get(metric)
            if args.trace == 0:
                spread_text = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"  {metric:20s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {spread_text}"
                      + (f"  bound {bound}" if bound is not None else ""), flush=True)
        out["workloads"][name] = {"summary": metrics, "runs": runs}

    if args.label:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
