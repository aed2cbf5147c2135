"""pamlab benchmark: one workload per process, a closed loop of timed passes.

    python3 benchmarks/run.py --workload mc-suite --seed 1 --seconds 20 --trace 0

Set-up is timed on its own and repeated SETUP_REPEATS times; ``setup_s`` is
the median repetition, in raw seconds.  A repetition is the import of numpy, scipy and
pamlab, timed in a fresh interpreter (the running one has them loaded
already), plus input generation and a warm-up pass at tiny sizes.  Then
passes run back to back, at least MIN_PASSES of them and more while the next
one is expected to end within ``--seconds``.  Outputs are checked after the
timed region.

Pass times are scaled to the host's reference speed (see
reference_kernel_s); the raw times are printed as ``raw_wall_s`` and
recorded per pass and per operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes; it reports every per-layer metric
(median over traced passes, raw seconds) and the tracing overhead, the
median over adjacent untraced/traced pairs of the raw pass-time difference.  The last line of standard output is one
JSON object; the lines before it name every metric with its unit.  A full
record (machine, seeds, per-pass and per-operation times, reference-kernel
times, checks, and in traced runs the per-layer shares and the span list) is
written under ``.bench_out/`` in the checkout.

Exits 2 without a result when the pamlab sources are not next to the
benchmark.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009          # later claims are re-checked on this seed
SETUP_REPEATS = 5
MIN_PASSES = 3
# Typical seconds of the reference kernel on the host the baseline was
# measured on (2-core Intel Xeon, Python 3.11, numpy 2.4).  Timings are
# reported at that speed; see reference_kernel_s.
REFERENCE_S = 0.040


def summary(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (nearest rank), with the sample count; the tail is None below 11."""
    xs = sorted(samples)
    k = len(xs)
    out = {"median": statistics.median(xs), "count": k, "tail_pct": None, "tail": None}
    if k >= 11:
        out["tail_pct"] = int(100 * (k - 10) / k)
        out["tail"] = xs[k - 11]
    return out


_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                 "import workloads; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds to import the workloads (numpy, scipy, pamlab) in a fresh
    interpreter, which is waited for."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of a git checkout read from .git, or None outside one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the pamlab sources, which identifies the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pamlab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def reference_kernel_s() -> float:
    """Seconds for a fixed kernel of the two kinds of work the workloads do,
    none of it pamlab's: a heap of exponential clocks driven by
    ``random.Random`` (the event loop of an exact simulator) and numpy FFTs.

    The host is shared: the same pass has been measured at 2.9 s and 5.1 s
    within two minutes, with CPU time tracking wall time (the processor ran
    slower; the process did not wait).  The kernel runs between operations,
    outside their timing, and each operation's time is scaled by
    REFERENCE_S over the mean of the kernel times around it.  Raw times are
    recorded beside the scaled ones.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((128, 128))
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap = [(rng.expovariate(1.0), i) for i in range(2000)]
    heapq.heapify(heap)
    paths = [[] for _ in range(2000)]
    for _ in range(25_000):
        t, i = heapq.heappop(heap)
        paths[i].append(t)
        heapq.heappush(heap, (t + rng.expovariate(1.0), i))
    for _ in range(24):
        np.fft.ifft2(np.fft.fft2(a))
    return time.perf_counter() - t0


def run_pass(wl, tracer=None) -> dict:
    """One timed pass; per-operation times (scaled to reference speed, and
    raw), failures and a summary."""
    ops = wl.operations()
    raw, results, failures = {}, {}, {}
    t_pass = time.perf_counter()
    ref = [reference_kernel_s()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for label, fn in ops:
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception:
                raw[label] = time.perf_counter() - t0
                failures[label] = ("exception", traceback.format_exc(limit=3))
            else:
                raw[label] = time.perf_counter() - t0
                results[label] = result
                kind = wl.judge(label, result)
                if kind is not None:
                    failures[label] = (kind, repr(result)[:200])
            ref.append(reference_kernel_s())
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - t_pass
    times = {label: t * 2 * REFERENCE_S / (ref[i] + ref[i + 1])
             for i, (label, t) in enumerate(raw.items())}
    wall = sum(times.values())
    layer = None if tracer is None else layers.read_pass(tracer)
    raised = any(kind == "exception" for kind, _ in failures.values())
    summ = None if raised else wl.summarize(results)
    wl.close()
    return {"wall": wall, "raw_wall": sum(raw.values()), "elapsed": elapsed,
            "times": times, "raw_times": raw,
            "reference_s": ref, "failures": failures, "raised": raised, "summary": summ,
            "rates": {} if raised else wl.rates(times, wall, summ), "layer": layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pamlab", "__init__.py")):
        print(f"error: pamlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"scratch_root": TMP_DIR} if cls is workloads.Pipeline else {}

    reference_kernel_s()  # its first call pays numpy's one-off FFT set-up
    setup_times, import_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        t0 = time.perf_counter()
        wl = cls(args.seed, tiny=args.tiny, **kwargs)
        wl.setup()
        warm = cls(args.seed, tiny=True, **kwargs)
        warm.setup()
        warm_pass = run_pass(warm)
        setup = import_times[-1] + time.perf_counter() - t0
        # the warm-up pass's own reference kernels are instrumentation, not set-up
        setup_times.append(setup - sum(warm_pass["reference_s"]))
    setup_s = statistics.median(setup_times)

    tracer = tracing.Tracer(layers.TARGETS, layers.OBSERVERS) if args.trace else None
    passes = []
    spans = []
    # Traced runs alternate untraced and traced passes and stop on a pair.
    step = 2 if args.trace else 1
    t_begin = time.perf_counter()
    while True:
        if len(passes) >= max(MIN_PASSES, step) and len(passes) % step == 0:
            typical = statistics.median(p["elapsed"] for p in passes)
            if time.perf_counter() - t_begin + step * typical > args.seconds:
                break
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(wl, tracer if traced else None)
        p["traced"] = traced
        if traced:
            spans.append(tracer.spans)
        passes.append(p)
    measured_s = time.perf_counter() - t_begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    summaries = [p["summary"] for p in passes]
    checks = {}
    if all(s is not None for s in summaries):
        try:
            checks = wl.check(summaries)
        except Exception:
            checks = {"output checks ran": False}
            traceback.print_exc()
    failed_checks = [k for k, ok in checks.items() if not ok]
    kinds = [kind for p in passes for kind, _ in p["failures"].values()]
    attempted = sum(len(p["times"]) for p in passes) + max(1, len(checks))
    # The result line counts operations that raised or erred and failed output
    # checks.  A "verdict" (pipeline's 3-SE tests failing by chance at 60
    # replicas; see Pipeline.judge) is a finding, so it enters failed_frac only.
    failed = kinds.count("exception") + kinds.count("error") + (
        len(failed_checks) if checks else 1)
    verdicts = kinds.count("verdict")
    correct = (bool(checks) and not failed_checks
               and not any(k in ("exception", "error") for k in kinds))

    wall = summary(p["wall"] for p in plain)
    raw_wall = summary(p["raw_wall"] for p in plain)
    end_to_end = {
        "wall_s": (wall["median"], "s", wall),
        "setup_s": (setup_s, "s", {"import_s": import_times, "repeats": setup_times}),
        "raw_wall_s": (raw_wall["median"], "s", raw_wall),
        "peak_rss_mb": (peak_rss_mb, "MB", {}),
        "failed_frac": ((failed + verdicts) / attempted, "ratio",
                        {"failed": failed, "failed_verdicts": verdicts,
                         "attempted": attempted}),
    }
    rate_names = sorted({k for p in plain for k in p["rates"]})
    units = {"replicas_per_s": "1/s", "eigen_s": "s", "pam_site_steps_per_s": "1/s"}
    for name in rate_names:
        s = summary(p["rates"][name] for p in plain if name in p["rates"])
        end_to_end[name] = (s["median"], units[name], s)

    metrics_out = {}
    layer_record = None
    if args.trace:
        # passes alternate untraced, traced: pair each traced pass with the
        # untraced one before it
        pair_diffs = [t["raw_wall"] - u["raw_wall"] for u, t in zip(passes[::2], passes[1::2])]
        overhead = statistics.median(pair_diffs)
        traced_wall = statistics.median(p["raw_wall"] for p in traced_passes)
        per_layer = {}
        for name, (unit, _, _) in layers.PER_LAYER.items():
            vals = [p["layer"][name] for p in traced_passes]
            per_layer[name] = (None if any(v is None for v in vals)
                               else statistics.median(vals), unit)
        per_layer[layers.TRACE_OVERHEAD[0]] = (overhead, layers.TRACE_OVERHEAD[1])
        metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        layer_record = {
            "traced_raw_wall_s": traced_wall,
            "untraced_raw_wall_s": raw_wall["median"],
            "overhead_pair_diffs_s": pair_diffs,
            "waiting": "absent by design: no layer has a queue or a lock",
            "share_of_traced_wall": {
                k: v / traced_wall for k, (v, u) in per_layer.items()
                if u == "s" and v and k != layers.TRACE_OVERHEAD[0]
                and k.endswith("self_s")},
        }
    else:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            value, unit, _ = end_to_end[name]
            metrics_out[name] = {"value": value, "unit": unit}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": cls.why,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "tiny": args.tiny,
        "machine": machine_record(args.seed),
        "loop": "closed, one client, one process",
        "end_to_end": {k: {"value": v, "unit": u, "detail": d}
                       for k, (v, u, d) in end_to_end.items()},
        "per_layer": layer_record and {**layer_record, "metrics": metrics_out},
        "checks": checks,
        "reference_s": REFERENCE_S,
        "passes": [{k: p[k] for k in ("wall", "raw_wall", "traced", "times", "raw_times",
                                      "reference_s", "failures")} for p in passes],
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    if args.trace:
        with open(os.path.join(OUT_DIR, stem + ".spans.jsonl"), "w") as fh:
            for i, pass_spans in enumerate(spans):
                for span_id, parent, name, start, end in pass_spans:
                    fh.write(json.dumps({"pass": i, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(plain)} untraced"
          + (f", {len(traced_passes)} traced" if args.trace else ""))
    for name, (value, unit, detail) in end_to_end.items():
        extra = ""
        if "count" in detail:
            extra = f"  (median of {detail['count']}"
            extra += (f", p{detail['tail_pct']} {detail['tail']:.6g})" if detail["tail"]
                      is not None else "; too few samples for a tail percentile)")
        print(f"{name} {value:.6g} {unit}{extra}")
    if args.trace:
        for name, m in metrics_out.items():
            v = m["value"]
            print(f"{name} {'null' if v is None else f'{v:.6g}'} {m['unit']}")
    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    for i, p in enumerate(passes):
        for label, (kind, detail) in p["failures"].items():
            print(f"failure pass {i} {label} ({kind}): {detail.strip().splitlines()[-1]}")
    try:
        os.rmdir(TMP_DIR)
    except OSError:
        pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
