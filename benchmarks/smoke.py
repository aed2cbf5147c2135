"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 benchmarks/smoke.py

Not collected by pytest, so tier-1 stays as fast as it was.  It checks that
BENCHMARK.json keeps to its schema and names exactly the metrics run.py
reports; that counters record null when a result attribute is gone; that
failed reports are judged as errors, bar pipeline's chance 3-SE verdicts;
that every workload, untraced and traced, ends with a result line
of the required shape, correct and without failures; and that the runner
exits non-zero without a result in a directory that holds only
BENCHMARK.json and the benchmark, where the pamlab sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers
    import workloads

    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names), "metric and workload names must be unique"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    expected = [(n, u, b) for n, (u, b, _) in layers.PER_LAYER.items()]
    expected.append(layers.TRACE_OVERHEAD)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == expected
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key])
    assert len(json.dumps(spec)) <= 64 * 1024


def check_counters_tolerate_layout_change() -> None:
    """Counters read from result objects record None, not an exception,
    when the attribute they need is gone."""
    import layers
    import tracing

    class Bare:
        pass

    tr = tracing.Tracer({}, {})
    layers.OBSERVERS["branching.simulate"](tr, (), {}, Bare())
    layers.OBSERVERS["solver.principal_eigenpair"](tr, (), {}, Bare())
    layers.OBSERVERS["solver.solve_linear_pam"](tr, (Bare(),), {}, Bare())
    layers.OBSERVERS["verify.test_ordering"](tr, (), {}, Bare())
    got = layers.read_pass(tr)
    for name in ("branching.events", "branching.us_per_event", "branching.particles",
                 "branching.exploded", "solver.eigen_iterations",
                 "solver.eigen_residual_max", "solver.strang_steps",
                 "solver.stored_state_mb", "verify.replicas_used_frac"):
        assert got[name] is None, (name, got[name])
    assert got["branching.simulate.calls"] == 0


def check_judges() -> None:
    """A failed report is an error, except pipeline's verify failing only
    its three-standard-error tests, which is a verdict."""
    import workloads

    class Report:
        passed = False

    assert workloads.McSuite(1).judge("ordering.d1", Report()) == "error"
    pipe = workloads.Pipeline(1)
    pipe.outdir = tempfile.mkdtemp(prefix="judge-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        def verify_exit_1(*failed):
            with open(os.path.join(pipe.outdir, "reports.jsonl"), "w") as fh:
                for name, exact in failed + (("mass_tail", False),):
                    fh.write(json.dumps({"name": name, "exact": exact,
                                         "passed": name == "mass_tail"}) + "\n")
            return pipe.judge("verify", 1)

        assert verify_exit_1(("moment_duality", False)) == "verdict"
        assert verify_exit_1(("moment_duality", False), ("ordering", True)) == "error"
        assert verify_exit_1(("laplace_functional", True)) == "error"
        assert verify_exit_1() == "error"
        assert pipe.judge("solve", 1) == "error" and pipe.judge("verify", 2) == "error"
    finally:
        shutil.rmtree(pipe.outdir)


def run(root: str, spec: dict, workload: str, trace: int, tiny: bool = True):
    cmd = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_counters_tolerate_layout_change()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    check_judges()
    print("ok BENCHMARK.json schema; counters tolerate missing attributes; judges")
    wanted = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, spec, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stdout
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = [(k, m["unit"]) for k, m in result["metrics"].items()]
            assert got == wanted[trace], (w["name"], trace)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
            print(f"ok {w['name']} trace={trace}")

    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0, tiny=False)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
