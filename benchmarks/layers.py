"""The traced layers: which pamlab functions are wrapped, the counters read
from their arguments and results, and the per-layer metric table.

Every metric is per timed pass and named ``<module>.<function>.<stat>`` or
``<module>.<counter>``.  A function a workload never calls reads 0.  A
counter that reads a result object records ``None`` (JSON null) when the
attribute it needs is gone, so a layout change in pamlab is never a
benchmark failure; end-to-end output checks are not relaxed this way.

No layer has a queue or a lock, so there is no time spent waiting to
measure: with nothing contending, a faster layer saves at most its traced
share of a workload's wall time.
"""

from __future__ import annotations

import inspect
import os

TARGETS = {
    "pamlab.branching": ("simulate", "kill_schedule", "kill_and_project",
                         "pathwise_integrals", "sup_total_mass", "ambient_rates",
                         "write_event_log"),
    "pamlab.verify": ("test_moment_duality", "test_martingale_qv",
                      "test_laplace_functional", "test_mass_tail", "test_ordering"),
    "pamlab.solver": ("principal_eigenpair", "dense_hamiltonian", "solve_linear_pam",
                      "semigroup_apply", "solve_dual_fkpp", "apply_hamiltonian"),
    "pamlab.spectral": ("forward_transform", "inverse_transform", "fourier_multiplier",
                        "apply_laplacian", "renormalization_constant"),
    "pamlab.besov": ("all_blocks_torus", "all_blocks", "besov_norm", "resonant",
                     "paraproduct", "extension_operator", "build_partition"),
    "pamlab.environment": ("sample_noise", "build_X", "enhance", "build_environment",
                           "regularity_norm_survey"),
    "pamlab.lattice": ("extend", "odd_extension", "even_extension"),
    "pamlab.io": ("write_environment", "read_environment", "write_field_text",
                  "write_measure_csv", "write_norm_report_csv"),
    "pamlab.cli": ("cmd_gen_env", "cmd_solve", "cmd_simulate", "cmd_verify", "cmd_survey"),
}


def _get(obj, *attrs):
    """Follow an attribute chain; None if any link is missing."""
    for a in attrs:
        try:
            obj = getattr(obj, a)
        except AttributeError:
            return None
    return obj


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return None


def _simulation(tr, args, kwargs, res):
    try:
        particles = res.particles
        # jumps (absorptions included) + branchings + deaths
        events = sum(len(p.path_times) - 1 + (p.parent >= 0) + (p.cause == "died")
                     for p in particles)
        count = len(particles)
    except (AttributeError, TypeError):
        events = count = None
    exploded = _get(res, "exploded")
    tr.add("branching.events", events)
    tr.add("branching.particles", count)
    tr.add("branching.exploded", None if exploded is None else int(bool(exploded)))


def _writer(key):
    def observe(tr, args, kwargs, result):
        tr.add(key, _file_bytes(kwargs["path"] if "path" in kwargs else args[1]))
    return observe


def _verify_test(fn_name):
    def observe(tr, args, kwargs, report):
        import pamlab.verify

        fn = getattr(pamlab.verify, fn_name)
        tr.add("verify.replicas_attempted", _argument(fn, args, kwargs, "replicas"))
        tr.add("verify.replicas_used", _get(report, "replicas"))
    return observe


def _eigenpair(tr, args, kwargs, pair):
    tr.add("solver.eigen_iterations", _get(pair, "iterations"))
    tr.peak("solver.eigen_residual_max", _get(pair, "residual"))


def _trajectory(tr, args, kwargs, traj):
    problem = args[0] if args else kwargs.get("problem")
    times = _get(traj, "times")
    scheme = _get(problem, "scheme")
    steps = None
    if times is not None and scheme is not None:
        steps = len(times) - 1 if scheme == "splitting" else 0
    tr.add("solver.strang_steps", steps)
    try:
        mb = sum(s.values.nbytes for s in _get(traj, "states")) / 1e6
    except (AttributeError, TypeError):
        mb = None
    tr.add("solver.stored_state_mb", mb)


def _cli_command(tr, args, kwargs, code):
    outdir = kwargs.get("outdir", args[1] if len(args) > 1 else None)
    try:
        total = sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())
    except (OSError, TypeError):
        total = None
    tr.counters["cli.output_bytes"] = total


OBSERVERS = {
    "branching.simulate": _simulation,
    "branching.write_event_log": _writer("branching.write_event_log.bytes"),
    "solver.principal_eigenpair": _eigenpair,
    "solver.solve_linear_pam": _trajectory,
    "io.write_environment": _writer("io.write_environment.bytes"),
    "io.write_field_text": _writer("io.write_field_text.bytes"),
    **{f"verify.{name}": _verify_test(name) for name in TARGETS["pamlab.verify"]},
    **{f"cli.{name}": _cli_command for name in TARGETS["pamlab.cli"]},
}


def _ratio(num, den, scale=1.0):
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


# name -> (unit, better, how to read it from a traced pass)
def _stat(fn, field):
    unit = "count" if field == "calls" else "s"
    return unit, "lower", lambda tr: tr.stat(fn, field)


def _counter(key, unit, better="lower"):
    return unit, better, lambda tr: tr.counters.get(key, 0)


PER_LAYER = {
    # branching: moves replicas_per_s, wall_s, peak_rss_mb on mc-suite and pipeline
    "branching.simulate.calls": _stat("branching.simulate", "calls"),
    "branching.simulate.self_s": _stat("branching.simulate", "self_s"),
    "branching.events": _counter("branching.events", "count"),
    "branching.us_per_event": (
        "us", "lower",
        lambda tr: _ratio(tr.stat("branching.simulate", "self_s"),
                          tr.counters.get("branching.events", 0), 1e6)),
    "branching.particles": _counter("branching.particles", "count"),
    "branching.exploded": _counter("branching.exploded", "count"),
    "branching.kill_schedule.calls": _stat("branching.kill_schedule", "calls"),
    "branching.kill_schedule.self_s": _stat("branching.kill_schedule", "self_s"),
    "branching.kill_and_project.calls": _stat("branching.kill_and_project", "calls"),
    "branching.kill_and_project.self_s": _stat("branching.kill_and_project", "self_s"),
    "branching.pathwise_integrals.calls": _stat("branching.pathwise_integrals", "calls"),
    "branching.pathwise_integrals.self_s": _stat("branching.pathwise_integrals", "self_s"),
    "branching.sup_total_mass.self_s": _stat("branching.sup_total_mass", "self_s"),
    "branching.ambient_rates.self_s": _stat("branching.ambient_rates", "self_s"),
    "branching.write_event_log.self_s": _stat("branching.write_event_log", "self_s"),
    "branching.write_event_log.bytes": _counter("branching.write_event_log.bytes", "B"),
    # verify: moves failed_frac and replicas_per_s on mc-suite
    **{f"verify.{name}.total_s": _stat(f"verify.{name}", "total_s")
       for name in TARGETS["pamlab.verify"]},
    "verify.replicas_attempted": _counter("verify.replicas_attempted", "count"),
    "verify.replicas_used_frac": (
        "ratio", "higher",
        lambda tr: _ratio(tr.counters.get("verify.replicas_used", 0),
                          tr.counters.get("verify.replicas_attempted", 0))),
    "verify.kill_schedules_per_replica": (
        "ratio", "lower",
        lambda tr: _ratio(tr.stat("branching.kill_schedule", "calls"),
                          tr.stat("branching.simulate", "calls"))),
    # solver: moves eigen_s, pam_site_steps_per_s, wall_s, peak_rss_mb on
    # solve-eigen and wall_s on pipeline
    "solver.principal_eigenpair.calls": _stat("solver.principal_eigenpair", "calls"),
    "solver.principal_eigenpair.self_s": _stat("solver.principal_eigenpair", "self_s"),
    "solver.eigen_iterations": _counter("solver.eigen_iterations", "count"),
    "solver.eigen_residual_max": _counter("solver.eigen_residual_max", "abs"),
    "solver.dense_hamiltonian.self_s": _stat("solver.dense_hamiltonian", "self_s"),
    "solver.solve_linear_pam.calls": _stat("solver.solve_linear_pam", "calls"),
    "solver.solve_linear_pam.self_s": _stat("solver.solve_linear_pam", "self_s"),
    "solver.strang_steps": _counter("solver.strang_steps", "count"),
    "solver.stored_state_mb": _counter("solver.stored_state_mb", "MB"),
    "solver.semigroup_apply.total_s": _stat("solver.semigroup_apply", "total_s"),
    "solver.solve_dual_fkpp.self_s": _stat("solver.solve_dual_fkpp", "self_s"),
    "solver.apply_hamiltonian.self_s": _stat("solver.apply_hamiltonian", "self_s"),
    # spectral: moves wall_s on survey
    "spectral.forward_transform.calls": _stat("spectral.forward_transform", "calls"),
    "spectral.forward_transform.self_s": _stat("spectral.forward_transform", "self_s"),
    "spectral.inverse_transform.calls": _stat("spectral.inverse_transform", "calls"),
    "spectral.inverse_transform.self_s": _stat("spectral.inverse_transform", "self_s"),
    "spectral.fourier_multiplier.self_s": _stat("spectral.fourier_multiplier", "self_s"),
    "spectral.apply_laplacian.calls": _stat("spectral.apply_laplacian", "calls"),
    "spectral.apply_laplacian.self_s": _stat("spectral.apply_laplacian", "self_s"),
    "spectral.renormalization_constant.self_s":
        _stat("spectral.renormalization_constant", "self_s"),
    # besov: moves wall_s and peak_rss_mb on survey
    "besov.all_blocks_torus.calls": _stat("besov.all_blocks_torus", "calls"),
    "besov.all_blocks_torus.self_s": _stat("besov.all_blocks_torus", "self_s"),
    "besov.all_blocks.calls": _stat("besov.all_blocks", "calls"),
    "besov.all_blocks.self_s": _stat("besov.all_blocks", "self_s"),
    "besov.besov_norm.calls": _stat("besov.besov_norm", "calls"),
    "besov.besov_norm.self_s": _stat("besov.besov_norm", "self_s"),
    "besov.resonant.self_s": _stat("besov.resonant", "self_s"),
    "besov.paraproduct.self_s": _stat("besov.paraproduct", "self_s"),
    "besov.extension_operator.self_s": _stat("besov.extension_operator", "self_s"),
    "besov.build_partition.calls": _stat("besov.build_partition", "calls"),
    "besov.build_partition.self_s": _stat("besov.build_partition", "self_s"),
    # environment: moves wall_s on survey and setup_s elsewhere
    "environment.sample_noise.self_s": _stat("environment.sample_noise", "self_s"),
    "environment.build_X.self_s": _stat("environment.build_X", "self_s"),
    "environment.enhance.self_s": _stat("environment.enhance", "self_s"),
    "environment.build_environment.calls": _stat("environment.build_environment", "calls"),
    "environment.build_environment.total_s":
        _stat("environment.build_environment", "total_s"),
    "environment.regularity_norm_survey.total_s":
        _stat("environment.regularity_norm_survey", "total_s"),
    # lattice: moves wall_s on survey
    "lattice.extend.calls": _stat("lattice.extend", "calls"),
    "lattice.extend.self_s": _stat("lattice.extend", "self_s"),
    "lattice.odd_extension.calls": _stat("lattice.odd_extension", "calls"),
    "lattice.even_extension.calls": _stat("lattice.even_extension", "calls"),
    # io: moves wall_s on pipeline only
    "io.write_environment.calls": _stat("io.write_environment", "calls"),
    "io.write_environment.self_s": _stat("io.write_environment", "self_s"),
    "io.write_environment.bytes": _counter("io.write_environment.bytes", "B"),
    "io.read_environment.calls": _stat("io.read_environment", "calls"),
    "io.read_environment.self_s": _stat("io.read_environment", "self_s"),
    "io.write_field_text.calls": _stat("io.write_field_text", "calls"),
    "io.write_field_text.self_s": _stat("io.write_field_text", "self_s"),
    "io.write_field_text.bytes": _counter("io.write_field_text.bytes", "B"),
    "io.write_measure_csv.self_s": _stat("io.write_measure_csv", "self_s"),
    "io.write_norm_report_csv.self_s": _stat("io.write_norm_report_csv", "self_s"),
    # cli: moves wall_s and failed_frac on pipeline
    **{f"cli.{name}.total_s": _stat(f"cli.{name}", "total_s")
       for name in TARGETS["pamlab.cli"]},
    "cli.output_bytes": _counter("cli.output_bytes", "B"),
    # the tracer itself
    "trace.spans": ("count", "lower", lambda tr: len(tr.spans)),
}

# Measured by comparing traced with untraced passes, not read from a tracer.
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def read_pass(tracer) -> dict:
    """Every per-layer metric of the pass the tracer just recorded."""
    return {name: read(tracer) for name, (_, _, read) in PER_LAYER.items()}
