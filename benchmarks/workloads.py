"""The four benchmark workloads.

Each workload is a closed loop in one process: a pass runs its operations
one after another, each starting when the previous one ends.  Inputs derive
only from the workload seed (``derive``), so pamlab receives generated
inputs and the same seed gives the same inputs.  Every pass of a run repeats
the same inputs, so passes must agree exactly; output checks run after the
timed region on small per-pass summaries, so no pass holds on to the
previous pass's arrays.

An operation fails by raising or by an error: a TestReport with
``passed=False``, or a non-zero CLI exit.  The one exception is a chance
verdict on ``pipeline``: ``verify`` exiting 1 because only its
three-standard-error tests failed (``judge`` returns "verdict"), which counts
in ``failed_frac`` but not as a malfunction.  Output checks are counted by the
runner.  ``tiny=True`` selects sizes small enough for warm-up and the smoke
test; the operation mix is the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

import pamlab.besov as besov
import pamlab.cli as cli
import pamlab.environment as environment
import pamlab.solver as solver
import pamlab.verify as verify
from pamlab.lattice import Field


def derive(seed: int, label: str) -> int:
    """A 32-bit input seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"pamlab-bench:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _all_finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64)))) for a in arrays)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        """Build every input the operations use."""

    def operations(self) -> list:
        """[(label, zero-argument callable)] in execution order."""
        raise NotImplementedError

    def judge(self, label: str, result):
        """None if the operation succeeded, else "error" or "verdict"."""
        return None

    def summarize(self, results: dict) -> dict:
        """Small, comparable record of one pass's outputs (untimed)."""
        raise NotImplementedError

    def check(self, summaries: list) -> dict:
        """{check name: passed} over every pass's summary (untimed)."""
        raise NotImplementedError

    def rates(self, op_times: dict, wall: float, summary: dict) -> dict:
        """Workload-specific end-to-end figures of one pass."""
        return {}

    def close(self) -> None:
        """Remove anything the workload left on disk."""

    def _same_every_pass(self, summaries: list, key: str) -> bool:
        return all(s[key] == summaries[0][key] for s in summaries)


class McSuite(Workload):
    """Replica-driven verification tests, mirroring acceptance criteria 08-10.

    Each test gets its own environment seed, so the work of a pass averages
    over seven independent environments rather than three shared ones; the
    environment sets most of the seed-to-seed spread of the work.
    """

    name = "mc-suite"
    why = ("replica-driven verify tests: branching.simulate and the kill/projection "
           "layers do the work, the solver only computes references")

    def setup(self):
        tiny = self.tiny
        self.replicas = 8 if tiny else 120
        self.seed_base = derive(self.seed, "seed_base")
        n1, n2, n3 = (8, 4, 8) if tiny else (32, 16, 16)

        def env(label, n, d):
            return environment.build_environment(n, 2, d, "gaussian", derive(self.seed, label))

        self.envs = {
            "moment_duality.d1": env("moment_duality.d1", n1, 1),
            "moment_duality.d2": env("moment_duality.d2", n2, 2),
            "martingale_qv.d1": env("martingale_qv.d1", n1, 1),
            "laplace_functional.d2": env("laplace_functional.d2", n2, 2),
            "ordering.d1": env("ordering.d1", n3, 1),
            "mass_tail.d1.small": env("mass_tail.d1.small", n3, 1),
            "mass_tail.d1.large": env("mass_tail.d1.large", n1, 1),
        }
        self.bumps = {k: verify.smooth_bump(self.envs[k].spec, 0.5)
                      for k in ("moment_duality.d1", "moment_duality.d2", "martingale_qv.d1")}
        self.laplace_phi0 = verify.smooth_bump(self.envs["laplace_functional.d2"].spec, 0.3)

    def operations(self):
        R, sb, e, b = self.replicas, self.seed_base, self.envs, self.bumps
        # R_grid starts at the initial mass 1, as the CLI's verify does: the
        # tail there is one by construction, so the strict-decrease check is
        # informative even when no replica doubles its mass.
        R_grid = [1.0, 2.0, 4.0, 8.0]
        return [
            ("moment_duality.d1", lambda: verify.test_moment_duality(
                e["moment_duality.d1"], 2, 0.25, b["moment_duality.d1"], R, seed_base=sb)),
            ("moment_duality.d2", lambda: verify.test_moment_duality(
                e["moment_duality.d2"], 2, 0.25, b["moment_duality.d2"], R, seed_base=sb)),
            ("martingale_qv.d1", lambda: verify.test_martingale_qv(
                e["martingale_qv.d1"], 2, 0.25, b["martingale_qv.d1"], R, seed_base=sb)),
            ("laplace_functional.d2", lambda: verify.test_laplace_functional(
                e["laplace_functional.d2"], 2, 0.25, self.laplace_phi0, R, seed_base=sb)),
            ("ordering.d1", lambda: verify.test_ordering(
                e["ordering.d1"], [2, 4, 6], 0.2, [0.0, 0.1, 0.2], R, seed_base=sb, L_max=8)),
            ("mass_tail.d1.small", lambda: verify.test_mass_tail(
                e["mass_tail.d1.small"], 2, 0.4, R, R_grid, seed_base=sb, L_max=8)),
            ("mass_tail.d1.large", lambda: verify.test_mass_tail(
                e["mass_tail.d1.large"], 2, 0.4, R, R_grid, seed_base=sb, L_max=8)),
        ]

    def judge(self, label, report):
        # Every failed report counts: the exact tests have zero tolerance, and
        # at 120 replicas the 3-SE tests failed on none of seeds 1-30.
        return None if report.passed else "error"

    def summarize(self, results):
        return {"reports": {k: r.to_json() for k, r in results.items()},
                "finite": {k: _all_finite(r.statistic, r.reference, r.se)
                           for k, r in results.items()}}

    def check(self, summaries):
        return {
            "reports identical across passes": self._same_every_pass(summaries, "reports"),
            "statistics finite": all(all(s["finite"].values()) for s in summaries),
        }

    def rates(self, op_times, wall, summary):
        return {"replicas_per_s": self.replicas * len(op_times) / wall}


class SolveEigen(Workload):
    """Principal eigenpairs (dense expm power iteration) and Strang solves."""

    name = "solve-eigen"
    why = ("solver and the spectral DSTs with no particles: dense-expm eigenpairs "
           "at n=16,24 plus Strang PAM, dual FKPP and semigroup calls at n=64,128")

    def setup(self):
        tiny = self.tiny
        self.n_eig = (4, 6) if tiny else (16, 24)
        self.n_pam = (8, 16) if tiny else (64, 128)
        self.T, self.dt, self.T_semigroup = (0.02, 1e-3, 0.01) if tiny else (0.25, 1e-3, 0.1)

        def env(label, n):
            return environment.build_environment(n, 2, 2, "gaussian", derive(self.seed, label))

        self.eig_envs = [env(f"eigen.n{n}", n) for n in self.n_eig]
        self.pam_envs = [env(f"pam.n{n}", n) for n in self.n_pam]
        self.bumps = [verify.smooth_bump(e.spec, 0.5) for e in self.pam_envs]
        self.fkpp_phi0 = verify.smooth_bump(self.pam_envs[0].spec, 0.3)

    def _sites(self, env) -> int:
        return (env.spec.L * env.spec.n - 1) ** env.spec.d

    def work(self) -> dict:
        """Requested work of each direct Strang call: interior sites x T/dt."""
        small, big = self.pam_envs
        steps = round(self.T / self.dt)
        return {
            f"solve_linear_pam.n{self.n_pam[0]}": self._sites(small) * steps,
            f"solve_linear_pam.n{self.n_pam[1]}": self._sites(big) * steps,
            f"solve_dual_fkpp.n{self.n_pam[0]}": self._sites(small) * steps,
            f"semigroup_apply.n{self.n_pam[1]}":
                self._sites(big) * round(self.T_semigroup / self.dt),
        }

    def operations(self):
        (e_small, e_big), (p_small, p_big) = self.eig_envs, self.pam_envs
        b_small, b_big = self.bumps
        T, dt = self.T, self.dt
        ns, nb = self.n_pam
        return [
            (f"principal_eigenpair.n{self.n_eig[0]}",
             lambda: solver.principal_eigenpair(e_small, tol=1e-8)),
            (f"principal_eigenpair.n{self.n_eig[1]}",
             lambda: solver.principal_eigenpair(e_big, tol=1e-8)),
            (f"solve_linear_pam.n{ns}",
             lambda: solver.solve_linear_pam(solver.PamProblem(p_small, b_small, T=T, dt=dt))),
            (f"solve_linear_pam.n{nb}",
             lambda: solver.solve_linear_pam(solver.PamProblem(p_big, b_big, T=T, dt=dt))),
            (f"solve_dual_fkpp.n{ns}",
             lambda: solver.solve_dual_fkpp(p_small, self.fkpp_phi0, p_small.nu, T, dt)),
            (f"semigroup_apply.n{nb}",
             lambda: solver.semigroup_apply(p_big, self.T_semigroup, b_big, dt)),
        ]

    def summarize(self, results):
        out = {"digests": {}, "finite": True}
        for label, r in results.items():
            if label.startswith("principal_eigenpair"):
                arrays = (r.efunc.values, r.lam, r.residual)
                out[label] = {"lam": r.lam, "efunc": r.efunc.values.copy()}
            elif label.startswith("solve_linear_pam"):
                arrays = (r.times, r.final.values)
            else:
                arrays = (r.values,)
            out["digests"][label] = _digest(*arrays)
            out["finite"] = out["finite"] and _all_finite(*arrays)
        return out

    def check(self, summaries):
        from scipy.linalg import eigh

        first = summaries[0]
        small_label, big_label = (f"principal_eigenpair.n{n}" for n in self.n_eig)
        e_small, e_big = self.eig_envs

        # n = small: eigenpair against a dense symmetric eigensolve
        evals, evecs = eigh(solver.dense_hamiltonian(e_small))
        v = first[small_label]["efunc"][e_small.spec.interior_slices()].ravel()
        top = evecs[:, -1] * np.sign(evecs[:, -1].sum())
        small_ok = (abs(first[small_label]["lam"] - evals[-1]) <= 1e-6
                    and float(np.abs(v / np.linalg.norm(v) - top).max()) <= 1e-6)

        # n = big: residual of the returned pair through the stencil Hamiltonian
        lam = first[big_label]["lam"]
        w = first[big_label]["efunc"]
        w = w / np.linalg.norm(w)
        Hw = solver.apply_hamiltonian(e_big, Field(e_big.spec, w)).values
        big_ok = float(np.linalg.norm(Hw - lam * w)) <= 1e-8 * abs(lam)

        # one Strang solve at n = 8 against the dense-exponential oracle
        env8 = environment.build_environment(8, 2, 2, "gaussian", derive(self.seed, "oracle.n8"))
        w0 = verify.smooth_bump(env8.spec, 1.0)
        w0 = Field(env8.spec, w0.values / np.linalg.norm(w0.values))
        strang = solver.solve_linear_pam(solver.PamProblem(env8, w0, T=0.1, dt=1e-3)).final
        dense = solver.solve_linear_pam(
            solver.PamProblem(env8, w0, T=0.1, dt=1e-3, scheme="dense-exponential")).final
        oracle_ok = float(np.abs(strang.values - dense.values).max()) <= 1e-4

        return {
            f"eigenpair n={self.n_eig[0]} matches dense eigh within 1e-6": small_ok,
            f"eigenpair n={self.n_eig[1]} residual <= 1e-8 |lambda|": big_ok,
            "Strang n=8 within 1e-4 of the dense-exponential oracle": oracle_ok,
            "outputs finite": all(s["finite"] for s in summaries),
            "outputs identical across passes": self._same_every_pass(summaries, "digests"),
        }

    def rates(self, op_times, wall, summary):
        work = self.work()
        return {
            "eigen_s": sum(t for k, t in op_times.items()
                           if k.startswith("principal_eigenpair")),
            "pam_site_steps_per_s": sum(work.values()) / sum(op_times[k] for k in work),
        }


class Survey(Workload):
    """Regularity-norm survey plus Bony decomposition and trigonometric
    refinement: besov, environment, spectral and lattice, no solver."""

    name = "survey"
    why = ("besov, environment, spectral and lattice only: d=2 norm survey at "
           "n=32..256, Bony decomposition and 4x refinement at n=128")

    def setup(self):
        tiny = self.tiny
        self.plan = ([(8, 3), (16, 1)] if tiny
                     else [(32, 3), (64, 3), (128, 3), (256, 1)])
        self.seeds = [derive(self.seed, f"survey.{i}") for i in range(3)]
        n_bony = 16 if tiny else 128
        self.env = environment.build_environment(
            n_bony, 2, 2, "gaussian", derive(self.seed, "bony"))

    def operations(self):
        ops = [(f"regularity_norm_survey.n{n}",
                lambda n=n, k=k: environment.regularity_norm_survey(
                    [n], self.seeds[:k], 0.8, 0.1, L=2, d=2))
               for n, k in self.plan]
        X, xi = self.env.X, self.env.noise.field
        n = self.env.spec.n
        ops.append((f"bony_decomposition.n{n}",
                    lambda: besov.bony_decomposition(X, xi, "neumann", "neumann")))
        ops.append((f"extension_operator.n{n}",
                    lambda: besov.extension_operator(X, "neumann", 4)))
        return ops

    def summarize(self, results):
        values = []
        for label, r in results.items():
            if label.startswith("regularity_norm_survey"):
                values += [float(v) for row in r for k, v in sorted(row.items())
                           if k not in ("n", "seed")]
            elif label.startswith("bony_decomposition"):
                values += [p.values for p in r]
            else:
                values.append(r)
        bony = next(r for k, r in results.items() if k.startswith("bony"))
        product = self.env.X.values * self.env.noise.values
        bony_err = float(np.abs(sum(p.values for p in bony) - product).max())
        return {"finite": _all_finite(*[np.ravel(v) for v in values]),
                "digest": _digest(*[np.ravel(v) for v in values]),
                "bony_rel_err": bony_err / max(1.0, float(np.abs(product).max()))}

    def check(self, summaries):
        return {
            "every value finite": all(s["finite"] for s in summaries),
            "Bony parts sum to the pointwise product within 1e-10":
                all(s["bony_rel_err"] <= 1e-10 for s in summaries),
            "outputs identical across passes": self._same_every_pass(summaries, "digest"),
        }


class Pipeline(Workload):
    """The README demo through ``pamlab.cli.main``, stage by stage, in a
    fresh directory per pass: gen-env, solve, simulate, verify, survey."""

    name = "pipeline"
    why = ("the README demo through cli.main in a fresh directory: the only "
           "workload that exercises io and cli, with writes beside reads")
    STAGES = ("gen-env", "solve", "simulate", "verify", "survey")
    STATISTICAL = ("moment_duality", "martingale_qv", "laplace_functional")

    def __init__(self, seed, tiny=False, scratch_root=None):
        super().__init__(seed, tiny)
        self.scratch_root = scratch_root

    def setup(self):
        self.n_list = [4] if self.tiny else [8, 16]
        self.seeds = [derive(self.seed, f"pipeline.env.{i}") for i in range(2)]
        self.replicas = 8 if self.tiny else 60
        self.config = "\n".join([
            "d=2",
            "n_list=" + ",".join(map(str, self.n_list)),
            "L_list=2",
            "L_max=8",
            "phi=gaussian",
            "seeds=" + ",".join(map(str, self.seeds)),
            "T=0.25" if not self.tiny else "T=0.02",
            "dt=0.001",
            f"replicas={self.replicas}",
            f"seed_base={derive(self.seed, 'seed_base')}",
        ]) + "\n"
        os.makedirs(self.scratch_root, exist_ok=True)
        self.outdir = None

    def _stage(self, command, config_path):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main([command, "--config", config_path, "--out", self.outdir])
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1

    def operations(self):
        self.outdir = tempfile.mkdtemp(prefix="pipeline-", dir=self.scratch_root)
        config_path = os.path.join(self.outdir, "config.txt")
        with open(config_path, "w") as fh:
            fh.write(self.config)
        return [(stage, lambda stage=stage: self._stage(stage, config_path))
                for stage in self.STAGES]

    def _reports(self):
        """verify's reports as dicts, or None if it wrote none."""
        path = os.path.join(self.outdir, "reports.jsonl")
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def judge(self, label, code):
        if code == 0:
            return None
        if label != "verify" or code != 1:
            return "error"
        # verify exits 1 when a report failed.  At 60 replicas the d=2 n=16
        # 3-SE tests fail by chance on some seeds: that alone is a "verdict".
        # Any other failed report (an exact test, the mass tail) is an error.
        failed = [r for r in self._reports() or () if not r["passed"]]
        if not failed or any(r["exact"] or r["name"] not in self.STATISTICAL
                             for r in failed):
            return "error"
        return "verdict"

    def expected_files(self) -> set:
        names = {"config.txt", "manifest.json", "reports.jsonl", "survey.csv"}
        for n in self.n_list:
            for s in self.seeds:
                names |= {f"env_n{n}_seed{s}.txt", f"eigen_n{n}_seed{s}.csv",
                          f"events_n{n}_seed{s}.bin", f"measures_n{n}_seed{s}.csv"}
                names |= {f"traj_n{n}_seed{s}_{t}.field" for t in ("0", "half", "T")}
        return names

    def summarize(self, results):
        hashes = {}
        for name in sorted(os.listdir(self.outdir)):
            if name == "manifest.json":
                continue  # wall-clock timestamps live only here
            with open(os.path.join(self.outdir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        present = set(os.listdir(self.outdir))
        reports = self._reports()
        # attempted replicas of verify: those each report used plus exploded
        verify_replicas = (None if reports is None
                           else sum(r["replicas"] + r["exploded"] for r in reports))
        shutil.rmtree(self.outdir)
        self.outdir = None
        return {"exit_codes": dict(results), "hashes": hashes,
                "missing": sorted(self.expected_files() - present),
                "verify_replicas": verify_replicas}

    def check(self, summaries):
        # Exit codes are judged per operation (judge), not a second time here.
        return {
            "expected files exist": all(not s["missing"] for s in summaries),
            "data outputs hash identically across passes":
                self._same_every_pass(summaries, "hashes"),
        }

    def rates(self, op_times, wall, summary):
        if summary["verify_replicas"] is None:
            return {}
        # simulate runs `replicas` per environment (each n and seed)
        simulated = self.replicas * len(self.n_list) * len(self.seeds)
        return {"replicas_per_s": (simulated + summary["verify_replicas"])
                / (op_times["simulate"] + op_times["verify"])}

    def close(self):
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            self.outdir = None


WORKLOADS = {w.name: w for w in (McSuite, SolveEigen, Survey, Pipeline)}
