"""Command-line entry point: configuration, orchestration, persistence.

Commands: gen-env, solve, simulate, verify, survey.  Configuration comes
from a flat key=value file, optionally overridden by flags that mirror the
config fields; everything is validated before any work starts and the fully
resolved configuration (defaults included) is echoed into the run manifest.
Data outputs are byte-reproducible for identical configurations; wall-clock
timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np

from . import __version__, io as pio, verify as pverify
from .branching import (
    ambient_rates,
    kill_and_project,
    particle_count,
    simulate,
    write_event_log,
)
from .environment import (
    DISTRIBUTIONS,
    build_environment,
    regularity_norm_survey,
    survey_medians,
)
from .solver import PamProblem, principal_eigenpair, solve_linear_pam

_UNSET = object()


@dataclass
class RunConfig:
    d: int
    n_list: list
    seeds: list
    phi: str = "gaussian"
    L_list: list = dataclass_field(default_factory=lambda: [2])
    L_max: int = 0              # 0 means "max of L_list"
    alpha: float = 0.0          # 0 means the d-dependent default
    eps: float = 0.1
    p: float = math.inf
    q: float = math.inf
    T: float = 0.25
    dt: float = 1e-3
    replicas: int = 200
    cap: int = 1_000_000
    amp: float = 0.5
    seed_base: int = 0
    zero_potential: int = 0     # diagnostic: replace xi_e by 0 everywhere

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.phi not in DISTRIBUTIONS:
            raise ValueError(f"phi must be one of {DISTRIBUTIONS}, got {self.phi!r}")
        if not self.seeds:
            raise ValueError("seeds must be given explicitly (no ambient entropy)")
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if self.L_max == 0:
            self.L_max = max(self.L_list)
        for L in self.L_list:
            if L % 2 or L < 2:
                raise ValueError(f"box sides must be even positive, got {L}")
            if L > self.L_max:
                raise ValueError(f"L = {L} exceeds L_max = {self.L_max}")
        if self.L_max % 2:
            raise ValueError("L_max must be even")
        if self.alpha == 0.0:
            self.alpha = 0.8 if self.d == 2 else 1.2
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("T and dt must be positive")
        if self.replicas < 1 or self.cap < 1:
            raise ValueError("replicas and cap must be positive")

    def resolved(self) -> dict:
        out = {}
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = v if not isinstance(v, float) else repr(v)
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


_LIST_KEYS = {"n_list", "seeds", "L_list"}
_INT_KEYS = {"d", "L_max", "replicas", "cap", "seed_base", "zero_potential"}
_FLOAT_KEYS = {"alpha", "eps", "p", "q", "T", "dt", "amp"}


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    known = {f.name for f in dataclass_fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    parsed = {}
    for key, val in values.items():
        if isinstance(val, (int, float, list)):
            parsed[key] = val
        elif key in _LIST_KEYS:
            parsed[key] = [int(x) for x in str(val).split(",") if x.strip() != ""]
        elif key in _INT_KEYS:
            parsed[key] = int(val)
        elif key in _FLOAT_KEYS:
            parsed[key] = float(val)
        else:
            parsed[key] = val
    return RunConfig(**parsed)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    text = ""
    if path is not None:
        with open(path) as fh:
            text = fh.read()
    return parse_config_text(text, overrides)


class RunManifest:
    """Reproducibility record: config, derived constants, output inventory.

    ``manifest.json`` is a ledger: the newest record sits at the top level
    and the records already in the file move, oldest first, to ``previous``.
    """

    def __init__(self, command: str, cfg: RunConfig):
        self.data = {
            "command": command,
            "tool_version": __version__,
            "config": cfg.resolved(),
            "config_hash": cfg.config_hash(),
            "derived": {},
            "outputs": [],
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }

    def derive(self, key: str, value) -> None:
        self.data["derived"][key] = value

    def add_output(self, path: str) -> None:
        self.data["outputs"].append(os.path.basename(path))

    def write(self, outdir: str) -> str:
        self.data["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        path = os.path.join(outdir, "manifest.json")
        record = dict(self.data)
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    earlier = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read existing manifest {path}: {exc}") from exc
            previous = earlier.pop("previous", []) if isinstance(earlier, dict) else None
            if not isinstance(previous, list):
                raise ValueError(f"existing manifest {path} is not a run record")
            record["previous"] = previous + [earlier]
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def _env_path(outdir: str, n: int, seed: int) -> str:
    return os.path.join(outdir, f"env_n{n}_seed{seed}.txt")


def _load_or_build_env(cfg: RunConfig, outdir: str, n: int, seed: int,
                       require_archive: bool = False, L: int | None = None):
    L = max(cfg.L_list) if L is None else L
    if cfg.zero_potential:
        from .lattice import LatticeSpec
        from .solver import zero_environment

        return zero_environment(LatticeSpec(n=n, L=L, d=cfg.d, centered=True))
    path = _env_path(outdir, n, seed)
    if os.path.exists(path):
        env = pio.read_environment(path)
        archived = (env.spec.d, env.noise.distribution)
        if archived != (cfg.d, cfg.phi):
            raise ValueError(
                f"environment archive {path} has d={archived[0]}, phi={archived[1]}; "
                f"the configuration asks for d={cfg.d}, phi={cfg.phi}")
        if env.spec.L == L:
            return env
    elif require_archive:
        raise FileNotFoundError(
            f"environment archive missing: {path} (run gen-env first)")
    return build_environment(n, L, cfg.d, cfg.phi, seed)


def cmd_gen_env(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("gen-env", cfg)
    L = max(cfg.L_list)
    for n in sorted(cfg.n_list):
        for seed in sorted(cfg.seeds):
            env = build_environment(n, L, cfg.d, cfg.phi, seed)
            path = _env_path(outdir, n, seed)
            pio.write_environment(env, path)
            manifest.add_output(path)
            manifest.derive(f"kappa_n_n{n}", repr(env.kappa_n))
            manifest.derive(f"nu_n{n}", repr(env.nu))
    manifest.write(outdir)
    return 0


def cmd_solve(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("solve", cfg)
    for n in sorted(cfg.n_list):
        for seed in sorted(cfg.seeds):
            env = _load_or_build_env(cfg, outdir, n, seed)
            w0 = pverify.smooth_bump(env.spec, cfg.amp)
            traj = solve_linear_pam(PamProblem(env, w0, T=cfg.T, dt=cfg.dt))
            for label, t in (("0", 0.0), ("half", cfg.T / 2), ("T", cfg.T)):
                idx = int(np.argmin(np.abs(traj.times - t)))
                path = os.path.join(outdir, f"traj_n{n}_seed{seed}_{label}.field")
                pio.write_field_text(traj.states[idx], path, flavor="dirichlet")
                manifest.add_output(path)
            pair = principal_eigenpair(env, tol=1e-8)
            epath = os.path.join(outdir, f"eigen_n{n}_seed{seed}.csv")
            interior = ~env.spec.boundary_mask()
            with open(epath, "w") as fh:
                fh.write("lambda,residual,min_interior_value\n")
                fh.write(f"{float(pair.lam)!r},{float(pair.residual)!r},"
                         f"{float(pair.efunc.values[interior].min())!r}\n")
            manifest.add_output(epath)
            manifest.derive(f"kappa_n_n{n}_seed{seed}", repr(env.c_n))
    manifest.write(outdir)
    return 0


def cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("simulate", cfg)
    snap_times = [0.0, cfg.T / 2, cfg.T]
    for n in sorted(cfg.n_list):
        for seed in sorted(cfg.seeds):
            env = _load_or_build_env(cfg, outdir, n, seed)
            manifest.derive(f"kappa_n_n{n}_seed{seed}", repr(env.c_n))
            rates = ambient_rates(env, cfg.L_max)
            mean_counts = {}
            exploded = 0
            used = 0
            for i in range(cfg.replicas):
                res = simulate(rates, cfg.T, seed=cfg.seed_base + i, cap=cfg.cap,
                               collect_log=(i == 0))
                if i == 0:
                    lpath = os.path.join(outdir, f"events_n{n}_seed{seed}.bin")
                    write_event_log(res.events, lpath)
                    manifest.add_output(lpath)
                if res.exploded:
                    exploded += 1
                    continue
                used += 1
                emp = kill_and_project(res, cfg.L_list, snap_times)
                for (ti, L), bucket in emp.counts.items():
                    for site, cnt in bucket.items():
                        key = (snap_times[ti], L, site)
                        mean_counts[key] = mean_counts.get(key, 0) + cnt
            weight = 1.0 / particle_count(rates.spec)
            rows = [
                (t, L, pio.site_label(rates.spec, site), total / used * weight)
                for (t, L, site), total in sorted(mean_counts.items())
            ]
            mpath = os.path.join(outdir, f"measures_n{n}_seed{seed}.csv")
            pio.write_measure_csv(rows, mpath)
            manifest.add_output(mpath)
            manifest.derive(f"exploded_n{n}_seed{seed}", exploded)
    manifest.write(outdir)
    return 0


def cmd_verify(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("verify", cfg)
    reports = []
    L = cfg.L_list[0]
    for n in sorted(cfg.n_list):
        seed = sorted(cfg.seeds)[0]
        env = _load_or_build_env(cfg, outdir, n, seed, L=L)
        phi = pverify.smooth_bump(env.spec, cfg.amp)
        reports.append(pverify.test_moment_duality(
            env, L, cfg.T, phi, cfg.replicas, seed_base=cfg.seed_base, cap=cfg.cap))
        reports.append(pverify.test_martingale_qv(
            env, L, cfg.T, phi, cfg.replicas, seed_base=cfg.seed_base, cap=cfg.cap))
        reports.append(pverify.test_laplace_functional(
            env, L, cfg.T, pverify.smooth_bump(env.spec, min(cfg.amp, 0.4)),
            cfg.replicas, seed_base=cfg.seed_base, cap=cfg.cap, dt=cfg.dt))
        reports.append(pverify.test_mass_tail(
            env, L, cfg.T, cfg.replicas, R_grid=[1.0, 2.0, 4.0, 8.0],
            seed_base=cfg.seed_base, L_max=cfg.L_max, cap=cfg.cap))
        reports.append(pverify.test_ordering(
            env, cfg.L_list, cfg.T, [0.0, cfg.T / 2, cfg.T],
            min(cfg.replicas, 200), seed_base=cfg.seed_base, L_max=cfg.L_max,
            cap=cfg.cap))
    path = os.path.join(outdir, "reports.jsonl")
    failures = pverify.write_reports_jsonl(reports, path)
    manifest.add_output(path)
    manifest.derive("failures", failures)
    manifest.write(outdir)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} statistic={r.statistic:.6g} "
              f"reference={r.reference:.6g} se={r.se:.3g}")
    return 1 if failures else 0


def cmd_survey(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("survey", cfg)
    L = cfg.L_list[0]
    rows = regularity_norm_survey(sorted(cfg.n_list), sorted(cfg.seeds), cfg.alpha,
                             cfg.eps, L=L, d=cfg.d, distribution=cfg.phi)
    path = os.path.join(outdir, "survey.csv")
    pio.write_norm_report_csv(rows, path, L)
    manifest.add_output(path)
    for key in ("xi_neg_reg", "X_reg", "resonant_renorm", "resonant_raw"):
        med = survey_medians(rows, key)
        if all(np.isfinite(v) for v in med.values()):
            manifest.derive(f"median_{key}", {str(k): repr(v) for k, v in med.items()})
    manifest.write(outdir)
    return 0


COMMANDS = {
    "gen-env": cmd_gen_env,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "survey": cmd_survey,
}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--d", type=int)
    sub.add_argument("--phi", choices=DISTRIBUTIONS)
    sub.add_argument("--n-list", dest="n_list")
    sub.add_argument("--L-list", dest="L_list")
    sub.add_argument("--L-max", dest="L_max", type=int)
    sub.add_argument("--seeds")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--T", type=float)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--replicas", type=int)
    sub.add_argument("--cap", type=int)
    sub.add_argument("--amp", type=float)
    sub.add_argument("--seed-base", dest="seed_base", type=int)
    sub.add_argument("--zero-potential", dest="zero_potential", type=int)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pamlab",
        description="lattice PAM / branching random walk laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(subs.add_parser(name))
    args = parser.parse_args(argv)
    overrides = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "config", "out") and v is not None
    }
    cfg = load_config(args.config, overrides)
    os.makedirs(args.out, exist_ok=True)
    return COMMANDS[args.command](cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
