"""Command-line entry point: configuration, orchestration, persistence.

Commands: gen-env, solve, simulate, verify, survey.  Configuration comes
from a flat key=value file, optionally overridden by flags: one per
``RunConfig`` field, spelled ``--`` plus the field name with ``_`` turned
into ``-`` and parsed by the same cast as its config line; flags are
matched exactly, so an abbreviation is an error, not the key it prefixes.
Everything is validated before any work starts and the fully resolved
configuration (defaults included) is echoed into the run manifest.
Data outputs are byte-reproducible for identical configurations; wall-clock
timestamps live only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np

from . import __version__, io as pio, verify as pverify
from .branching import ambient_rates, simulate_replicas, write_event_log
from .environment import (
    DISTRIBUTIONS,
    build_environment,
    regularity_norm_survey,
    survey_medians,
)
from .solver import (
    PamProblem,
    _step_count,
    principal_eigenpair,
    solve_linear_pam,
    time_grid,
)


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
    T: float = 0.25
    dt: float = 1e-3
    replicas: int = 200
    cap: int = 1_000_000
    amp: float = 0.5
    seed_base: int = 0

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.phi not in DISTRIBUTIONS:
            raise ValueError(f"phi must be one of {DISTRIBUTIONS}, got {self.phi!r}")
        if not self.seeds:
            raise ValueError("seeds must be given explicitly (no ambient entropy)")
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if min(self.n_list) < 1:
            raise ValueError(f"n_list entries must be positive, got {self.n_list}")
        if not self.L_list:
            raise ValueError("L_list must not be empty")
        if self.L_max == 0:
            self.L_max = max(self.L_list)
        for L in self.L_list:
            if L % 2 or L < 2:
                raise ValueError(f"box sides must be even positive, got {L}")
            if L > self.L_max:
                raise ValueError(f"L = {L} exceeds L_max = {self.L_max}")
        if self.L_max % 2:
            raise ValueError("L_max must be even")
        for f in dataclass_fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        _step_count(self.T, self.dt)
        if self.alpha == 0.0:
            self.alpha = 0.8 if self.d == 2 else 1.2
        if self.replicas < 1 or self.cap < 1:
            raise ValueError("replicas and cap must be positive")

    def resolved(self) -> dict:
        out = {}
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = v if not isinstance(v, float) else repr(v)
        return out

    def config_hash(self) -> str:
        return pverify.config_hash(**self.resolved())


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip() != ""]


# field -> cast of its text value, shared by config lines and flags
_CASTS = {f.name: {"int": int, "float": float, "list": _int_list, "str": str}[f.type]
          for f in dataclass_fields(RunConfig)}


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse ``key=value`` lines; ``overrides`` maps keys to text values, as
    the command-line flags give them, and wins over the lines."""
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
    unknown = set(values) - set(_CASTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{key: _CASTS[key](val) for key, val in values.items()})


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
                       L: int | None = None):
    L = max(cfg.L_list) if L is None else L
    path = _env_path(outdir, n, seed)
    if os.path.exists(path):
        env = pio.read_environment(path)
        archived = (env.spec.d, env.noise.distribution, env.spec.n, env.noise.seed)
        if archived != (cfg.d, cfg.phi, n, seed):
            raise ValueError(
                f"environment archive {path} has d={archived[0]}, phi={archived[1]}, "
                f"n={archived[2]}, seed={archived[3]}; the configuration asks for "
                f"d={cfg.d}, phi={cfg.phi}, n={n}, seed={seed}")
        if env.spec.L == L:
            return env
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
            manifest.derive(f"kappa_n_n{n}", repr(env.c_n))
            manifest.derive(f"nu_n{n}", repr(env.nu))
    manifest.write(outdir)
    return 0


def cmd_solve(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("solve", cfg)
    grid = time_grid(cfg.T, cfg.dt)
    half = float(grid[np.argmin(np.abs(grid - cfg.T / 2))])
    for n in sorted(cfg.n_list):
        for seed in sorted(cfg.seeds):
            env = _load_or_build_env(cfg, outdir, n, seed)
            w0 = pverify.smooth_bump(env.spec, cfg.amp)
            traj = solve_linear_pam(PamProblem(env, w0, T=cfg.T, dt=cfg.dt),
                                    store_times=[half])
            for label, t in (("0", 0.0), ("half", half), ("T", cfg.T)):
                path = os.path.join(outdir, f"traj_n{n}_seed{seed}_{label}.field")
                pio.write_field_text(traj.at(t), path, flavor="dirichlet")
                manifest.add_output(path)
            pair = principal_eigenpair(env, tol=1e-8)
            epath = os.path.join(outdir, f"eigen_n{n}_seed{seed}.csv")
            interior = ~env.spec.boundary_mask()
            with open(epath, "w") as fh:
                fh.write("lambda,residual,min_interior_value\n")
                fh.write(f"{float(pair.lam)!r},{float(pair.residual)!r},"
                         f"{float(pair.efunc.values[interior].min())!r}\n")
            manifest.add_output(epath)
            manifest.derive(f"eigen_solves_n{n}_seed{seed}", pair.iterations)
            manifest.derive(f"kappa_n_n{n}_seed{seed}", repr(env.c_n))
    manifest.write(outdir)
    return 0


def cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    manifest = RunManifest("simulate", cfg)
    snap_times = [0.0, cfg.T / 2, cfg.T]
    seeds = range(cfg.seed_base, cfg.seed_base + cfg.replicas)
    for n in sorted(cfg.n_list):
        for seed in sorted(cfg.seeds):
            env = _load_or_build_env(cfg, outdir, n, seed)
            manifest.derive(f"kappa_n_n{n}_seed{seed}", repr(env.c_n))
            rates = ambient_rates(env, cfg.L_max)
            batch = simulate_replicas(rates, cfg.T, seeds, cfg.L_list, snap_times,
                                      cap=cfg.cap, record=True)
            lpath = os.path.join(outdir, f"events_n{n}_seed{seed}.bin")
            write_event_log(batch.event_log(), lpath)
            manifest.add_output(lpath)
            used = int((~batch.exploded).sum())
            mean_counts = {}
            for L in cfg.L_list:
                rep, ti, site, cnt = batch.atoms(L)
                keep = ~batch.exploded[rep]
                for i, s, c in zip(ti[keep].tolist(), site[keep].tolist(), cnt[keep].tolist()):
                    key = (batch.times[i], L, s)
                    mean_counts[key] = mean_counts.get(key, 0) + c
            rows = [
                (t, L, pio.site_label(rates.spec, site), total / used * batch.weight)
                for (t, L, site), total in sorted(mean_counts.items())
            ]
            mpath = os.path.join(outdir, f"measures_n{n}_seed{seed}.csv")
            pio.write_measure_csv(rows, mpath)
            manifest.add_output(mpath)
            manifest.derive(f"exploded_n{n}_seed{seed}", cfg.replicas - used)
    manifest.write(outdir)
    return 0


def _number(value, spec: str) -> str:
    """A report value as printed; an undefined one reads null, as in its JSON."""
    return "null" if value is None else format(value, spec)


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
        print(f"{status} {r.name} statistic={_number(r.statistic, '.6g')} "
              f"reference={r.reference:.6g} se={_number(r.se, '.3g')}")
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
    for key in _CASTS:
        sub.add_argument("--" + key.replace("_", "-"), help=f"config key {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pamlab",
        description="lattice PAM / branching random walk laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(subs.add_parser(name, allow_abbrev=False))
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
