"""Statistical and exact tests tying the particle system to the solver.

Every statistical test reports its statistic, reference value, standard
error and replica count, and passes at the pre-registered 3-standard-error
threshold; exact tests (measure ordering, t = 0 duality, the zero initial
condition of the Laplace functional) carry tolerance zero.  Replicas that
exploded (live population over the cap, or births over four caps, where the
simulator halts them) are excluded and counted; a test fails outright if
more than one percent exploded.

All tests share one skeleton.  ``_replica_batch`` runs replica seeds
``seed_base + i`` as one ``branching.simulate_replicas`` batch on the
ambient box, zero-extends the test's fields onto it and hashes the report's
parameters; ``_verdict`` gives a statistic's mean, standard error and
3-SE verdict, the explosion rule included.  A test judged by a standard
error needs ``replicas >= 2`` and raises ``ValueError`` otherwise; one left
with fewer than two unexploded replicas fails and reports its undefined
values as ``None`` (``null`` in the strict JSON of ``TestReport.to_json``).
A replica's outcome depends only on its own seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields

import numpy as np

from .branching import ambient_rates, particle_count, simulate_replicas
from .lattice import Field
from .solver import apply_hamiltonian, semigroup_apply, solve_dual_fkpp
from .spectral import _neighbor_sum

MAX_EXPLODED_FRACTION = 0.01


@dataclass
class TestReport:
    name: str
    statistic: float | None
    reference: float
    se: float | None
    replicas: int
    passed: bool
    config_hash: str
    exact: bool = False
    exploded: int = 0
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> str:
        """Strict JSON: an undefined statistic or standard error is null."""
        payload = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        payload.update(payload.pop("extras"), passed=bool(self.passed), exact=bool(self.exact))
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def config_hash(**kwargs) -> str:
    canon = json.dumps({k: repr(v) for k, v in sorted(kwargs.items())}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _digest(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(repr(data.shape).encode() + data.tobytes()).hexdigest()[:16]


def _environment_identity(env) -> dict:
    """Hash keys naming an environment: its noise seed and distribution when
    it was sampled, otherwise a digest of the potential xi_e itself."""
    noise = getattr(env, "noise", None)
    if noise is not None:
        return {"env_seed": noise.seed, "distribution": noise.distribution}
    return {"xi_e": _digest(env.xi_e)}


def smooth_bump(spec, amplitude: float = 0.5) -> Field:
    """Nonnegative product-cosine bump vanishing on the walls."""
    x = spec.axis_coords()
    prof = np.cos(np.pi * x / spec.L) ** 2
    vals = prof if spec.d == 1 else np.outer(prof, prof)
    vals = amplitude * vals
    vals[spec.boundary_mask()] = 0.0
    return Field(spec, vals)


def _replica_batch(env, test: str, boxes, horizon: float, replicas: int,
                   seed_base: int, L_max: int | None, cap: int, times=(),
                   site_funcs=None, sampled: bool = True, **hash_keys):
    """Replica seeds ``seed_base .. seed_base + replicas - 1`` as one batch on
    the ambient box (side ``L_max or max(boxes)``), ``site_funcs`` given on
    the environment's box.  Returns the batch, the zero-extension of a box
    field onto the ambient grid, and the report hash.  A ``sampled`` test,
    judged by its standard error, raises ``ValueError`` below two replicas.
    """
    if sampled and replicas < 2:
        raise ValueError(f"{test} needs replicas >= 2 for a standard error, got {replicas}")
    spec = env.spec
    L_max = L_max or max(boxes)
    rates = ambient_rates(env, L_max)
    pad = (L_max - spec.L) // 2 * spec.n

    def extend(values: np.ndarray) -> np.ndarray:
        return np.pad(values, pad)

    chash = config_hash(test=test, n=spec.n, d=spec.d, replicas=replicas,
                        seed_base=seed_base, L_max=L_max, **hash_keys,
                        **_environment_identity(env))
    batch = simulate_replicas(rates, horizon, range(seed_base, seed_base + replicas), boxes,
                              times, {k: extend(v) for k, v in (site_funcs or {}).items()},
                              cap=cap)
    return batch, extend, chash


def _few_exploded(batch) -> bool:
    return int(batch.exploded.sum()) <= MAX_EXPLODED_FRACTION * len(batch.seeds)


def _mean(values: np.ndarray) -> float | None:
    return float(values.mean()) if len(values) else None


def _verdict(batch, samples: np.ndarray, ref: float) -> tuple:
    """(mean, standard error, 3-SE verdict) of the kept replicas' samples.

    Fewer than two samples leave the standard error undefined (None) and fail.
    """
    if len(samples) < 2:
        return _mean(samples), None, False
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(len(samples)))
    return mean, se, abs(mean - ref) <= 3 * se and _few_exploded(batch)


def test_moment_duality(env, L: int, t: float, phi: Field, replicas: int,
                        seed_base: int = 0, L_max: int | None = None,
                        cap: int = 1_000_000) -> TestReport:
    """Monte Carlo mean of <mu_t, phi> against (T_t phi)(origin).

    The drift compensation makes the pairing's expectation solve the linear
    equation exactly at finite n, so the solver output is the reference up
    to its own (much smaller) time-stepping error, taken at dt = 2.5e-4.
    t = 0 is exact.
    """
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    ref = float(semigroup_apply(env, t, phi, 2.5e-4).values[env.spec.origin_index])
    batch, extend, chash = _replica_batch(
        env, "moment_duality", [L], t if t > 0 else 1e-9, replicas, seed_base, L_max, cap,
        [t], sampled=t > 0, L=L, t=t, phi=_digest(phi.values))
    arr = batch.pairings(0, L, extend(phi.values))[~batch.exploded]
    exploded = int(batch.exploded.sum())
    if t == 0.0:
        # exact: <mu_0, phi> = phi(0) with zero tolerance
        passed = arr.size > 0 and bool(np.all(arr == ref)) and _few_exploded(batch)
        return TestReport("moment_duality", _mean(arr), ref, 0.0, len(arr), passed,
                          chash, exact=True, exploded=exploded)
    mean, se, passed = _verdict(batch, arr, ref)
    return TestReport("moment_duality", mean, ref, se, len(arr), passed, chash,
                      exploded=exploded)


def discrete_qv_density(env, phi: Field) -> dict:
    """Jump-noise and branching components of the quadratic variation.

    Per particle at x the pairing <mu, phi> jumps by (phi(y) - phi(x))/K at
    walk events and by +-phi(x)/K at branching events, so the compensator of
    K^2 integrates (1/K) [ n^2 sum_nbr (phi(y)-phi(x))^2 + |xi_e| phi^2 ]
    against mu.  Both components are returned separately; their sum is exact
    for the jump process at finite n (the branching part alone is the
    n -> infinity limit formula with n^{-rho}|xi_e| -> 2 nu).  The neighbor
    differences are those of ``spectral.apply_laplacian`` in the Dirichlet
    flavor, which reads phi as 0 on the faces, as the killed process does.
    """
    spec = phi.spec
    K = particle_count(spec)
    vals = phi.values
    jump = _neighbor_sum(phi, "dirichlet", lambda lo, hi: hi ** 2 + lo ** 2)
    jump *= float(spec.n) ** 2
    mask = spec.boundary_mask()
    jump[mask] = 0.0
    branch = np.abs(np.asarray(env.xi_e)) * vals ** 2
    branch[mask] = 0.0
    return {"jump": jump / K, "branch": branch / K}


def test_martingale_qv(env, L: int, T: float, phi: Field, replicas: int,
                       seed_base: int = 0, L_max: int | None = None,
                       cap: int = 1_000_000) -> TestReport:
    """(a) mean of K^phi(T) is 0; (b) mean of K^2 matches the pathwise QV.

    K^phi(T) = <mu_T, phi> - phi(0) - int <mu_r, H phi> dr, computed exactly
    from the event segments.  The QV reference integrates the discrete
    density (jump-noise plus branching terms), which is exact at finite n;
    the comparison in (b) is paired per replica to cancel common noise.
    """
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    qv = discrete_qv_density(env, phi)
    funcs = {"H": apply_hamiltonian(env, phi).values, "qv": qv["jump"] + qv["branch"],
             "qv_branch": qv["branch"]}
    batch, extend, chash = _replica_batch(
        env, "martingale_qv", [L], T, replicas, seed_base, L_max, cap, [T], funcs,
        L=L, T=T, phi=_digest(phi.values))
    used = ~batch.exploded
    phi0_val = float(phi.values[env.spec.origin_index])
    ks = (batch.pairings(0, L, extend(phi.values)) - phi0_val - batch.integrals[(L, "H")])[used]
    qs = batch.integrals[(L, "qv")][used]
    qb = batch.integrals[(L, "qv_branch")][used]
    mean, se_mean, pass_mean = _verdict(batch, ks, 0.0)
    paired = ks ** 2 - qs
    paired_mean, se_qv, pass_qv = _verdict(batch, paired, 0.0)
    return TestReport(
        "martingale_qv", mean, 0.0, se_mean, len(ks),
        pass_mean and pass_qv, chash, exploded=int(batch.exploded.sum()),
        extras={
            "k_second_moment": _mean(ks ** 2),
            "qv_pathwise_mean": _mean(qs),
            "qv_branch_component": _mean(qb),
            "qv_jump_component": _mean(qs - qb),
            "qv_paired_diff": paired_mean,
            "qv_paired_se": se_qv,
            "qv_passed": pass_qv,
            "mean_passed": pass_mean,
        })


def test_laplace_functional(env, L: int, t: float, phi0: Field, replicas: int,
                            seed_base: int = 0, L_max: int | None = None,
                            cap: int = 1_000_000, dt: float = 1e-3) -> TestReport:
    """Mean constancy in s of N(s) = exp(-<mu_s, U_{t-s} phi0>) on the fixed
    grid s = 0, t/2, t.

    U is the quadratic-absorption dual flow with the environment's
    coefficient ``env.nu`` (the closed-form E Phi_+, 0 without noise).  The
    s = 0 value is deterministic (mu_0 = delta_0), so the means at t/2 and t
    are compared against it at three standard errors.  phi0 = 0 makes N
    identically one: every replica must read exactly 1.
    """
    if float(np.min(phi0.values)) < 0:
        raise ValueError("the Laplace test function must be nonnegative")
    s_grid = [float(s) for s in (0.0, t / 2, t)]
    U = solve_dual_fkpp(env, phi0, env.nu, t, dt, store_times=[t - s for s in s_grid])
    n0 = math.exp(-float(U[t].values[env.spec.origin_index]))
    exact = float(np.abs(phi0.values).max()) == 0.0
    batch, extend, chash = _replica_batch(
        env, "laplace_functional", [L], t, replicas, seed_base, L_max, cap, s_grid,
        sampled=not exact, L=L, t=t, nu=env.nu, s_grid=s_grid, phi=_digest(phi0.values))
    arr = np.exp(-np.stack([batch.pairings(ti, L, extend(U[t - s].values))
                            for ti, s in enumerate(s_grid)], axis=1))[~batch.exploded]
    exploded = int(batch.exploded.sum())
    if exact:
        passed = bool(np.all(arr == 1.0)) and _few_exploded(batch)
        return TestReport("laplace_functional", 1.0, 1.0, 0.0, len(arr), passed, chash,
                          exact=True, exploded=exploded)
    extras = {"n0": n0, "s_grid": s_grid}
    passed = _few_exploded(batch)
    for j in (1, 2):
        mean, se, ok = _verdict(batch, arr[:, j], n0)
        extras[f"mean_s{j}"], extras[f"se_s{j}"] = mean, se
        passed = passed and ok
    # mean and se are those of the last grid time, s = t
    return TestReport("laplace_functional", mean, n0, se, len(arr), passed, chash,
                      exploded=exploded, extras=extras)


def test_mass_tail(env, L: int, T: float, replicas: int, R_grid,
                   seed_base: int = 0, L_max: int | None = None,
                   cap: int = 1_000_000) -> TestReport:
    """Empirical tail of sup_t mass: decreasing in R, strictly below at the top.

    The tail at any R below the initial mass 1 equals one by construction.
    """
    R_grid = sorted(R_grid)
    batch, _, chash = _replica_batch(
        env, "mass_tail", [L], T, replicas, seed_base, L_max, cap, sampled=False,
        L=L, T=T, R_grid=R_grid)
    sups = batch.sup_total_mass(L)[~batch.exploded]
    tails = [_mean(sups >= R) for R in R_grid]
    passed = (sups.size > 0 and all(a >= b for a, b in zip(tails, tails[1:]))
              and tails[-1] < tails[0] and _few_exploded(batch))
    return TestReport("mass_tail", tails[-1], 0.0, 0.0, len(sups), passed,
                      chash, exploded=int(batch.exploded.sum()),
                      extras={f"tail_R{R:g}": v for R, v in zip(R_grid, tails)})


def test_ordering(env, Ls, T: float, snapshot_times, replicas: int,
                  seed_base: int = 0, L_max: int | None = None,
                  cap: int = 1_000_000) -> TestReport:
    """Exact pathwise ordering of the killed measures across box sizes.

    Any violation at any site, snapshot, or replica is a hard failure
    (tolerance zero).  The ambient box is appended as the largest measure.
    """
    Ls = sorted(set(list(Ls) + [L_max or max(Ls)]))
    batch, _, chash = _replica_batch(
        env, "ordering", Ls, T, replicas, seed_base, L_max, cap, snapshot_times,
        sampled=False, Ls=Ls, T=T, snapshot_times=[float(s) for s in snapshot_times])
    violations = checked = 0
    for La, Lb in zip(Ls, Ls[1:]):
        codes, counts = batch.occupation[La]
        used = ~batch.exploded[batch.atoms(La)[0]]
        checked += int(used.sum())
        violations += int(((counts > batch.counts_at(Lb, codes)) & used).sum())
    exploded = int(batch.exploded.sum())
    return TestReport("ordering", float(violations), 0.0, 0.0, replicas - exploded,
                      violations == 0 and _few_exploded(batch), chash, exact=True,
                      exploded=exploded, extras={"atoms_checked": checked})


def write_reports_jsonl(reports, path) -> int:
    """One JSON object per line; returns the number of failed tests."""
    failures = 0
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
            failures += 0 if r.passed else 1
    return failures
