"""Statistical and exact tests tying the particle system to the solver.

Every statistical test reports its statistic, reference value, standard
error and replica count, and passes at the pre-registered 3-standard-error
threshold; exact tests (measure ordering, t = 0 duality, the zero initial
condition of the Laplace functional) carry tolerance zero.  Replicas that
exploded (live population over the cap, or births over four caps, where the
simulator halts them) are excluded and counted; a test fails outright if
more than one percent exploded.

All tests are deterministic given the environment seed and the replica seed
base: replica seeds are ``seed_base + i``.  Each test runs its replicas as
one ``branching.simulate_replicas`` batch; a replica's outcome depends only
on its own seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .branching import ambient_rates, particle_count, simulate_replicas
from .lattice import Field
from .solver import apply_hamiltonian, semigroup_apply, solve_dual_fkpp
from .spectral import _neighbor_sum

MAX_EXPLODED_FRACTION = 0.01


@dataclass
class TestReport:
    name: str
    statistic: float
    reference: float
    se: float
    replicas: int
    passed: bool
    config_hash: str
    exact: bool = False
    exploded: int = 0
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "statistic": self.statistic,
            "reference": self.reference,
            "se": self.se,
            "replicas": self.replicas,
            "passed": bool(self.passed),
            "exact": bool(self.exact),
            "exploded": self.exploded,
            "config_hash": self.config_hash,
        }
        payload.update({k: v for k, v in sorted(self.extras.items())})
        return json.dumps(payload, sort_keys=True)


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


def _seeds(seed_base: int, replicas: int) -> range:
    return range(seed_base, seed_base + replicas)


def _statistical_verdict(exploded: int, replicas: int, deviation: float, bound: float) -> bool:
    if exploded > MAX_EXPLODED_FRACTION * replicas:
        return False
    return deviation <= bound


def test_moment_duality(env, L: int, t: float, phi: Field, replicas: int,
                        seed_base: int = 0, L_max: int | None = None,
                        cap: int = 1_000_000) -> TestReport:
    """Monte Carlo mean of <mu_t, phi> against (T_t phi)(origin).

    The drift compensation makes the pairing's expectation solve the linear
    equation exactly at finite n, so the solver output is the reference up
    to its own (much smaller) time-stepping error, taken at dt = 2.5e-4.
    t = 0 is exact.
    """
    spec = env.spec
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    L_max = L_max or L
    rates = ambient_rates(env, L_max)
    ref = float(semigroup_apply(env, t, phi, 2.5e-4).values[spec.origin_index])
    chash = config_hash(test="moment_duality", n=spec.n, d=spec.d, L=L, t=t,
                        replicas=replicas, seed_base=seed_base, L_max=L_max,
                        phi=_digest(phi.values), **_environment_identity(env))

    batch = simulate_replicas(rates, t if t > 0 else 1e-9, _seeds(seed_base, replicas),
                              [L], [t], cap=cap)
    used = ~batch.exploded
    exploded = int(batch.exploded.sum())
    arr = batch.pairings(0, L, _embed(phi, spec, rates.spec))[used]
    if t == 0.0:
        # exact: <mu_0, phi> = phi(0) with zero tolerance
        dev = float(np.abs(arr - ref).max()) if arr.size else math.inf
        return TestReport("moment_duality", float(arr.mean()), ref, 0.0, len(arr),
                          dev == 0.0, chash, exact=True, exploded=exploded)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.inf
    dev = abs(float(arr.mean()) - ref)
    return TestReport("moment_duality", float(arr.mean()), ref, se, len(arr),
                      _statistical_verdict(exploded, replicas, dev, 3 * se),
                      chash, exploded=exploded)


def _embed(phi: Field, small_spec, big_spec) -> np.ndarray:
    """Zero-extend a box-L field onto the ambient box grid."""
    if small_spec.L == big_spec.L:
        return phi.values
    off = (big_spec.L - small_spec.L) // 2 * big_spec.n
    out = np.zeros(big_spec.shape)
    P = small_spec.L * small_spec.n
    sl = tuple(slice(off, off + P + 1) for _ in range(big_spec.d))
    out[sl] = phi.values
    return out


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
    spec = env.spec
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    L_max = L_max or L
    rates = ambient_rates(env, L_max)
    Hphi = apply_hamiltonian(env, phi)
    qv = discrete_qv_density(env, phi)
    funcs = {
        "H": _embed(Hphi, spec, rates.spec),
        "qv": _embed(Field(spec, qv["jump"] + qv["branch"]), spec, rates.spec),
        "qv_branch": _embed(Field(spec, qv["branch"]), spec, rates.spec),
    }
    phi_amb = _embed(phi, spec, rates.spec)
    phi0_val = float(phi.values[spec.origin_index])
    chash = config_hash(test="martingale_qv", n=spec.n, d=spec.d, L=L, T=T,
                        replicas=replicas, seed_base=seed_base, L_max=L_max,
                        phi=_digest(phi.values), **_environment_identity(env))

    batch = simulate_replicas(rates, T, _seeds(seed_base, replicas), [L], [T], funcs, cap=cap)
    used = ~batch.exploded
    exploded = int(batch.exploded.sum())
    ks = (batch.pairings(0, L, phi_amb) - phi0_val - batch.integrals[(L, "H")])[used]
    qs = batch.integrals[(L, "qv")][used]
    qb = batch.integrals[(L, "qv_branch")][used]
    se_mean = float(ks.std(ddof=1) / math.sqrt(len(ks)))
    pass_mean = _statistical_verdict(exploded, replicas, abs(float(ks.mean())), 3 * se_mean)
    paired = ks ** 2 - qs
    se_qv = float(paired.std(ddof=1) / math.sqrt(len(paired)))
    pass_qv = _statistical_verdict(exploded, replicas, abs(float(paired.mean())), 3 * se_qv)
    return TestReport(
        "martingale_qv", float(ks.mean()), 0.0, se_mean, len(ks),
        pass_mean and pass_qv, chash, exploded=exploded,
        extras={
            "k_second_moment": float((ks ** 2).mean()),
            "qv_pathwise_mean": float(qs.mean()),
            "qv_branch_component": float(qb.mean()),
            "qv_jump_component": float((qs - qb).mean()),
            "qv_paired_diff": float(paired.mean()),
            "qv_paired_se": se_qv,
            "qv_passed": bool(pass_qv),
            "mean_passed": bool(pass_mean),
        })


def test_laplace_functional(env, L: int, t: float, phi0: Field, replicas: int,
                            s_grid=None, nu: float | None = None,
                            seed_base: int = 0, L_max: int | None = None,
                            cap: int = 1_000_000, dt: float = 1e-3) -> TestReport:
    """Mean constancy in s of N(s) = exp(-<mu_s, U_{t-s} phi0>).

    U is the quadratic-absorption dual flow with coefficient nu (defaults to
    the environment's closed-form value); a negative or non-finite nu raises
    ``ValueError`` before any replica runs.  The s = 0 value is deterministic
    (mu_0 = delta_0), so every later grid mean is compared against it at
    three standard errors.  phi0 = 0 makes N identically one, exactly.
    """
    spec = env.spec
    if float(np.min(phi0.values)) < 0:
        raise ValueError("the Laplace test function must be nonnegative")
    nu = env.nu if nu is None else nu
    s_grid = sorted(float(s) for s in ([0.0, t / 2, t] if s_grid is None else s_grid))
    L_max = L_max or L
    rates = ambient_rates(env, L_max)
    horizons = [t - s for s in s_grid]
    U = solve_dual_fkpp(env, phi0, nu, t, dt, store_times=horizons)
    U_amb = {s: _embed(U[t - s], spec, rates.spec) for s in s_grid}
    n0 = math.exp(-float(U[t].values[spec.origin_index]))
    chash = config_hash(test="laplace_functional", n=spec.n, d=spec.d, L=L, t=t,
                        nu=nu, replicas=replicas, seed_base=seed_base, L_max=L_max,
                        s_grid=s_grid, phi=_digest(phi0.values),
                        **_environment_identity(env))

    if float(np.abs(phi0.values).max()) == 0.0:
        # exact unit martingale
        batch = simulate_replicas(rates, t, [seed_base], [L], s_grid)
        devs = [abs(math.exp(-float(batch.pairings(ti, L, U_amb[s])[0])) - 1.0)
                for ti, s in enumerate(s_grid)]
        return TestReport("laplace_functional", 1.0, 1.0, 0.0, 1,
                          max(devs) == 0.0, chash, exact=True)

    batch = simulate_replicas(rates, t, _seeds(seed_base, replicas), [L], s_grid, cap=cap)
    used = ~batch.exploded
    exploded = int(batch.exploded.sum())
    arr = np.exp(-np.stack([batch.pairings(ti, L, U_amb[s])
                            for ti, s in enumerate(s_grid)], axis=1))[used]
    extras = {"n0": n0, "s_grid": s_grid}
    passed = exploded <= MAX_EXPLODED_FRACTION * replicas
    worst_dev = 0.0
    for j, s in enumerate(s_grid):
        if s == 0.0:
            continue
        col = arr[:, j]
        se = float(col.std(ddof=1) / math.sqrt(len(col)))
        dev = abs(float(col.mean()) - n0)
        worst_dev = max(worst_dev, dev - 3 * se)
        extras[f"mean_s{j}"] = float(col.mean())
        extras[f"se_s{j}"] = se
        passed = passed and dev <= 3 * se
    return TestReport("laplace_functional", float(arr[:, -1].mean()), n0,
                      float(arr[:, -1].std(ddof=1) / math.sqrt(len(arr))),
                      len(arr), passed, chash, exploded=exploded, extras=extras)


def test_mass_tail(env, L: int, T: float, replicas: int, R_grid,
                   seed_base: int = 0, L_max: int | None = None,
                   cap: int = 1_000_000) -> TestReport:
    """Empirical tail of sup_t mass: decreasing in R, strictly below at the top.

    The tail at any R below the initial mass 1 equals one by construction.
    """
    spec = env.spec
    L_max = L_max or L
    rates = ambient_rates(env, L_max)
    R_grid = sorted(R_grid)
    chash = config_hash(test="mass_tail", n=spec.n, d=spec.d, L=L, T=T,
                        replicas=replicas, seed_base=seed_base, R_grid=R_grid,
                        L_max=L_max, **_environment_identity(env))

    batch = simulate_replicas(rates, T, _seeds(seed_base, replicas), [L], cap=cap)
    exploded = int(batch.exploded.sum())
    sups = batch.sup_total_mass(L)[~batch.exploded]
    tails = {R: float((sups >= R).mean()) for R in R_grid}
    tail_vals = [tails[R] for R in R_grid]
    monotone = all(a >= b for a, b in zip(tail_vals, tail_vals[1:]))
    strict_ends = tail_vals[-1] < tail_vals[0]
    passed = monotone and strict_ends and exploded <= MAX_EXPLODED_FRACTION * replicas
    return TestReport("mass_tail", tail_vals[-1], 0.0, 0.0, len(sups), passed,
                      chash, exploded=exploded,
                      extras={f"tail_R{R:g}": tails[R] for R in R_grid})


def test_ordering(env, Ls, T: float, snapshot_times, replicas: int,
                  seed_base: int = 0, L_max: int | None = None,
                  cap: int = 1_000_000) -> TestReport:
    """Exact pathwise ordering of the killed measures across box sizes.

    Any violation at any site, snapshot, or replica is a hard failure
    (tolerance zero).  The ambient box is appended as the largest measure.
    """
    L_max = L_max or max(Ls)
    rates = ambient_rates(env, L_max)
    Ls = sorted(set(list(Ls) + [L_max]))
    chash = config_hash(test="ordering", n=env.spec.n, d=env.spec.d, Ls=Ls, T=T,
                        replicas=replicas, seed_base=seed_base, L_max=L_max,
                        snapshot_times=[float(s) for s in snapshot_times],
                        **_environment_identity(env))
    batch = simulate_replicas(rates, T, _seeds(seed_base, replicas), Ls, snapshot_times,
                              cap=cap)
    exploded = int(batch.exploded.sum())
    violations = 0
    checked = 0
    for La, Lb in zip(Ls, Ls[1:]):
        codes, counts = batch.occupation[La]
        used = ~batch.exploded[batch.atoms(La)[0]]
        checked += int(used.sum())
        violations += int(((counts > batch.counts_at(Lb, codes)) & used).sum())
    passed = violations == 0 and exploded <= MAX_EXPLODED_FRACTION * replicas
    return TestReport("ordering", float(violations), 0.0, 0.0,
                      replicas - exploded, passed, chash, exact=True,
                      exploded=exploded, extras={"atoms_checked": checked})


def write_reports_jsonl(reports, path) -> int:
    """One JSON object per line; returns the number of failed tests."""
    failures = 0
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
            failures += 0 if r.passed else 1
    return failures
