"""Statistical and exact tests tying the particle system to the solver.

Every statistical test reports its statistic, reference value, standard
error and replica count, and passes at the pre-registered 3-standard-error
threshold; exact tests (measure ordering, the moment duality and the
Laplace functional at t = 0, the zero initial condition of the Laplace
functional) carry tolerance zero.  At t = 0 the rule is on integers: every
kept replica holds exactly K = floor(n^(d/2)) particles, all at the origin
of box L, since (1/K)(K phi(0)) need not round back to phi(0).  Replicas
that exploded (live population over the cap, or births over four caps,
where the simulator halts them) are excluded and counted; a test fails
outright if more than one percent exploded.

Each test is a ``Request`` and a judge.  The request names what the test
needs of a replica batch: its boxes, snapshot times, site functions,
horizon, replica seeds ``seed_base + i``, cap and ambient side, with the
report's hash made from its parameters.  The judge turns a
``branching.ReplicaBatch`` into the test's ``TestReport``; it finds its
snapshots by time value and reads only the atoms of its own times and
boxes, so a batch that carries more than the test asked for judges alike.
``run_suite`` runs the requests that share an ambient side, horizon, seed
range and cap as one ``simulate_replicas`` batch on the union of their
boxes, times and site functions (zero-extended onto the ambient box).  A
replica's path depends only on its seed and the ambient rates, so its
reports are byte-identical to separate batches.  Each public ``test_*`` is
its request run alone; ``pamlab verify`` runs its five tests per n as one
suite.

``_verdict`` gives a statistic's mean, standard error and 3-SE verdict,
the explosion rule included.  A test judged by a standard error needs
``replicas >= 2`` and its request raises ``ValueError`` otherwise; one left
with fewer than two unexploded replicas fails and reports its undefined
values as ``None`` (``null`` in the strict JSON of ``TestReport.to_json``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields
from typing import Callable

import numpy as np

from .branching import ambient_rates, flat_index, particle_count, simulate_replicas
from .lattice import Field
from .solver import apply_hamiltonian, semigroup_apply, solve_dual_fkpp
from .spectral import _neighbor_sum

MAX_EXPLODED_FRACTION = 0.01
_T0_HORIZON = 1e-9                       # the horizon of a t = 0 test's batch


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


@dataclass
class Request:
    """What one test needs of a replica batch, and the judge of that batch."""

    boxes: tuple
    times: tuple
    site_funcs: dict             # name -> values on the environment's box
    horizon: float
    seeds: range
    cap: int
    L_max: int                   # side of the ambient box
    judge: Callable              # ReplicaBatch -> TestReport


def _request(env, test: str, boxes, horizon: float, replicas: int, seed_base: int,
             L_max: int | None, cap: int, judge, times=(), site_funcs=None,
             sampled: bool = True, **hash_keys) -> Request:
    """Replica seeds ``seed_base .. seed_base + replicas - 1`` on the ambient
    box (side ``L_max or max(boxes)``); ``judge(batch, chash)`` gets the
    batch and the report hash.  A ``sampled`` test, judged by its standard
    error, raises ``ValueError`` below two replicas.
    """
    if sampled and replicas < 2:
        raise ValueError(f"{test} needs replicas >= 2 for a standard error, got {replicas}")
    L_max = L_max or max(boxes)
    chash = config_hash(test=test, n=env.spec.n, d=env.spec.d, replicas=replicas,
                        seed_base=seed_base, L_max=L_max, **hash_keys,
                        **_environment_identity(env))
    return Request(tuple(boxes), tuple(float(s) for s in times), dict(site_funcs or {}),
                   horizon, range(seed_base, seed_base + replicas), cap, L_max,
                   functools.partial(judge, chash=chash))


def run_suite(env, requests) -> tuple:
    """The requests' reports, in order, and the number of batches run.

    Requests that share an ambient side, horizon, seed range and cap run as
    one ``simulate_replicas`` batch, with one ``ambient_rates``, on the
    sorted union of their boxes, snapshot times and site functions.  The
    groups run one after another, so one batch is alive at a time.  Two
    requests of a group naming the same site function raise ``ValueError``
    before any replica runs.
    """
    groups: dict = {}
    for i, req in enumerate(requests):
        groups.setdefault((req.L_max, req.horizon, req.seeds, req.cap), []).append(i)
    merged = []
    for members in groups.values():
        funcs: dict = {}
        for i in members:
            for name, values in requests[i].site_funcs.items():
                if name in funcs:
                    raise ValueError(f"site function {name!r} is asked for twice in one batch")
                funcs[name] = values
        merged.append(funcs)
    reports = [None] * len(requests)
    for members, funcs in zip(groups.values(), merged):
        group = [requests[i] for i in members]
        for i, report in zip(members, _run_group(env, group, funcs)):
            reports[i] = report
    return reports, len(groups)


def _run_group(env, requests, site_funcs) -> list:
    """One batch for requests sharing its ambient side, horizon, seeds and cap."""
    first = requests[0]
    rates = ambient_rates(env, first.L_max)
    batch = simulate_replicas(
        rates, first.horizon, first.seeds, sorted({L for r in requests for L in r.boxes}),
        sorted({t for r in requests for t in r.times}),
        {name: _zero_extend(v, rates.spec) for name, v in site_funcs.items()},
        cap=first.cap)
    return [r.judge(batch) for r in requests]


def _run_alone(env, request: Request) -> TestReport:
    return run_suite(env, [request])[0][0]


def _zero_extend(values: np.ndarray, spec) -> np.ndarray:
    """Values on a centered box, zero-extended onto the grid of ``spec``."""
    return np.pad(values, (spec.box_sites_per_axis - values.shape[0]) // 2)


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


def _initial_report(batch, name: str, L: int, ref: float, statistic, chash: str) -> TestReport:
    """The exact t = 0 report: every kept replica holds exactly K particles
    in box L, all at the origin.  ``statistic`` maps the kept replicas'
    share of K at the origin, exactly 1.0 when the rule holds, to the
    report's statistic."""
    rep, ti, site, counts = batch.atoms(L)
    at0 = ti == batch.times.index(0.0)
    home = at0 & (site == flat_index(batch.spec, batch.spec.origin_index))
    kept = ~batch.exploded
    total = np.bincount(rep[at0], weights=counts[at0], minlength=kept.size)[kept]
    origin = np.bincount(rep[home], weights=counts[home], minlength=kept.size)[kept]
    K = batch.initial_count
    passed = (total.size > 0 and bool(np.all(total == K) and np.all(origin == K))
              and _few_exploded(batch))
    share = int(origin.sum()) / (K * total.size) if total.size else None
    return TestReport(name, None if share is None else statistic(share), ref, 0.0,
                      int(total.size), passed, chash, exact=True,
                      exploded=int(batch.exploded.sum()))


def moment_duality_request(env, L: int, t: float, phi: Field, replicas: int,
                           seed_base: int = 0, L_max: int | None = None,
                           cap: int = 1_000_000) -> Request:
    """The request of ``test_moment_duality``."""
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    ref = float(semigroup_apply(env, t, phi, 2.5e-4).values[env.spec.origin_index])

    def judge(batch, chash):
        if t == 0.0:
            return _initial_report(batch, "moment_duality", L, ref,
                                   lambda share: share * ref, chash)
        arr = batch.pairings(batch.times.index(t), L,
                             _zero_extend(phi.values, batch.spec))[~batch.exploded]
        mean, se, passed = _verdict(batch, arr, ref)
        return TestReport("moment_duality", mean, ref, se, len(arr), passed, chash,
                          exploded=int(batch.exploded.sum()))

    return _request(env, "moment_duality", [L], t if t > 0 else _T0_HORIZON, replicas,
                    seed_base, L_max, cap, judge, [t], sampled=t > 0,
                    L=L, t=t, phi=_digest(phi.values))


def test_moment_duality(env, L: int, t: float, phi: Field, replicas: int,
                        seed_base: int = 0, L_max: int | None = None,
                        cap: int = 1_000_000) -> TestReport:
    """Monte Carlo mean of <mu_t, phi> against (T_t phi)(origin).

    The drift compensation makes the pairing's expectation solve the linear
    equation exactly at finite n, so the solver output is the reference up
    to its own (much smaller) time-stepping error, taken at dt = 2.5e-4.
    t = 0 is exact, by the integer rule.
    """
    return _run_alone(env, moment_duality_request(env, L, t, phi, replicas, seed_base,
                                                  L_max, cap))


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


def martingale_qv_request(env, L: int, T: float, phi: Field, replicas: int,
                          seed_base: int = 0, L_max: int | None = None,
                          cap: int = 1_000_000) -> Request:
    """The request of ``test_martingale_qv``; its site functions are named
    ``H``, ``qv`` and ``qv_branch``."""
    if not phi.is_dirichlet():
        raise ValueError("test function must vanish on the box boundary")
    qv = discrete_qv_density(env, phi)
    funcs = {"H": apply_hamiltonian(env, phi).values, "qv": qv["jump"] + qv["branch"],
             "qv_branch": qv["branch"]}
    phi0_val = float(phi.values[env.spec.origin_index])

    def judge(batch, chash):
        used = ~batch.exploded
        mu_T = batch.pairings(batch.times.index(T), L, _zero_extend(phi.values, batch.spec))
        ks = (mu_T - phi0_val - batch.integrals[(L, "H")])[used]
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

    return _request(env, "martingale_qv", [L], T, replicas, seed_base, L_max, cap, judge,
                    [T], funcs, L=L, T=T, phi=_digest(phi.values))


def test_martingale_qv(env, L: int, T: float, phi: Field, replicas: int,
                       seed_base: int = 0, L_max: int | None = None,
                       cap: int = 1_000_000) -> TestReport:
    """(a) mean of K^phi(T) is 0; (b) mean of K^2 matches the pathwise QV.

    K^phi(T) = <mu_T, phi> - phi(0) - int <mu_r, H phi> dr, computed exactly
    from the event segments.  The QV reference integrates the discrete
    density (jump-noise plus branching terms), which is exact at finite n;
    the comparison in (b) is paired per replica to cancel common noise.
    """
    return _run_alone(env, martingale_qv_request(env, L, T, phi, replicas, seed_base,
                                                 L_max, cap))


def laplace_functional_request(env, L: int, t: float, phi0: Field, replicas: int,
                               seed_base: int = 0, L_max: int | None = None,
                               cap: int = 1_000_000, dt: float = 1e-3) -> Request:
    """The request of ``test_laplace_functional``."""
    if float(np.min(phi0.values)) < 0:
        raise ValueError("the Laplace test function must be nonnegative")
    s_grid = [float(s) for s in (0.0, t / 2, t)]
    U = solve_dual_fkpp(env, phi0, env.nu, t, dt, store_times=[t - s for s in s_grid])
    u0 = float(U[t].values[env.spec.origin_index])
    n0 = math.exp(-u0)
    zero = float(np.abs(phi0.values).max()) == 0.0

    def judge(batch, chash):
        if t == 0.0:
            return _initial_report(batch, "laplace_functional", L, n0,
                                   lambda share: math.exp(-share * u0), chash)
        arr = np.exp(-np.stack([
            batch.pairings(batch.times.index(s), L, _zero_extend(U[t - s].values, batch.spec))
            for s in s_grid], axis=1))[~batch.exploded]
        exploded = int(batch.exploded.sum())
        if zero:
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

    return _request(env, "laplace_functional", [L], t if t > 0 else _T0_HORIZON, replicas,
                    seed_base, L_max, cap, judge, s_grid, sampled=t > 0 and not zero,
                    L=L, t=t, nu=env.nu, s_grid=s_grid, phi=_digest(phi0.values))


def test_laplace_functional(env, L: int, t: float, phi0: Field, replicas: int,
                            seed_base: int = 0, L_max: int | None = None,
                            cap: int = 1_000_000, dt: float = 1e-3) -> TestReport:
    """Mean constancy in s of N(s) = exp(-<mu_s, U_{t-s} phi0>) on the fixed
    grid s = 0, t/2, t.

    U is the quadratic-absorption dual flow with the environment's
    coefficient ``env.nu`` (the closed-form E Phi_+, 0 without noise).  The
    s = 0 value is deterministic (mu_0 = delta_0), so the means at t/2 and t
    are compared against it at three standard errors.  phi0 = 0 makes N
    identically one: every replica must read exactly 1.  t = 0 is exact, by
    the integer rule.
    """
    return _run_alone(env, laplace_functional_request(env, L, t, phi0, replicas, seed_base,
                                                      L_max, cap, dt))


def mass_tail_request(env, L: int, T: float, replicas: int, R_grid,
                      seed_base: int = 0, L_max: int | None = None,
                      cap: int = 1_000_000) -> Request:
    """The request of ``test_mass_tail``."""
    R_grid = sorted(R_grid)

    def judge(batch, chash):
        sups = batch.sup_total_mass(L)[~batch.exploded]
        tails = [_mean(sups >= R) for R in R_grid]
        passed = (sups.size > 0 and all(a >= b for a, b in zip(tails, tails[1:]))
                  and tails[-1] < tails[0] and _few_exploded(batch))
        return TestReport("mass_tail", tails[-1], 0.0, 0.0, len(sups), passed,
                          chash, exploded=int(batch.exploded.sum()),
                          extras={f"tail_R{R:g}": v for R, v in zip(R_grid, tails)})

    return _request(env, "mass_tail", [L], T, replicas, seed_base, L_max, cap, judge,
                    sampled=False, L=L, T=T, R_grid=R_grid)


def test_mass_tail(env, L: int, T: float, replicas: int, R_grid,
                   seed_base: int = 0, L_max: int | None = None,
                   cap: int = 1_000_000) -> TestReport:
    """Empirical tail of sup_t mass: decreasing in R, strictly below at the top.

    The tail at any R below the initial mass 1 equals one by construction.
    """
    return _run_alone(env, mass_tail_request(env, L, T, replicas, R_grid, seed_base,
                                             L_max, cap))


def ordering_request(env, Ls, T: float, snapshot_times, replicas: int,
                     seed_base: int = 0, L_max: int | None = None,
                     cap: int = 1_000_000) -> Request:
    """The request of ``test_ordering``."""
    Ls = sorted(set(list(Ls) + [L_max or max(Ls)]))
    times = [float(s) for s in snapshot_times]

    def judge(batch, chash):
        own = [batch.times.index(s) for s in times]
        violations = checked = 0
        for La, Lb in zip(Ls, Ls[1:]):
            codes, counts = batch.occupation[La]
            rep, ti = batch.atoms(La)[:2]
            used = np.isin(ti, own) & ~batch.exploded[rep]
            checked += int(used.sum())
            violations += int(((counts > batch.counts_at(Lb, codes)) & used).sum())
        exploded = int(batch.exploded.sum())
        return TestReport("ordering", float(violations), 0.0, 0.0, replicas - exploded,
                          violations == 0 and _few_exploded(batch), chash, exact=True,
                          exploded=exploded, extras={"atoms_checked": checked})

    return _request(env, "ordering", Ls, T, replicas, seed_base, L_max, cap, judge, times,
                    sampled=False, Ls=Ls, T=T, snapshot_times=times)


def test_ordering(env, Ls, T: float, snapshot_times, replicas: int,
                  seed_base: int = 0, L_max: int | None = None,
                  cap: int = 1_000_000) -> TestReport:
    """Exact pathwise ordering of the killed measures across box sizes.

    Any violation at any site, snapshot, or replica is a hard failure
    (tolerance zero).  The ambient box is appended as the largest measure.
    """
    return _run_alone(env, ordering_request(env, Ls, T, snapshot_times, replicas, seed_base,
                                            L_max, cap))


def write_reports_jsonl(reports, path) -> int:
    """One JSON object per line; returns the number of failed tests."""
    failures = 0
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
            failures += 0 if r.passed else 1
    return failures
