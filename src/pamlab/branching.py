"""Exact simulation of the labelled branching random walk in random
environment, with boundary killing at multiple box sizes from one trajectory.

Dynamics per particle at an interior site x: jump to each of the 2d nearest
neighbors at rate n^2, branch (one offspring at x) at rate xi_e_+(x), die at
rate xi_e_-(x).  Each particle carries a single exponential clock at its
total rate; at a firing the event type is drawn categorically.  Rates depend
only on the particle's own position and particles never interact, so no
global event order is needed: every live particle of every replica of a call
advances in lockstep, one event per particle per iteration.  This is exact
per-particle Gillespie, with no time step.

Every draw comes from a stateless 64-bit mix keyed by the replica seed, the
particle's key and the particle's event index; a child's key derives from
its parent's key and the event index of its birth.  A replica's trajectory
therefore depends only on its own seed, never on the batch it runs in.

The ambient process is killed at the walls of the ambient box (side L_max).
A particle's contribution to the box-L process ends at its first hit of
that box's boundary shell, and children born to a parent after the parent's
box-L kill never enter the box-L process (kills are inherited).  Both facts
together make each projection a Markov process with the killed generator
while keeping, pathwise, the measure ordering in L.

``simulate_replicas`` is the one entry point.  It folds the observables
of the killed processes into the loop (snapshot occupation, pathwise
integrals, per-particle birth and end times) and, when asked, records the
event history of its first replica.  ``simulate`` is a recorded batch of
one seed viewed as per-particle records, and ``kill_schedule``,
``kill_and_project``, ``pathwise_integrals`` and ``sup_total_mass``
recompute the folded observables from that record, one path at a time.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass

import numpy as np

from .environment import _GOLDEN, _mix64, _unit_interval
from .lattice import LatticeSpec
from .solver import PotentialEnvironment, _finite_positive

EVENT_KINDS = ("jump", "branch", "death", "absorbed")
JUMP, BRANCH, DEATH, ABSORBED = range(4)

_KIND_SALT = np.uint64(0xD1B54A32D192ED03)
_CHILD_SALT = np.uint64(0x8CB92BA72F3D8DD7)
_SURVIVE = 4                             # engine code: next clock beyond the horizon
_BIRTH_STOP = 4                          # births beyond this many caps halt a replica


def particle_count(spec: LatticeSpec) -> int:
    """Initial population floor(n^(d/2))."""
    return int(math.floor(spec.n ** (spec.d / 2.0)))


def flat_index(spec: LatticeSpec, idx: tuple) -> int:
    S = spec.box_sites_per_axis
    if spec.d == 1:
        return int(idx[0])
    return int(idx[0]) * S + int(idx[1])


def ambient_rates(env, L_max: int) -> PotentialEnvironment:
    """Extend the environment of a solve box to the ambient box, as the
    potential the simulator reads its rates from.

    Site-keyed sampling guarantees the two agree on shared sites; the
    renormalization constant is reused from the environment archive rather
    than recomputed, so the walk/branch rates match the solver's potential
    exactly on the solve box.  A potential without noise (a
    ``PotentialEnvironment``) serves only its own box.
    """
    from .environment import sample_noise

    spec = env.spec
    if L_max < spec.L:
        raise ValueError("ambient box must contain the solve box")
    if L_max == spec.L:
        return PotentialEnvironment(spec, np.asarray(env.xi_e).copy())
    if not hasattr(env, "noise"):
        raise ValueError(
            "a potential without noise cannot be extended; build it on the "
            "ambient box directly")
    big = LatticeSpec(n=spec.n, L=L_max, d=spec.d)
    noise = sample_noise(env.noise.distribution, env.noise.seed, big)
    return PotentialEnvironment(big, noise.values - env.c_n)


@dataclass
class ParticleRecord:
    """Full history of one labelled particle in the ambient process."""

    id: int
    parent: int                  # -1 for the initial generation
    birth: float
    path_times: list             # event times, starting with the birth time
    path_sites: list             # flat ambient site after each event
    death_time: float            # math.inf while alive at the horizon
    cause: str                   # 'alive' | 'died' | 'absorbed'

    def position_at(self, t: float) -> int:
        """Flat site at time t (cadlag); caller checks aliveness."""
        i = bisect.bisect_right(self.path_times, t) - 1
        return self.path_sites[i]


@dataclass
class SimulationResult:
    rates: PotentialEnvironment
    horizon: float
    seed: int
    initial_count: int
    particles: list
    events: list
    exploded: bool

    @property
    def spec(self) -> LatticeSpec:
        return self.rates.spec


def _neighbor_sites(spec: LatticeSpec) -> np.ndarray:
    """Flat neighbor indices per site, ordered (+x, -x[, +y, -y]).

    Rows of boundary sites are never read: no particle stays on the ambient
    boundary.  Indices are clipped into range there.
    """
    S = spec.box_sites_per_axis
    sites = np.arange(S ** spec.d)
    steps = (1,) if spec.d == 1 else (S, 1)
    cols = [sites + sign * s for s in steps for sign in (1, -1)]
    return np.clip(np.stack(cols, axis=1), 0, sites.size - 1)


def _check_boxes(spec: LatticeSpec, Ls) -> list:
    Ls = list(Ls)
    for L in Ls:
        if L % 2 or L < 2:
            raise ValueError(f"box sides must be even positive, got {L}")
        if L > spec.L:
            raise ValueError(f"box side {L} exceeds the ambient side {spec.L}")
    return Ls


def _running_peak(rep, start, end, replicas: int) -> np.ndarray:
    """Per replica, the largest number of windows [start, end) open at once;
    ends come before starts at equal times, and end = inf never closes."""
    keep = end > start
    rep, start, end = rep[keep], start[keep], end[keep]
    closes = np.isfinite(end)
    r = np.concatenate([rep, rep[closes]])
    when = np.concatenate([start, end[closes]])
    step = np.concatenate([np.ones(rep.size, np.int64), -np.ones(int(closes.sum()), np.int64)])
    order = np.lexsort((step, when, r))
    r, step = r[order], step[order]
    level = np.cumsum(step)
    best = np.zeros(replicas, np.int64)
    if r.size == 0:
        return best
    first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    level -= np.repeat(level[first] - step[first], np.diff(np.r_[first, r.size]))
    best[r[first]] = np.maximum.reduceat(level, first)
    return best


@dataclass
class _Run:
    """Raw output of the lockstep engine for one call.  Per-particle columns
    are indexed by creation order."""

    initial_count: int
    stopped: np.ndarray          # replicas halted by the birth stop
    rep: np.ndarray
    birth: np.ndarray
    end: np.ndarray              # ambient death time; inf if alive at the horizon
    cause: np.ndarray            # DEATH, ABSORBED or _SURVIVE (alive or halted)
    parent: np.ndarray           # -1 for the initial generation
    birth_site: np.ndarray
    tau: np.ndarray              # (len(Ls), particles) box-L kill times
    occupation: list             # per L: sorted atom codes and their counts
    integrals: dict              # (L, name) -> per replica sum of dt * f(site)
    events: dict | None          # replica 0's event columns in firing order (record=True)


def _grow(columns: dict, size: int) -> None:
    """Double the last axis of every column until it holds ``size`` entries."""
    for name, col in columns.items():
        if col.shape[-1] < size:
            new = np.empty(col.shape[:-1] + (max(size, 2 * col.shape[-1]),), col.dtype)
            new[..., :col.shape[-1]] = col
            columns[name] = new


def _advance(rates: PotentialEnvironment, horizon: float, seeds, cap: int,
             Ls=(), times=(), site_funcs=None, record=False) -> _Run:
    """The lockstep engine: every live particle of every replica fires its
    next event in each iteration, until no particle is left before the
    horizon.  Observables of the box-L processes are folded in per segment
    [t, t_next) of constant position, before the event is applied.  With
    ``record``, the events of the first replica are kept as well."""
    spec = rates.spec
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n2 = float(spec.n) ** 2
    ndir = 2 * spec.d
    jump_total = ndir * n2
    xi = rates.xi_e.ravel()
    branch_cut = jump_total + np.maximum(xi, 0.0)
    total_rate = branch_cut + np.maximum(-xi, 0.0)
    nbr = _neighbor_sites(spec)
    bmask = spec.boundary_mask().ravel()
    maxc = _max_coord_table(spec)
    shells = [L * spec.n // 2 for L in Ls]
    nL = len(Ls)
    S = bmask.size
    times = np.asarray(times, dtype=np.float64)
    nT = times.size
    funcs = {name: np.asarray(v, dtype=np.float64).ravel()
             for name, v in (site_funcs or {}).items()}

    k0 = particle_count(spec)
    origin = flat_index(spec, spec.origin_index)
    if bmask[origin]:
        raise ValueError("origin lies on the ambient boundary; enlarge L_max")

    R = len(seeds)
    seeds64 = np.asarray(seeds, dtype=np.int64).astype(np.uint64)
    rep = np.repeat(np.arange(R), k0)
    key = _mix64(_mix64(seeds64 + _GOLDEN)[rep]
                 + _GOLDEN * np.tile(np.arange(1, k0 + 1, dtype=np.uint64), R))
    m = rep.size
    # live particles: draw counter key + GOLDEN * (index of the next event),
    # site, time of the last event, box-L kill times, creation index
    ctr = key + _GOLDEN
    site = np.full(m, origin, np.intp)
    t = np.zeros(m)
    tau = np.full((nL, m), np.inf)
    pid = np.arange(m)
    cols = {"rep": rep.copy(), "birth": np.zeros(m), "end": np.full(m, np.inf),
            "cause": np.full(m, _SURVIVE, np.int8), "parent": np.full(m, -1),
            "birth_site": site.copy(), "tau": tau.copy()}
    count = m

    births = np.zeros(R, np.int64)
    stopped = np.zeros(R, bool)
    occ_codes = []                       # atom codes of every box, tagged by box
    integrals = {(L, name): np.zeros(R) for L in Ls for name in funcs}
    events = {"pid": [], "t": [], "kind": [], "site": []} if record else None

    while rep.size:
        h = _mix64(ctr)
        rate = total_rate[site]
        t_next = t - np.log(_unit_interval(h)) / rate
        u = _unit_interval(_mix64(h ^ _KIND_SALT)) * rate
        alive_L = np.isinf(tau)

        if nT:
            lo = np.searchsorted(times, t, "left")
            hi = np.searchsorted(times, t_next, "left")
            cov = (hi > lo).nonzero()[0]
            while cov.size:
                code = (rep[cov] * nT + lo[cov]) * S + site[cov]
                for j in range(nL):
                    occ_codes.append(code[alive_L[j, cov]] * nL + j)
                lo[cov] += 1
                cov = cov[lo[cov] < hi[cov]]
        if funcs:
            seg = np.minimum(t_next, horizon) - t
            for j, L in enumerate(Ls):
                a = alive_L[j]
                r_a, seg_a, site_a = rep[a], seg[a], site[a]
                for name, f in funcs.items():
                    integrals[(L, name)] += np.bincount(
                        r_a, weights=seg_a * f[site_a], minlength=R)

        # JUMP below jump_total, BRANCH below branch_cut, DEATH above
        kind = (u >= jump_total).view(np.int8) + (u >= branch_cut[site]).view(np.int8)
        kind[t_next > horizon] = _SURVIVE
        j_idx = (kind == JUMP).nonzero()[0]
        if j_idx.size:
            y = nbr[site[j_idx], np.minimum((u[j_idx] / n2).astype(np.intp), ndir - 1)]
            reach = maxc[y]
            for j, shell in enumerate(shells):
                hit = j_idx[alive_L[j, j_idx] & (reach >= shell)]
                tau[j, hit] = t_next[hit]
            site[j_idx] = y
            kind[j_idx[bmask[y]]] = ABSORBED
        if record:
            ev = ((kind < _SURVIVE) & (rep == 0)).nonzero()[0]
            for name, arr in (("pid", pid), ("t", t_next), ("kind", kind), ("site", site)):
                events[name].append(arr[ev])

        ended = kind >= DEATH
        b_idx = (kind == BRANCH).nonzero()[0]
        nb = b_idx.size
        if not nb and not ended.any():
            t = t_next
            ctr += _GOLDEN
            continue
        g_idx = ended.nonzero()[0]
        g_pid = pid[g_idx]
        g_kind = kind[g_idx]
        cols["end"][g_pid] = np.where(g_kind == _SURVIVE, np.inf, t_next[g_idx])
        cols["cause"][g_pid] = g_kind
        cols["tau"][:, g_pid] = tau[:, g_idx]
        keep = ~ended
        if not nb:
            rep, ctr, site, t = rep[keep], ctr[keep] + _GOLDEN, site[keep], t_next[keep]
            tau, pid = tau[:, keep], pid[keep]
            continue

        c_pid = np.arange(count, count + nb)
        count += nb
        _grow(cols, count)
        c_t = t_next[b_idx]
        cols["rep"][c_pid] = rep[b_idx]
        cols["birth"][c_pid] = c_t
        cols["parent"][c_pid] = pid[b_idx]
        cols["birth_site"][c_pid] = site[b_idx]
        births += np.bincount(rep[b_idx], minlength=R)
        rep = np.concatenate([rep[keep], rep[b_idx]])
        ctr = np.concatenate([ctr[keep], _mix64(h[b_idx] ^ _CHILD_SALT)]) + _GOLDEN
        site = np.concatenate([site[keep], site[b_idx]])
        t = np.concatenate([t_next[keep], c_t])
        # a child of a parent already killed in box L is dead on arrival there
        tau = np.concatenate([tau[:, keep], np.where(alive_L[:, b_idx], np.inf, c_t)], axis=1)
        pid = np.concatenate([pid[keep], c_pid])
        over = (births > _BIRTH_STOP * cap) & ~stopped
        if over.any():
            # memory bound: the replica is halted and exploded, its particles left alive
            stopped |= over
            halt = over[rep]
            cols["end"][pid[halt]] = np.inf
            cols["cause"][pid[halt]] = _SURVIVE
            cols["tau"][:, pid[halt]] = tau[:, halt]
            keep = ~halt
            rep, ctr, site, t = rep[keep], ctr[keep], site[keep], t[keep]
            tau, pid = tau[:, keep], pid[keep]

    codes = np.concatenate(occ_codes) if occ_codes else np.zeros(0, np.intp)
    occupation = [np.unique(codes[codes % nL == j] // nL, return_counts=True)
                  for j in range(nL)]
    if record:
        events = {name: np.concatenate(chunks) for name, chunks in events.items()}
    return _Run(k0, stopped, occupation=occupation, integrals=integrals, events=events,
                **{name: col[..., :count] for name, col in cols.items()})


def _exploded(run: _Run, cap: int) -> np.ndarray:
    peak = _running_peak(run.rep, run.birth, run.end, run.stopped.size)
    return run.stopped | (peak > cap)


def _birth_order(run: _Run):
    """The first replica's particle rows in birth order (ties, such as the
    initial generation, by creation), and the rank of each of those rows
    (entries of other replicas' rows are left unset)."""
    rows = (run.rep == 0).nonzero()[0]
    order = rows[np.argsort(run.birth[rows], kind="stable")]
    new_id = np.empty(run.rep.size, np.intp)
    new_id[order] = np.arange(order.size)
    return order, new_id


@dataclass
class ReplicaBatch:
    """Folded observables of the box-L processes, one entry per replica.

    ``occupation[L]`` holds the sorted atom codes (replica, snapshot index,
    site) with their particle counts; ``integrals[(L, name)]`` the exact
    time integrals int_0^horizon <mu_r^L, f> dr; ``exploded`` flags the
    replicas whose results callers must leave out.
    """

    spec: LatticeSpec
    seeds: list
    horizon: float
    initial_count: int
    times: list
    Ls: list
    exploded: np.ndarray
    occupation: dict
    integrals: dict
    _run: _Run

    @property
    def weight(self) -> float:
        return 1.0 / self.initial_count

    def atoms(self, L: int):
        """(replica, snapshot index, flat site, count) arrays of box L's atoms."""
        codes, counts = self.occupation[L]
        S = self.spec.site_count
        cell, site = np.divmod(codes, S)
        rep, ti = np.divmod(cell, len(self.times))
        return rep, ti, site, counts

    def counts_at(self, L: int, codes: np.ndarray) -> np.ndarray:
        """Box L's particle counts at the given atom codes, 0 where it has none."""
        keys, counts = self.occupation[L]
        pos = np.searchsorted(keys, codes)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == codes[hit]
        out = np.zeros(codes.size, np.int64)
        out[hit] = counts[pos[hit]]
        return out

    def pairings(self, ti: int, L: int, site_values: np.ndarray) -> np.ndarray:
        """<mu^L_t, f> per replica at snapshot ti."""
        rep, tis, site, counts = self.atoms(L)
        sel = tis == ti
        flat = np.asarray(site_values, dtype=np.float64).ravel()
        sums = np.bincount(rep[sel], weights=counts[sel] * flat[site[sel]],
                           minlength=len(self.seeds))
        return self.weight * sums

    def sup_total_mass(self, L: int) -> np.ndarray:
        """sup over [0, horizon] of the box-L total mass, per replica."""
        run = self._run
        end = np.minimum(run.end, run.tau[self.Ls.index(L)])
        peak = _running_peak(run.rep, run.birth, end, len(self.seeds))
        return self.weight * peak

    def event_log(self) -> list:
        """The first replica's events as (time, id, kind, site) tuples,
        sorted by time; ids number its particles in birth order."""
        ev = self._run.events
        if ev is None:
            raise ValueError("the batch was not recorded; run it with record=True")
        ev_id = _birth_order(self._run)[1][ev["pid"]]
        by_time = np.lexsort((ev_id, ev["t"]))
        return list(zip(ev["t"][by_time].tolist(), ev_id[by_time].tolist(),
                        ev["kind"][by_time].tolist(), ev["site"][by_time].tolist()))


def simulate_replicas(rates: PotentialEnvironment, horizon: float, seeds, Ls=(),
                      snapshot_times=(), site_funcs=None,
                      cap: int = 1_000_000, record: bool = False) -> ReplicaBatch:
    """Run one replica per seed in lockstep and fold the killed observables.

    For every box side in ``Ls``: occupation counts at each snapshot time,
    int_0^horizon <mu_r^L, f> dr for each array of ``site_funcs`` (values
    over the ambient box), and the birth and end times from which
    ``ReplicaBatch.sup_total_mass`` takes the sup of the total mass.  Draws
    are keyed by (replica seed, particle key, event index), so a replica's
    trajectory does not depend on the other seeds.  Memory grows with the
    number of particles, not of events, unless ``record`` keeps the events
    of replica ``seeds[0]`` for ``ReplicaBatch.event_log``.

    A replica is exploded when its live population exceeded ``cap`` at some
    time, computed exactly from birth and end times; as a memory bound, one
    whose births pass ``4 * cap`` is halted and exploded too.  A horizon
    that is not finite and positive raises ``ValueError`` before any draw.
    """
    _finite_positive("horizon", horizon)
    seeds = [int(s) for s in seeds]
    Ls = _check_boxes(rates.spec, Ls)
    times = sorted(float(s) for s in snapshot_times)
    if times and times[-1] > horizon:
        raise ValueError("snapshot beyond the simulated horizon")
    run = _advance(rates, horizon, seeds, cap, Ls, times, site_funcs, record)
    w = 1.0 / run.initial_count
    return ReplicaBatch(
        spec=rates.spec, seeds=seeds, horizon=horizon,
        initial_count=run.initial_count, times=times, Ls=Ls,
        exploded=_exploded(run, cap),
        occupation=dict(zip(Ls, run.occupation)),
        integrals={k: w * v for k, v in run.integrals.items()},
        _run=run)


def simulate(rates: PotentialEnvironment, horizon: float, seed: int,
             cap: int = 1_000_000) -> SimulationResult:
    """One exact trajectory up to the horizon with its full history: the
    recorded ``simulate_replicas`` batch of the one seed, as per-particle
    records.  Ids number the particles in birth order, ``events`` is the
    batch's ``event_log()``, and the particles live at a halt keep
    ``death_time`` inf with cause 'alive'.
    """
    batch = simulate_replicas(rates, horizon, [seed], cap=cap, record=True)
    run, events = batch._run, batch.event_log()
    order, new_id = _birth_order(run)
    causes = {DEATH: "died", ABSORBED: "absorbed", _SURVIVE: "alive"}
    particles = []
    for i, row in enumerate(order.tolist()):
        b, up = float(run.birth[row]), int(run.parent[row])
        particles.append(ParticleRecord(
            i, up if up < 0 else int(new_id[up]), b, [b], [int(run.birth_site[row])],
            float(run.end[row]), causes[int(run.cause[row])]))
    for t, i, kind, site in events:
        if kind == JUMP or kind == ABSORBED:
            particles[i].path_times.append(t)
            particles[i].path_sites.append(site)
    return SimulationResult(rates, horizon, seed, batch.initial_count, particles,
                            events, bool(batch.exploded[0]))


def _max_coord_table(spec: LatticeSpec) -> np.ndarray:
    """Integer sup-norm |g|_inf of the centered coordinates, per flat site."""
    P = spec.L * spec.n
    axis = np.abs(np.arange(P + 1) - P // 2)
    if spec.d == 1:
        return axis
    return np.maximum(axis[:, None], axis[None, :]).ravel()


@dataclass
class KillSchedule:
    """First boundary-hit times per particle and box, kills inherited.

    tau[L][i] is the time after which particle i no longer contributes to
    the box-L process; it is nondecreasing in L for every particle.
    """

    Ls: list
    tau: dict


def kill_schedule(result: SimulationResult, Ls) -> KillSchedule:
    """Per-path reference for the kill times ``simulate_replicas`` folds."""
    spec = result.spec
    maxc = _max_coord_table(spec)
    Ls = _check_boxes(spec, Ls)
    shells = {L: L * spec.n // 2 for L in Ls}
    tau = {L: [] for L in Ls}
    for p in result.particles:
        mx = maxc[np.asarray(p.path_sites, dtype=np.intp)]
        for L in Ls:
            shell = shells[L]
            if p.parent >= 0 and tau[L][p.parent] <= p.birth:
                tau[L].append(p.birth)  # dead on arrival: parent already killed
                continue
            hits = np.nonzero(mx >= shell)[0]
            tau[L].append(p.path_times[hits[0]] if hits.size else math.inf)
    return KillSchedule(Ls, tau)


@dataclass
class EmpiricalMeasurePath:
    """Measure snapshots per (time, box) as integer occupation counts.

    Atom weights are counts / floor(n^(d/2)); counts are kept exact so that
    the coupling-order comparison is integer arithmetic.
    """

    spec: LatticeSpec
    times: list
    Ls: list
    weight: float
    counts: dict                 # (time_index, L) -> {flat_site: int}

    def mass(self, ti: int, L: int) -> float:
        return self.weight * sum(self.counts[(ti, L)].values())

    def pair(self, ti: int, L: int, site_values: np.ndarray) -> float:
        flat = site_values.ravel()
        return self.weight * sum(c * flat[s] for s, c in self.counts[(ti, L)].items())


def kill_and_project(result: SimulationResult, Ls, snapshot_times) -> EmpiricalMeasurePath:
    """Empirical measures of the killed processes at the snapshot times.

    A particle contributes to box L strictly before its (inherited) kill
    time and strictly before its ambient death; the state is cadlag, so a
    particle born exactly at a snapshot time is counted.
    """
    sched = kill_schedule(result, Ls)
    times = sorted(snapshot_times)
    if times and times[-1] > result.horizon:
        raise ValueError("snapshot beyond the simulated horizon")
    counts = {(ti, L): {} for ti in range(len(times)) for L in sched.Ls}
    for i, p in enumerate(result.particles):
        for L in sched.Ls:
            end = min(p.death_time, sched.tau[L][i])
            for ti, t in enumerate(times):
                if p.birth <= t < end:
                    site = p.position_at(t)
                    bucket = counts[(ti, L)]
                    bucket[site] = bucket.get(site, 0) + 1
    weight = 1.0 / result.initial_count
    return EmpiricalMeasurePath(result.spec, times, sched.Ls, weight, counts)


def pathwise_integrals(result: SimulationResult, Ls, T: float, site_funcs: dict) -> dict:
    """Exact time integrals int_0^T <mu_r, f> dr for each box and function.

    ``site_funcs`` maps a name to a value array over the ambient box.  The
    empirical measure is piecewise constant between events, so the integral
    is a finite sum of (segment duration) * f(site) terms.
    """
    sched = kill_schedule(result, Ls)
    flats = {name: np.asarray(v).ravel() for name, v in site_funcs.items()}
    out = {(L, name): 0.0 for L in sched.Ls for name in flats}
    w = 1.0 / result.initial_count
    for i, p in enumerate(result.particles):
        pt = p.path_times
        ps = p.path_sites
        for L in sched.Ls:
            start, end = p.birth, min(p.death_time, sched.tau[L][i], T)
            if end <= start:
                continue
            for k in range(len(pt)):
                seg_a = max(pt[k], start)
                seg_b = min(pt[k + 1] if k + 1 < len(pt) else math.inf, end)
                if seg_b <= seg_a:
                    continue
                dt = seg_b - seg_a
                site = ps[k]
                for name, arr in flats.items():
                    out[(L, name)] += w * dt * float(arr[site])
    return out


def sup_total_mass(result: SimulationResult, Ls, T: float) -> dict:
    """sup over [0, T] of the killed processes' total mass, per box."""
    sched = kill_schedule(result, Ls)
    out = {}
    w = 1.0 / result.initial_count
    for L in sched.Ls:
        deltas = []
        for i, p in enumerate(result.particles):
            start, end = p.birth, min(p.death_time, sched.tau[L][i])
            if end <= start or start > T:
                continue
            deltas.append((start, 1))
            if end <= T:
                deltas.append((end, -1))
        deltas.sort(key=lambda e: (e[0], e[1]))  # removals before births at ties
        cur = best = 0
        for _, step in deltas:
            cur += step
            best = max(best, cur)
        out[L] = w * best
    return out


def write_event_log(events, path) -> None:
    """Append-only binary record stream: (time f8, id u4, kind u1, site u4)."""
    with open(path, "wb") as fh:
        fh.write(b"pamlab-events-v1\n")
        for t, pid, kind, site in events:
            fh.write(struct.pack("<dIBI", t, pid, kind, site))


def read_event_log(path) -> list:
    rec = struct.Struct("<dIBI")
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != b"pamlab-events-v1\n":
            raise ValueError(f"not an event log: {path}")
        blob = fh.read()
    if len(blob) % rec.size:
        raise ValueError(f"event log {path} is cut: its body of {len(blob)} bytes "
                         f"is not a whole number of {rec.size}-byte records")
    return [rec.unpack_from(blob, i) for i in range(0, len(blob), rec.size)]
