import heapq
import math
import random

import numpy as np
import pytest

from pamlab import verify
from pamlab.branching import (
    ambient_rates,
    kill_and_project,
    kill_schedule,
    particle_count,
    pathwise_integrals,
    read_event_log,
    simulate,
    simulate_replicas,
    sup_total_mass,
    write_event_log,
)
from pamlab.environment import build_environment
from pamlab.lattice import LatticeSpec
from pamlab.solver import PotentialEnvironment, apply_hamiltonian


def flat_rates(n, L, d, value):
    spec = LatticeSpec(n=n, L=L, d=d)
    return PotentialEnvironment(spec, np.full(spec.shape, float(value)))


class TestInitState:
    def test_particle_counts(self):
        assert particle_count(LatticeSpec(n=16, L=2, d=2)) == 16
        assert particle_count(LatticeSpec(n=16, L=2, d=1)) == 4
        assert particle_count(LatticeSpec(n=32, L=2, d=1)) == 5

    def test_initial_measure_mass_is_one(self):
        for n in (4, 9, 16):
            spec = LatticeSpec(n=n, L=4, d=1)
            rates = PotentialEnvironment(spec, np.zeros(spec.shape))
            res = simulate(rates, horizon=0.001, seed=0)
            emp = kill_and_project(res, [spec.L], [0.0])
            assert emp.mass(0, spec.L) == pytest.approx(1.0, abs=0)


class TestDeterminism:
    def test_same_seed_identical_log(self):
        env = build_environment(8, 2, 1, "gaussian", 5)
        rates = ambient_rates(env, 4)
        a = simulate(rates, 0.05, seed=7)
        b = simulate(rates, 0.05, seed=7)
        assert a.events == b.events
        assert [p.path_times for p in a.particles] == [p.path_times for p in b.particles]

    def test_different_seed_differs(self):
        env = build_environment(8, 2, 1, "gaussian", 5)
        rates = ambient_rates(env, 4)
        a = simulate(rates, 0.05, seed=1)
        b = simulate(rates, 0.05, seed=2)
        assert a.events != b.events

    def test_event_log_round_trip(self, tmp_path):
        env = build_environment(8, 2, 1, "gaussian", 5)
        res = simulate(ambient_rates(env, 4), 0.05, seed=3)
        path = tmp_path / "events.bin"
        write_event_log(res.events, path)
        back = read_event_log(path)
        assert len(back) == len(res.events)
        for (t, p, k, s), (t2, p2, k2, s2) in zip(res.events, back):
            assert (t, p, k, s) == (t2, p2, k2, s2)

    def test_cut_event_log_raises(self, tmp_path):
        env = build_environment(8, 2, 1, "gaussian", 5)
        path = tmp_path / "events.bin"
        write_event_log(simulate(ambient_rates(env, 4), 0.05, seed=3).events, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="events.bin"):
            read_event_log(path)


class TestZeroEnvironmentPoissonOracle:
    def test_jump_counts_poisson_mean(self):
        # no branching or death: per-particle jump count ~ Poisson(2 d n^2 T)
        n, d, T = 4, 1, 0.25
        rates = flat_rates(n, 16, d, 0.0)  # big box: no absorption
        lam = 2 * d * n * n * T
        counts = []
        for seed in range(400):
            res = simulate(rates, T, seed=seed)
            assert len(res.particles) == res.initial_count
            for p in res.particles:
                counts.append(len(p.path_times) - 1)
        mean = np.mean(counts)
        se = math.sqrt(lam / len(counts))  # Poisson variance = mean
        assert abs(mean - lam) <= 3 * se

    def test_population_constant_without_branching(self):
        rates = flat_rates(4, 16, 1, 0.0)
        res = simulate(rates, 0.3, seed=11)
        assert all(p.cause == "alive" for p in res.particles)


class TestPureDeathOracle:
    def test_population_decay_closed_form(self):
        c, T = 3.0, 0.2
        rates = flat_rates(4, 16, 1, -c)
        k0 = particle_count(rates.spec)
        p_survive = math.exp(-c * T)
        masses = []
        for seed in range(500):
            res = simulate(rates, T, seed=seed)
            emp = kill_and_project(res, [16], [T])
            masses.append(emp.mass(0, 16) * k0)
        mean = np.mean(masses)
        expect = k0 * p_survive
        se = math.sqrt(k0 * p_survive * (1 - p_survive) / len(masses))
        assert abs(mean - expect) <= 3 * se

    def test_pure_birth_yule_growth(self):
        c, T = 2.0, 0.25
        rates = flat_rates(4, 16, 1, c)
        k0 = particle_count(rates.spec)
        pops = []
        for seed in range(400):
            res = simulate(rates, T, seed=seed)
            pops.append(sum(1 for p in res.particles if p.cause == "alive"))
        mean = np.mean(pops)
        expect = k0 * math.exp(c * T)
        # per-particle Yule variance: e^{cT}(e^{cT} - 1)
        var = k0 * math.exp(c * T) * (math.exp(c * T) - 1)
        se = math.sqrt(var / len(pops))
        assert abs(mean - expect) <= 3 * se


class TestKillingAndProjection:
    def test_tau_nondecreasing_in_L(self):
        env = build_environment(16, 2, 1, "gaussian", 3)
        rates = ambient_rates(env, 8)
        res = simulate(rates, 0.3, seed=5)
        sched = kill_schedule(res, [2, 4, 6, 8])
        for i in range(len(res.particles)):
            taus = [sched.tau[L][i] for L in (2, 4, 6, 8)]
            assert all(a <= b for a, b in zip(taus, taus[1:]))

    def test_kill_at_ambient_side_matches_ambient(self):
        env = build_environment(16, 2, 1, "gaussian", 3)
        rates = ambient_rates(env, 4)
        res = simulate(rates, 0.2, seed=9)
        times = [0.05, 0.1, 0.2]
        emp = kill_and_project(res, [4], times)
        # direct ambient occupation from the records
        for ti, t in enumerate(times):
            direct = {}
            for p in res.particles:
                if p.birth <= t < p.death_time:
                    s = p.position_at(t)
                    direct[s] = direct.get(s, 0) + 1
            assert direct == emp.counts[(ti, 4)]

    def test_single_particle_exit_bookkeeping(self):
        # one particle (K=1), no branching: mass_L(t) = 1_{t < tau}
        spec = LatticeSpec(n=1, L=8, d=1)
        rates = PotentialEnvironment(spec, np.zeros(spec.shape))
        res = simulate(rates, 50.0, seed=4)
        assert res.initial_count == 1
        sched = kill_schedule(res, [2])
        tau = sched.tau[2][0]
        assert math.isfinite(tau)  # with rate-2 jumps over 50 time units it left
        before = kill_and_project(res, [2], [tau * 0.999]).mass(0, 2)
        at = kill_and_project(res, [2], [tau]).mass(0, 2)
        assert before == 1.0 and at == 0.0

    def test_exact_ordering_random_environment(self):
        env = build_environment(16, 2, 1, "gaussian", 21)
        rates = ambient_rates(env, 8)
        times = [0.0, 0.05, 0.1, 0.15]
        Ls = [2, 4, 6, 8]
        for seed in range(30):
            res = simulate(rates, 0.15, seed=seed)
            emp = kill_and_project(res, Ls, times)
            for ti in range(len(times)):
                for La, Lb in zip(Ls, Ls[1:]):
                    small = emp.counts[(ti, La)]
                    big = emp.counts[(ti, Lb)]
                    for site, cnt in small.items():
                        assert cnt <= big.get(site, 0)

    def test_adversarial_kill_time_mutation_detected(self):
        env = build_environment(16, 2, 1, "gaussian", 21)
        rates = ambient_rates(env, 8)
        res = sched = idx = None
        for seed in range(40):  # deterministic scan for a two-shell crossing
            res = simulate(rates, 0.8, seed=seed)
            sched = kill_schedule(res, [2, 4])
            hits = [i for i in range(len(res.particles))
                    if sched.tau[2][i] < sched.tau[4][i] < math.inf]
            if hits:
                idx = hits[0]
                break
        assert idx is not None
        # corrupt: swap the kill times so the box-2 process outlives box-4
        sched.tau[2][idx], sched.tau[4][idx] = sched.tau[4][idx], sched.tau[2][idx]
        t_probe = (sched.tau[2][idx] + sched.tau[4][idx]) / 2
        p = res.particles[idx]
        violations = 0
        if p.birth <= t_probe < min(p.death_time, sched.tau[2][idx]):
            site = p.position_at(t_probe)
            alive_in_4 = p.birth <= t_probe < min(p.death_time, sched.tau[4][idx])
            if not alive_in_4:
                violations += 1
        assert violations == 1

    def test_rejects_odd_or_oversized_boxes(self):
        env = build_environment(8, 2, 1, "gaussian", 0)
        res = simulate(ambient_rates(env, 4), 0.05, seed=0)
        with pytest.raises(ValueError):
            kill_schedule(res, [3])
        with pytest.raises(ValueError):
            kill_schedule(res, [6])


class TestPathwiseIntegrals:
    def test_constant_function_no_killing(self):
        rates = flat_rates(4, 16, 1, 0.0)
        T = 0.2
        res = simulate(rates, T, seed=8)
        ones = np.ones(rates.spec.shape)
        vals = pathwise_integrals(res, [16], T, {"one": ones})
        assert vals[(16, "one")] == pytest.approx(T, rel=1e-12)

    def test_pure_death_expected_integral(self):
        c, T = 3.0, 0.2
        rates = flat_rates(4, 16, 1, -c)
        ones = np.ones(rates.spec.shape)
        samples = []
        for seed in range(400):
            res = simulate(rates, T, seed=seed)
            samples.append(pathwise_integrals(res, [16], T, {"one": ones})[(16, "one")])
        # E int_0^T mass dt = (1 - e^{-cT}) / c
        expect = (1 - math.exp(-c * T)) / c
        se = np.std(samples, ddof=1) / math.sqrt(len(samples))
        assert abs(np.mean(samples) - expect) <= 3 * se


class TestMassSup:
    def test_sup_at_least_initial_mass(self):
        env = build_environment(16, 2, 1, "gaussian", 3)
        res = simulate(ambient_rates(env, 8), 0.1, seed=1)
        sup = sup_total_mass(res, [2, 8], 0.1)
        assert sup[8] >= 1.0
        assert sup[2] <= sup[8]

    def test_pure_death_sup_is_initial(self):
        rates = flat_rates(4, 16, 1, -2.0)
        res = simulate(rates, 0.3, seed=6)
        sup = sup_total_mass(res, [16], 0.3)
        assert sup[16] == pytest.approx(1.0, abs=0)


class TestExplosionCap:
    def test_cap_flags_exploded(self):
        rates = flat_rates(4, 16, 1, 40.0)  # strong pure birth
        res = simulate(rates, 2.0, seed=0, cap=8)
        assert res.exploded
        assert len(res.particles) >= 8

    def test_births_past_cap_alone_do_not_explode(self):
        # near-critical in a small box: births pile up, the population does not
        rates = flat_rates(4, 2, 1, 2.5)
        res = simulate(rates, 4.0, seed=3, cap=10)
        births = len(res.particles) - res.initial_count
        peak = sup_total_mass(res, [2], 4.0)[2] * res.initial_count
        assert peak <= 10 < births <= 4 * 10
        assert not res.exploded
        assert not simulate_replicas(rates, 4.0, [3], cap=10).exploded[0]
        # past four caps of births the run is halted and exploded
        halted = simulate(rates, 4.0, seed=3, cap=5)
        assert halted.exploded
        assert any(p.cause == "alive" for p in halted.particles)

    def test_ambient_coupling_consistency(self):
        # the ambient rate field restricted to the solve box equals xi_e there
        env = build_environment(8, 2, 2, "gaussian", 13)
        rates = ambient_rates(env, 6)
        off = (6 - 2) // 2 * 8
        P = 2 * 8
        sl = (slice(off, off + P + 1),) * 2
        assert np.array_equal(rates.xi_e[sl], env.xi_e)

    def test_ambient_rates_is_a_potential_environment(self):
        # the solver and the simulator read one potential type
        env = build_environment(8, 2, 1, "gaussian", 13)
        for L_max in (2, 6):
            rates = ambient_rates(env, L_max)
            assert isinstance(rates, PotentialEnvironment)
            assert rates.spec == LatticeSpec(n=8, L=L_max, d=1)

    def test_potential_without_noise_not_extended(self):
        with pytest.raises(ValueError, match="without noise"):
            ambient_rates(flat_rates(4, 2, 1, -1.0), 4)

    def test_misshaped_potential_rejected(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        with pytest.raises(ValueError, match="shape does not match"):
            PotentialEnvironment(spec, np.zeros(spec.box_sites_per_axis + 1))


def heap_oracle(rates, horizon, seed, site_funcs=None):
    """The event-queue simulator the lockstep engine replaced: one binary
    heap over next-event times, Python's Mersenne Twister for the draws.

    Returns the jump count per particle, the sites of the particles alive at
    the horizon, the peak live count, and per name of ``site_funcs`` the
    unweighted time integral of the sum of f over the live particles."""
    spec = rates.spec
    n2 = float(spec.n) ** 2
    jump_total = 2 * spec.d * n2
    xi = rates.xi_e.ravel()
    beta = np.maximum(xi, 0.0).tolist()
    total_rate = (jump_total + np.abs(xi)).tolist()
    S = spec.box_sites_per_axis
    steps = (1,) if spec.d == 1 else (S, 1)
    bmask = spec.boundary_mask().ravel().tolist()
    origin = S // 2 if spec.d == 1 else (S // 2) * S + S // 2
    k0 = particle_count(spec)
    funcs = {name: np.asarray(v, float).ravel().tolist()
             for name, v in (site_funcs or {}).items()}
    integrals = dict.fromkeys(funcs, 0.0)

    def hold(pid, t):  # close the particle's constant segment at time t
        for name, f in funcs.items():
            integrals[name] += (t - last[pid]) * f[pos[pid]]
        last[pid] = t

    rng = random.Random(seed)
    pos = [origin] * k0
    last = [0.0] * k0
    jumps = [0] * k0
    heap = [(rng.expovariate(total_rate[origin]), i) for i in range(k0)]
    heapq.heapify(heap)
    alive = peak = k0
    while heap:
        t, pid = heapq.heappop(heap)
        if t > horizon:
            heapq.heappush(heap, (t, pid))
            break
        x = pos[pid]
        hold(pid, t)
        u = rng.random() * total_rate[x]
        if u < jump_total:
            k = int(u / n2)
            y = x + (1 if k % 2 == 0 else -1) * steps[k // 2]
            pos[pid] = y
            jumps[pid] += 1
            if bmask[y]:
                alive -= 1
                continue
        elif u < jump_total + beta[x]:
            pos.append(x)
            last.append(t)
            jumps.append(0)
            heapq.heappush(heap, (t + rng.expovariate(total_rate[x]), len(pos) - 1))
            alive += 1
            peak = max(peak, alive)
        else:
            alive -= 1
            continue
        heapq.heappush(heap, (t + rng.expovariate(total_rate[pos[pid]]), pid))
    for _, pid in heap:
        hold(pid, horizon)
    return {"jumps": jumps, "final": [pos[pid] for _, pid in heap], "peak": peak,
            "integrals": integrals}


def counts_by_snapshot(batch, L):
    """{(replica, snapshot index): {flat site: count}} of box L's atoms."""
    out = {}
    for r, ti, site, c in zip(*(a.tolist() for a in batch.atoms(L))):
        out.setdefault((r, ti), {})[site] = c
    return out


def two_sample_z(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return (a.mean() - b.mean()) / se


class TestLockstepEngine:
    CASES = [  # (n, d, env seed, L_max, T, Ls)
        (16, 1, 3, 8, 0.3, [2, 4, 6, 8]),
        (8, 2, 13, 6, 0.2, [2, 4, 6]),
    ]

    @pytest.mark.parametrize("n,d,env_seed,L_max,T,Ls", CASES)
    def test_folded_observables_match_path_references(self, n, d, env_seed, L_max, T, Ls):
        rates = ambient_rates(build_environment(n, 2, d, "gaussian", env_seed), L_max)
        times = [0.0, T / 3, T]
        rng = np.random.default_rng(env_seed)
        funcs = {"one": np.ones(rates.spec.shape), "mixed": rng.normal(size=rates.spec.shape)}
        seeds = list(range(40, 70))
        batch = simulate_replicas(rates, T, seeds, Ls, times, funcs)
        folded = {L: counts_by_snapshot(batch, L) for L in Ls}
        for i, seed in enumerate(seeds):
            res = simulate(rates, T, seed=seed)
            assert batch.exploded[i] == res.exploded
            emp = kill_and_project(res, Ls, times)
            for ti in range(len(times)):
                for L in Ls:
                    assert folded[L].get((i, ti), {}) == emp.counts[(ti, L)]
            sups = sup_total_mass(res, Ls, T)
            ints = pathwise_integrals(res, Ls, T, funcs)
            for L in Ls:
                assert batch.sup_total_mass(L)[i] == sups[L]
                for name in funcs:
                    ref = ints[(L, name)]
                    assert abs(batch.integrals[(L, name)][i] - ref) <= 1e-12 * abs(ref)

    def test_batch_invariance(self):
        rates = ambient_rates(build_environment(16, 2, 1, "gaussian", 3), 8)
        Ls, times, T = [2, 4, 8], [0.0, 0.1, 0.3], 0.3
        funcs = {"one": np.ones(rates.spec.shape)}
        big = simulate_replicas(rates, T, range(120), Ls, times, funcs)
        big_counts = {L: counts_by_snapshot(big, L) for L in Ls}
        for i in range(10):
            alone = simulate_replicas(rates, T, [i], Ls, times, funcs)
            assert alone.exploded[0] == big.exploded[i]
            for L in Ls:
                assert alone.sup_total_mass(L)[0] == big.sup_total_mass(L)[i]
                assert alone.integrals[(L, "one")][0] == big.integrals[(L, "one")][i]
                alone_counts = counts_by_snapshot(alone, L)
                for ti in range(len(times)):
                    assert alone_counts.get((0, ti)) == big_counts[L].get((i, ti))

    @pytest.mark.parametrize("n,d,env_seed,L_max,T,Ls", CASES)
    def test_recorded_replica_log_equals_simulate(self, n, d, env_seed, L_max, T, Ls):
        rates = ambient_rates(build_environment(n, 2, d, "gaussian", env_seed), L_max)
        seeds = list(range(40, 72))
        batch = simulate_replicas(rates, T, seeds, Ls, [0.0, T], record=True)
        log = batch.event_log()
        assert log and log == simulate(rates, T, seed=seeds[0]).events

    @pytest.mark.parametrize("n,d,env_seed,L_max,T,Ls", CASES)
    def test_recording_leaves_folded_observables_unchanged(self, n, d, env_seed, L_max,
                                                           T, Ls):
        rates = ambient_rates(build_environment(n, 2, d, "gaussian", env_seed), L_max)
        funcs = {"one": np.ones(rates.spec.shape)}
        args = (rates, T, range(30), Ls, [0.0, T / 2, T], funcs)
        plain = simulate_replicas(*args)
        recorded = simulate_replicas(*args, record=True)
        assert np.array_equal(plain.exploded, recorded.exploded)
        for L in Ls:
            for a, b in zip(plain.occupation[L], recorded.occupation[L]):
                assert np.array_equal(a, b)
            assert np.array_equal(plain.sup_total_mass(L), recorded.sup_total_mass(L))
            assert np.array_equal(plain.integrals[(L, "one")], recorded.integrals[(L, "one")])

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_horizon_not_finite_and_positive(self, horizon):
        # a nan horizon used to return a batch in which no particle survived
        rates = flat_rates(4, 2, 1, 1.0)
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            simulate_replicas(rates, horizon, [0, 1], [2])

    def test_unrecorded_batch_has_no_event_log(self):
        rates = ambient_rates(build_environment(8, 2, 1, "gaussian", 5), 4)
        with pytest.raises(ValueError, match="record"):
            simulate_replicas(rates, 0.05, [1, 2]).event_log()

    def test_event_log_sorted_with_ids_in_birth_order(self):
        rates = ambient_rates(build_environment(16, 2, 1, "gaussian", 3), 4)
        res = simulate(rates, 0.3, seed=5)
        times = [e[0] for e in res.events]
        assert times == sorted(times)
        births = [p.birth for p in res.particles]
        assert births == sorted(births) and [p.id for p in res.particles] == list(
            range(len(births)))
        branches = sum(1 for e in res.events if e[2] == 1)
        assert branches == len(res.particles) - res.initial_count > 0
        for p in res.particles[res.initial_count:]:
            assert res.particles[p.parent].birth < p.birth

    @pytest.mark.parametrize("n,d,env_seed", [(16, 1, 101), (8, 2, 101)])
    def test_matches_heap_oracle_in_distribution(self, n, d, env_seed):
        rates = ambient_rates(build_environment(n, 2, d, "gaussian", env_seed), 4)
        T, replicas = 0.25, 300
        k0 = particle_count(rates.spec)
        old_jumps, old_mass = [], []
        for seed in range(replicas):
            out = heap_oracle(rates, T, seed)
            old_jumps.append(np.mean(out["jumps"]))
            old_mass.append(len(out["final"]) / k0)
        new_jumps = []
        for seed in range(replicas):
            res = simulate(rates, T, seed=seed)
            new_jumps.append(np.mean([len(p.path_times) - 1 for p in res.particles]))
        batch = simulate_replicas(rates, T, range(replicas), [4], [T])
        new_mass = batch.pairings(0, 4, np.ones(rates.spec.shape))
        assert abs(two_sample_z(new_jumps, old_jumps)) <= 3
        assert abs(two_sample_z(new_mass, old_mass)) <= 3

    def test_martingale_and_mass_sup_match_heap_oracle(self):
        # the d=2 statistics where verify's 3-SE verdicts cluster: K^phi(T),
        # the paired K^2 - QV and the sup of the box-2 mass.  The engine
        # projects box 2 out of ambient side 8; the oracle runs the box-2
        # process directly, on ambient side 2.
        env = build_environment(8, 2, 2, "gaussian", 1299454017)
        phi = verify.smooth_bump(env.spec, 0.5)
        T, replicas = 0.25, 1000
        report = verify.test_martingale_qv(env, 2, T, phi, replicas, seed_base=0, L_max=8)
        assert report.exploded == 0
        batch = simulate_replicas(ambient_rates(env, 8), T, range(replicas), [2])
        k0 = particle_count(env.spec)
        qv = verify.discrete_qv_density(env, phi)
        funcs = {"H": apply_hamiltonian(env, phi).values, "qv": qv["jump"] + qv["branch"]}
        flat = phi.values.ravel()
        phi0 = phi.values[env.spec.origin_index]
        ks, qs, sups = [], [], []
        for seed in range(replicas):
            out = heap_oracle(ambient_rates(env, 2), T, seed, funcs)
            ks.append((flat[out["final"]].sum() - out["integrals"]["H"]) / k0 - phi0)
            qs.append(out["integrals"]["qv"] / k0)
            sups.append(out["peak"] / k0)
        ks, paired = np.array(ks), np.array(ks) ** 2 - np.array(qs)

        def z(mean, se, sample):
            return (mean - sample.mean()) / math.hypot(se, sample.std(ddof=1) / math.sqrt(sample.size))

        assert abs(z(report.statistic, report.se, ks)) <= 3
        assert abs(z(report.extras["qv_paired_diff"], report.extras["qv_paired_se"], paired)) <= 3
        assert abs(two_sample_z(batch.sup_total_mass(2), sups)) <= 3
