import dataclasses
import json

import numpy as np
import pytest

from pamlab import verify
from pamlab.branching import particle_count
from pamlab.environment import build_environment
from pamlab.lattice import Field
from pamlab.solver import PotentialEnvironment, zero_environment
from pamlab.lattice import LatticeSpec


@pytest.fixture(scope="module")
def env_d1():
    return build_environment(16, 2, 1, "gaussian", seed=101)


class TestMomentDuality:
    def test_t_zero_is_exact(self, env_d1):
        phi = verify.smooth_bump(env_d1.spec)
        rep = verify.test_moment_duality(env_d1, L=2, t=0.0, phi=phi, replicas=5)
        assert rep.exact and rep.passed
        assert rep.statistic == rep.reference

    def test_t_zero_exact_when_K_is_not_a_power_of_two(self):
        # K = floor(sqrt(32)) = 5, and (1/5) * (5 * 0.3) rounds to 0.30000000000000004
        env = build_environment(32, 2, 1, "gaussian", seed=3)
        assert particle_count(env.spec) == 5
        rep = verify.test_moment_duality(env, L=2, t=0.0,
                                         phi=verify.smooth_bump(env.spec, 0.3), replicas=5)
        assert rep.exact and rep.passed and rep.replicas == 5
        assert rep.statistic == rep.reference == 0.3

    def test_zero_potential_heat_kernel(self):
        spec = LatticeSpec(n=16, L=2, d=1)
        env = zero_environment(spec)
        phi = verify.smooth_bump(spec)
        rep = verify.test_moment_duality(env, L=2, t=0.1, phi=phi, replicas=400)
        assert rep.passed
        assert rep.se > 0

    def test_random_environment_duality(self, env_d1):
        phi = verify.smooth_bump(env_d1.spec)
        rep = verify.test_moment_duality(env_d1, L=2, t=0.15, phi=phi, replicas=500)
        assert rep.passed

    def test_rejects_non_dirichlet_phi(self, env_d1):
        phi = Field(env_d1.spec, np.ones(env_d1.spec.shape))
        with pytest.raises(ValueError):
            verify.test_moment_duality(env_d1, L=2, t=0.1, phi=phi, replicas=2)


class TestMartingaleQv:
    def test_zero_potential_jump_noise_only(self):
        # no branching: the QV is carried entirely by the jump-noise term
        spec = LatticeSpec(n=16, L=2, d=1)
        env = zero_environment(spec)
        phi = verify.smooth_bump(spec)
        rep = verify.test_martingale_qv(env, L=2, T=0.15, phi=phi, replicas=500)
        assert rep.passed
        assert rep.extras["qv_branch_component"] == 0.0
        assert rep.extras["qv_jump_component"] > 0.0

    def test_pure_death_environment(self):
        spec = LatticeSpec(n=16, L=4, d=1)
        env = PotentialEnvironment(spec, np.full(spec.shape, -3.0))
        phi = verify.smooth_bump(spec)
        rep = verify.test_martingale_qv(env, L=4, T=0.15, phi=phi, replicas=500)
        assert rep.passed

    def test_random_environment(self, env_d1):
        phi = verify.smooth_bump(env_d1.spec)
        rep = verify.test_martingale_qv(env_d1, L=2, T=0.15, phi=phi, replicas=600)
        assert rep.passed
        assert rep.extras["qv_passed"] and rep.extras["mean_passed"]

    def test_rejects_non_dirichlet_phi(self, env_d1):
        # the killed process reads phi as 0 on the faces, so a phi that is
        # not would pair a QV reference with walls the process never sees
        phi = Field(env_d1.spec, np.ones(env_d1.spec.shape))
        with pytest.raises(ValueError, match="vanish on the box boundary"):
            verify.test_martingale_qv(env_d1, L=2, T=0.1, phi=phi, replicas=2)


class TestDiscreteQvDensity:
    @pytest.mark.parametrize("d, n", [(1, 4), (1, 16), (2, 4), (2, 8)])
    def test_jump_density_matches_site_loop(self, d, n):
        # oracle: per interior site, n^2 sum over neighbors of the squared
        # difference, face neighbors read as 0, each axis in the same order
        env = build_environment(n, 2, d, "gaussian", seed=3)
        spec = env.spec
        rng = np.random.default_rng(n)
        for phi in (verify.smooth_bump(spec), Field(spec, rng.normal(size=spec.shape))):
            phi.values[spec.boundary_mask()] = 0.0
            got = verify.discrete_qv_density(env, phi)["jump"]
            P = spec.L * spec.n
            want = np.zeros(spec.shape)
            for idx in np.ndindex(*spec.shape):
                if any(i in (0, P) for i in idx):
                    continue
                acc = 0.0
                for axis in range(d):
                    up, down = list(idx), list(idx)
                    up[axis] += 1
                    down[axis] -= 1
                    c = phi.values[idx]
                    acc += (phi.values[tuple(up)] - c) ** 2 + (phi.values[tuple(down)] - c) ** 2
                want[idx] = acc * float(n) ** 2 / particle_count(spec)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_face_values_read_as_zero(self):
        # phi = 1 everywhere reads as 0 on the walls: the sites next to them
        # carry one unit jump each way, n^2 / K = 64 at d = 1, n = 16
        env = build_environment(16, 2, 1, "gaussian", seed=3)
        spec = env.spec
        jump = verify.discrete_qv_density(env, Field(spec, np.ones(spec.shape)))["jump"]
        assert jump[1] == jump[-2] == 16 ** 2 / particle_count(spec) == 64.0
        assert np.all(jump[2:-2] == 0.0) and jump[0] == jump[-1] == 0.0


class TestLaplaceFunctional:
    def test_zero_phi0_exact_unit(self, env_d1):
        # every replica of the batch reads exactly one, one replica included
        z = Field.zeros(env_d1.spec)
        for replicas in (1, 3):
            rep = verify.test_laplace_functional(env_d1, L=2, t=0.1, phi0=z,
                                                 replicas=replicas)
            assert rep.exact and rep.passed
            assert rep.statistic == 1.0 and rep.replicas == replicas

    def test_t_zero_is_exact(self):
        env = build_environment(8, 2, 1, "gaussian", seed=1)
        phi0 = verify.smooth_bump(env.spec, 0.3)
        rep = verify.test_laplace_functional(env, L=2, t=0.0, phi0=phi0, replicas=3)
        assert rep.exact and rep.passed and rep.replicas == 3
        u0 = float(phi0.values[env.spec.origin_index])
        assert rep.statistic == rep.reference == np.exp(-u0)

    def test_linear_reduction_zero_potential(self):
        # nu = 0 (no noise) and xi_e = 0: N is the functional of independent walkers
        spec = LatticeSpec(n=16, L=2, d=1)
        env = zero_environment(spec)
        phi0 = verify.smooth_bump(spec, amplitude=0.3)
        rep = verify.test_laplace_functional(env, L=2, t=0.1, phi0=phi0, replicas=600)
        assert rep.passed

    def test_full_pipeline_small(self):
        env = build_environment(25, 2, 1, "gaussian", seed=101)  # K = 5 exactly
        phi0 = verify.smooth_bump(env.spec, amplitude=0.3)
        rep = verify.test_laplace_functional(env, L=2, t=0.15, phi0=phi0, replicas=600)
        assert rep.passed

    def test_rejects_negative_phi0(self, env_d1):
        phi0 = verify.smooth_bump(env_d1.spec)
        phi0.values[3] = -0.2
        with pytest.raises(ValueError):
            verify.test_laplace_functional(env_d1, L=2, t=0.1, phi0=phi0, replicas=2)


class TestMassTail:
    def test_tail_below_initial_mass_is_one(self, env_d1):
        rep = verify.test_mass_tail(env_d1, L=2, T=0.1, replicas=100,
                                    R_grid=[0.5, 2.0, 8.0])
        assert rep.extras["tail_R0.5"] == 1.0

    def test_pure_death_tail_collapses(self):
        spec = LatticeSpec(n=16, L=4, d=1)
        env = PotentialEnvironment(spec, np.full(spec.shape, -2.0))
        rep = verify.test_mass_tail(env, L=4, T=0.2, replicas=100, R_grid=[0.5, 1.01, 2.0])
        assert rep.extras["tail_R1.01"] == 0.0

    def test_random_environment_decreasing(self):
        env = build_environment(16, 2, 1, "gaussian", seed=7)
        rep = verify.test_mass_tail(env, L=2, T=0.4, replicas=300,
                                    R_grid=[2.0, 8.0], L_max=8)
        assert rep.passed
        assert rep.extras["tail_R2"] > rep.extras["tail_R8"]


class TestOrdering:
    def test_no_violations_and_sentinel(self, env_d1):
        rep = verify.test_ordering(env_d1, Ls=[2, 4], T=0.2,
                                   snapshot_times=[0.0, 0.1, 0.2],
                                   replicas=50, L_max=6)
        assert rep.passed and rep.exact
        assert rep.statistic == 0.0
        assert rep.extras["atoms_checked"] > 0


SAMPLED = ["moment_duality", "martingale_qv", "laplace_functional"]


def _all_tests(env, phi, replicas, **kw):
    """The five replica tests on small fixed inputs, by report name."""
    return {
        "moment_duality": lambda: verify.test_moment_duality(
            env, 2, 0.05, phi, replicas, **kw),
        "martingale_qv": lambda: verify.test_martingale_qv(env, 2, 0.05, phi, replicas, **kw),
        "laplace_functional": lambda: verify.test_laplace_functional(
            env, 2, 0.05, verify.smooth_bump(env.spec, 0.3), replicas, **kw),
        "mass_tail": lambda: verify.test_mass_tail(env, 2, 0.05, replicas, [1.0, 2.0], **kw),
        "ordering": lambda: verify.test_ordering(env, [2], 0.05, [0.0, 0.05], replicas, **kw),
    }


def _suite_requests(env, T, replicas, L_max):
    """The five requests of one ``pamlab verify`` n (L = 2), and the same
    tests as five public calls."""
    phi, phi0 = verify.smooth_bump(env.spec, 0.5), verify.smooth_bump(env.spec, 0.4)
    kw = {"seed_base": 7, "cap": 1_000_000}
    requests = [
        verify.moment_duality_request(env, 2, T, phi, replicas, **kw),
        verify.martingale_qv_request(env, 2, T, phi, replicas, **kw),
        verify.laplace_functional_request(env, 2, T, phi0, replicas, **kw),
        verify.mass_tail_request(env, 2, T, replicas, [1.0, 2.0, 4.0, 8.0],
                                 L_max=L_max, **kw),
        verify.ordering_request(env, [2], T, [0.0, T / 2, T], min(replicas, 200),
                                L_max=L_max, **kw),
    ]
    calls = [
        lambda: verify.test_moment_duality(env, 2, T, phi, replicas, **kw),
        lambda: verify.test_martingale_qv(env, 2, T, phi, replicas, **kw),
        lambda: verify.test_laplace_functional(env, 2, T, phi0, replicas, **kw),
        lambda: verify.test_mass_tail(env, 2, T, replicas, [1.0, 2.0, 4.0, 8.0],
                                      L_max=L_max, **kw),
        lambda: verify.test_ordering(env, [2], T, [0.0, T / 2, T], min(replicas, 200),
                                     L_max=L_max, **kw),
    ]
    return requests, calls


class TestSuite:
    @pytest.mark.parametrize("d,n", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("replicas,batches", [(60, 2), (250, 3)])
    def test_suite_matches_separate_calls(self, d, n, replicas, batches):
        env = build_environment(n, 2, d, "gaussian", seed=5)
        requests, calls = _suite_requests(env, 0.1, replicas, L_max=4)
        reports, ran = verify.run_suite(env, requests)
        assert ran == batches
        assert [r.to_json() for r in reports] == [call().to_json() for call in calls]

    def test_judges_ignore_extra_time_and_box(self):
        # all five on one ambient box, so one batch; an extra request adds
        # box 4 between the ordering's 2 and 6, and a snapshot time (0.03)
        # that none of the tests asked for
        env = build_environment(8, 2, 1, "gaussian", seed=1)
        requests = _suite_requests(env, 0.05, 40, L_max=6)[0]
        requests = [dataclasses.replace(r, L_max=6) for r in requests]
        alone = [verify.run_suite(env, [r])[0][0].to_json() for r in requests]
        extra = verify.Request(boxes=(4,), times=(0.03,), site_funcs={}, horizon=0.05,
                               seeds=requests[0].seeds, cap=requests[0].cap, L_max=6,
                               judge=lambda batch: None)
        reports, ran = verify.run_suite(env, requests + [extra])
        assert ran == 1
        assert [r.to_json() for r in reports[:5]] == alone
        assert json.loads(alone[4])["atoms_checked"] > 0

    def test_site_function_clash_raises_before_any_replica(self, env_d1, monkeypatch):
        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(verify, "simulate_replicas", no_replicas)
        phi = verify.smooth_bump(env_d1.spec)
        request = verify.martingale_qv_request(env_d1, 2, 0.05, phi, 2)
        with pytest.raises(ValueError, match="site function 'H'"):
            verify.run_suite(env_d1, [request, request])


class TestReplicaCount:
    @pytest.mark.parametrize("name", SAMPLED)
    def test_one_replica_rejected_before_any_runs(self, env_d1, monkeypatch, name):
        def no_replicas(*args, **kwargs):
            raise AssertionError("a replica ran")

        monkeypatch.setattr(verify, "simulate_replicas", no_replicas)
        call = _all_tests(env_d1, verify.smooth_bump(env_d1.spec), 1)[name]
        with pytest.raises(ValueError, match="replicas >= 2"):
            call()

    def test_exact_tests_accept_one_replica(self, env_d1):
        phi = verify.smooth_bump(env_d1.spec)
        assert verify.test_moment_duality(env_d1, 2, 0.0, phi, 1).passed
        assert verify.test_mass_tail(env_d1, 2, 0.05, 1, [0.5, 8.0]).replicas == 1
        assert verify.test_ordering(env_d1, [2], 0.05, [0.0, 0.05], 1, L_max=4).passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["moment_duality", "martingale_qv",
                                      "laplace_functional", "mass_tail", "ordering"])
    def test_exploded_report_fails_with_strict_json(self, env_d1, name):
        # cap 1 is under the K = 4 initial particles: every replica explodes
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        rep = _all_tests(env_d1, verify.smooth_bump(env_d1.spec), 3, cap=1, L_max=4)[name]()
        assert not rep.passed and rep.exploded == 3
        payload = json.loads(rep.to_json(), parse_constant=reject)
        assert payload["passed"] is False and payload["replicas"] == 0
        if name in SAMPLED:
            assert payload["se"] is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_unexploded_replica_fails(self, env_d1, monkeypatch):
        # two replicas, one of them exploded: the standard error is undefined
        simulate = verify.simulate_replicas

        def explode_first(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            batch.exploded[0] = True
            return batch

        monkeypatch.setattr(verify, "simulate_replicas", explode_first)
        phi = verify.smooth_bump(env_d1.spec)
        rep = verify.test_martingale_qv(env_d1, 2, 0.05, phi, 2)
        assert not rep.passed and rep.replicas == 1 and rep.se is None
        assert rep.extras["qv_paired_se"] is None and rep.statistic is not None
        json.loads(rep.to_json())


class TestReportSerialization:
    def test_non_finite_value_rejected(self):
        rep = verify.TestReport("demo", float("nan"), 0.0, None, 0, False, "x")
        with pytest.raises(ValueError):
            rep.to_json()

    def test_pinned_report_hashes(self):
        # the hash keys of each test, pinned so that moving their construction
        # cannot change a config_hash
        env = build_environment(8, 2, 1, "gaussian", seed=1)
        tests = _all_tests(env, verify.smooth_bump(env.spec), 2, seed_base=3, L_max=4)
        got = {name: call().config_hash for name, call in tests.items()}
        assert got == {
            "moment_duality": "e4cb1f9cc7dce551",
            "martingale_qv": "aec48db1f1fc153a",
            "laplace_functional": "e37f287e0a8ac5a3",
            "mass_tail": "7f2f1ab6f942349e",
            "ordering": "85a95cd76cfb6838",
        }
        spec = LatticeSpec(n=8, L=2, d=1)
        flat = PotentialEnvironment(spec, np.full(spec.shape, -1.0))
        assert verify.test_mass_tail(flat, 2, 0.05, 2, [1.0, 2.0]).config_hash == \
            "529aae6686026c2d"

    def test_jsonl_round_trip(self, tmp_path, env_d1):
        phi = verify.smooth_bump(env_d1.spec)
        rep = verify.test_moment_duality(env_d1, L=2, t=0.0, phi=phi, replicas=3)
        path = tmp_path / "reports.jsonl"
        failures = verify.write_reports_jsonl([rep], path)
        assert failures == 0
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded[0]["name"] == "moment_duality"
        assert loaded[0]["passed"] is True

    def test_failed_reports_counted(self, tmp_path):
        rep = verify.TestReport("demo", 1.0, 0.0, 0.1, 10, False, "x")
        assert verify.write_reports_jsonl([rep], tmp_path / "r.jsonl") == 1

    def test_report_hash_names_environment(self):
        envs = [build_environment(8, 2, 1, "gaussian", seed=s) for s in (1, 2, 1)]
        hashes = []
        for env in envs:
            phi = verify.smooth_bump(env.spec)
            rep = verify.test_moment_duality(env, L=2, t=0.0, phi=phi, replicas=2)
            hashes.append(rep.config_hash)
        assert hashes[0] != hashes[1]
        assert hashes[0] == hashes[2]
        # without noise the potential itself identifies the environment
        spec = LatticeSpec(n=8, L=2, d=1)
        pots = [PotentialEnvironment(spec, np.full(spec.shape, c)) for c in (0.0, 1.0)]
        tails = [verify.test_mass_tail(e, 2, 0.02, 2, [1.0, 2.0]).config_hash for e in pots]
        assert tails[0] != tails[1]
        # the test function's values enter too (the amplitude among them)
        env = envs[0]
        amps = [verify.test_moment_duality(env, L=2, t=0.0, replicas=2,
                                           phi=verify.smooth_bump(env.spec, a)).config_hash
                for a in (0.4, 0.5)]
        assert amps[0] != amps[1]

    def test_report_hash_names_time_grids(self):
        env = build_environment(8, 2, 1, "gaussian", seed=1)
        hashes = [verify.test_ordering(env, Ls=[2], T=0.02, snapshot_times=snaps,
                                       replicas=2, L_max=4).config_hash
                  for snaps in ([0.0, 0.02], [0.0, 0.01, 0.02], [0.0, 0.02])]
        assert hashes[0] != hashes[1]
        assert hashes[0] == hashes[2]

    def test_config_hash_stable(self):
        a = verify.config_hash(test="t", n=8)
        b = verify.config_hash(n=8, test="t")
        assert a == b and len(a) == 16
