import json

import numpy as np
import pytest

from pamlab import verify
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


class TestLaplaceFunctional:
    def test_zero_phi0_exact_unit(self, env_d1):
        z = Field.zeros(env_d1.spec)
        rep = verify.test_laplace_functional(env_d1, L=2, t=0.1, phi0=z, replicas=3)
        assert rep.exact and rep.passed
        assert rep.statistic == 1.0

    def test_linear_reduction_zero_potential(self):
        # nu = 0 and xi_e = 0: N is the functional of independent walkers
        spec = LatticeSpec(n=16, L=2, d=1)
        env = zero_environment(spec)
        phi0 = verify.smooth_bump(spec, amplitude=0.3)
        rep = verify.test_laplace_functional(
            env, L=2, t=0.1, phi0=phi0, replicas=600, nu=0.0)
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


class TestReportSerialization:
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

    def test_config_hash_stable(self):
        a = verify.config_hash(test="t", n=8)
        b = verify.config_hash(n=8, test="t")
        assert a == b and len(a) == 16
