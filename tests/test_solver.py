import math

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from pamlab.environment import build_environment
from pamlab.lattice import Field, LatticeSpec
from pamlab.solver import (
    PamProblem,
    apply_hamiltonian,
    constant_environment,
    dense_hamiltonian,
    mass_bound_sweep,
    principal_eigenpair,
    semigroup_apply,
    solve_dual_fkpp,
    solve_linear_pam,
    zero_environment,
)
from pamlab.spectral import basis_field, laplacian_symbol


def bump(spec, amplitude=0.5):
    """Smooth nonnegative Dirichlet bump, max `amplitude` at the center."""
    x = spec.axis_corner_coords()
    prof = np.sin(np.pi * x / spec.L) ** 2
    vals = prof if spec.d == 1 else np.outer(prof, prof)
    vals = amplitude * vals
    vals[spec.boundary_mask()] = 0.0
    return Field(spec, vals)


class TestProblemValidation:
    def test_rejects_nonpositive_dt(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        with pytest.raises(ValueError):
            PamProblem(zero_environment(spec), bump(spec), T=1.0, dt=0.0)

    def test_rejects_non_dirichlet_initial_condition(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        w0 = Field(spec, np.ones(spec.shape))
        with pytest.raises(ValueError):
            PamProblem(zero_environment(spec), w0, T=1.0, dt=0.1)

    def test_rejects_unknown_scheme(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        with pytest.raises(ValueError):
            PamProblem(zero_environment(spec), bump(spec), T=1.0, dt=0.1, scheme="euler")


class TestLinearSolver:
    def test_zero_potential_single_mode_is_exact(self):
        # exact diagonal flow: both sub-flows commute, splitting is exact
        spec = LatticeSpec(n=8, L=2, d=1)
        m = 3
        w0 = basis_field(spec, "dirichlet", (m,))
        T = 0.05
        traj = solve_linear_pam(PamProblem(zero_environment(spec), w0, T=T, dt=1e-3))
        lam = float(laplacian_symbol(np.array([[m / spec.N]]), spec.n)[0])
        expect = math.exp(lam * T) * w0.values
        assert np.abs(traj.final.values - expect).max() < 1e-12

    def test_constant_potential_commutes(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        c = 1.7
        w0 = bump(spec)
        T = 0.05
        heat = solve_linear_pam(PamProblem(zero_environment(spec), w0, T=T, dt=1e-3)).final
        full = solve_linear_pam(PamProblem(constant_environment(spec, c), w0, T=T, dt=1e-3)).final
        assert np.abs(full.values - math.exp(c * T) * heat.values).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_splitting_matches_dense_oracle(self, seed):
        env = build_environment(8, 2, 2, "rademacher", seed)
        w0 = basis_field(env.spec, "dirichlet", (1, 1))
        T, dt = 0.1, 1e-3
        dense = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt, scheme="dense-exponential")).final
        s1 = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt)).final
        s2 = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt / 2)).final
        e1 = np.abs(s1.values - dense.values).max()
        e2 = np.abs(s2.values - dense.values).max()
        assert e1 < 5e-4
        assert 3.5 < e1 / e2 < 4.5

    def test_forcing_midpoint_second_order(self):
        env = build_environment(8, 2, 1, "gaussian", 3)
        spec = env.spec
        w0 = bump(spec)
        g = bump(spec, amplitude=0.8)
        force = lambda t: Field(spec, math.cos(3 * t) * g.values)
        T = 0.1

        def err(dt):
            a = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt, f=force)).final
            b = solve_linear_pam(
                PamProblem(env, w0, T=T, dt=dt, f=force, scheme="dense-exponential")).final
            # dense forcing uses the same midpoint rule, so cross-check both
            # against a much finer dense run
            ref = solve_linear_pam(
                PamProblem(env, w0, T=T, dt=T / 3200, f=force, scheme="dense-exponential")).final
            return np.abs(a.values - ref.values).max(), np.abs(b.values - ref.values).max()

        e_split, e_dense = err(T / 50)
        e_split2, e_dense2 = err(T / 100)
        assert 3.0 < e_split / e_split2 < 5.0
        assert 3.0 < e_dense / e_dense2 < 5.0

    def test_dirichlet_wall_enforced_every_state(self):
        env = build_environment(8, 2, 2, "gaussian", 1)
        traj = solve_linear_pam(PamProblem(env, bump(env.spec), T=0.02, dt=1e-3))
        mask = env.spec.boundary_mask()
        for state in traj.states:
            assert np.all(state.values[mask] == 0.0)

    def test_positivity_preserved(self):
        env = build_environment(8, 2, 2, "gaussian", 5)
        traj = solve_linear_pam(PamProblem(env, bump(env.spec), T=0.05, dt=1e-3))
        assert traj.final.values.min() >= -1e-14

    def test_horizon_must_be_multiple_of_dt(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        with pytest.raises(ValueError):
            solve_linear_pam(PamProblem(zero_environment(spec), bump(spec), T=0.05, dt=0.02))


class TestSemigroup:
    def test_time_zero_is_identity(self):
        env = build_environment(8, 2, 1, "gaussian", 0)
        phi = bump(env.spec)
        out = semigroup_apply(env, 0.0, phi)
        assert np.array_equal(out.values, phi.values)

    def test_negative_time_rejected(self):
        env = build_environment(4, 2, 1, "gaussian", 0)
        with pytest.raises(ValueError):
            semigroup_apply(env, -0.1, bump(env.spec))

    def test_semigroup_property(self):
        env = build_environment(8, 2, 1, "gaussian", 9)
        phi = bump(env.spec)
        dt = 1e-3
        one_shot = semigroup_apply(env, 0.1, phi, dt)
        comp = semigroup_apply(env, 0.05, semigroup_apply(env, 0.05, phi, dt), dt)
        tol = 2 * 5e-4 * max(1.0, np.abs(one_shot.values).max())
        assert np.abs(one_shot.values - comp.values).max() < tol

    def test_mass_bound_finite(self):
        env = build_environment(8, 2, 2, "gaussian", 2)
        sup = mass_bound_sweep(env, T=0.1)
        assert np.isfinite(sup) and sup > 0


class TestPrincipalEigenpair:
    def test_zero_potential_ground_state(self):
        # the one-interior-site box (L = 2, n = 1) included
        for spec in (LatticeSpec(n=8, L=2, d=2), LatticeSpec(n=1, L=2, d=1)):
            pair = principal_eigenpair(zero_environment(spec), tol=1e-10)
            lam_expect = float(laplacian_symbol(
                np.full((1, spec.d), 1 / spec.N), spec.n)[0])
            assert pair.lam == pytest.approx(lam_expect, abs=1e-9)
            ref = basis_field(spec, "dirichlet", (1,) * spec.d).values
            v = pair.efunc.values
            cos = abs((v * ref).sum()) / np.linalg.norm(v) / np.linalg.norm(ref)
            assert cos > 1 - 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_eigensolve(self, seed):
        env = build_environment(8, 2, 2, "gaussian", seed)
        H = dense_hamiltonian(env)
        evals, evecs = eigh(H)
        pair = principal_eigenpair(env, tol=1e-10)
        assert abs(pair.lam - evals[-1]) < 1e-6
        sl = env.spec.interior_slices()
        v = pair.efunc.values[sl].ravel()
        cos = abs(v @ evecs[:, -1]) / np.linalg.norm(v)
        assert cos >= 1 - 1e-8
        assert pair.efunc.values[sl].min() > 0

    def test_localizes_at_strong_spike(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        xi = np.zeros(spec.shape)
        spike = (5, 11)
        xi[spike] = 60.0
        from pamlab.solver import PotentialEnvironment

        env = PotentialEnvironment(spec, xi)
        pair = principal_eigenpair(env, tol=1e-9)
        assert np.unravel_index(np.argmax(pair.efunc.values), spec.shape) == spike
        # dense oracle agreement
        H = dense_hamiltonian(env)
        evals = eigh(H, eigvals_only=True)
        assert abs(pair.lam - evals[-1]) < 1e-6

    def test_n64_pair_certified_by_stencil_residual(self):
        # residual through the independent stencil plus strict interior
        # positivity identify the principal pair (Perron-Frobenius)
        env = build_environment(64, 2, 2, "gaussian", 0)
        pair = principal_eigenpair(env, tol=1e-8)
        sl = env.spec.interior_slices()
        w = pair.efunc.values / np.linalg.norm(pair.efunc.values)
        Hw = apply_hamiltonian(env, Field(env.spec, w)).values
        assert np.linalg.norm(Hw - pair.lam * w) <= 1e-8 * abs(pair.lam)
        assert pair.efunc.values[sl].min() > 0

    def test_repeat_calls_bit_identical(self):
        env = build_environment(16, 2, 2, "gaussian", 1)
        a = principal_eigenpair(env, tol=1e-8)
        b = principal_eigenpair(env, tol=1e-8)
        assert a.lam == b.lam and a.iterations == b.iterations
        assert np.array_equal(a.efunc.values, b.efunc.values)

    def test_nonconvergence_raises_with_residual(self):
        env = build_environment(8, 2, 2, "gaussian", 0)
        with pytest.raises(RuntimeError, match="residual"):
            principal_eigenpair(env, tol=1e-13, maxit=2)


class TestDualFkpp:
    def test_nu_zero_reduces_to_linear(self):
        env = build_environment(8, 2, 1, "gaussian", 7)
        phi0 = bump(env.spec)
        t, dt = 0.2, 1e-3
        lin = semigroup_apply(env, t, phi0, dt)
        out = solve_dual_fkpp(env, phi0, 0.0, t, dt)
        assert np.abs(out.values - lin.values).max() == 0.0

    def test_zero_initial_condition_stays_zero(self):
        env = build_environment(8, 2, 1, "gaussian", 1)
        z = Field.zeros(env.spec)
        out = solve_dual_fkpp(env, z, 0.5, 0.1, 1e-3)
        assert np.all(out.values == 0.0)

    def test_negative_initial_condition_rejected(self):
        env = build_environment(4, 2, 1, "gaussian", 0)
        phi0 = bump(env.spec)
        phi0.values[2] = -0.1
        with pytest.raises(ValueError):
            solve_dual_fkpp(env, phi0, 0.5, 0.1, 1e-3)

    def test_comparison_and_positivity_bounds(self):
        env = build_environment(8, 2, 2, "gaussian", 11)
        phi0 = bump(env.spec)
        t, dt = 0.1, 1e-3
        out = solve_dual_fkpp(env, phi0, 0.7, t, dt)
        lin = semigroup_apply(env, t, phi0, dt)
        assert out.values.min() >= 0.0
        assert np.all(out.values <= lin.values + 1e-9)

    def test_self_convergence_linear_in_dt(self):
        env = build_environment(8, 2, 1, "gaussian", 7)
        phi0 = bump(env.spec)
        t = 0.2
        a = solve_dual_fkpp(env, phi0, 0.4, t, 1e-3)
        b = solve_dual_fkpp(env, phi0, 0.4, t, 5e-4)
        assert np.abs(a.values - b.values).max() < 1e-3

    def test_matches_picard_oracle(self):
        # Picard iteration on the mild equation with dense exact propagators
        env = build_environment(8, 2, 1, "gaussian", 7)
        spec = env.spec
        phi0 = bump(spec)
        t, dt, nu = 0.2, 1e-3, 0.4
        H = dense_hamiltonian(env)
        sl = spec.interior_slices()
        grid = np.linspace(0, t, 401)
        h = grid[1] - grid[0]
        P = expm(h * H)
        base = [phi0.values[sl].ravel()]
        for _ in range(1, len(grid)):
            base.append(P @ base[-1])
        phis = [b.copy() for b in base]
        for _ in range(80):
            sq = [p * p for p in phis]
            new = [base[0]]
            J = 0.5 * (P @ sq[0])
            for k in range(1, len(grid)):
                new.append(base[k] - nu * h * (J + 0.5 * sq[k]))
                J = P @ (J + sq[k])
            delta = max(np.abs(a - b).max() for a, b in zip(new, phis))
            phis = new
            if delta < 1e-13:
                break
        split = solve_dual_fkpp(env, phi0, nu, t, dt)
        assert np.abs(split.values[sl].ravel() - phis[-1]).max() < 1e-4

    def test_store_times_returns_requested_states(self):
        env = build_environment(8, 2, 1, "gaussian", 3)
        phi0 = bump(env.spec)
        states = solve_dual_fkpp(env, phi0, 0.5, 0.2, 1e-3, store_times=[0.0, 0.1, 0.2])
        assert set(states) == {0.0, 0.1, 0.2}
        assert np.array_equal(states[0.0].values, phi0.values)
        final = solve_dual_fkpp(env, phi0, 0.5, 0.2, 1e-3)
        assert np.array_equal(states[0.2].values, final.values)


class TestTimeWeightedStability:
    def test_solution_norms_stable_across_meshes(self):
        # time-weighted Dirichlet norms of the solution vary by < factor 2
        # across meshes on same-seed environments
        from pamlab.besov import BesovParams, TimeWeightedNormParams, time_weighted_norm
        from pamlab.verify import smooth_bump

        vals = {}
        for n in (8, 16, 32):
            env = build_environment(n, 2, 1, "gaussian", seed=11)
            w0 = smooth_bump(env.spec, 1.0)
            traj = solve_linear_pam(PamProblem(env, w0, T=0.2, dt=1e-3))
            params = TimeWeightedNormParams(
                0.3, 0.2, BesovParams(1.0, flavor="dirichlet"),
                include_time_holder=True)
            idx = np.linspace(0, len(traj.times) - 1, 41).astype(int)
            vals[n] = time_weighted_norm(
                traj.times[idx], [traj.states[i] for i in idx], params)
        assert max(vals.values()) / min(vals.values()) < 2.0


class TestHamiltonianApply:
    def test_matches_dense_matrix(self):
        env = build_environment(8, 2, 2, "gaussian", 4)
        sl = env.spec.interior_slices()
        u = bump(env.spec)
        dense = dense_hamiltonian(env) @ u.values[sl].ravel()
        direct = apply_hamiltonian(env, u).values[sl].ravel()
        assert np.abs(dense - direct).max() < 1e-9 * max(1.0, np.abs(dense).max())
