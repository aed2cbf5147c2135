import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.linalg import eigh, eigh_tridiagonal, expm

from pamlab import solver
from pamlab.cli import cmd_solve, parse_config_text
from pamlab.environment import build_environment
from pamlab.io import read_field_text
from pamlab.lattice import Field, LatticeSpec
from pamlab.solver import (
    PamProblem,
    _HeatFlow,
    _StrangStepper,
    apply_hamiltonian,
    constant_environment,
    dense_hamiltonian,
    principal_eigenpair,
    semigroup_apply,
    solve_dual_fkpp,
    solve_linear_pam,
    zero_environment,
)
from pamlab.spectral import basis_field, frequency_grid, laplacian_symbol
from pamlab.verify import smooth_bump


def bump(spec, amplitude=0.5):
    """Smooth nonnegative Dirichlet bump, max `amplitude` at the center."""
    x = spec.axis_corner_coords()
    prof = np.sin(np.pi * x / spec.L) ** 2
    vals = prof if spec.d == 1 else np.outer(prof, prof)
    vals = amplitude * vals
    vals[spec.boundary_mask()] = 0.0
    return Field(spec, vals)


def strang_oracle(env, w0, T, dt):
    """Every state of the unmerged linear Strang sequence."""
    return dual_strang_oracle(env, w0, 0.0, T, dt)


def dual_strang_oracle(env, phi0, nu, T, dt):
    """Every state of the unmerged Strang sequence D(h/2) R(h) D(h/2): four
    DSTs per step on the full box array, the DST-I scale divided out after
    each diffusion, and R the closed-form flow of dz = xi z - nu z^2, with
    nu a scalar or a box array."""
    spec = env.spec
    sl = spec.interior_slices()
    half = np.exp(0.5 * dt * laplacian_symbol(frequency_grid(spec, "dirichlet"), spec.n))
    xi = np.asarray(env.xi_e)
    pot = np.exp(dt * xi)
    c = np.where(xi == 0.0, dt, np.expm1(dt * xi) / np.where(xi == 0.0, 1.0, xi))
    scale = (2.0 * spec.L * spec.n) ** spec.d

    def diffuse(w):
        w[sl] = sfft.dstn(sfft.dstn(w[sl], type=1) * half, type=1) / scale

    w = phi0.values.copy()
    states = [w.copy()]
    for _ in range(round(T / dt)):
        diffuse(w)
        w = w * pot / (1.0 + nu * c * w)
        diffuse(w)
        states.append(w.copy())
    return states


def rk4(rhs, z, h, steps):
    """Classical RK4 for dz = rhs(z) over h in ``steps`` equal steps."""
    k = h / steps
    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * k * k1)
        k3 = rhs(z + 0.5 * k * k2)
        k4 = rhs(z + k * k3)
        z = z + k / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.fixture
def diffusions(monkeypatch):
    """The list to which every ``_HeatFlow.diffuse`` call appends its input."""
    calls = []
    diffuse = _HeatFlow.diffuse

    def counting(self, op, y):
        calls.append(y)
        return diffuse(self, op, y)

    monkeypatch.setattr(_HeatFlow, "diffuse", counting)
    return calls


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

    def test_dirichlet_wall_enforced_every_state(self):
        env = build_environment(8, 2, 2, "gaussian", 1)
        traj = solve_linear_pam(PamProblem(env, bump(env.spec), T=0.02, dt=1e-3),
                                store_times=np.arange(21) * 1e-3)
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


class TestMergedStrang:
    @pytest.mark.parametrize("d", (1, 2))
    @pytest.mark.parametrize("n", (4, 8, 16))
    def test_final_matches_unmerged_oracle(self, d, n):
        env = build_environment(n, 2, d, "gaussian", n)
        w0 = bump(env.spec)
        T, dt = 0.05, 1e-3
        traj = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt))
        assert_close(traj.final.values, strang_oracle(env, w0, T, dt)[-1])

    @pytest.mark.parametrize("d", (1, 2))
    def test_stored_states_match_oracle(self, d):
        env = build_environment(8, 2, d, "gaussian", 4)
        w0 = bump(env.spec)
        T, dt = 0.05, 1e-3
        ref = strang_oracle(env, w0, T, dt)
        traj = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt),
                                store_times=[0.031, 0.0, 0.013, 0.03, 0.05])
        steps = [0, 13, 30, 31, 50]
        assert np.allclose(traj.times, np.array(steps) * dt, rtol=0, atol=1e-15)
        for k, state in zip(steps, traj.states):
            assert_close(state.values, ref[k])
        # closing a copy at a stored time leaves the chain as it was
        plain = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt))
        assert np.array_equal(plain.final.values, traj.final.values)

    @pytest.mark.parametrize("scheme", ("splitting", "dense-exponential"))
    def test_default_keeps_endpoints(self, scheme):
        env = build_environment(4, 2, 1, "gaussian", 0)
        traj = solve_linear_pam(PamProblem(env, bump(env.spec), T=0.02, dt=1e-3,
                                           scheme=scheme))
        assert len(traj.times) == len(traj.states) == 2
        assert traj.times[0] == 0.0 and traj.times[1] == pytest.approx(0.02, abs=1e-15)

    @pytest.mark.parametrize("bad", ([0.0105], [-1e-3], [0.021], [0.01, 0.5]))
    def test_store_times_off_grid_or_outside_rejected(self, bad):
        env = build_environment(4, 2, 1, "gaussian", 0)
        w0 = bump(env.spec)
        for scheme in ("splitting", "dense-exponential"):
            with pytest.raises(ValueError, match="store time"):
                solve_linear_pam(PamProblem(env, w0, T=0.02, dt=1e-3, scheme=scheme),
                                 store_times=bad)
        with pytest.raises(ValueError, match="store time"):
            solve_dual_fkpp(env, w0, 0.5, 0.02, 1e-3, store_times=bad)

    # the state at the grid time nearest T/2: step round(T/2/dt) for an even
    # step count; an odd count ties in exact arithmetic, and the accumulated
    # step times decide it (step 3 of 7 here), as they did before
    @pytest.mark.parametrize("T, half_step", ((0.02, 10), (0.007, 3)))
    def test_cmd_solve_half_state(self, tmp_path, T, half_step):
        cfg = parse_config_text(f"d=1\nn_list=8\nseeds=1\nT={T}\ndt=0.001\n")
        assert cmd_solve(cfg, str(tmp_path)) == 0
        env = build_environment(8, 2, 1, "gaussian", 1)
        ref = strang_oracle(env, smooth_bump(env.spec, cfg.amp), T, 1e-3)
        for label, k in (("0", 0), ("half", half_step), ("T", len(ref) - 1)):
            got, _ = read_field_text(tmp_path / f"traj_n8_seed1_{label}.field")
            assert_close(got.values, ref[k])


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
            principal_eigenpair(env, tol=1e-17)

    @pytest.mark.parametrize("n, L, sign", [(1024, 2, -1), (256, 8, 1)])
    def test_long_d1_box_matches_tridiagonal_oracle(self, n, L, sign):
        # one sub- and one supercritical box whose top spectral gap (7.4 and
        # 0.30) is about 1e-6 of the spectrum's width 4 n^2; H is tridiagonal
        # at d = 1, so its top eigenvalue alone is cheap to compute exactly
        env = build_environment(n, L, 1, "gaussian", 0)
        H = solver.hamiltonian(env)
        top = H.shape[0] - 1
        oracle = eigh_tridiagonal(H.diagonal(), H.diagonal(1), eigvals_only=True,
                                  select="i", select_range=(top, top))[0]
        pair = principal_eigenpair(env, tol=1e-8)
        assert abs(pair.lam - oracle) <= 1e-8 * max(abs(oracle), 1.0)
        assert np.sign(pair.lam) == sign
        assert pair.efunc.values[env.spec.interior_slices()].min() > 0

    @pytest.mark.parametrize("n, L, d", [(32, 4, 1), (8, 4, 2)])
    def test_near_critical_box_accepted(self, n, L, d):
        # shift the potential so that lambda_1 = 1e-5: the residual is then
        # judged against the absolute tolerance, not tol * |lambda|
        env = build_environment(n, L, d, "gaussian", 0)
        top = eigh(dense_hamiltonian(env), eigvals_only=True)[-1]
        shifted = solver.PotentialEnvironment(env.spec, env.xi_e + (1e-5 - top))
        expect = eigh(dense_hamiltonian(shifted), eigvals_only=True)[-1]
        pair = principal_eigenpair(shifted, tol=1e-8)
        assert abs(pair.lam - expect) <= 1e-9
        assert pair.lam == pytest.approx(1e-5, abs=1e-9)


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

    @pytest.mark.parametrize("store", [None, [0.002]])
    def test_comparison_violation_raises(self, monkeypatch, store):
        # an absorbed chain that outgrows T_t phi0 is caught at the first close
        env = build_environment(8, 2, 1, "gaussian", 7)
        react = _StrangStepper.react

        def overgrow(self, y):
            react(self, y)
            if self.nu_c is not None:
                y *= 1.5

        monkeypatch.setattr(_StrangStepper, "react", overgrow)
        with pytest.raises(ArithmeticError, match="comparison bound"):
            solve_dual_fkpp(env, bump(env.spec), 0.4, 0.1, 1e-3, store_times=store)

    def test_self_convergence_second_order_in_dt(self):
        env = build_environment(8, 2, 1, "gaussian", 7)
        phi0 = bump(env.spec)
        t = 0.2
        a, b, c = (solve_dual_fkpp(env, phi0, 0.4, t, dt).values
                   for dt in (1e-3, 5e-4, 2.5e-4))
        assert np.abs(a - b).max() < 1e-3
        ratio = np.abs(a - b).max() / np.abs(b - c).max()
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_unmerged_oracle(self, d):
        env = build_environment(8, 2, d, "gaussian", 5)
        phi0 = bump(env.spec, 2.0)
        t, dt, nu = 0.2, 1e-3, 0.7
        ref = dual_strang_oracle(env, phi0, nu, t, dt)
        states = solve_dual_fkpp(env, phi0, nu, t, dt, store_times=[t / 2, t])
        assert_close(states[t / 2].values, ref[100])
        assert_close(states[t].values, ref[200])
        # the absorption is felt well above the tolerance
        linear = dual_strang_oracle(env, phi0, 0.0, t, dt)[200]
        assert np.abs(linear - ref[200]).max() > 1e-3 * np.abs(ref[200]).max()

    def test_reaction_is_exact_flow(self):
        # interior potentials a > 0, a < 0 and a = 0 on a three-site box
        spec = LatticeSpec(n=2, L=2, d=1)
        a = np.array([20.0, -20.0, 0.0])
        xi_e = np.zeros(spec.shape)
        xi_e[spec.interior_slices()] = a
        h, b = 0.05, 0.8
        z0 = np.array([1.5, 1.5, 1.5])
        with np.errstate(all="raise"):
            stepper = _StrangStepper(spec, xi_e, h, nu=b)
            got = z0.copy()
            stepper.react(got)
        assert stepper.nu_c[2] == b * h
        want = rk4(lambda z: a * z - b * z * z, z0, h, 4000)
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("nu", [-5.0, -1e-12, float("nan"), float("inf")])
    def test_bad_nu_rejected(self, nu):
        env = build_environment(8, 2, 1, "gaussian", 1)
        with pytest.raises(ValueError, match="nu"):
            solve_dual_fkpp(env, bump(env.spec), nu, 0.1, 1e-3)

    @pytest.mark.parametrize("c", [0.0, 0.6])
    def test_constant_nu_array_matches_scalar(self, c):
        env = build_environment(8, 2, 2, "gaussian", 5)
        phi0 = bump(env.spec, 2.0)
        store = [0.05, 0.1]
        want = solve_dual_fkpp(env, phi0, c, 0.1, 1e-3, store_times=store)
        got = solve_dual_fkpp(env, phi0, np.full(env.spec.shape, c), 0.1, 1e-3,
                              store_times=store)
        for s in store:
            assert np.array_equal(got[s].values, want[s].values)

    @pytest.mark.parametrize("d", [1, 2])
    def test_site_dependent_nu_matches_unmerged_oracle(self, d):
        # nu = xi_+ / K, the branching rate per unit mass of the finite-n dual
        env = build_environment(8, 2, d, "gaussian", 5)
        phi0 = bump(env.spec, 2.0)
        t, dt = 0.2, 1e-3
        nu = np.maximum(env.noise.scaled(), 0.0)
        ref = dual_strang_oracle(env, phi0, nu, t, dt)
        states = solve_dual_fkpp(env, phi0, nu, t, dt, store_times=[t / 2, t])
        assert_close(states[t / 2].values, ref[100])
        assert_close(states[t].values, ref[200])
        # the site dependence is felt well above the tolerance
        mean = dual_strang_oracle(env, phi0, float(nu.mean()), t, dt)[200]
        assert np.abs(mean - ref[200]).max() > 1e-3 * np.abs(ref[200]).max()

    @pytest.mark.parametrize("bad", ["interior shape", "negative", "nan", "inf"])
    def test_bad_nu_array_rejected(self, bad):
        env = build_environment(8, 2, 2, "gaussian", 1)
        nu = np.full(env.spec.shape, 0.5)
        if bad == "interior shape":
            nu = nu[env.spec.interior_slices()]
        else:
            nu[3, 4] = {"negative": -1e-12, "nan": np.nan, "inf": np.inf}[bad]
        with pytest.raises(ValueError, match="nu"):
            solve_dual_fkpp(env, bump(env.spec), nu, 0.1, 1e-3)
        with pytest.raises(ValueError, match="nu"):
            _StrangStepper(env.spec, env.xi_e, 1e-3, nu)

    @pytest.mark.parametrize("nu, per_step, per_close", [(0.6, 2, 2), (0.0, 1, 1)])
    def test_diffusion_count(self, diffusions, nu, per_step, per_close):
        env = build_environment(8, 2, 2, "gaussian", 3)
        t, dt, store = 0.05, 1e-3, [0.01, 0.03]
        solve_dual_fkpp(env, bump(env.spec), nu, t, dt, store_times=store)
        closes = len(store) + 1
        assert len(diffusions) == per_step * round(t / dt) + per_close * closes

    @pytest.mark.parametrize("d", [1, 2])
    def test_two_dsts_per_diffusion_past_crossover(self, fft_calls, diffusions, d):
        spec = LatticeSpec(n=solver._DENSE_MAX_SIDE[d] // 2 + 2, L=2, d=d)
        assert not _HeatFlow(spec, 1e-4).dense
        calls = fft_calls("dstn")
        t, dt = 5e-4, 1e-4
        solve_dual_fkpp(zero_environment(spec), bump(spec), 0.6, t, dt, store_times=[2e-4])
        assert len(diffusions) == 2 * round(t / dt) + 2 * 2
        assert len(calls) == 2 * len(diffusions)

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


def tridiagonal_laplacian(n, m):
    """n^2 times the 1-D Dirichlet second difference on m interior sites."""
    return float(n) ** 2 * (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
                            + np.diag(np.full(m - 1, 1.0), 1))


class TestHeatFlow:
    @pytest.mark.parametrize("m", [1, 3, 15, 63])
    def test_propagator_matches_expm(self, m):
        n = (m + 1) // 2
        h = 0.5 / n ** 2
        heat = _HeatFlow(LatticeSpec(n=n, L=2, d=1), h)
        assert heat.dense
        A1 = tridiagonal_laplacian(n, m)
        assert_close(heat.full, expm(h * A1), rel=1e-13)
        assert_close(heat.half, expm(0.5 * h * A1), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_separable_flow_matches_dense_expm(self, n):
        spec = LatticeSpec(n=n, L=2, d=2)
        m = 2 * n - 1
        h = 0.5 / n ** 2
        heat = _HeatFlow(spec, h)
        H = dense_hamiltonian(zero_environment(spec))
        y = np.random.default_rng(n).random((m, m))
        for op, tau in ((heat.full, h), (heat.half, 0.5 * h)):
            assert_close(heat.diffuse(op, y), (expm(tau * H) @ y.ravel()).reshape(m, m))

    @pytest.mark.parametrize("d, n", [(1, 8), (1, 64), (2, 8), (2, 32)])
    def test_dense_and_dst_flows_agree(self, monkeypatch, d, n):
        spec = LatticeSpec(n=n, L=2, d=d)
        h = 1.0 / n ** 2
        dense = _HeatFlow(spec, h)
        monkeypatch.setitem(solver._DENSE_MAX_SIDE, d, 0)
        dst = _HeatFlow(spec, h)
        assert dense.dense and not dst.dense
        y = np.random.default_rng(d * n).standard_normal((2 * n - 1,) * d)
        assert_close(dense.diffuse(dense.full, y), dst.diffuse(dst.full, y))
        assert_close(dense.diffuse(dense.half, y), dst.diffuse(dst.half, y))

    def test_blas_thread_count_moves_outputs_at_round_off_only(self, tmp_path):
        # dense products reduce in a thread-dependent order; reruns at one
        # setting are bit-identical, across settings equal to round-off
        script = ("import sys, numpy as np\n"
                  "from pamlab.environment import build_environment\n"
                  "from pamlab.solver import PamProblem, solve_linear_pam\n"
                  "from pamlab.verify import smooth_bump\n"
                  "env = build_environment(64, 2, 2, 'gaussian', 3)\n"
                  "w0 = smooth_bump(env.spec, 0.5)\n"
                  "final = solve_linear_pam(PamProblem(env, w0, T=0.05, dt=1e-3)).final\n"
                  "np.save(sys.argv[1], final.values)\n")
        src = str(Path(solver.__file__).resolve().parents[1])
        finals = {}
        for threads in ("1", "2"):
            out = tmp_path / f"final_{threads}.npy"
            path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
            subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                           check=True, timeout=120)
            finals[threads] = np.load(out)
        assert _HeatFlow(LatticeSpec(n=64, L=2, d=2), 1e-3).dense
        assert_close(finals["2"], finals["1"])


class TestStepValidation:
    BAD = [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3]

    @pytest.mark.parametrize("field", ["T", "dt"])
    @pytest.mark.parametrize("bad", BAD)
    def test_linear_pam_rejects(self, field, bad):
        spec = LatticeSpec(n=4, L=2, d=1)
        with pytest.raises(ValueError, match="finite and positive, got"):
            PamProblem(zero_environment(spec), bump(spec), **{"T": 0.1, "dt": 1e-3, field: bad})
        problem = PamProblem(zero_environment(spec), bump(spec), T=0.1, dt=1e-3)
        setattr(problem, field, bad)
        with pytest.raises(ValueError, match=f"finite and positive, got {bad}"):
            solve_linear_pam(problem)

    @pytest.mark.parametrize("t, dt", [(float("nan"), 1e-3), (float("inf"), 1e-3),
                                       (0.1, float("nan")), (0.1, float("inf")),
                                       (0.1, 0.0), (0.1, -1e-3)])
    def test_semigroup_rejects(self, t, dt):
        env = build_environment(4, 2, 1, "gaussian", 0)
        with pytest.raises(ValueError, match="finite and positive, got"):
            semigroup_apply(env, t, bump(env.spec), dt)

    @pytest.mark.parametrize("t, dt", [(float("nan"), 1e-3), (float("inf"), 1e-3),
                                       (-0.1, 1e-3), (0.1, float("nan")),
                                       (0.1, float("inf")), (0.1, 0.0), (0.1, -1e-3)])
    def test_dual_fkpp_rejects(self, t, dt):
        env = build_environment(4, 2, 1, "gaussian", 0)
        with pytest.raises(ValueError, match="finite and positive, got"):
            solve_dual_fkpp(env, bump(env.spec), 0.5, t, dt)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_zero_time_checks_dt(self, dt):
        env = build_environment(4, 2, 1, "gaussian", 0)
        phi = bump(env.spec)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            semigroup_apply(env, 0.0, phi, dt)
        for store_times in (None, [0.0]):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                solve_dual_fkpp(env, phi, 0.5, 0.0, dt, store_times=store_times)

    def test_zero_time_rejects_later_store_time(self):
        env = build_environment(4, 2, 1, "gaussian", 0)
        with pytest.raises(ValueError, match=r"store times \[0.5\]"):
            solve_dual_fkpp(env, bump(env.spec), 0.5, 0.0, 1e-3, store_times=[0.5])

    @pytest.mark.parametrize("t", [0.0, 0.01])
    def test_store_times_are_the_keys(self, t):
        # at t = 0 as at t > 0: exactly the requested times, none added
        env = build_environment(4, 2, 1, "gaussian", 0)
        phi = bump(env.spec)
        assert solve_dual_fkpp(env, phi, 0.5, t, 1e-3, store_times=[]) == {}
        got = solve_dual_fkpp(env, phi, 0.5, t, 1e-3, store_times=[0.0])
        assert list(got) == [0.0] and np.array_equal(got[0.0].values, phi.values)


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
            traj = solve_linear_pam(PamProblem(env, w0, T=0.2, dt=1e-3),
                                    store_times=np.arange(0, 201, 5) * 1e-3)
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
