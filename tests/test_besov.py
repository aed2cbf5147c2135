import math

import numpy as np
import pytest

from pamlab.besov import (
    BesovParams,
    TimeWeightedNormParams,
    all_blocks,
    all_blocks_torus,
    besov_norm,
    block_frequency,
    bony_decomposition,
    build_partition,
    extension_operator,
    lowpass_bump,
    lp_block,
    lp_norm,
    paraproduct,
    resonant,
    tail_index,
    time_weighted_norm,
)
from pamlab.lattice import Field, LatticeSpec, extend, odd_extension
from pamlab.spectral import basis_field, laplacian_symbol, torus_frequency_grid


def rand_field(spec, seed=0, dirichlet=False):
    rng = np.random.default_rng(seed)
    u = Field(spec, rng.normal(size=spec.shape))
    if dirichlet:
        u.values[spec.boundary_mask()] = 0.0
    return u


def full_grid_symbols(spec):
    """Oracle: the partition on the whole dual torus from the dilates of phi_0."""
    k = torus_frequency_grid(spec)
    j_n = tail_index(spec)
    if j_n == -1:
        return [np.ones(k.shape[:-1])]
    bumps = [lowpass_bump(k / 2.0 ** j) for j in range(j_n + 1)]
    sym = [bumps[0]] + [hi - lo for lo, hi in zip(bumps, bumps[1:])]
    sym.append(1.0 - np.sum(sym, axis=0))
    return sym


def _embed_matrix(M, m):
    """Spectral zero-padding matrix (mM x M) with symmetric Nyquist split."""
    big = np.zeros((m * M, M))
    half = M // 2
    for s in range(M):
        f = s if s < half else s - M  # signed frequency of FFT bin s
        if s == half:
            big[half % (m * M), s] += 0.5
            big[(-half) % (m * M), s] += 0.5
        else:
            big[f % (m * M), s] = 1.0
    return big


def dense_extension(u, flavor, m):
    """Oracle: trigonometric refinement by dense zero-padding products."""
    spec = u.spec
    V = np.fft.fftn(extend(u, flavor).values)
    A = _embed_matrix(spec.torus_sites_per_axis, m)
    big = A @ V if spec.d == 1 else A @ V @ A.T
    fine = np.fft.ifftn(big) * m ** spec.d
    sl = (slice(0, m * spec.L * spec.n + 1),) * spec.d
    return fine[sl].real


class TestPartition:
    def test_sums_to_one_at_every_dual_site(self):
        for d in (1, 2):
            spec = LatticeSpec(n=4, L=2, d=d)
            part = build_partition(spec)
            total = np.sum(part.torus_symbols, axis=0)
            assert np.abs(total - 1.0).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_half_grid_symbols_equal_full_grid_oracle(self, d, n):
        spec = LatticeSpec(n=n, L=2, d=d)
        half = spec.torus_sites_per_axis // 2 + 1
        part = build_partition(spec)
        oracle = full_grid_symbols(spec)
        assert len(part.torus_symbols) == len(oracle)
        for got, want in zip(part.torus_symbols, oracle):
            assert np.array_equal(got, want[..., :half])

    def test_tail_index_increments_with_doubling(self):
        js = [tail_index(LatticeSpec(n=n, L=2, d=2)) for n in (4, 8, 16, 32)]
        assert js == [js[0], js[0] + 1, js[0] + 2, js[0] + 3]

    def test_low_block_is_one_at_zero(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        part = build_partition(spec)
        # FFT-ordered grid puts k = 0 in the corner
        assert part.symbol(-1).flat[0] == 1.0

    def test_block_index_out_of_range(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        part = build_partition(spec)
        u = rand_field(spec)
        with pytest.raises(ValueError):
            lp_block(part, part.j_n + 1, u, "neumann")

    def test_degenerate_coarse_mesh_single_block(self):
        # n <= 2: even the low block exceeds the dual box; the tail is all
        spec = LatticeSpec(n=2, L=6, d=1)
        part = build_partition(spec)
        assert part.j_n == -1
        assert len(part.torus_symbols) == 1
        assert np.all(part.symbol(-1) == 1.0)
        u = rand_field(spec, 9)
        got = lp_block(part, -1, u, "neumann")
        assert np.abs(got.values - u.values).max() < 1e-14

    @pytest.mark.parametrize("geom", [(3, 2, 1), (5, 2, 2), (4, 4, 2), (2, 6, 1), (7, 4, 1)])
    def test_bony_identity_across_geometries(self, geom):
        n, L, d = geom
        spec = LatticeSpec(n=n, L=L, d=d)
        part = build_partition(spec)
        rng = np.random.default_rng(1)
        u = Field(spec, rng.normal(size=spec.shape))
        w = Field(spec, rng.normal(size=spec.shape))
        lh, hl, res = bony_decomposition(u, w, "neumann", "neumann", part)
        err = np.abs(lh.values + hl.values + res.values - u.values * w.values).max()
        assert err < 1e-10
        total = np.sum(all_blocks(part, u, "neumann"), axis=0)
        assert np.abs(total - u.values).max() < 1e-12 * max(1, np.abs(u.values).max())


class TestBlocks:
    def test_resummation_identity(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        part = build_partition(spec)
        u = rand_field(spec, 3)
        total = np.sum(all_blocks(part, u, "neumann"), axis=0)
        assert np.abs(total - u.values).max() < 1e-12 * np.abs(u.values).max()

    def test_single_mode_lands_in_its_block(self):
        spec = LatticeSpec(n=16, L=2, d=1)
        part = build_partition(spec)
        m = 4  # k = 1, on the plateau sphere of block j = 0
        u = basis_field(spec, "dirichlet", (m,))
        j_star = block_frequency(spec, (m,), part)
        assert j_star == 0
        got = lp_block(part, j_star, u, "dirichlet")
        assert np.abs(got.values - u.values).max() < 1e-12
        for j in part.block_indices:
            if j != j_star:
                assert np.abs(lp_block(part, j, u, "dirichlet").values).max() < 1e-12

    def test_commutation_with_odd_extension(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        part = build_partition(spec)
        u = rand_field(spec, 4, dirichlet=True)
        for j in part.block_indices:
            lhs = odd_extension(lp_block(part, j, u, "dirichlet")).values
            from pamlab.besov import lp_block_torus

            rhs = lp_block_torus(part, j, odd_extension(u)).values
            assert np.abs(lhs - rhs).max() < 1e-11


    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_real_blocks_match_complex_fft_oracle(self, d, flavor, n):
        spec = LatticeSpec(n=n, L=2, d=d)
        u = rand_field(spec, n + d, dirichlet=flavor == "dirichlet")
        v = extend(u, flavor).values
        V = np.fft.fftn(v)
        oracle = [np.fft.ifftn(V * sym).real for sym in full_grid_symbols(spec)]
        got = all_blocks_torus(build_partition(spec), extend(u, flavor))
        assert len(got) == len(oracle)
        tol = 1e-12 * max(1.0, np.abs(u.values).max())
        for b, want in zip(got, oracle):
            assert b.shape == v.shape
            assert np.abs(b - want).max() < tol


class TestBesovNorm:
    def test_zero_field(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        assert besov_norm(Field.zeros(spec), BesovParams(0.5)) == 0.0

    def test_single_mode_value(self):
        # norm = 2^{alpha j(k)} ||d_k||_{L^p} when the mode sits in one block
        spec = LatticeSpec(n=16, L=2, d=1)
        part = build_partition(spec)
        m = 4  # k = 1 sits on the plateau of block 0
        u = basis_field(spec, "dirichlet", (m,))
        j_star = block_frequency(spec, (m,), part)
        alpha = 0.7
        p = 4.0
        expected = 2.0 ** (alpha * j_star) * lp_norm(u, p, "dirichlet")
        got = besov_norm(u, BesovParams(alpha, p=p, q=math.inf), part)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_alpha_via_block_reweighting(self, seed):
        # reweight the block sequence of a random field, keeping only the
        # blocks at frequencies >= 1 (j >= 0): 2^{alpha j} is then monotone
        spec = LatticeSpec(n=16, L=2, d=1)
        part = build_partition(spec)
        u = rand_field(spec, seed + 50, dirichlet=True)
        from pamlab.besov import all_blocks_torus
        from pamlab.besov import torus_lp_norm
        from pamlab.lattice import odd_extension as oe

        blocks = all_blocks_torus(part, oe(u))
        a = [torus_lp_norm(b, math.inf, spec.n, spec.d) for b in blocks]
        js = list(part.block_indices)
        for a1, a2 in [(0.3, 0.9), (0.0, 0.5), (0.5, 1.4)]:
            n1 = max(2.0 ** (a1 * j) * aj for j, aj in zip(js, a) if j >= 0)
            n2 = max(2.0 ** (a2 * j) * aj for j, aj in zip(js, a) if j >= 0)
            assert n1 <= n2 + 1e-12


class TestBony:
    def test_constant_second_factor_kills_low_high(self):
        spec = LatticeSpec(n=8, L=2, d=1)
        part = build_partition(spec)
        phi = rand_field(spec, 9)
        c = 2.5
        psi = Field(spec, np.full(spec.shape, c))
        lh = paraproduct(phi, psi, "neumann", "neumann", part)
        assert np.abs(lh.values).max() < 1e-12
        hl = paraproduct(psi, phi, "neumann", "neumann", part)
        res = resonant(psi, phi, "neumann", "neumann", part)
        # remaining two terms reproduce c * phi
        assert np.abs(hl.values + res.values - c * phi.values).max() < 1e-10

    @pytest.mark.parametrize("flavors", [("neumann", "neumann"), ("dirichlet", "neumann")])
    def test_decomposition_identity(self, flavors):
        spec = LatticeSpec(n=8, L=2, d=2)
        part = build_partition(spec)
        phi = rand_field(spec, 1, dirichlet=flavors[0] == "dirichlet")
        psi = rand_field(spec, 2, dirichlet=flavors[1] == "dirichlet")
        lh, hl, res = bony_decomposition(phi, psi, flavors[0], flavors[1], part)
        total = lh.values + hl.values + res.values
        target = phi.values * psi.values
        assert np.abs(total - target).max() < 1e-10 * max(1.0, np.abs(target).max())

    def test_mismatched_specs_rejected(self):
        a = rand_field(LatticeSpec(n=4, L=2, d=1))
        b = rand_field(LatticeSpec(n=8, L=2, d=1))
        with pytest.raises(ValueError):
            paraproduct(a, b)

    def test_separated_modes_concentrate_in_paraproduct(self):
        # |k| << |k'|: the product mass sits in the low-high term
        spec = LatticeSpec(n=32, L=2, d=1)
        part = build_partition(spec)
        phi = basis_field(spec, "dirichlet", (1,))     # k = 0.25
        psi = basis_field(spec, "dirichlet", (24,))    # k = 6.0
        lh, hl, res = bony_decomposition(phi, psi, "dirichlet", "dirichlet", part)
        prod = np.abs(phi.values * psi.values).max()
        assert np.abs(lh.values).max() > 0.9 * prod
        assert np.abs(hl.values).max() < 0.1 * prod
        assert np.abs(res.values).max() < 0.1 * prod


class TestExtensionOperator:
    def test_refinement_one_reproduces_samples(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = rand_field(spec, 5)
        fine = extension_operator(u, "neumann", 1)
        assert np.abs(fine - u.values).max() < 1e-10

    def test_single_mode_matches_continuum_sine(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        m = 3
        u = basis_field(spec, "dirichlet", (m,))
        ref = 4
        fine = extension_operator(u, "dirichlet", ref)
        xf = np.arange(ref * spec.L * spec.n + 1) / (ref * spec.n)
        closed = spec.N ** -0.5 * 2 * np.sin(2 * np.pi * (m / spec.N) * xf)
        assert np.abs(fine - closed).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("refinement", [1, 2, 3, 4])
    def test_matches_dense_zero_padding_oracle(self, d, flavor, refinement):
        spec = LatticeSpec(n=4, L=2, d=d)
        u = rand_field(spec, 10 * d + refinement)
        fine = extension_operator(u, flavor, refinement)
        want = dense_extension(u, flavor, refinement)
        assert fine.shape == want.shape
        assert np.abs(fine - want).max() < 1e-13

    def test_dirichlet_extension_vanishes_on_box_boundary(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = rand_field(spec, 6)  # arbitrary boundary values
        fine = extension_operator(u, "dirichlet", 3)
        assert np.abs(fine[0, :]).max() < 1e-12
        assert np.abs(fine[-1, :]).max() < 1e-12
        assert np.abs(fine[:, 0]).max() < 1e-12
        assert np.abs(fine[:, -1]).max() < 1e-12


class TestSupNormEmbedding:
    def test_embedding_constant_measured_once_works_across_n(self):
        # sup |E_d u| <= C ||u||_{C^alpha_d} for alpha > 0: the constant
        # measured at n = 8 covers the larger meshes within a factor 1.5
        alpha = 0.6

        def worst_ratio(n):
            spec = LatticeSpec(n=n, L=2, d=1)
            part = build_partition(spec)
            worst = 0.0
            for seed in range(10):
                u = rand_field(spec, seed, dirichlet=True)
                sup = np.abs(extension_operator(u, "dirichlet", 2)).max()
                nrm = besov_norm(u, BesovParams(alpha, flavor="dirichlet"), part)
                worst = max(worst, sup / nrm)
            return worst

        c_star = worst_ratio(8)
        assert worst_ratio(16) <= 1.5 * c_star
        assert worst_ratio(32) <= 1.5 * c_star


class TestTimeWeightedNorm:
    def test_zero_trajectory(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        params = TimeWeightedNormParams(0.5, 1.0, BesovParams(0.5, flavor="dirichlet"))
        states = [Field.zeros(spec) for _ in range(3)]
        assert time_weighted_norm([0.0, 0.5, 1.0], states, params) == 0.0

    def test_gamma_zero_is_plain_sup(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        part = build_partition(spec)
        bp = BesovParams(0.5, flavor="dirichlet")
        states = [rand_field(spec, s, dirichlet=True) for s in range(4)]
        got = time_weighted_norm([0.0, 0.1, 0.2, 0.3], states, TimeWeightedNormParams(0.0, 0.3, bp), part)
        expect = max(besov_norm(u, bp, part) for u in states)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_single_mode_decay_closed_form(self):
        # u(t) = exp(l * t) d_k: sup_t t^gamma e^{l t} * (mode norm), l < 0
        spec = LatticeSpec(n=16, L=2, d=1)
        part = build_partition(spec)
        m = 6
        u0 = basis_field(spec, "dirichlet", (m,))
        lam = float(laplacian_symbol(np.array([[m / spec.N]]), spec.n)[0])
        gamma = 0.4
        bp = BesovParams(0.7, flavor="dirichlet")
        times = np.linspace(0.0, 0.5, 201)
        states = [Field(spec, np.exp(lam * t) * u0.values) for t in times]
        got = time_weighted_norm(times, states, TimeWeightedNormParams(gamma, 0.5, bp), part)
        base = besov_norm(u0, bp, part)
        # 1-d calculus oracle on the grid
        expect = max(t ** gamma * np.exp(lam * t) for t in times[1:]) * base
        assert got == pytest.approx(expect, rel=1e-10)

    def test_empty_trajectory_rejected(self):
        params = TimeWeightedNormParams(0.0, 1.0, BesovParams(0.5))
        with pytest.raises(ValueError):
            time_weighted_norm([], [], params)
