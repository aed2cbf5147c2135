import numpy as np
import pytest

from pamlab.lattice import Field, LatticeSpec, odd_extension
from pamlab.spectral import (
    MultiplierSpec,
    apply_laplacian,
    apply_laplacian_spectral,
    basis_field,
    default_cutoff,
    dense_basis_matrix,
    forward_transform,
    fourier_multiplier,
    frequency_grid,
    inner,
    inverse_transform,
    laplacian_symbol,
    mode_axis,
    periodic_multiplier,
    renormalization_constant,
)

TOL = 1e-10


def rand_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return Field(spec, rng.normal(size=spec.shape))


class TestBasisEval:
    def test_dirichlet_vanishes_on_box_boundary(self):
        for d in (1, 2):
            spec = LatticeSpec(n=3, L=2, d=d)
            for m in (1, spec.L * spec.n - 1):
                field = basis_field(spec, "dirichlet", (m,) * d)
                assert np.all(field.values[spec.boundary_mask()] == 0.0)
                assert np.abs(field.values).max() > 0.1

    def test_dirichlet_direct_formula_value(self):
        # d=1, L=2 (N=4), m=1 (k=1/4), x=1: (1/2) * 2 * sin(pi/2) = 1
        spec = LatticeSpec(n=2, L=2, d=1)
        x_index = spec.n  # corner coordinate x = 1
        value = basis_field(spec, "dirichlet", (1,)).values[x_index]
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_dirichlet_rejects_boundary_frequencies(self):
        # P = L n = 4: Dirichlet modes run over 1..3, Neumann over 0..4
        spec = LatticeSpec(n=2, L=2, d=2)
        for flavor, modes in [("dirichlet", (0, 1)), ("dirichlet", (1, 4)),
                              ("dirichlet", (-1, 1)), ("neumann", (0, 5)),
                              ("neumann", (-1, 0))]:
            with pytest.raises(ValueError, match="out of range"):
                basis_field(spec, flavor, modes)

    def test_neumann_zero_mode_is_normalized_constant(self):
        spec = LatticeSpec(n=2, L=2, d=2)
        expect = spec.N ** (-spec.d / 2) * 2 ** (spec.d / 2)
        values = basis_field(spec, "neumann", (0, 0)).values
        assert np.abs(values - expect).max() <= 1e-15

    def test_dirichlet_self_inner_product_is_one(self):
        # brute-force inner product oracle at n=4
        spec = LatticeSpec(n=4, L=2, d=1)
        for m in (1, 3, spec.L * spec.n - 1):
            dk = basis_field(spec, "dirichlet", (m,))
            assert inner(dk, dk, "dirichlet") == pytest.approx(1.0, abs=TOL)

    def test_neumann_even_extension_symmetric_across_boundary(self):
        # cosine evenness: one-sided differences mirror at the walls
        from pamlab.lattice import even_extension

        spec = LatticeSpec(n=4, L=2, d=1)
        P, M = spec.L * spec.n, spec.torus_sites_per_axis
        for m in (0, 2, 5, P):
            v = even_extension(basis_field(spec, "neumann", (m,))).values
            assert v[1] == pytest.approx(v[M - 1], abs=1e-14)   # across x = 0
            assert v[P + 1] == pytest.approx(v[P - 1], abs=1e-14)  # across x = L


class TestOrthonormality:
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_gram_matrix_is_identity(self, flavor, d):
        spec = LatticeSpec(n=4 if d == 1 else 2, L=2, d=d)
        B = dense_basis_matrix(spec, flavor)
        nmodes = B.shape[1]
        G = np.empty((nmodes, nmodes))
        cols = [Field(spec, B[:, i].reshape(spec.shape)) for i in range(nmodes)]
        for i in range(nmodes):
            for j in range(nmodes):
                G[i, j] = inner(cols[i], cols[j], flavor)
        assert np.abs(G - np.eye(nmodes)).max() < TOL


class TestTransforms:
    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip(self, flavor, d):
        spec = LatticeSpec(n=4, L=2, d=d)
        u = rand_field(spec, 7)
        if flavor == "dirichlet":
            u.values[spec.boundary_mask()] = 0.0
        back = inverse_transform(forward_transform(u, flavor))
        assert np.abs(back.values - u.values).max() < 1e-12 * max(1, np.abs(u.values).max())

    def test_basis_mode_gives_indicator_coefficients(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        m = (2, 3)
        u = basis_field(spec, "dirichlet", m)
        c = forward_transform(u, "dirichlet").coeffs
        expected = np.zeros_like(c)
        expected[m[0] - 1, m[1] - 1] = 1.0
        assert np.abs(c - expected).max() < TOL

    def test_zero_field_zero_coefficients(self):
        spec = LatticeSpec(n=2, L=2, d=2)
        z = Field.zeros(spec)
        assert np.all(forward_transform(z, "neumann").coeffs == 0.0)

    @pytest.mark.parametrize("flavor", ["dirichlet", "neumann"])
    def test_matches_dense_gram_solve_oracle(self, flavor):
        # dense linear-algebra oracle, d=2, n=4
        spec = LatticeSpec(n=4, L=2, d=2)
        u = rand_field(spec, 11)
        if flavor == "dirichlet":
            u.values[spec.boundary_mask()] = 0.0
        B = dense_basis_matrix(spec, flavor)
        # solve min ||B c - u|| in the flavor inner product == expansion coeffs
        nm = len(mode_axis(spec, flavor))
        c_dense = np.array(
            [
                inner(Field(spec, B[:, i].reshape(spec.shape)), u, flavor)
                for i in range(B.shape[1])
            ]
        ).reshape((nm, nm))
        c_fast = forward_transform(u, flavor).coeffs
        assert np.abs(c_dense - c_fast).max() < TOL


class TestMultipliers:
    def test_identity_symbol_is_identity_on_flavor_span(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        one = MultiplierSpec(lambda k: np.ones(k.shape[:-1]), "one")
        u = rand_field(spec, 3)
        u.values[spec.boundary_mask()] = 0.0
        got = fourier_multiplier(one, u, "dirichlet")
        assert np.abs(got.values - u.values).max() < 1e-12

    def test_laplacian_symbol_reproduces_stencil(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = rand_field(spec, 5)
        a = apply_laplacian(u, "neumann").values
        b = apply_laplacian_spectral(u, "neumann").values
        scale = np.abs(a).max()
        assert np.abs(a - b).max() < 1e-10 * scale

    def test_laplacian_of_constant_is_zero_neumann(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = Field(spec, np.full(spec.shape, 2.7))
        assert np.abs(apply_laplacian(u, "neumann").values).max() == 0.0

    def test_cutoff_annihilates_neumann_zero_mode(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        u = Field(spec, np.ones(spec.shape))  # pure zero mode
        out = fourier_multiplier(default_cutoff(), u, "neumann")
        assert np.abs(out.values).max() < 1e-12

    def test_rejects_non_even_symbols(self):
        spec = LatticeSpec(n=2, L=2, d=1)
        odd_sym = MultiplierSpec(lambda k: k[..., 0], "odd")
        u = rand_field(spec, 1)
        with pytest.raises(ValueError):
            fourier_multiplier(odd_sym, u, "dirichlet")

    @pytest.mark.parametrize("seed", range(4))
    def test_commutation_with_odd_extension(self, seed):
        # Pi_o(sigma(D) u) == sigma(D) Pi_o u for random even symbols
        spec = LatticeSpec(n=4, L=2, d=2)
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=3)

        def sym(k):
            k2 = (k ** 2).sum(axis=-1)
            return a + b * np.cos(2 * np.pi * k[..., 0]) * np.cos(2 * np.pi * k[..., 1]) + c * k2

        sigma = MultiplierSpec(sym, "rand_even")
        u = rand_field(spec, seed + 100)
        u.values[spec.boundary_mask()] = 0.0
        lhs = odd_extension(fourier_multiplier(sigma, u, "dirichlet")).values
        rhs = periodic_multiplier(sigma, odd_extension(u)).values
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


class TestLaplacianSymbol:
    def test_zero_at_zero(self):
        assert laplacian_symbol(np.zeros((1, 2)), 4)[0] == 0.0

    def test_nyquist_contribution(self):
        n = 8
        k = np.array([[n / 2.0]])
        assert laplacian_symbol(k, n)[0] == pytest.approx(-4 * n * n, rel=1e-14)

    def test_small_k_taylor_within_five_percent(self):
        n = 64
        k = np.linspace(1e-3, 0.05 * n, 50)[:, None]
        ln = laplacian_symbol(k, n)
        cont = -4 * np.pi ** 2 * k[:, 0] ** 2
        assert np.abs(ln / cont - 1).max() < 0.05

    def test_even_and_nonpositive_and_kernel(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        kg = frequency_grid(spec, "neumann")
        vals = laplacian_symbol(kg, spec.n)
        assert vals.max() <= 0.0
        assert np.count_nonzero(vals == 0.0) == 1  # only k = 0
        kd = frequency_grid(spec, "dirichlet")
        assert laplacian_symbol(kd, spec.n).max() < 0.0


def full_grid_kappa(spec):
    """Oracle: N^{-2} sum of chi / (-l^n) over the whole dual torus
    m in [-P, P)^2, summed a block of rows at a time to bound memory."""
    chi = default_cutoff()
    P = spec.L * spec.n
    k1 = np.arange(-P, P) / spec.N
    total = 0.0
    for start in range(0, 2 * P, 256):
        KX, KY = np.meshgrid(k1[start:start + 256], k1, indexing="ij")
        kk = np.stack([KX, KY], axis=-1)
        lt = -laplacian_symbol(kk, spec.n)
        c = chi(kk)
        out = np.zeros_like(lt)
        mask = lt > 0
        out[mask] = c[mask] / lt[mask]
        total += out.sum()
    return total / spec.N ** 2


class TestRenormalizationConstant:
    @pytest.mark.parametrize("L", [2, 4])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
    def test_quarter_grid_matches_full_grid_oracle(self, n, L):
        spec = LatticeSpec(n=n, L=L, d=2)
        want = full_grid_kappa(spec)
        assert abs(renormalization_constant(spec) - want) <= 1e-14 * want

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            renormalization_constant(LatticeSpec(n=4, L=2, d=1))

    def test_log_growth_differences(self):
        ks = {n: renormalization_constant(LatticeSpec(n=n, L=2, d=2)) for n in (16, 32, 64)}
        d1 = ks[32] - ks[16]
        d2 = ks[64] - ks[32]
        assert d1 > 0 and d2 > 0
        assert abs(d1 / d2 - 1) < 0.1

    def test_box_independence_up_to_1_over_N(self):
        n = 32
        k2 = renormalization_constant(LatticeSpec(n=n, L=2, d=2))
        k4 = renormalization_constant(LatticeSpec(n=n, L=4, d=2))
        assert abs(k2 - k4) <= 5.0 / 4
