import math
import tracemalloc

import numpy as np
import pytest

from pamlab.besov import BesovParams, besov_norm, build_partition, lp_norm, resonant
from pamlab.environment import (
    NoiseRealization,
    NoiseSpec,
    build_X,
    build_environment,
    enhance,
    regularity_norm_survey,
    nu_closed_form,
    positive_part_statistics,
    positive_part_variance,
    sample_noise,
    site_uniforms,
    survey_medians,
)
from pamlab.lattice import Field, LatticeSpec
from pamlab.spectral import (
    apply_laplacian,
    basis_field,
    default_cutoff,
    dense_basis_matrix,
    fourier_multiplier,
    frequency_grid,
    inner,
    laplacian_symbol,
    renormalization_constant,
)


class TestSiteKeyedSampling:
    def test_same_seed_bit_identical(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        a = sample_noise(NoiseSpec("gaussian", 42, spec))
        b = sample_noise(NoiseSpec("gaussian", 42, spec))
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        a = sample_noise(NoiseSpec("gaussian", 1, spec))
        b = sample_noise(NoiseSpec("gaussian", 2, spec))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("d", [1, 2])
    def test_enlarging_the_box_extends_the_environment(self, d):
        # coupling requirement: one seed serves every box size
        small = sample_noise(NoiseSpec("gaussian", 7, LatticeSpec(n=4, L=2, d=d)))
        large = sample_noise(NoiseSpec("gaussian", 7, LatticeSpec(n=4, L=6, d=d)))
        off = (6 - 2) // 2 * 4  # index offset of the small box inside the large
        P = 2 * 4
        sl = (slice(off, off + P + 1),) * d
        assert np.array_equal(large.values[sl], small.values)

    def test_uniform_keying_is_order_independent(self):
        g1 = np.array([3, -5, 0])
        u_vec = site_uniforms(9, (g1,))
        u_each = np.array([site_uniforms(9, (np.array([g]),))[0] for g in g1])
        assert np.array_equal(u_vec, u_each)

    def test_rademacher_support(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        noise = sample_noise(NoiseSpec("rademacher", 3, spec))
        assert set(np.unique(noise.scaled())) == {-1.0, 1.0}

    def test_gaussian_sample_mean_clt_bound(self):
        spec = LatticeSpec(n=32, L=2, d=2)
        noise = sample_noise(NoiseSpec("gaussian", 11, spec))
        scaled = noise.scaled()
        assert abs(scaled.mean()) < 4.0 / math.sqrt(scaled.size)

    def test_gaussian_moments(self):
        spec = LatticeSpec(n=64, L=2, d=2)
        z = sample_noise(NoiseSpec("gaussian", 5, spec)).scaled().ravel()
        m = z.size
        assert abs(z.var() - 1.0) < 5.0 / math.sqrt(m)
        assert abs((z ** 3).mean()) < 5.0 * math.sqrt(15.0 / m)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 0, LatticeSpec(n=2, L=2, d=1))


class TestBuildX:
    def test_single_neumann_mode_diagonal_solve(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        m = (2, 2)  # k = (0.5, 0.5), in the chi = 1 region
        mode = basis_field(spec, "neumann", m)
        noise = NoiseRealization(spec, mode.values, seed=0, distribution="gaussian")
        X = build_X(noise)
        k = np.array([mi / spec.N for mi in m])[None, :]
        lt = -float(laplacian_symbol(k, spec.n)[0])
        assert np.abs(X.values - mode.values / lt).max() < 1e-12

    def test_zero_noise_gives_zero(self):
        spec = LatticeSpec(n=4, L=2, d=2)
        noise = NoiseRealization(spec, np.zeros(spec.shape), 0, "gaussian")
        assert np.all(build_X(noise).values == 0.0)

    def test_residual_against_dense_transform_oracle(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        noise = sample_noise(NoiseSpec("gaussian", 21, spec))
        X = build_X(noise)
        # dense oracle: expand xi in the dense Neumann basis, divide symbols
        chi = default_cutoff()
        B = dense_basis_matrix(spec, "neumann")
        kk = frequency_grid(spec, "neumann")
        lt = -laplacian_symbol(kk, spec.n)
        cvals = chi(kk)
        coeff = np.array([
            inner(Field(spec, B[:, i].reshape(spec.shape)), noise.field, "neumann")
            for i in range(B.shape[1])
        ]).reshape(lt.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            sol = np.where(lt > 0, cvals * coeff / lt, 0.0)
        dense_X = (B @ sol.ravel()).reshape(spec.shape)
        assert np.abs(dense_X - X.values).max() < 1e-10
        rhs = fourier_multiplier(chi, noise.field, "neumann")
        resid = apply_laplacian(X, "neumann").values + rhs.values
        assert np.abs(resid).max() <= 1e-8 * np.abs(rhs.values).max()


    def test_noise_is_transformed_once(self, monkeypatch):
        import pamlab.environment as environment
        import pamlab.spectral as spectral

        calls = []
        transform = spectral.forward_transform

        def counting(u, flavor):
            calls.append(flavor)
            return transform(u, flavor)

        monkeypatch.setattr(environment, "forward_transform", counting)
        monkeypatch.setattr(spectral, "forward_transform", counting)
        noise = sample_noise(NoiseSpec("gaussian", 5, LatticeSpec(n=8, L=2, d=2)))
        X = build_X(noise)
        assert calls == ["neumann"]
        rhs = fourier_multiplier(default_cutoff(), noise.field, "neumann")
        assert np.abs(apply_laplacian(X, "neumann").values + rhs.values).max() \
            <= 1e-8 * np.abs(rhs.values).max()


class TestEnhance:
    def test_d1_skips_resonant_part(self):
        env = build_environment(n=16, L=2, d=1, distribution="gaussian", seed=0)
        assert env.resonant_renormalized is None
        assert env.c_n == 0.0 and env.kappa_n == 0.0
        assert env.X is None

    def test_zero_noise_resonant_is_minus_kappa(self):
        spec = LatticeSpec(n=8, L=2, d=2)
        noise = NoiseRealization(spec, np.zeros(spec.shape), 0, "gaussian")
        env = enhance(noise)
        kap = renormalization_constant(spec)
        assert env.kappa_n == pytest.approx(kap, abs=1e-12)
        assert np.abs(env.resonant_renormalized.values + kap).max() < 1e-12

    def test_seed_determinism_of_enhancement(self):
        a = build_environment(8, 2, 2, "gaussian", 123)
        b = build_environment(8, 2, 2, "gaussian", 123)
        assert np.array_equal(a.noise.values, b.noise.values)
        assert np.array_equal(a.X.values, b.X.values)
        assert np.array_equal(a.resonant_renormalized.values, b.resonant_renormalized.values)
        assert a.kappa_n == b.kappa_n

    def test_kappa_matches_direct_dual_sum(self):
        env = build_environment(8, 2, 2, "gaussian", 9)
        direct = renormalization_constant(env.spec)
        assert abs(env.kappa_n - direct) < 1e-12

    def test_xi_e_shifts_by_c_n(self):
        env = build_environment(8, 2, 2, "gaussian", 2)
        assert np.allclose(env.xi_e, env.noise.values - env.kappa_n, atol=0)


class TestPositivePartStatistics:
    def test_positive_part_variance_exact(self):
        # E[Phi_+^2] = 1/2 for each symmetric unit-variance law
        assert positive_part_variance("gaussian") == pytest.approx(0.5 - 1 / (2 * math.pi),
                                                                  rel=1e-15)
        assert positive_part_variance("rademacher") == pytest.approx(0.25, rel=1e-15)
        assert positive_part_variance("uniform") == pytest.approx(0.3125, rel=1e-15)
        with pytest.raises(ValueError, match="unknown distribution"):
            positive_part_variance("cauchy")

    def test_gaussian_nu_identification_n64(self):
        spec = LatticeSpec(n=64, L=2, d=2)
        noise = sample_noise(NoiseSpec("gaussian", 31, spec))
        stats = positive_part_statistics(noise)
        nu = nu_closed_form("gaussian")
        se = math.sqrt(positive_part_variance("gaussian") / stats.site_count)
        assert abs(stats.pos_mean - nu) <= 3 * se
        # |xi| average -> 2 nu with twice the variance structure
        se_abs = math.sqrt((1.0 - (2 * nu) ** 2) / stats.site_count)
        assert abs(stats.abs_mean - 2 * nu) <= 3 * se_abs

    def test_rademacher_nu_is_half(self):
        assert nu_closed_form("rademacher") == 0.5
        spec = LatticeSpec(n=32, L=2, d=2)
        stats = positive_part_statistics(sample_noise(NoiseSpec("rademacher", 4, spec)))
        se = math.sqrt(positive_part_variance("rademacher") / stats.site_count)
        assert abs(stats.pos_mean - 0.5) <= 3 * se

    def test_abs_mean_equals_twice_pos_mean_for_centered_noise(self):
        # identity for any realization: |x| = x_+ + x_- and E Phi = 0 only
        # links the means in expectation; empirically they track closely
        spec = LatticeSpec(n=64, L=2, d=2)
        stats = positive_part_statistics(sample_noise(NoiseSpec("uniform", 8, spec)))
        assert stats.abs_mean == pytest.approx(
            2 * stats.pos_mean, abs=6.0 / math.sqrt(stats.site_count))

    def test_uniform_nu_closed_form(self):
        assert nu_closed_form("uniform") == pytest.approx(math.sqrt(3) / 4)


class TestLemmaNormSurvey:
    def test_alpha_window_warning(self):
        with pytest.warns(UserWarning):
            regularity_norm_survey([4], [0], alpha=0.2, eps=0.1, L=2, d=2)

    def test_survey_medians_flat_smoke(self):
        # scaled-down version of the acceptance survey
        rows = regularity_norm_survey([8, 16], range(12), alpha=0.8, eps=0.1, L=2, d=2,
                                 distribution="uniform")
        for key in ("xi_neg_reg", "X_reg", "resonant_renorm"):
            med = survey_medians(rows, key)
            vals = list(med.values())
            assert max(vals) / min(vals) < 2.0
        pos = survey_medians(rows, "xi_pos_reg")
        assert all(np.isfinite(v) for v in pos.values())

    def test_d1_rows_have_no_resonant_columns(self):
        rows = regularity_norm_survey([8], [0, 1], alpha=1.2, eps=0.1, L=2, d=1)
        assert all(math.isnan(r["resonant_renorm"]) for r in rows)
        assert all(np.isfinite(r["xi_neg_reg"]) for r in rows)


def survey_oracle(n, seed, alpha, eps, d, distribution="gaussian"):
    """One survey row from scratch: every column a ``besov_norm`` of its own
    field, and the raw resonant product built as renormalized + kappa."""
    spec = LatticeSpec(n=n, L=2, d=d)
    part = build_partition(spec)
    noise = sample_noise(NoiseSpec(distribution, seed, spec))
    pos = positive_part_statistics(noise).field
    nan = float("nan")
    row = {"n": n, "seed": seed, "alpha": alpha, "eps": eps, "kappa_n": 0.0,
           "xi_neg_reg": besov_norm(noise.field, BesovParams(alpha - 2, flavor="neumann"), part),
           "xi_pos_reg": besov_norm(pos, BesovParams(-eps, flavor="neumann"), part),
           "xi_pos_l2": lp_norm(pos, 2.0, "neumann"),
           "X_reg": nan, "resonant_renorm": nan, "resonant_raw": nan}
    if d == 2:
        kappa = renormalization_constant(spec)
        X = build_X(noise)
        renorm = Field(spec, resonant(X, noise.field, "neumann", "neumann", part).values - kappa)
        raw = Field(spec, renorm.values + kappa)
        res = BesovParams(2 * alpha - 2, flavor="neumann")
        row.update(kappa_n=kappa,
                   X_reg=besov_norm(X, BesovParams(alpha, flavor="neumann"), part),
                   resonant_renorm=besov_norm(renorm, res, part),
                   resonant_raw=besov_norm(raw, res, part))
    return row


class TestSurveySharesBlocks:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_d2_rows_match_from_scratch_oracle(self, n):
        rows = regularity_norm_survey([n], [11, 12], alpha=0.8, eps=0.1, L=2, d=2)
        for row in rows:
            want = survey_oracle(n, row["seed"], 0.8, 0.1, 2)
            assert list(row) == list(want)
            for key, value in row.items():
                if key == "resonant_raw":
                    assert value == pytest.approx(want[key], rel=1e-13, abs=0)
                else:
                    assert value == want[key], key

    def test_d1_rows_match_from_scratch_oracle(self):
        rows = regularity_norm_survey([8, 16], [3, 4], alpha=1.2, eps=0.1, L=2, d=1,
                                      distribution="uniform")
        for row in rows:
            want = survey_oracle(row["n"], row["seed"], 1.2, 0.1, 1, "uniform")
            assert list(row) == list(want)
            for key, value in row.items():
                assert value == want[key] or (math.isnan(value) and math.isnan(want[key])), key

    def test_kappa_computed_once_per_lattice(self, monkeypatch):
        import pamlab.environment as environment

        calls = []

        def counting(spec):
            calls.append(spec.n)
            return renormalization_constant(spec)

        monkeypatch.setattr(environment, "renormalization_constant", counting)
        regularity_norm_survey([8, 16], [1, 2, 3], alpha=0.8, eps=0.1, L=2, d=2)
        assert calls == [8, 16]

    @pytest.mark.parametrize("n", [8, 32])
    def test_dct_count_per_row(self, fft_calls, n):
        # build_X: 3; the blocks of X, xi, n^{-1} xi_+ and X o xi - kappa: 4 (B + 1)
        B = len(build_partition(LatticeSpec(n=n, L=2, d=2)).symbols)
        calls = fft_calls("dctn", "idctn")
        regularity_norm_survey([n], [5, 6], alpha=0.8, eps=0.1, L=2, d=2)
        assert len(calls) == 2 * (3 + 4 * (B + 1))

    def test_row_peak_memory_within_build_environment(self):
        # X's and xi's blocks stream through the resonant product, so a row
        # holds no more than building the environment does; each peak has
        # its own bound in box arrays, measured at 15.1 (row) and 16.0
        # (environment) at d = 2, n = 64, with under one box array to spare
        n = 64
        box = 8 * (2 * n + 1) ** 2

        def peak(call):
            call()
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / box
            finally:
                tracemalloc.stop()

        row = peak(lambda: regularity_norm_survey([n], [3], alpha=0.8, eps=0.1, L=2, d=2))
        env = peak(lambda: build_environment(n, 2, 2, "gaussian", 3))
        assert row <= 16.0
        assert env <= 17.0
