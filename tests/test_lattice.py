import numpy as np
import pytest

from pamlab.lattice import (
    Field,
    LatticeSpec,
    TorusField,
    even_extension,
    odd_extension,
    restrict,
)


def rand_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return Field(spec, rng.normal(size=spec.shape))


class TestLatticeSpec:
    def test_site_counts(self):
        spec = LatticeSpec(n=4, L=4, d=2)
        assert spec.N == 8
        assert spec.site_count == (4 * 4 + 1) ** 2

    @pytest.mark.parametrize("bad", [dict(n=0, L=2), dict(n=2, L=3), dict(n=2, L=2, d=3)])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            LatticeSpec(**{"d": 1, **bad})

    def test_origin_is_a_site_when_centered(self):
        spec = LatticeSpec(n=3, L=2, d=2)
        x = spec.axis_coords()
        i, j = spec.origin_index
        assert x[i] == 0.0 and x[j] == 0.0

    def test_field_shape_validation(self):
        spec = LatticeSpec(n=2, L=2, d=1)
        with pytest.raises(ValueError):
            Field(spec, np.zeros(3))
        with pytest.raises(ValueError):
            Field(spec, np.array([0.0, np.inf, 0, 0, 0]))


class TestBoundarySites:
    def test_1d_interval_endpoints(self):
        spec = LatticeSpec(n=2, L=2, d=1)
        mask = spec.boundary_mask()
        assert set(spec.axis_coords()[mask].tolist()) == {-1.0, 1.0}

    def test_2d_small_box_all_but_center(self):
        spec = LatticeSpec(n=1, L=2, d=2)
        # 3x3 sites, only the origin is interior
        mask = spec.boundary_mask()
        assert mask.sum() == 8 and not mask[spec.origin_index]

    def test_2d_count_matches_enumeration_oracle(self):
        spec = LatticeSpec(n=4, L=4, d=2)
        # enumeration oracle: the sites with a coordinate on a face
        P = spec.L * spec.n
        oracle = {
            (i, j)
            for i in range(P + 1)
            for j in range(P + 1)
            if i in (0, P) or j in (0, P)
        }
        assert len(oracle) == (P + 1) ** 2 - (P - 1) ** 2 == 4 * P
        assert set(map(tuple, np.argwhere(spec.boundary_mask()).tolist())) == oracle


class TestExtensions:
    def test_odd_extension_of_constant_has_sign_pattern(self):
        spec = LatticeSpec(n=2, L=2, d=1)
        u = Field(spec, np.ones(spec.shape))
        v = odd_extension(u).values
        P, M = spec.L * spec.n, spec.torus_sites_per_axis
        assert v[0] == 0.0 and v[P] == 0.0
        assert np.all(v[1:P] == 1.0)
        assert np.all(v[P + 1:M] == -1.0)

    def test_odd_extension_hand_enumerated_four_site_torus(self):
        # d=1, L=2, n=1: box sites {0,1,2}, torus sites {0,1,2,3}
        spec = LatticeSpec(n=1, L=2, d=1)
        u = Field(spec, np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(odd_extension(u).values, [0.0, 1.0, 0.0, -1.0])
        assert np.array_equal(even_extension(u).values, [0.0, 1.0, 0.0, 1.0])

    def test_even_extension_of_constant_is_constant(self):
        spec = LatticeSpec(n=3, L=2, d=2)
        u = Field(spec, np.ones(spec.shape))
        assert np.all(even_extension(u).values == 1.0)

    def test_restrict_left_inverse(self):
        spec = LatticeSpec(n=3, L=2, d=2)
        u = rand_field(spec, 1)
        assert np.array_equal(restrict(even_extension(u)).values, u.values)
        interior = ~spec.boundary_mask()
        back = restrict(odd_extension(u)).values
        assert np.array_equal(back[interior], u.values[interior])
        assert np.all(back[~interior] == 0.0)

    def test_odd_extension_idempotent_through_restriction(self):
        spec = LatticeSpec(n=2, L=4, d=2)
        u = rand_field(spec, 2)
        once = odd_extension(u)
        again = odd_extension(restrict(once))
        assert np.array_equal(once.values, again.values)

    def test_restrict_of_periodic_mode_samples_it(self):
        spec = LatticeSpec(n=4, L=2, d=1)
        M = spec.torus_sites_per_axis
        x = np.arange(M) / spec.n
        v = TorusField(spec, np.cos(2 * np.pi * x / spec.N))
        got = restrict(v).values
        xs = spec.axis_corner_coords()
        assert np.allclose(got, np.cos(2 * np.pi * xs / spec.N), atol=0)


class TestProductIdentities:
    """Pointwise extension identities; sign/copy operations, zero tolerance."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_even_and_odd_products(self, d, seed):
        spec = LatticeSpec(n=3, L=2, d=d)
        rng = np.random.default_rng(seed)
        u = Field(spec, rng.normal(size=spec.shape))
        w = Field(spec, rng.normal(size=spec.shape))
        prod = Field(spec, u.values * w.values)
        lhs = even_extension(prod).values
        rhs = even_extension(u).values * even_extension(w).values
        assert np.array_equal(lhs, rhs)
        lhs_o = odd_extension(prod).values
        rhs_o = odd_extension(u).values * even_extension(w).values
        assert np.array_equal(lhs_o, rhs_o)

    def test_odd_extension_vanishes_on_fixed_sites(self):
        spec = LatticeSpec(n=2, L=2, d=2)
        u = rand_field(spec, 3)
        v = odd_extension(u).values
        P = spec.L * spec.n
        assert np.all(v[0, :] == 0.0) and np.all(v[P, :] == 0.0)
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, P] == 0.0)
