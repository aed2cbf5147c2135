"""Dirichlet/Neumann/periodic spectral calculus on the box lattice.

Bases, with k = m/N and corner coordinates x = j/n, P = L*n:

* Dirichlet:  d_k(x) = N^{-d/2} prod_i 2 sin(2 pi k_i x_i),  m_i in 1..P-1
* Neumann:    n_k(x) = N^{-d/2} prod_i 2^{1 - h_i/2} cos(2 pi k_i x_i),
              m_i in 0..P, where h_i = 1 at the two self-paired frequencies
              k_i = 0 and k_i = n/2.

Sine modes with a component at the Nyquist frequency n/2 vanish identically
on lattice sites, so they are excluded from the Dirichlet index set; the
Neumann weight at Nyquist mirrors the one at zero for the same self-pairing
reason.  With these conventions both bases are exactly orthonormal for the
pairing ``2^{-d} <ext(u), ext(w)>_{L^2(torus)}`` (normalized counting
measure ``n^{-d} sum``), and the fast DST-I/DCT-I routes below reproduce the
dense transforms to machine precision.

There is one cut-off chi, ``default_cutoff``: the enhancement and the
renormalization constant use it and take no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import fft as sfft

from .lattice import Field, LatticeSpec, TorusField, reflection_multiplicities

_EVEN_CHECK_POINTS = 24


@dataclass
class SpectrumCoeffs:
    """Coefficients <u, l_k> on the flavor's mode grid.

    Dirichlet coefficients have shape (P-1,)*d indexed by m-1; Neumann have
    shape (P+1,)*d indexed by m.
    """

    spec: LatticeSpec
    flavor: str
    coeffs: np.ndarray

    def __post_init__(self):
        expected = mode_grid_shape(self.spec, self.flavor)
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape}, expected {expected}")


@dataclass(frozen=True)
class MultiplierSpec:
    """An even symbol on the dual torus, callable on arrays of shape (..., d)."""

    symbol: Callable[[np.ndarray], np.ndarray]
    name: str = "sigma"

    def __call__(self, k: np.ndarray) -> np.ndarray:
        return np.asarray(self.symbol(np.asarray(k, dtype=np.float64)), dtype=np.float64)

    def check_even(self, spec: LatticeSpec) -> None:
        """Reject symbols that are not even under per-axis sign flips."""
        rng = np.random.default_rng(12345)
        mmax = spec.L * spec.n
        m = rng.integers(-mmax, mmax + 1, size=(_EVEN_CHECK_POINTS, spec.d))
        k = m / spec.N
        base = self(k)
        for axes in range(1, 2 ** spec.d):
            q = np.array([-1.0 if (axes >> a) & 1 else 1.0 for a in range(spec.d)])
            flipped = self(k * q)
            if not np.allclose(base, flipped, rtol=1e-12, atol=1e-14):
                raise ValueError(f"symbol {self.name!r} is not even under k -> q*k")


def mode_grid_shape(spec: LatticeSpec, flavor: str) -> tuple:
    P = spec.L * spec.n
    if flavor == "dirichlet":
        return (P - 1,) * spec.d
    if flavor == "neumann":
        return (P + 1,) * spec.d
    raise ValueError(f"unknown flavor {flavor!r}")


def mode_axis(spec: LatticeSpec, flavor: str) -> np.ndarray:
    """Integer modes m along one axis for the flavor's index set."""
    P = spec.L * spec.n
    if flavor == "dirichlet":
        return np.arange(1, P)
    if flavor == "neumann":
        return np.arange(0, P + 1)
    raise ValueError(f"unknown flavor {flavor!r}")


def frequency_grid(spec: LatticeSpec, flavor: str) -> np.ndarray:
    """Array of frequencies k = m/N, shape mode_grid_shape + (d,)."""
    k1 = mode_axis(spec, flavor) / spec.N
    if spec.d == 1:
        return k1[:, None]
    KX, KY = np.meshgrid(k1, k1, indexing="ij")
    return np.stack([KX, KY], axis=-1)


def torus_frequency_grid(spec: LatticeSpec) -> np.ndarray:
    """Signed FFT-ordered frequencies on the dual torus, shape torus + (d,).

    Each k is the integer mode divided by N, as in ``frequency_grid``, so the
    two grids agree exactly at the folded index min(i, M - i).
    """
    M = spec.torus_sites_per_axis
    k1 = np.fft.ifftshift(np.arange(-(M // 2), M // 2)) / spec.N
    if spec.d == 1:
        return k1[:, None]
    KX, KY = np.meshgrid(k1, k1, indexing="ij")
    return np.stack([KX, KY], axis=-1)


def _neumann_pair_weights(spec: LatticeSpec) -> np.ndarray:
    """prod_i 2^{-h_i/2} over the Neumann mode grid (h counts m_i in {0, P})."""
    P = spec.L * spec.n
    a = np.ones(P + 1)
    a[0] = a[P] = 2.0 ** -0.5
    if spec.d == 1:
        return a
    return a[:, None] * a[None, :]


def basis_field(spec: LatticeSpec, flavor: str, modes: tuple) -> Field:
    """The basis function l_k as a Field (corner-coordinate formulas)."""
    x = spec.axis_corner_coords()
    P = spec.L * spec.n
    axes = []
    for mi in modes:
        ki = mi / spec.N
        if flavor == "dirichlet":
            if not (1 <= mi <= P - 1):
                raise ValueError(f"Dirichlet mode {mi} out of range")
            axes.append(2.0 * np.sin(2 * np.pi * ki * x))
        else:
            if not (0 <= mi <= P):
                raise ValueError(f"Neumann mode {mi} out of range")
            h = 1 if mi in (0, P) else 0
            axes.append(2.0 ** (1 - h / 2) * np.cos(2 * np.pi * ki * x))
    if spec.d == 1:
        vals = axes[0]
    else:
        vals = np.outer(axes[0], axes[1])
    vals = spec.N ** (-spec.d / 2) * vals
    if flavor == "dirichlet":
        # the formula vanishes on the boundary; zero out sin(pi m) roundoff
        vals[spec.boundary_mask()] = 0.0
    return Field(spec, vals)


def inner(u: Field, w: Field, flavor: str) -> float:
    """Flavor pairing 2^{-d} <ext u, ext w> under the n^{-d} counting measure.

    Dirichlet reduces to the plain interior sum; Neumann carries trapezoidal
    half-weights on the faces.  Both make the corresponding basis orthonormal.
    """
    spec = u.spec
    if flavor == "dirichlet":
        sl = spec.interior_slices()
        return float((u.values[sl] * w.values[sl]).sum() / spec.n ** spec.d)
    P = spec.L * spec.n
    a = np.ones(P + 1)
    a[0] = a[P] = 0.5
    wt = a if spec.d == 1 else a[:, None] * a[None, :]
    return float((u.values * w.values * wt).sum() / spec.n ** spec.d)


def forward_transform(u: Field, flavor: str) -> SpectrumCoeffs:
    """Coefficients <u, l_k> via a fast trigonometric transform.

    Equivalent to the periodic Fourier transform of the odd/even extension;
    in the Dirichlet flavor the boundary values never enter (the odd
    extension forces them to zero anyway).
    """
    spec = u.spec
    scale = spec.n ** (-spec.d) * spec.N ** (-spec.d / 2)
    if flavor == "dirichlet":
        interior = u.values[spec.interior_slices()]
        coeffs = scale * sfft.dstn(interior, type=1)
    elif flavor == "neumann":
        coeffs = scale * _neumann_pair_weights(spec) * sfft.dctn(u.values, type=1)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return SpectrumCoeffs(spec, flavor, coeffs)


def inverse_transform(c: SpectrumCoeffs) -> Field:
    spec = c.spec
    scale = spec.N ** (-spec.d / 2)
    if c.flavor == "dirichlet":
        vals = np.zeros(spec.shape)
        vals[spec.interior_slices()] = scale * sfft.dstn(c.coeffs, type=1)
    else:
        vals = scale * sfft.dctn(c.coeffs / _neumann_pair_weights(spec), type=1)
    return Field(spec, vals)


def dense_basis_matrix(spec: LatticeSpec, flavor: str) -> np.ndarray:
    """Columns are basis fields flattened; O(M^2) oracle for small n."""
    modes = mode_axis(spec, flavor)
    cols = []
    if spec.d == 1:
        for m in modes:
            cols.append(basis_field(spec, flavor, (m,)).values.ravel())
    else:
        for m1 in modes:
            for m2 in modes:
                cols.append(basis_field(spec, flavor, (m1, m2)).values.ravel())
    return np.stack(cols, axis=1)


def fourier_multiplier(sigma: MultiplierSpec, u: Field, flavor: str) -> Field:
    """sigma(D) u in the flavor basis; a symbol that is not even is rejected."""
    sigma.check_even(u.spec)
    c = forward_transform(u, flavor)
    c.coeffs = c.coeffs * sigma(frequency_grid(u.spec, flavor))
    return inverse_transform(c)


def periodic_multiplier(sigma, v: TorusField) -> TorusField:
    """sigma(D) on the torus via FFT; `sigma` may be a MultiplierSpec or a
    precomputed symbol array on the FFT frequency grid."""
    spec = v.spec
    if isinstance(sigma, np.ndarray):
        sym = sigma
    else:
        sym = sigma(torus_frequency_grid(spec))
    V = np.fft.fftn(v.values) * sym
    out = np.fft.ifftn(V)
    return TorusField(spec, out.real)


def laplacian_symbol(k: np.ndarray, n: int) -> np.ndarray:
    """l^n(k) = sum_j 2 n^2 (cos(2 pi k_j / n) - 1), non-positive."""
    k = np.asarray(k, dtype=np.float64)
    return (2.0 * n * n * (np.cos(2 * np.pi * k / n) - 1.0)).sum(axis=-1)


def laplacian_multiplier(spec: LatticeSpec) -> MultiplierSpec:
    n = spec.n
    return MultiplierSpec(lambda k: laplacian_symbol(k, n), name="laplacian")


def _neighbor_sum(u: Field, flavor: str, term) -> np.ndarray:
    """Sum over axes e of term(u(x - e/n) - u(x), u(x + e/n) - u(x)), the
    neighbor differences of the extended field, at every box site.

    One reflected layer per face gives every box site its neighbors in the
    torus extension: even reflection for Neumann, odd reflection about the
    zeroed faces for Dirichlet, so a Dirichlet field reads 0 on the faces
    whatever its stored face values.
    """
    spec = u.spec
    if flavor == "neumann":
        v = np.pad(u.values, 1, mode="reflect")
    elif flavor == "dirichlet":
        faces_zeroed = np.where(spec.boundary_mask(), 0.0, u.values)
        v = np.pad(faces_zeroed, 1, mode="reflect", reflect_type="odd")
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    inner_sl = (slice(1, -1),) * spec.d
    center = v[inner_sl]
    acc = np.zeros(spec.shape)
    for axis in range(spec.d):
        lo = list(inner_sl)
        hi = list(inner_sl)
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        acc += term(v[tuple(lo)] - center, v[tuple(hi)] - center)
    return acc


def apply_laplacian(u: Field, flavor: str) -> Field:
    """Nearest-neighbor stencil of the extended field, read on the box.

    Summing neighbor differences (rather than neighbors minus 2d times the
    center) keeps constants in the exact kernel.
    """
    return Field(u.spec, u.spec.n ** 2 * _neighbor_sum(u, flavor, np.add))


def apply_laplacian_spectral(u: Field, flavor: str) -> Field:
    return fourier_multiplier(laplacian_multiplier(u.spec), u, flavor)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 below 0, 1 above 1."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def default_cutoff() -> MultiplierSpec:
    """The cut-off chi of the enhancement, the only one pamlab uses.

    Radial and C^2: 0 for |k| <= 1/4, 1 for |k| >= 1/2.  It kills the zero
    mode, which is the only property downstream computations rely on; the
    blend just keeps symbols smooth on the dual torus.
    """

    def chi(k):
        r = np.sqrt((np.asarray(k) ** 2).sum(axis=-1))
        return smoothstep((r - 0.25) / 0.25)

    return MultiplierSpec(chi, name="chi")


def renormalization_constant(spec: LatticeSpec) -> float:
    """Normalized dual-lattice sum N^{-d} sum_k chi(k) / (-l^n(k)), d = 2 only,
    with chi the ``default_cutoff``.

    Grows like log(n) and is independent of the box side up to O(1/N).  The
    sign convention uses -l^n >= 0 so that the constant is non-negative.
    Both symbols are even, so the sum over the dual torus (m in [-P, P)^2)
    runs over the quarter grid m in [0, P]^2 with the reflection
    multiplicities (1, 2, ..., 2, 1) per axis.
    """
    if spec.d != 2:
        raise ValueError("the renormalization constant is defined in d = 2 only")
    kk = frequency_grid(spec, "neumann")
    lt = -laplacian_symbol(kk, spec.n)
    c = default_cutoff()(kk)
    out = np.zeros_like(lt)
    mask = lt > 0
    out[mask] = c[mask] / lt[mask]
    w = reflection_multiplicities(spec)
    return float(w @ out @ w / spec.N ** spec.d)
