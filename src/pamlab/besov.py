"""Littlewood-Paley blocks, paraproducts, and lattice Besov norms.

The dyadic partition is built from a radial C^2 bump phi_0 (1 on |k| <= 1/2,
0 for |k| >= 1): rho_{-1} = phi_0 and rho_j(k) = phi_0(2^{-(j+1)} k) -
phi_0(2^{-j} k), which telescopes exactly, with supp rho_j contained in the
annulus [2^{j-1}, 2^{j+1}] and rho_j = 1 on the sphere |k| = 2^j.  The tail
index j_n is the first j whose annulus pokes out of the open dual box
(-n/2, n/2)^d; the tail block collects everything not covered, making the
partition exact at every dual lattice site.

Boundary flavors enter through the odd/even extension: every block, norm and
product of a box field is computed on the torus extension and restricted.
Torus fields are real, so the symbols live on the rfft half grid (the last
axis cut to M/2 + 1 frequencies) and blocks are real FFT round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .lattice import Field, LatticeSpec, TorusField, extend, restrict
from .spectral import smoothstep, torus_frequency_grid


def _radial_bump(r: np.ndarray) -> np.ndarray:
    """phi_0 as a function of the radius |k|."""
    return 1.0 - smoothstep(2.0 * (r - 0.5))


def lowpass_bump(k: np.ndarray) -> np.ndarray:
    """phi_0: radial, 1 on |k| <= 1/2, 0 for |k| >= 1, C^2 in between."""
    return _radial_bump(np.linalg.norm(k, axis=-1))


def tail_index(spec: LatticeSpec) -> int:
    """j_n = min{ j >= -1 : supp(rho_j) not within (-n/2, n/2)^d }.

    With the concrete phi_0 above, supp rho_j sits inside the closed ball of
    radius 2^{j+1}, so the condition is 2^{j+1} >= n/2.
    """
    j = -1
    while 2.0 ** (j + 1) < spec.n / 2:
        j += 1
    return j


@dataclass
class DyadicPartition:
    """Dyadic partition of unity on the dual torus, tail block included."""

    spec: LatticeSpec
    j_n: int
    # symbol arrays on the rfft half grid of the FFT-ordered dual torus,
    # index j+1 for block j
    torus_symbols: list = dataclass_field(repr=False, default_factory=list)

    @property
    def block_indices(self) -> range:
        return range(-1, self.j_n + 1)

    def symbol(self, j: int) -> np.ndarray:
        if not (-1 <= j <= self.j_n):
            raise ValueError(f"block index {j} out of range [-1, {self.j_n}]")
        return self.torus_symbols[j + 1]


def block_symbol_arrays(j_n: int, kgrid: np.ndarray) -> list:
    """Evaluate rho_{-1}, ..., rho_{j_n - 1} and the tail on a k-grid.

    The tail is computed as 1 minus the partial sum, which makes the
    partition of unity exact at every grid point by construction.  In the
    degenerate case j_n = -1 (meshes so coarse that even the low block pokes
    out of the dual box) the tail is the only block and equals one.  The
    radius is taken once: |k / 2^j| = |k| / 2^j holds exactly in binary
    floating point, so each dilate phi_0(k / 2^j) is phi_0 at |k| / 2^j.
    """
    if j_n == -1:
        return [np.ones(kgrid.shape[:-1])]
    r = np.linalg.norm(kgrid, axis=-1)
    bumps = [_radial_bump(r / 2.0 ** j) for j in range(j_n + 1)]
    sym = [bumps[0]] + [hi - lo for lo, hi in zip(bumps, bumps[1:])]
    tail = 1.0 - np.sum(sym, axis=0)
    sym.append(tail)
    return sym


def build_partition(spec: LatticeSpec) -> DyadicPartition:
    j_n = tail_index(spec)
    M = spec.torus_sites_per_axis
    kgrid = torus_frequency_grid(spec)[..., : M // 2 + 1, :]
    return DyadicPartition(spec, j_n, block_symbol_arrays(j_n, kgrid))


def block_frequency(spec: LatticeSpec, modes: tuple, partition: DyadicPartition | None = None) -> int:
    """Index of the block whose symbol is largest at frequency m/N."""
    part = partition if partition is not None else build_partition(spec)
    k = np.array([m / spec.N for m in modes])[None, :]
    vals = [float(block_symbol_arrays(part.j_n, k)[j + 1][0]) for j in part.block_indices]
    return int(np.argmax(vals)) - 1


def _inverse_real(V: np.ndarray, shape: tuple) -> np.ndarray:
    return np.fft.irfftn(V, s=shape, axes=tuple(range(len(shape))))


def lp_block_torus(partition: DyadicPartition, j: int, v: TorusField) -> TorusField:
    V = np.fft.rfftn(v.values) * partition.symbol(j)
    return TorusField(v.spec, _inverse_real(V, v.values.shape))


def lp_block(partition: DyadicPartition, j: int, u: Field, flavor: str) -> Field:
    """Block j of a box field; commutes with the flavor extension.

    Odd symmetry of the extension forces Dirichlet blocks to vanish on the
    boundary; the FFT's broken cancellation there is restored exactly.
    """
    out = restrict(lp_block_torus(partition, j, extend(u, flavor)))
    if flavor == "dirichlet":
        out.values[u.spec.boundary_mask()] = 0.0
    return out


def all_blocks_torus(partition: DyadicPartition, v: TorusField) -> list:
    V = np.fft.rfftn(v.values)
    return [_inverse_real(V * partition.symbol(j), v.values.shape)
            for j in partition.block_indices]


def all_blocks(partition: DyadicPartition, u: Field, flavor: str) -> list:
    """All blocks of a box field as value arrays, restricted to the box."""
    spec = u.spec
    P = spec.L * spec.n
    sl = (slice(0, P + 1),) * spec.d
    blocks = [b[sl].copy() for b in all_blocks_torus(partition, extend(u, flavor))]
    if flavor == "dirichlet":
        mask = spec.boundary_mask()
        for b in blocks:
            b[mask] = 0.0
    return blocks


@dataclass(frozen=True)
class BesovParams:
    """Regularity alpha, integrabilities p and q (math.inf allowed), flavor."""

    alpha: float
    p: float = math.inf
    q: float = math.inf
    flavor: str = "dirichlet"

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("integrability indices must lie in [1, inf]")
        if self.flavor not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown flavor {self.flavor!r}")


def torus_lp_norm(values: np.ndarray, p: float, n: int, d: int) -> float:
    """L^p on the torus under the normalized counting measure n^{-d} sum."""
    a = np.abs(values)
    if math.isinf(p):
        return float(a.max())
    return float(((a ** p).sum() / n ** d) ** (1.0 / p))


def lp_norm(u: Field, p: float, flavor: str) -> float:
    """||ext(u)||_{L^p(torus)}; the lattice L^p norm of the flavor class."""
    return torus_lp_norm(extend(u, flavor).values, p, u.spec.n, u.spec.d)


def besov_norm(u: Field, params: BesovParams, partition: DyadicPartition | None = None) -> float:
    """|| (2^{alpha j} ||Delta_j ext(u)||_{L^p})_{j <= j_n} ||_{l^q}."""
    spec = u.spec
    part = partition if partition is not None else build_partition(spec)
    v = extend(u, params.flavor)
    blocks = all_blocks_torus(part, v)
    terms = np.array([
        2.0 ** (params.alpha * j) * torus_lp_norm(b, params.p, spec.n, spec.d)
        for j, b in zip(part.block_indices, blocks)
    ])
    if math.isinf(params.q):
        return float(terms.max())
    return float((terms ** params.q).sum() ** (1.0 / params.q))


def paraproduct(phi: Field, psi: Field, flavor_phi: str = "dirichlet",
                flavor_psi: str = "dirichlet",
                partition: DyadicPartition | None = None) -> Field:
    """Low-high paraproduct: phi carries the low blocks, psi the high ones.

    Block pairs (i, j) with i <= j - 2 are summed, so that together with the
    resonant pairs |i - j| <= 1 and the mirrored paraproduct every pair is
    counted exactly once and the Bony decomposition reproduces the pointwise
    product on the lattice.
    """
    if phi.spec != psi.spec:
        raise ValueError("paraproduct requires matching lattice specs")
    part = partition if partition is not None else build_partition(phi.spec)
    bp = all_blocks(part, phi, flavor_phi)
    bq = all_blocks(part, psi, flavor_psi)
    out = np.zeros(phi.spec.shape)
    low = np.zeros(phi.spec.shape)  # running sum of phi-blocks up to j - 2
    for idx, j in enumerate(part.block_indices):
        if idx >= 2:
            low = low + bp[idx - 2]
            out = out + low * bq[idx]
    return Field(phi.spec, out)


def resonant(phi: Field, psi: Field, flavor_phi: str = "neumann",
             flavor_psi: str = "neumann",
             partition: DyadicPartition | None = None) -> Field:
    """Resonant product: sum over block pairs with |i - j| <= 1."""
    if phi.spec != psi.spec:
        raise ValueError("resonant product requires matching lattice specs")
    part = partition if partition is not None else build_partition(phi.spec)
    bp = all_blocks(part, phi, flavor_phi)
    bq = all_blocks(part, psi, flavor_psi)
    out = np.zeros(phi.spec.shape)
    nb = len(bp)
    for i in range(nb):
        for j in (i - 1, i, i + 1):
            if 0 <= j < nb:
                out = out + bp[i] * bq[j]
    return Field(phi.spec, out)


def bony_decomposition(phi: Field, psi: Field, flavor_phi: str, flavor_psi: str,
                       partition: DyadicPartition | None = None) -> tuple:
    """(phi<psi, psi<phi, phi o psi); the three sum to the pointwise product."""
    part = partition if partition is not None else build_partition(phi.spec)
    lh = paraproduct(phi, psi, flavor_phi, flavor_psi, part)
    hl = paraproduct(psi, phi, flavor_psi, flavor_phi, part)
    res = resonant(phi, psi, flavor_phi, flavor_psi, part)
    return lh, hl, res


def extension_operator(u: Field, flavor: str, refinement: int) -> np.ndarray:
    """Trigonometric interpolation of the periodic extension on a finer grid.

    Returns samples on the corner grid {0, 1/(m n), ..., L} per axis
    (shape (m L n + 1,)*d).  Refinement 1 reproduces the lattice samples.
    The self-paired Nyquist bin is split symmetrically so the interpolant is
    real and keeps the odd/even symmetry of the extension.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    spec = u.spec
    m = refinement
    P = spec.L * spec.n
    fine = np.fft.fftn(extend(u, flavor).values)
    # Inverse transforms run one axis at a time, last first as in ifftn, and
    # each axis is cut to the box's m P + 1 samples before the next one.
    for axis in reversed(range(spec.d)):
        fine = np.fft.ifft(_zero_pad(fine, axis, m), axis=axis)
        fine = fine[(slice(None),) * axis + (slice(0, m * P + 1),)]
    return fine.real * (m ** spec.d)


def _zero_pad(V: np.ndarray, axis: int, m: int) -> np.ndarray:
    """Zero-pad an FFT-ordered spectrum from side M to m M along one axis,
    splitting the self-paired Nyquist bin in half between +M/2 and -M/2."""
    M = V.shape[axis]
    half = M // 2
    V = np.moveaxis(V, axis, 0)
    out = np.zeros((m * M,) + V.shape[1:], dtype=V.dtype)
    out[:half] = V[:half]
    out[m * M - half + 1:] = V[half + 1:]
    out[half] += 0.5 * V[half]
    out[m * M - half] += 0.5 * V[half]
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class TimeWeightedNormParams:
    """Exponent gamma in [0,1), horizon, and the spatial norm parameters."""

    gamma: float
    horizon: float
    inner: BesovParams
    include_time_holder: bool = False

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")


def time_weighted_norm(times, states, params: TimeWeightedNormParams,
                       partition: DyadicPartition | None = None) -> float:
    """sup_t t^gamma ||u(t)||_{B} over the stored grid, optionally plus the
    time-Hoelder increment term sup_{s<t} s^gamma ||u(t)-u(s)||_inf /
    (t-s)^{alpha/2}.

    Trajectories exist only at grid times, so both suprema run over the grid.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("empty trajectory")
    if partition is None:
        partition = build_partition(states[0].spec)
    out = 0.0
    for t, u in zip(times, states):
        if t == 0.0 and params.gamma > 0.0:
            continue
        w = 1.0 if t == 0.0 else t ** params.gamma
        out = max(out, w * besov_norm(u, params.inner, partition))
    if params.include_time_holder:
        expo = params.inner.alpha / 2.0
        for i in range(len(times)):
            if times[i] == 0.0 and params.gamma > 0.0:
                continue
            wi = 1.0 if times[i] == 0.0 else times[i] ** params.gamma
            for j in range(i + 1, len(times)):
                dt = times[j] - times[i]
                if dt <= 0:
                    continue
                inc = float(np.abs(states[j].values - states[i].values).max())
                out = max(out, wi * inc / dt ** expo)
    return out
