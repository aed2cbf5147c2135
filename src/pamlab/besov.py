"""Littlewood-Paley blocks, paraproducts, and lattice Besov norms.

The dyadic partition is built from a radial C^2 bump phi_0 (1 on |k| <= 1/2,
0 for |k| >= 1): rho_{-1} = phi_0 and rho_j(k) = phi_0(2^{-(j+1)} k) -
phi_0(2^{-j} k), which telescopes exactly, with supp rho_j contained in the
annulus [2^{j-1}, 2^{j+1}] and rho_j = 1 on the sphere |k| = 2^j.  The tail
index j_n is the first j whose annulus pokes out of the open dual box
(-n/2, n/2)^d; the tail block collects everything not covered, making the
partition exact at every dual lattice site.

Boundary flavors enter through the reflection calculus of ``spectral``.  The
torus FFT of the even extension of a box field is its DCT-I, and that of the
odd extension is, up to a factor -i per axis, the DST-I of its interior.
The symbols are even, so they live on the box mode grid k = m/N, m = 0..P,
and every block is a DCT-I (Neumann) or DST-I (Dirichlet) round trip on the
box: exactly the block of the torus extension, restricted to the box.
Dirichlet blocks vanish on the boundary by construction.  L^p norms under
the torus counting measure n^{-d} sum are box sums with the reflection
multiplicities (1, 2, ..., 2, 1) per axis, and norms are taken one block at
a time.  The trigonometric refinement zero-pads the same box coefficients.
The torus path (``lp_block_torus``, ``all_blocks_torus``: real FFT round
trips of the extension on half-grid symbols) is kept as the tests' oracle.

A field's blocks are made once for everything that needs them.  The public
products and norms are thin wrappers over helpers on block sequences: the
paraproduct and the resonant product stream both factors' blocks in
lockstep, a window of them alive at a time; the Bony decomposition forms
its three products from one block list per factor; and a stream can hand
each block's Besov term to a caller as it passes (``_metered``).  A
constant lives in block -1 alone, since rho_{-1}(0) = 1 and every other
symbol, the tail included, vanishes at k = 0, so the norms of u and u + c
share all other terms (``_norms_with_constant``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import fft as sfft

from .lattice import Field, LatticeSpec, TorusField, reflection_multiplicities
from .spectral import frequency_grid, smoothstep, torus_frequency_grid


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
    """Dyadic partition of unity on the box mode grid, tail block included."""

    spec: LatticeSpec
    j_n: int
    # symbol arrays on the Neumann mode grid (P+1)^d, k = m/N for m = 0..P,
    # index j+1 for block j; the Dirichlet modes are the [1:P] slice
    symbols: list = dataclass_field(repr=False, default_factory=list)

    @property
    def block_indices(self) -> range:
        return range(-1, self.j_n + 1)

    def symbol(self, j: int) -> np.ndarray:
        if j not in self.block_indices:
            raise ValueError(f"block index {j} out of range [-1, {self.j_n}]")
        return self.symbols[j + 1]


def block_symbol_arrays(j_n: int, kgrid: np.ndarray) -> list:
    """Evaluate rho_{-1}, ..., rho_{j_n - 1} and the tail on a k-grid.

    The tail is computed as 1 minus the partial sum, which makes the
    partition of unity exact at every grid point by construction.  In the
    degenerate case j_n = -1 (meshes so coarse that even the low block pokes
    out of the dual box) the tail is the only block and equals one.  The
    radius is taken once: |k / 2^j| = |k| / 2^j holds exactly in binary
    floating point, so each dilate phi_0(k / 2^j) is phi_0 at |k| / 2^j.
    Each difference joins one running sum as it is made, so besides the
    symbols only two bumps and the sum are alive at a time.
    """
    if j_n == -1:
        return [np.ones(kgrid.shape[:-1])]
    r = np.linalg.norm(kgrid, axis=-1)
    lo = _radial_bump(r)
    sym, total = [lo], lo.copy()
    for j in range(1, j_n + 1):
        hi = _radial_bump(r / 2.0 ** j)
        sym.append(hi - lo)
        total += sym[-1]
        lo = hi
    return sym + [np.subtract(1.0, total, out=total)]


def build_partition(spec: LatticeSpec) -> DyadicPartition:
    j_n = tail_index(spec)
    return DyadicPartition(spec, j_n, block_symbol_arrays(j_n, frequency_grid(spec, "neumann")))


def check_partition(partition: DyadicPartition, spec: LatticeSpec) -> DyadicPartition:
    """Return ``partition`` after checking that it was built for ``spec``.

    Lattices with the same L*n share array shapes, so a partition of another
    lattice would otherwise be applied silently with the wrong frequencies.
    """
    if partition.spec != spec:
        raise ValueError(f"partition built for {partition.spec} "
                         f"cannot be used on a field on {spec}")
    return partition


def _partition_for(spec: LatticeSpec, partition: DyadicPartition | None) -> DyadicPartition:
    if partition is None:
        return build_partition(spec)
    return check_partition(partition, spec)


def block_frequency(spec: LatticeSpec, modes: tuple, partition: DyadicPartition | None = None) -> int:
    """Index of the block whose symbol is largest at frequency m/N."""
    part = _partition_for(spec, partition)
    k = np.array([m / spec.N for m in modes])[None, :]
    vals = [float(block_symbol_arrays(part.j_n, k)[j + 1][0]) for j in part.block_indices]
    return int(np.argmax(vals)) - 1


def _box_blocks(u: Field, flavor: str, symbols):
    """Yield sym(D) u for each box symbol, one block at a time.

    Neumann blocks are DCT-I round trips of the box values, Dirichlet blocks
    DST-I round trips of the interior values (shape (P-1,)*d): the blocks of
    the even/odd torus extension, restricted to the box.
    """
    if flavor == "neumann":
        c = sfft.dctn(u.values, type=1)
        for sym in symbols:
            yield sfft.idctn(c * sym, type=1, overwrite_x=True)
    elif flavor == "dirichlet":
        sl = u.spec.interior_slices()
        c = sfft.dstn(u.values[sl], type=1)
        for sym in symbols:
            yield sfft.idstn(c * sym[sl], type=1, overwrite_x=True)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")


def _on_box(block: np.ndarray, spec: LatticeSpec, flavor: str) -> np.ndarray:
    """A block from ``_box_blocks`` as box values (zero Dirichlet boundary)."""
    if flavor == "neumann":
        return block
    out = np.zeros(spec.shape)
    out[spec.interior_slices()] = block
    return out


def _box_block_stream(part: DyadicPartition, u: Field, flavor: str):
    """The blocks of ``all_blocks``, made one at a time."""
    return (_on_box(b, u.spec, flavor) for b in _box_blocks(u, flavor, part.symbols))


def lp_block(partition: DyadicPartition, j: int, u: Field, flavor: str) -> Field:
    """Block j of a box field; commutes with the flavor extension."""
    check_partition(partition, u.spec)
    (block,) = _box_blocks(u, flavor, [partition.symbol(j)])
    return Field(u.spec, _on_box(block, u.spec, flavor))


def all_blocks(partition: DyadicPartition, u: Field, flavor: str) -> list:
    """All blocks of a box field as value arrays on the box."""
    check_partition(partition, u.spec)
    return list(_box_block_stream(partition, u, flavor))


def _torus_symbols(partition: DyadicPartition) -> list:
    """The partition's symbols on the rfft half grid of the dual torus (the
    last axis cut to M/2 + 1 frequencies)."""
    M = partition.spec.torus_sites_per_axis
    kgrid = torus_frequency_grid(partition.spec)[..., : M // 2 + 1, :]
    return block_symbol_arrays(partition.j_n, kgrid)


def lp_block_torus(partition: DyadicPartition, j: int, v: TorusField) -> TorusField:
    """Block j of a torus field by a real FFT round trip (oracle)."""
    partition.symbol(j)  # rejects j outside [-1, j_n]
    return TorusField(v.spec, all_blocks_torus(partition, v)[j + 1])


def all_blocks_torus(partition: DyadicPartition, v: TorusField) -> list:
    """All blocks of a torus field as value arrays (oracle)."""
    check_partition(partition, v.spec)
    V = np.fft.rfftn(v.values)
    axes = tuple(range(v.values.ndim))
    return [np.fft.irfftn(V * sym, s=v.values.shape, axes=axes)
            for sym in _torus_symbols(partition)]


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


def _box_lp_norm(block: np.ndarray, p: float, spec: LatticeSpec, flavor: str) -> float:
    """torus_lp_norm of the extension of a ``_box_blocks`` array.

    Each box site stands for its reflection images on the torus, so the
    torus measure is the box sum weighted by the reflection multiplicities
    (the Dirichlet faces are zero and left out).
    """
    if math.isinf(p):
        return float(max(abs(block.max()), abs(block.min())))  # no |block| copy
    w = reflection_multiplicities(spec)
    if flavor == "dirichlet":
        w = w[1:-1]
    a = np.abs(block)
    a = a * a if p == 2 else a ** p
    total = a @ w if spec.d == 1 else w @ a @ w
    return float((total / spec.n ** spec.d) ** (1.0 / p))


def lp_norm(u: Field, p: float, flavor: str) -> float:
    """||ext(u)||_{L^p(torus)}; the lattice L^p norm of the flavor class."""
    if flavor == "neumann":
        values = u.values
    elif flavor == "dirichlet":
        values = u.values[u.spec.interior_slices()]
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _box_lp_norm(values, p, u.spec, flavor)


def _block_term(j: int, block: np.ndarray, params: BesovParams, spec: LatticeSpec) -> float:
    """2^{alpha j} ||block||_{L^p}: block j's entry of the Besov sequence."""
    return 2.0 ** (params.alpha * j) * _box_lp_norm(block, params.p, spec, params.flavor)


def _lq_norm(terms, q: float) -> float:
    """The l^q norm of a Besov sequence."""
    terms = np.array(terms)
    if math.isinf(q):
        return float(terms.max())
    return float((terms ** q).sum() ** (1.0 / q))


def _metered(blocks, params: BesovParams, spec: LatticeSpec, terms: list):
    """Pass a ``_box_blocks`` stream through, appending each block's Besov
    term to ``terms`` as the block goes by."""
    for j, block in enumerate(blocks, -1):
        terms.append(_block_term(j, block, params, spec))
        yield block


def besov_norm(u: Field, params: BesovParams, partition: DyadicPartition | None = None) -> float:
    """|| (2^{alpha j} ||Delta_j ext(u)||_{L^p})_{j <= j_n} ||_{l^q}.

    Each block's norm is taken as soon as the block is made, so at most one
    block is alive at a time.
    """
    part = _partition_for(u.spec, partition)
    blocks = _box_blocks(u, params.flavor, part.symbols)
    return _lq_norm([_block_term(j, b, params, u.spec)
                     for j, b in zip(part.block_indices, blocks)], params.q)


def _norms_with_constant(u: Field, c: float, params: BesovParams,
                         partition: DyadicPartition | None = None) -> tuple:
    """(||u||, ||u + c||) in the Besov space of ``params`` from one set of blocks.

    A constant has the single mode k = 0, where rho_{-1} = 1 and every other
    symbol, the tail included, is exactly 0: only block -1 tells u + c from
    u, so the second norm reuses every other term of the first.  (The box
    transform of a constant is exact only up to round-off, so a from-scratch
    norm of u + c agrees to about 1e-16 relative, not bit for bit.)
    """
    if params.flavor != "neumann":
        raise ValueError("a constant is a box field of the neumann class only")
    part = _partition_for(u.spec, partition)
    blocks = _box_blocks(u, params.flavor, part.symbols)
    low = next(blocks)
    shifted_low = _block_term(-1, low + c, params, u.spec)
    terms = [_block_term(-1, low, params, u.spec)]
    del low
    terms += [_block_term(j, b, params, u.spec) for j, b in zip(part.block_indices[1:], blocks)]
    return _lq_norm(terms, params.q), _lq_norm([shifted_low] + terms[1:], params.q)


def _paraproduct_sum(low_blocks, high_blocks, shape: tuple) -> np.ndarray:
    """sum_j (sum_{i <= j-2} low_i) high_j over two block sequences.

    Takes lists or streams; of a pair of streams at most three low blocks
    and one high block are alive at a time.
    """
    out = np.zeros(shape)
    low = np.zeros(shape)  # running sum of low blocks up to j - 2
    lag = []               # the low blocks j - 2 and j - 1
    for p, q in zip(low_blocks, high_blocks):
        if len(lag) == 2:
            low += lag.pop(0)
            out += low * q
        lag.append(p)
    return out


def _resonant_sum(blocks_phi, blocks_psi, shape: tuple) -> np.ndarray:
    """sum_{|i - j| <= 1} phi_i psi_j over two block sequences of equal length,
    in the order i = -1, 0, ..., j = i - 1, i, i + 1.

    Takes lists or streams.  psi_{i-1} is dropped before psi_{i+1} is made,
    so of a pair of streams at most one phi block, two psi blocks and one
    product are alive at a time.
    """
    out = np.zeros(shape)
    psi = iter(blocks_psi)
    prev, cur = None, next(psi)
    for p in blocks_phi:
        if prev is not None:
            out += p * prev
        prev = None
        nxt = next(psi, None)
        out += p * cur
        if nxt is not None:
            out += p * nxt
        prev, cur = cur, nxt
    return out


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
    part = _partition_for(phi.spec, partition)
    return Field(phi.spec, _paraproduct_sum(_box_block_stream(part, phi, flavor_phi),
                                            _box_block_stream(part, psi, flavor_psi),
                                            phi.spec.shape))


def resonant(phi: Field, psi: Field, flavor_phi: str = "neumann",
             flavor_psi: str = "neumann",
             partition: DyadicPartition | None = None) -> Field:
    """Resonant product: sum over block pairs with |i - j| <= 1."""
    if phi.spec != psi.spec:
        raise ValueError("resonant product requires matching lattice specs")
    part = _partition_for(phi.spec, partition)
    return Field(phi.spec, _resonant_sum(_box_block_stream(part, phi, flavor_phi),
                                         _box_block_stream(part, psi, flavor_psi),
                                         phi.spec.shape))


def bony_decomposition(phi: Field, psi: Field, flavor_phi: str, flavor_psi: str,
                       partition: DyadicPartition | None = None) -> tuple:
    """(phi<psi, psi<phi, phi o psi); the three sum to the pointwise product.

    The blocks of phi and of psi are made once and serve all three products,
    each bit for bit the separate call.
    """
    if phi.spec != psi.spec:
        raise ValueError("Bony decomposition requires matching lattice specs")
    part = _partition_for(phi.spec, partition)
    bp = all_blocks(part, phi, flavor_phi)
    bq = all_blocks(part, psi, flavor_psi)
    shape = phi.spec.shape
    return (Field(phi.spec, _paraproduct_sum(bp, bq, shape)),
            Field(phi.spec, _paraproduct_sum(bq, bp, shape)),
            Field(phi.spec, _resonant_sum(bp, bq, shape)))


def extension_operator(u: Field, flavor: str, refinement: int) -> np.ndarray:
    """Trigonometric interpolation of the periodic extension on a finer grid.

    Returns samples on the corner grid {0, 1/(m n), ..., L} per axis
    (shape (m L n + 1,)*d).  Refinement 1 reproduces the lattice samples.
    The extension's spectrum is zero-padded on the box: the DCT-I (Neumann)
    or DST-I (Dirichlet) coefficients move to the finer mode grid.  The
    self-paired Nyquist mode of the cosine series is split symmetrically
    between +n/2 and -n/2, halving it per axis, so the interpolant is real
    and keeps the even symmetry; the sine series has no Nyquist mode and
    its interpolant vanishes on the boundary.
    """
    if refinement < 1:
        raise ValueError("refinement must be >= 1")
    spec = u.spec
    m = refinement
    P = spec.L * spec.n
    if flavor == "neumann":
        c = sfft.dctn(u.values, type=1)
        if m > 1:
            for axis in range(spec.d):
                c[(slice(None),) * axis + (P,)] *= 0.5
        fine = np.zeros((m * P + 1,) * spec.d)
        fine[(slice(0, P + 1),) * spec.d] = c
        return sfft.idctn(fine, type=1, overwrite_x=True) * (m ** spec.d)
    if flavor == "dirichlet":
        c = sfft.dstn(u.values[spec.interior_slices()], type=1)
        fine = np.zeros((m * P - 1,) * spec.d)
        fine[(slice(0, P - 1),) * spec.d] = c
        out = np.zeros((m * P + 1,) * spec.d)
        out[(slice(1, m * P),) * spec.d] = sfft.idstn(fine, type=1, overwrite_x=True) * (m ** spec.d)
        return out
    raise ValueError(f"unknown flavor {flavor!r}")


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
    partition = _partition_for(states[0].spec, partition)
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
