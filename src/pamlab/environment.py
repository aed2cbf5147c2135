"""Random environment sampling and the enhanced noise.

The raw noise assigns to every site an i.i.d. variate from a centered,
unit-variance distribution, scaled by n^{d/2}.  Variates are generated by a
stateless 64-bit mix keyed on (seed, integer site coordinates), so the same
seed produces the same value at the same physical site for every box size:
enlarging the box extends the environment instead of resampling it.  This is
what lets one environment serve all the coupled boxes downstream.

The enhanced part (d = 2) solves -Lap_neumann X = chi(D) xi in the Neumann
basis, forms the resonant product X o xi with the dyadic blocks, and
subtracts the renormalization constant kappa_n.  There is one cut-off chi,
``spectral.default_cutoff``, fixed as in the construction of the paper; no
function here takes another.  ``enhance`` and the norm survey share one
helper that makes the blocks of X and of xi once each and streams them
through the product; the survey takes the Besov norms of X and xi from
those same blocks, and both norms of the resonant product (with and
without kappa_n) from one set of its blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .besov import (
    BesovParams,
    DyadicPartition,
    _box_blocks,
    _lq_norm,
    _metered,
    _norms_with_constant,
    _partition_for,
    _resonant_sum,
    besov_norm,
    build_partition,
    lp_norm,
)
from .lattice import Field, LatticeSpec
from .spectral import (
    SpectrumCoeffs,
    apply_laplacian,
    default_cutoff,
    forward_transform,
    frequency_grid,
    inverse_transform,
    laplacian_symbol,
    renormalization_constant,
)

DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")

_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_AXIS_SALT = (np.uint64(0x8AE16A3B2F90404F), np.uint64(0xC2B2AE3D27D4EB4F))


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def site_uniforms(seed: int, coords) -> np.ndarray:
    """Uniform(0,1) variates keyed by (seed, site coordinates).

    ``coords`` is a sequence of d integer arrays (broadcastable); the output
    is independent of evaluation order and of the enclosing box.  All 64-bit
    arithmetic wraps modulo 2^64 by design.
    """
    with np.errstate(over="ignore"):
        h = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        for axis, g in enumerate(coords):
            g64 = np.asarray(g, dtype=np.int64).astype(np.uint64)
            h = _mix64(h + _AXIS_SALT[axis] + _GOLDEN * g64)
        h = _mix64(h + _GOLDEN)
    return _unit_interval(h)


def _unit_interval(h: np.ndarray) -> np.ndarray:
    """Uniforms from 64-bit hashes: a 53-bit mantissa, strictly inside (0, 1)."""
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54


def standard_variates(distribution: str, u: np.ndarray) -> np.ndarray:
    """Map uniforms to the centered, unit-variance distribution Phi."""
    if distribution == "gaussian":
        return ndtri(u)
    if distribution == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if distribution == "uniform":
        return math.sqrt(3.0) * (2.0 * u - 1.0)
    raise ValueError(f"unknown distribution {distribution!r}")


def nu_closed_form(distribution: str) -> float:
    """nu = E max(Phi, 0) for the supported distributions."""
    if distribution == "gaussian":
        return 1.0 / math.sqrt(2.0 * math.pi)
    if distribution == "rademacher":
        return 0.5
    if distribution == "uniform":
        return math.sqrt(3.0) / 4.0
    raise ValueError(f"unknown distribution {distribution!r}")


def positive_part_variance(distribution: str) -> float:
    """Var(max(Phi, 0)), used for standard-error bounds in tests.

    E[Phi_+^2] = 1/2 for every symmetric unit-variance Phi (half of E Phi^2
    sits on each side of 0), so the variance is 1/2 - nu^2.
    """
    return 0.5 - nu_closed_form(distribution) ** 2


@dataclass(frozen=True)
class NoiseSpec:
    distribution: str
    seed: int
    spec: LatticeSpec

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass
class NoiseRealization:
    """xi^n on the box; n^{-d/2} xi^n(x) has the Phi distribution."""

    spec: LatticeSpec
    values: np.ndarray
    seed: int
    distribution: str

    @property
    def field(self) -> Field:
        return Field(self.spec, self.values)

    def scaled(self) -> np.ndarray:
        """n^{-d/2} xi^n, the unit-variance site variates."""
        return self.values * self.spec.n ** (-self.spec.d / 2)


def global_site_coords(spec: LatticeSpec):
    """Integer coordinates of the box sites on the infinite lattice.

    Boxes are centered, so sites key by i - Ln/2 per axis and all box sizes
    with the same seed agree on shared sites.
    """
    P = spec.L * spec.n
    axis = np.arange(P + 1) - P // 2
    if spec.d == 1:
        return (axis,)
    return (axis[:, None], axis[None, :])


def sample_noise(ns: NoiseSpec) -> NoiseRealization:
    spec = ns.spec
    u = site_uniforms(ns.seed, global_site_coords(spec))
    u = np.broadcast_to(u, spec.shape).copy()
    phi = standard_variates(ns.distribution, u)
    values = spec.n ** (spec.d / 2) * phi
    return NoiseRealization(spec, values, ns.seed, ns.distribution)


def build_X(noise: NoiseRealization) -> Field:
    """Solve -Lap_neumann X = chi(D) xi; spectral diagonal solve.

    The cut-off vanishes at k = 0 which removes the kernel of the Laplacian;
    the residual is checked against the stated bound before returning.
    """
    spec = noise.spec
    # the survey solves beside a live partition (one per lattice): each
    # mode-grid array is dropped as soon as it is used
    kk = frequency_grid(spec, "neumann")
    chi_vals = default_cutoff()(kk)
    lt = -laplacian_symbol(kk, spec.n)
    del kk
    chi_xi = chi_vals * forward_transform(noise.field, "neumann").coeffs  # chi(D) xi
    del chi_vals
    coeffs = np.divide(chi_xi, lt, out=np.zeros_like(chi_xi), where=lt > 0)
    del lt
    X = inverse_transform(SpectrumCoeffs(spec, "neumann", coeffs))
    del coeffs
    rhs = inverse_transform(SpectrumCoeffs(spec, "neumann", chi_xi))
    del chi_xi
    residual = apply_laplacian(X, "neumann").values + rhs.values
    bound = 1e-8 * max(np.abs(rhs.values).max(), 1e-300)
    if np.abs(residual).max() > bound:
        raise ArithmeticError(
            f"Neumann solve residual {np.abs(residual).max():.3e} exceeds {bound:.3e}"
        )
    return X


@dataclass
class EnhancedEnvironment:
    """Noise plus the derived objects the solver and simulator consume.

    ``c_n`` equals kappa_n in d = 2 and 0 in d = 1; ``resonant_renormalized``
    is X o xi - kappa_n (d = 2 only).  ``nu`` is the closed-form E Phi_+.
    """

    noise: NoiseRealization
    X: Field | None
    resonant_renormalized: Field | None
    kappa_n: float
    c_n: float
    nu: float

    @property
    def spec(self) -> LatticeSpec:
        return self.noise.spec

    @property
    def xi_e(self) -> np.ndarray:
        """Renormalized potential xi - c_n (the d = 1 case has c_n = 0)."""
        return self.noise.values - self.c_n


def _enhanced_fields(noise: NoiseRealization, kappa: float,
                     partition: DyadicPartition | None,
                     xi_params: BesovParams | None = None,
                     X_params: BesovParams | None = None) -> tuple:
    """(X, X o xi - kappa, xi's Besov terms, X's Besov terms) in d = 2.

    X is built first, then the Neumann blocks of X and of xi are made once
    and streamed in lockstep into the resonant product, so only a window of
    blocks is alive at a time.  With ``xi_params`` / ``X_params`` each
    block's Besov term is taken as it goes by (the lists are empty
    otherwise).
    """
    spec = noise.spec
    X = build_X(noise)
    part = _partition_for(spec, partition)
    xi_terms, X_terms = [], []
    blocks_X = _box_blocks(X, "neumann", part.symbols)
    blocks_xi = _box_blocks(noise.field, "neumann", part.symbols)
    if X_params is not None:
        blocks_X = _metered(blocks_X, X_params, spec, X_terms)
    if xi_params is not None:
        blocks_xi = _metered(blocks_xi, xi_params, spec, xi_terms)
    renormalized = _resonant_sum(blocks_X, blocks_xi, spec.shape)
    renormalized -= kappa
    return X, Field(spec, renormalized), xi_terms, X_terms


def enhance(noise: NoiseRealization) -> EnhancedEnvironment:
    spec = noise.spec
    nu = nu_closed_form(noise.distribution)
    if spec.d == 1:
        return EnhancedEnvironment(noise, None, None, 0.0, 0.0, nu)
    kappa = renormalization_constant(spec)
    X, renormalized, _, _ = _enhanced_fields(noise, kappa, None)
    return EnhancedEnvironment(noise, X, renormalized, kappa, kappa, nu)


def build_environment(n: int, L: int, d: int, distribution: str,
                      seed: int) -> EnhancedEnvironment:
    """Sample and enhance in one call."""
    spec = LatticeSpec(n=n, L=L, d=d)
    return enhance(sample_noise(NoiseSpec(distribution, seed, spec)))


@dataclass
class PositivePartStats:
    field: Field           # n^{-d/2} xi_+
    pos_mean: float        # spatial average of n^{-d/2} xi_+
    abs_mean: float        # spatial average of n^{-d/2} |xi|
    site_count: int


def positive_part_statistics(noise: NoiseRealization) -> PositivePartStats:
    scaled = noise.scaled()
    pos = np.maximum(scaled, 0.0)
    return PositivePartStats(
        field=Field(noise.spec, pos),
        pos_mean=float(pos.mean()),
        abs_mean=float(np.abs(scaled).mean()),
        site_count=pos.size,
    )


def alpha_window(d: int) -> tuple:
    return (1.0, 1.5) if d == 1 else (2.0 / 3.0, 1.0)


def regularity_norm_survey(n_list, seeds, alpha: float, eps: float, L: int = 2,
                      d: int = 2, distribution: str = "gaussian") -> list:
    """Per-(n, seed) table of the stochastic-estimate norms.

    Returns a list of dicts keyed n, seed, alpha, eps, kappa_n and the
    Neumann norms xi_neg_reg (xi in C^{alpha-2}), xi_pos_reg and xi_pos_l2
    (n^{-d/2} xi_+ in C^{-eps} and L^2), X_reg (X in C^alpha),
    resonant_renorm and resonant_raw (X o xi with and without -kappa_n, in
    C^{2 alpha - 2}; NaN for d = 1); use
    :func:`pamlab.io.write_norm_report_csv` to persist.

    The partition and kappa_n are made once per n.  Each field's blocks are
    made once per row: the blocks of X and of xi feed the resonant product
    and give their own norms on the way, and resonant_raw reuses every
    term of resonant_renorm but the j = -1 one, since the constant kappa_n
    lives in block -1 alone (rho_{-1}(0) = 1, every other symbol is 0
    there).  It therefore agrees with a from-scratch norm of X o xi to
    round-off (about 1e-16 relative), not bit for bit.
    """
    lo, hi = alpha_window(d)
    if not (lo < alpha < hi):
        warnings.warn(
            f"alpha = {alpha} outside the window ({lo}, {hi}) for d = {d}; "
            "norms computed anyway", stacklevel=2)
    rows = []
    for n in n_list:
        spec = LatticeSpec(n=n, L=L, d=d)
        part = build_partition(spec)
        kappa = renormalization_constant(spec) if d == 2 else 0.0
        for seed in seeds:
            noise = sample_noise(NoiseSpec(distribution, seed, spec))
            rows.append(_survey_row(noise, kappa, part, alpha, eps))
    return rows


def _survey_row(noise: NoiseRealization, kappa: float, part: DyadicPartition,
                alpha: float, eps: float) -> dict:
    spec = noise.spec
    nan = float("nan")
    stats = positive_part_statistics(noise)
    row = {
        "n": spec.n,
        "seed": noise.seed,
        "alpha": alpha,
        "eps": eps,
        "kappa_n": kappa,
        "xi_neg_reg": nan,
        "xi_pos_reg": besov_norm(stats.field, BesovParams(-eps, flavor="neumann"), part),
        "xi_pos_l2": lp_norm(stats.field, 2.0, "neumann"),
        "X_reg": nan,
        "resonant_renorm": nan,
        "resonant_raw": nan,
    }
    del stats  # not alive beside the blocks of X and xi
    xi_params = BesovParams(alpha - 2, flavor="neumann")
    if spec.d == 1:
        row["xi_neg_reg"] = besov_norm(noise.field, xi_params, part)
        return row
    X_params = BesovParams(alpha, flavor="neumann")
    _, renormalized, xi_terms, X_terms = _enhanced_fields(
        noise, kappa, part, xi_params, X_params)
    row["xi_neg_reg"] = _lq_norm(xi_terms, xi_params.q)
    row["X_reg"] = _lq_norm(X_terms, X_params.q)
    row["resonant_renorm"], row["resonant_raw"] = _norms_with_constant(
        renormalized, kappa, BesovParams(2 * alpha - 2, flavor="neumann"), part)
    return row


def survey_medians(rows, key: str) -> dict:
    """Median of one survey column per n."""
    byn = {}
    for r in rows:
        byn.setdefault(r["n"], []).append(r[key])
    return {n: float(np.median(v)) for n, v in sorted(byn.items())}
