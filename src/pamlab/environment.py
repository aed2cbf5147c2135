"""Random environment sampling and the enhanced noise.

The raw noise assigns to every site an i.i.d. variate from a centered,
unit-variance distribution, scaled by n^{d/2}.  Variates are generated by a
stateless 64-bit mix keyed on (seed, integer site coordinates), so the same
seed produces the same value at the same physical site for every box size:
enlarging the box extends the environment instead of resampling it.  This is
what lets one environment serve all the coupled boxes downstream.

The enhanced part (d = 2) solves -Lap_neumann X = chi(D) xi in the Neumann
basis, forms the resonant product X o xi with the dyadic blocks, and
subtracts the renormalization constant kappa_n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .besov import BesovParams, DyadicPartition, besov_norm, build_partition, lp_norm, resonant
from .lattice import Field, LatticeSpec
from .spectral import (
    MultiplierSpec,
    apply_laplacian,
    default_cutoff,
    forward_transform,
    fourier_multiplier,
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
    # 53-bit mantissa, strictly inside (0, 1)
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
    """Var(max(Phi, 0)), used for standard-error bounds in tests."""
    nu = nu_closed_form(distribution)
    if distribution == "gaussian":
        second = 0.5
    elif distribution == "rademacher":
        second = 0.5
    elif distribution == "uniform":
        second = 0.5  # int_0^s x^2 /(2s) dx with s = sqrt(3)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return second - nu * nu


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

    Centered boxes key by i - Ln/2 per axis so that all box sizes with the
    same seed agree on shared sites.
    """
    P = spec.L * spec.n
    axis = np.arange(P + 1)
    if spec.centered:
        axis = axis - P // 2
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


def build_X(noise: NoiseRealization, chi: MultiplierSpec | None = None) -> Field:
    """Solve -Lap_neumann X = chi(D) xi; spectral diagonal solve.

    The cut-off vanishes at k = 0 which removes the kernel of the Laplacian;
    the residual is checked against the stated bound before returning.
    """
    if chi is None:
        chi = default_cutoff()
    spec = noise.spec
    c = forward_transform(noise.field, "neumann")
    kk = frequency_grid(spec, "neumann")
    lt = -laplacian_symbol(kk, spec.n)
    chi_vals = chi(kk)
    if abs(float(chi(np.zeros((1, spec.d)))[0])) > 0:
        raise ValueError("cut-off must vanish at k = 0")
    coeffs = np.zeros_like(c.coeffs)
    mask = lt > 0
    coeffs[mask] = chi_vals[mask] * c.coeffs[mask] / lt[mask]
    c.coeffs = coeffs
    X = inverse_transform(c)
    rhs = fourier_multiplier(chi, noise.field, "neumann", check_even=False)
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


def enhance(noise: NoiseRealization, chi: MultiplierSpec | None = None,
            partition: DyadicPartition | None = None) -> EnhancedEnvironment:
    spec = noise.spec
    nu = nu_closed_form(noise.distribution)
    if spec.d == 1:
        return EnhancedEnvironment(noise, None, None, 0.0, 0.0, nu)
    if chi is None:
        chi = default_cutoff()
    part = partition if partition is not None else build_partition(spec)
    kappa = renormalization_constant(spec, chi)
    X = build_X(noise, chi)
    raw = resonant(X, noise.field, "neumann", "neumann", part)
    renormalized = Field(spec, raw.values - kappa)
    return EnhancedEnvironment(noise, X, renormalized, kappa, kappa, nu)


def build_environment(n: int, L: int, d: int, distribution: str, seed: int,
                      chi: MultiplierSpec | None = None) -> EnhancedEnvironment:
    """Sample and enhance in one call (centered box)."""
    spec = LatticeSpec(n=n, L=L, d=d, centered=True)
    return enhance(sample_noise(NoiseSpec(distribution, seed, spec)), chi)


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
                      d: int = 2, distribution: str = "gaussian",
                      chi: MultiplierSpec | None = None) -> list:
    """Per-(n, seed) table of the stochastic-estimate norms.

    Returns a list of dicts keyed n, seed, alpha, eps, kappa_n and the
    Neumann norms xi_neg_reg (xi in C^{alpha-2}), xi_pos_reg and xi_pos_l2
    (n^{-d/2} xi_+ in C^{-eps} and L^2), X_reg (X in C^alpha),
    resonant_renorm and resonant_raw (X o xi with and without -kappa_n, in
    C^{2 alpha - 2}; NaN for d = 1); use
    :func:`pamlab.io.write_norm_report_csv` to persist.
    """
    lo, hi = alpha_window(d)
    if not (lo < alpha < hi):
        warnings.warn(
            f"alpha = {alpha} outside the window ({lo}, {hi}) for d = {d}; "
            "norms computed anyway", stacklevel=2)
    if chi is None:
        chi = default_cutoff()
    rows = []
    for n in n_list:
        spec = LatticeSpec(n=n, L=L, d=d, centered=True)
        part = build_partition(spec)
        for seed in seeds:
            noise = sample_noise(NoiseSpec(distribution, seed, spec))
            env = enhance(noise, chi, part)
            stats = positive_part_statistics(noise)
            row = {
                "n": n,
                "seed": seed,
                "alpha": alpha,
                "eps": eps,
                "kappa_n": env.kappa_n,
                "xi_neg_reg": besov_norm(
                    noise.field, BesovParams(alpha - 2, flavor="neumann"), part),
                "xi_pos_reg": besov_norm(
                    stats.field, BesovParams(-eps, flavor="neumann"), part),
                "xi_pos_l2": lp_norm(stats.field, 2.0, "neumann"),
            }
            if d == 2:
                raw = Field(spec, env.resonant_renormalized.values + env.kappa_n)
                row["X_reg"] = besov_norm(env.X, BesovParams(alpha, flavor="neumann"), part)
                row["resonant_renorm"] = besov_norm(
                    env.resonant_renormalized,
                    BesovParams(2 * alpha - 2, flavor="neumann"), part)
                row["resonant_raw"] = besov_norm(
                    raw, BesovParams(2 * alpha - 2, flavor="neumann"), part)
            else:
                row["X_reg"] = float("nan")
                row["resonant_renorm"] = float("nan")
                row["resonant_raw"] = float("nan")
            rows.append(row)
    return rows


def survey_medians(rows, key: str) -> dict:
    """Median of one survey column per n."""
    byn = {}
    for r in rows:
        byn.setdefault(r["n"], []).append(r[key])
    return {n: float(np.median(v)) for n, v in sorted(byn.items())}
