"""Finite box lattices, their double-size tori, and reflection extensions.

There is one geometry: the centered box ``[-L/2, L/2]^d`` with ``L*n + 1``
sites per axis at spacing ``1/n``, which contains the origin as a site.  The
torus has ``2*L*n`` sites per axis with opposite faces identified.  Dirichlet
and Neumann boundary conditions are encoded by extending box fields to the
torus in an odd or even fashion about the two reflection hyperplanes per
axis, the faces ``x = -L/2`` and ``x = L/2`` (``0`` and ``L`` in the corner
coordinates that indexing uses).  All index arithmetic is done on integer
multi-indices; coordinates are derived values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLAVORS = ("dirichlet", "neumann")


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the centered box ``[-L/2, L/2]^d``, shared by every
    lattice object.

    Physical coordinates are centered; indexing, extensions and spectral
    formulas use the corner coordinates ``[0, L]^d`` internally.

    Parameters
    ----------
    n : int
        Sites per unit length (mesh parameter).
    L : int
        Box side.  Must be even so that the centered box has lattice-aligned
        faces and contains the origin as a site.
    d : int
        Spatial dimension, 1 or 2.
    """

    n: int
    L: int
    d: int = 1

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"mesh parameter n must be a positive integer, got {self.n}")
        if not (isinstance(self.L, (int, np.integer)) and self.L >= 2 and self.L % 2 == 0):
            raise ValueError(f"box side L must be a positive even integer, got {self.L}")
        if self.d not in (1, 2):
            raise ValueError(f"dimension d must be 1 or 2, got {self.d}")

    @property
    def N(self) -> int:
        """Torus side, always 2L."""
        return 2 * self.L

    @property
    def box_sites_per_axis(self) -> int:
        return self.L * self.n + 1

    @property
    def torus_sites_per_axis(self) -> int:
        return self.N * self.n

    @property
    def shape(self) -> tuple:
        return (self.box_sites_per_axis,) * self.d

    @property
    def torus_shape(self) -> tuple:
        return (self.torus_sites_per_axis,) * self.d

    @property
    def site_count(self) -> int:
        return self.box_sites_per_axis ** self.d

    @property
    def origin_index(self) -> tuple:
        """Multi-index of the coordinate origin, the center of the box."""
        return (self.L * self.n // 2,) * self.d

    def axis_coords(self) -> np.ndarray:
        """Physical (centered) coordinates of the sites along one axis."""
        return np.arange(self.box_sites_per_axis) / self.n - self.L / 2

    def axis_corner_coords(self) -> np.ndarray:
        """Corner coordinates, in [0, L]."""
        return np.arange(self.box_sites_per_axis) / self.n

    def boundary_mask(self) -> np.ndarray:
        """Boolean array marking sites with some coordinate on a box face."""
        P = self.L * self.n
        axis = np.arange(P + 1)
        on_face = (axis == 0) | (axis == P)
        if self.d == 1:
            return on_face
        return on_face[:, None] | on_face[None, :]

    def interior_slices(self) -> tuple:
        P = self.L * self.n
        return (slice(1, P),) * self.d


@dataclass
class Field:
    """Real-valued function on the box lattice, stored as a dense array."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match lattice {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    @classmethod
    def zeros(cls, spec: LatticeSpec) -> "Field":
        return cls(spec, np.zeros(spec.shape))

    def copy(self) -> "Field":
        return Field(self.spec, self.values.copy())

    def is_dirichlet(self) -> bool:
        """True when the field vanishes on all boundary sites."""
        return not np.any(self.values[self.spec.boundary_mask()])


@dataclass
class TorusField:
    """Real-valued function on the torus, index arithmetic modulo ``2Ln``."""

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.spec.torus_shape:
            raise ValueError(
                f"torus field shape {self.values.shape} does not match {self.spec.torus_shape}"
            )

    @classmethod
    def zeros(cls, spec: LatticeSpec) -> "TorusField":
        return cls(spec, np.zeros(spec.torus_shape))

    def copy(self) -> "TorusField":
        return TorusField(self.spec, self.values.copy())


def reflection_multiplicities(spec: LatticeSpec) -> np.ndarray:
    """Per-axis number of torus sites that reflect onto each box site.

    The two faces are fixed by a reflection and appear once, every other
    site twice.  The same counts fold the dual torus onto the box mode grid.
    """
    w = np.full(spec.box_sites_per_axis, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _axis_maps(spec: LatticeSpec):
    """Per-axis source index and odd-reflection sign for torus site j.

    Torus index j corresponds to corner coordinate j/n; its reflection class
    representative in the box is min(j, M - j).  The sign is 0 at the two
    reflection-fixed indices (j = 0 and j = P), +1 on the box side, -1 on the
    reflected side.
    """
    M = spec.torus_sites_per_axis
    P = spec.L * spec.n
    j = np.arange(M)
    src = np.minimum(j, M - j)
    sign = np.where(j % P == 0, 0.0, np.where(j <= P, 1.0, -1.0))
    return src, sign


def odd_extension(u: Field) -> TorusField:
    """Odd (Dirichlet) periodic extension.

    The value at a torus site fixed by a reflection with sign product -1 is
    forced to 0; in particular the extension vanishes at the image of every
    box boundary site, whatever the boundary values of ``u``.
    """
    spec = u.spec
    src, sign = _axis_maps(spec)
    if spec.d == 1:
        vals = sign * u.values[src]
    else:
        vals = (sign[:, None] * sign[None, :]) * u.values[np.ix_(src, src)]
    return TorusField(spec, vals)


def even_extension(u: Field) -> TorusField:
    """Even (Neumann) periodic extension; restriction is a left inverse."""
    spec = u.spec
    src, _ = _axis_maps(spec)
    if spec.d == 1:
        vals = u.values[src]
    else:
        vals = u.values[np.ix_(src, src)]
    return TorusField(spec, vals)


def extend(u: Field, flavor: str) -> TorusField:
    if flavor == "dirichlet":
        return odd_extension(u)
    if flavor == "neumann":
        return even_extension(u)
    raise ValueError(f"unknown flavor {flavor!r}")


def restrict(v: TorusField) -> Field:
    """Read a torus field off at the embedded box sites (corner indices)."""
    P = v.spec.L * v.spec.n
    sl = (slice(0, P + 1),) * v.spec.d
    return Field(v.spec, v.values[sl].copy())
