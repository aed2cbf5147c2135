"""Linear PAM solver with Dirichlet walls, semigroup, eigenpair, and the
quadratic-absorption dual equation.

The generator is H = Lap_dirichlet + xi_e with xi_e the (d = 2 renormalized)
potential.  Solving on the box with zero boundary data is equivalent to
evolving the odd extension on the torus and restricting; since the potential
acts pointwise and the diffusion is diagonal in the sine basis, the Strang
composition uses exact sub-flows and needs no stability restriction.  The
diffusion takes the outer half-steps (half diffusion, full reaction, half
diffusion): the dominant error commutator involves the Laplacian twice, and
this arrangement halves its weight compared to the potential-outside one --
both were measured second order, at constants differing by a factor of two.

One semilinear stepper serves every equation: its pointwise reaction is the
exact flow of dz = xi_e z - nu z^2, which is the factor exp(h xi_e) when
nu = 0 (linear PAM, semigroup) and z e^{h xi_e} / (1 + nu z c) with
c = expm1(h xi_e) / xi_e otherwise (the dual FKPP equation).

States evolve as contiguous arrays of the (L n - 1)^d interior sites; the
zero boundary values are added back only when a state is returned.  The
Dirichlet heat flow is a tensor product of one 1-D propagator per axis, so
up to a measured size a diffusion is d small matrix products, and a DST-I
pair above it.  Adjacent half-diffusions of consecutive steps merge into
one full diffusion, so a step costs one diffusion; the trailing
half-diffusion is applied only where a state is read out.  A trajectory
keeps t = 0, the requested times and T.
The dual solve runs its absorbed chain beside the linear comparison chain
T_t phi0 and checks 0 <= phi <= T_t phi0 where it reads a state out.

The principal eigenpair is one shift-invert solve: a sparse factorisation
of sigma I - H, sigma the largest interior potential value, and ARPACK on
its inverse.  The same interior Hamiltonian, made dense, gives the
matrix-exponential scheme that doubles as the convergence oracle for meshes
up to n = 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.linalg import blas, expm

from .lattice import Field, LatticeSpec

SCHEMES = ("splitting", "dense-exponential")


@dataclass(frozen=True)
class PotentialEnvironment:
    """Minimal environment protocol: a lattice and a potential array.

    Used for closed-form tests (zero or constant potential) and, from
    ``branching.ambient_rates``, as the simulator's potential on the ambient
    box; the enhanced environment from :mod:`pamlab.environment` provides
    the same surface.  With no noise there is no branching intensity: ``nu``
    is the constant 0, not a field.
    """

    spec: LatticeSpec
    xi_e_values: np.ndarray
    nu = 0.0

    def __post_init__(self):
        if np.shape(self.xi_e_values) != self.spec.shape:
            raise ValueError("potential shape does not match the box")

    @property
    def xi_e(self) -> np.ndarray:
        return self.xi_e_values


@dataclass
class PamProblem:
    env: object                      # anything with .spec and .xi_e
    w0: Field
    T: float
    dt: float
    scheme: str = "splitting"

    def __post_init__(self):
        _finite_positive("dt", self.dt)
        _finite_positive("horizon", self.T)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.w0.is_dirichlet():
            raise ValueError("initial condition must vanish on the boundary")


@dataclass
class Trajectory:
    times: np.ndarray
    states: list

    def __post_init__(self):
        for s in self.states:
            if not s.is_dirichlet():
                raise ValueError("trajectory state violates the Dirichlet wall")

    def at(self, t: float) -> Field:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} not on the stored grid")
        return self.states[i]

    @property
    def final(self) -> Field:
        return self.states[-1]


@dataclass
class EigenPair:
    lam: float
    efunc: Field
    residual: float
    iterations: int


def _interior_field(spec: LatticeSpec, values: np.ndarray) -> Field:
    """The box field with the given interior values and zero boundary."""
    full = np.zeros(spec.shape)
    full[spec.interior_slices()] = np.reshape(values, (spec.L * spec.n - 1,) * spec.d)
    return Field(spec, full)


def _absorption(spec: LatticeSpec, nu):
    """nu as a float, or as a box array when it varies by site.

    An array must have the box shape; every entry, like a scalar nu, must
    be finite and nonnegative, else ``ValueError``.
    """
    arr = np.asarray(nu, dtype=np.float64)
    if arr.ndim and arr.shape != spec.shape:
        raise ValueError(f"absorption coefficient nu has shape {arr.shape}, "
                         f"not the box shape {spec.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        got = float(arr) if arr.ndim == 0 else f"entries in [{arr.min()}, {arr.max()}]"
        raise ValueError(f"absorption coefficient nu must be finite and nonnegative, got {got}")
    return float(arr) if arr.ndim == 0 else arr


# Largest interior side m = L n - 1, per dimension, at which ``_HeatFlow``
# applies D(tau) as propagator products (crossover table: ``_StrangStepper``).
_DENSE_MAX_SIDE = {1: 383, 2: 351}


class _HeatFlow:
    """The Dirichlet heat flow D(tau) = exp(tau n^2 Lap) on interior arrays,
    for tau = h (``full``) and tau = h/2 (``half``).

    D(tau) is a tensor product of one m x m propagator per axis, m = L n - 1:
    P_tau = S diag(e^{tau l(k)}) S 2/(m+1), S the DST-I matrix and l the 1-D
    ``laplacian_symbol``.  Up to ``_DENSE_MAX_SIDE`` the flow is that
    product, P y at d = 1 and P Y P at d = 2 (P symmetric), through scipy's
    BLAS: the eigensolver's LAPACK runs on the same library, so the two
    share one thread pool rather than leaving a second one spinning.  Above
    the bound it is a DST-I, the symbol divided by the DST-I scale (2 L n)^d,
    and a DST-I.  The choice is made once from (d, m).
    """

    def __init__(self, spec: LatticeSpec, h: float):
        from .spectral import frequency_grid, laplacian_symbol, mode_axis

        m = spec.L * spec.n - 1
        self.dense = m <= _DENSE_MAX_SIDE[spec.d]
        if self.dense:
            l1 = laplacian_symbol(mode_axis(spec, "dirichlet")[:, None] / spec.N, spec.n)
            basis = sfft.dst(np.eye(m), type=1, axis=0) / (2.0 * spec.L * spec.n)

            def propagator(tau):
                # S diag(e^{tau l}) S 2/(m+1), made exactly symmetric, in Fortran order
                p = sfft.dst(basis * np.exp(tau * l1)[:, None], type=1, axis=0)
                return np.asfortranarray(0.5 * (p + p.T))

            self.full, self.half = propagator(h), propagator(0.5 * h)
        else:
            ln = laplacian_symbol(frequency_grid(spec, "dirichlet"), spec.n)
            scale = (2.0 * spec.L * spec.n) ** spec.d
            self.full = np.exp(h * ln) / scale
            self.half = np.exp(0.5 * h * ln) / scale

    def diffuse(self, op: np.ndarray, y: np.ndarray) -> np.ndarray:
        """D(tau) y as a new array, op being ``full`` or ``half``."""
        if not self.dense:
            c = sfft.dstn(y, type=1)
            c *= op
            return sfft.dstn(c, type=1, overwrite_x=True)
        if y.ndim == 1:
            return blas.dgemv(1.0, op, y)
        # (P Y P)^T = P Y^T P with P symmetric; Y^T is y.T, Fortran-ordered
        return blas.dgemm(1.0, blas.dgemm(1.0, op, y.T), op).T


class _StrangStepper:
    """Strang steps D(h/2) R(h) D(h/2) of one step size h on the interior.

    D is the Dirichlet heat flow (``_HeatFlow``) and R the exact flow of the
    pointwise reaction dz = xi_e z - nu z^2 over h, z -> z e^{h xi_e} /
    (1 + nu z c) with c = expm1(h xi_e) / xi_e (c = h where xi_e = 0); nu is
    a scalar or a box array (``_absorption``).  With nu = 0 everywhere R is
    the single factor exp(h xi_e).  Both act on interior arrays, R in place
    on the new array D returns; steppers of one (spec, h) may share one
    ``heat``.

    The stepper carries one chain from ``restart(w)`` in real space.  It
    holds the *open* state y: R applied, the trailing D(h/2) not yet.
    ``advance`` merges that pending half-diffusion with the next step's
    leading one, y <- R(D(h) y) (D(h/2) after a restart), so a step is one
    diffusion; ``state`` closes a copy, D(h/2) y, and leaves the chain as it
    was.  ``state`` is defined once the chain has advanced.

    One step in microseconds, median of three runs on a two-core x86-64
    host with OpenBLAS at two threads (one thread in brackets), m interior
    sites per axis, for D as propagator products and as a DST-I pair:

    =  ====  ===============  ===============
    d  m     products         DST-I pair
    =  ====  ===============  ===============
    1  63    2.4 (1.6)        24 (20)
    1  127   3.5 (3.5)        24 (21)
    1  255   11 (11)          25 (23)
    1  383   23 (25)          26 (35)
    1  511   64 (57)          41 (29)
    1  1023  179 (352)        46 (45)
    2  31    4.2 (4.7)        44 (42)
    2  63    21 (27)          119 (96)
    2  127   190 (245)        300 (450)
    2  255   970 (1330)       1740 (1730)
    2  351   2000 (3440)      4370 (4700)
    2  383   3300 (5270)      4000 (5200)
    2  511   5700 (8400)      7900 (7700)
    2  767   17400 (29100)    24100 (22200)
    =  ====  ===============  ===============

    The d = 1 product is a memory-bound matrix-vector product and loses
    past m ~ 400.  The d = 2 products thread: they win to m ~ 1000 at two
    threads but only to m ~ 350 at one, so ``_DENSE_MAX_SIDE`` stops there
    and no size is slower at either setting.  The DST-I cost also depends
    on the factors of 2 (m + 1): at m = 385 (2 x 193) a d = 1 pair takes
    69 us, against 41 at m = 511.
    """

    def __init__(self, spec: LatticeSpec, xi_e: np.ndarray, dt: float, nu=0.0,
                 heat: _HeatFlow | None = None):
        sl = spec.interior_slices()
        xi = np.asarray(xi_e)[sl]
        nu = _absorption(spec, nu)
        self.full_pot = np.exp(dt * xi)
        self.nu_c = None
        if np.any(nu != 0.0):
            c = np.full(xi.shape, dt)
            np.divide(np.expm1(dt * xi), xi, out=c, where=xi != 0.0)
            self.nu_c = (nu if np.ndim(nu) == 0 else nu[sl]) * c
        self.heat = _HeatFlow(spec, dt) if heat is None else heat
        self._y = None
        self._restarted = False

    def restart(self, w: np.ndarray) -> None:
        """Start the chain from the closed interior state w (not modified)."""
        self._y = w
        self._restarted = True

    def react(self, y: np.ndarray) -> None:
        """R(h) in place on the interior values y."""
        if self.nu_c is None:
            y *= self.full_pot
            return
        denom = self.nu_c * y
        denom += 1.0
        y *= self.full_pot
        y /= denom

    def advance(self) -> None:
        """One step: the pending diffusion, then R(h)."""
        heat = self.heat
        y = heat.diffuse(heat.half if self._restarted else heat.full, self._y)
        self.react(y)
        self._y = y
        self._restarted = False

    def state(self) -> np.ndarray:
        """The closed state: the open one diffused by D(h/2)."""
        return self.heat.diffuse(self.heat.half, self._y)


def hamiltonian(env):
    """H = Lap_dirichlet + diag(xi_e) on the flattened interior sites (CSR)."""
    from scipy import sparse

    spec = env.spec
    m = spec.L * spec.n - 1
    A1 = float(spec.n) ** 2 * sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    if spec.d == 1:
        lap = A1
    else:
        I = sparse.identity(m)
        lap = sparse.kron(A1, I) + sparse.kron(I, A1)
    xi = np.asarray(env.xi_e)[spec.interior_slices()].ravel()
    return (lap + sparse.diags(xi)).tocsr()


def dense_hamiltonian(env) -> np.ndarray:
    """The Hamiltonian as a dense array: the oracle for small meshes."""
    return hamiltonian(env).toarray()


def _finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _step_count(T: float, dt: float) -> int:
    """T / dt as a step count; a non-finite or non-positive T or dt, or a T
    off the dt grid, raises ``ValueError``."""
    _finite_positive("horizon", T)
    _finite_positive("dt", dt)
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon {T} is not an integer multiple of dt {dt}")
    return steps


def time_grid(T: float, dt: float) -> np.ndarray:
    """The step times 0, dt, ..., T, accumulated step by step as the solvers do."""
    return np.concatenate(([0.0], np.cumsum(np.full(_step_count(T, dt), dt))))


def _grid_steps(times, T: float, dt: float) -> dict:
    """Map each time to its step on the dt grid of [0, T]; others raise."""
    steps = _step_count(T, dt)
    out = {}
    for s in () if times is None else times:
        k = round(s / dt)
        if abs(s / dt - k) > 1e-9 or not 0 <= k <= steps:
            raise ValueError(f"store time {s} is not a multiple of dt {dt} in [0, {T}]")
        out[s] = k
    return out


def _dense_solve(problem: PamProblem, grid: np.ndarray, kept: set) -> Trajectory:
    spec = problem.env.spec
    H = dense_hamiltonian(problem.env)
    P_full = expm(problem.dt * H)
    w = problem.w0.values[spec.interior_slices()].ravel().copy()
    times = [0.0]
    states = [problem.w0.copy()]
    for k in range(1, len(grid)):
        w = P_full @ w
        if k in kept:
            times.append(grid[k])
            states.append(_interior_field(spec, w))
    return Trajectory(np.array(times), states)


def solve_linear_pam(problem: PamProblem, store_times=None) -> Trajectory:
    """Trajectory of dw = (Lap_d + xi_e) w with w = 0 on the walls.

    Strang splitting is second order with exact sub-flows.  The
    dense-exponential scheme exponentiates the full interior generator and
    is exact (up to roundoff).

    The trajectory holds t = 0, each of ``store_times`` and the horizon T;
    a store time off the dt grid or outside [0, T] raises ``ValueError``.
    The splitting runs one chain of merged half-diffusions on the interior
    (one diffusion per step, ``_HeatFlow``) and closes a copy of it only at
    a stored time.
    """
    dt = problem.dt
    grid = time_grid(problem.T, dt)
    kept = set(_grid_steps(store_times, problem.T, dt).values())
    kept.add(len(grid) - 1)
    if problem.scheme == "dense-exponential":
        return _dense_solve(problem, grid, kept)
    spec = problem.env.spec
    chain = _StrangStepper(spec, problem.env.xi_e, dt)
    chain.restart(problem.w0.values[spec.interior_slices()])
    times = [0.0]
    states = [problem.w0.copy()]
    for k in range(1, len(grid)):
        chain.advance()
        if k in kept:
            times.append(grid[k])
            states.append(_interior_field(spec, chain.state()))
    return Trajectory(np.array(times), states)


def semigroup_apply(env, t: float, phi: Field, dt: float = 1e-3) -> Field:
    """T_t phi = exp(t H) phi; at t = 0 a copy, once dt is checked."""
    if t < 0:
        raise ValueError("negative times are outside the semigroup")
    if t != 0.0:
        _finite_positive("time t", t)
    _finite_positive("dt", dt)
    if t == 0.0:
        return phi.copy()
    steps = max(1, int(round(t / dt)))
    problem = PamProblem(env, phi, T=t, dt=t / steps)
    return solve_linear_pam(problem).final


def apply_hamiltonian(env, u: Field) -> Field:
    """Exact H u = Lap_d u + xi_e * u (a Dirichlet field again)."""
    from .spectral import apply_laplacian

    out = apply_laplacian(u, "dirichlet").values + np.asarray(env.xi_e) * u.values
    out[env.spec.boundary_mask()] = 0.0
    return Field(env.spec, out)


def principal_eigenpair(env, tol: float = 1e-8) -> EigenPair:
    """Largest eigenvalue and positive eigenfunction of H by one shift-invert solve.

    The shift sigma is the largest interior potential value.  Then
    sigma I - H = -Lap_dirichlet + (sigma - xi_e) is positive definite,
    because -Lap_dirichlet is and sigma - xi_e >= 0, so every eigenvalue of H
    lies below sigma and lambda = sigma - 1/theta, theta the top eigenvalue
    of (sigma I - H)^{-1}.  One sparse LU factorisation of sigma I - H
    (SuperLU, minimum-degree ordering on A^T + A) serves ARPACK (``eigsh``,
    k = 1) on that inverse at machine precision, started from the normalized
    ones vector: it is strictly positive, so it has a component along the
    Perron vector, and a fixed start makes repeated calls bit-identical.

    The pair is accepted only if the explicit residual ||H v - lambda v||_2
    is at most tol * max(|lambda|, 1): H is symmetric, so the residual bounds
    the distance from lambda to the spectrum, and lambda is certified to
    relative tol when |lambda| >= 1 and to absolute tol below, where the
    critical box lambda -> 0 lies.  With strict interior positivity this
    certifies the principal pair (Perron-Frobenius).  ``iterations`` counts
    the solves with the factor.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    H = hamiltonian(env)
    size = H.shape[0]
    solves = 0
    if size == 1:
        lam, v = float(H[0, 0]), np.ones(1)
    else:
        sigma = float(np.max(np.asarray(env.xi_e)[env.spec.interior_slices()]))
        lu = splu((sigma * sparse.identity(size) - H).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})

        def solve(vec):
            nonlocal solves
            solves += 1
            return lu.solve(vec)

        vals, vecs = eigsh(LinearOperator(H.shape, matvec=solve, dtype=H.dtype),
                           k=1, which="LA", v0=np.full(size, size ** -0.5), tol=0)
        lam, v = sigma - 1.0 / float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(H @ v - lam * v))
    if residual > tol * max(abs(lam), 1.0):
        raise RuntimeError(
            f"eigenpair residual {residual:.3e} exceeds {tol:.1e} * max(|lambda|, 1) "
            f"for lambda {lam:.6e}")

    if v.sum() < 0:
        v = -v
    if v.min() <= 0:
        raise ArithmeticError(
            "principal eigenfunction failed strict interior positivity")
    return EigenPair(lam=lam, efunc=_interior_field(env.spec, v),
                     residual=residual, iterations=solves)


def solve_dual_fkpp(env, phi0: Field, nu, t: float, dt: float,
                    store_times=None) -> Field | dict:
    """Mild solution of d(phi) = H phi - nu phi^2 with zero boundary data.

    One semilinear Strang chain D(h/2) R(h) D(h/2), R the exact flow of
    dz = xi_e z - nu z^2, with merged half-diffusions (one diffusion per
    step).  For nu > 0 the comparison solution w = T_t phi0 runs beside it
    as a nu = 0 chain of the same stepper, sharing its propagators, so a
    step costs two diffusions.  Both chains are closed (one diffusion each)
    only at a stored time and at t; there phi is clipped
    at zero and the bound phi <= w + 1e-9 max(1, max w) is enforced, with
    ``ArithmeticError`` on a violation.  With nu = 0 the one chain is w, and
    phi is ``semigroup_apply`` clipped at zero, bit for bit.

    With ``store_times`` a dict {s: Field} of the states at exactly those
    times is returned (s = 0 maps to a copy of phi0); otherwise the final
    state.  At t = 0 dt and the store times (each 0) are checked too.
    nu is a scalar or a box array of site-dependent coefficients.  A store
    time off the dt grid or outside [0, t], a non-finite or negative t, a
    non-finite or non-positive dt, a nu of another shape or with a negative
    or non-finite entry, or a negative or non-Dirichlet phi0 raises
    ``ValueError``.
    """
    nu = _absorption(env.spec, nu)
    if float(np.min(phi0.values)) < 0:
        raise ValueError("initial condition must be nonnegative")
    if not phi0.is_dirichlet():
        raise ValueError("initial condition must vanish on the boundary")
    spec = env.spec
    if t == 0.0:
        _finite_positive("dt", dt)
        if any(s != 0 for s in store_times or ()):
            raise ValueError(f"store times {store_times} must all be 0 at t = 0")
        return phi0.copy() if store_times is None else {s: phi0.copy() for s in store_times}
    wanted = _grid_steps(store_times, t, dt)
    steps = _step_count(t, dt)
    sl = spec.interior_slices()
    linear = _StrangStepper(spec, env.xi_e, dt)
    absorbed = (_StrangStepper(spec, env.xi_e, dt, nu, heat=linear.heat)
                if np.any(nu != 0.0) else None)
    chains = [linear] if absorbed is None else [linear, absorbed]
    for chain in chains:
        chain.restart(phi0.values[sl])
    stored = {s: phi0.copy() for s, k in wanted.items() if k == 0}
    closes = set(wanted.values()) | {steps}
    for k in range(1, steps + 1):
        for chain in chains:
            chain.advance()
        if k not in closes:
            continue
        wlin = linear.state()
        phi = wlin.copy() if absorbed is None else absorbed.state()
        np.clip(phi, 0.0, None, out=phi)
        if np.any(phi > wlin + 1e-9 * max(1.0, float(wlin.max()))):
            raise ArithmeticError("comparison bound phi <= T_t phi0 violated")
        for s, ks in wanted.items():
            if ks == k:
                stored[s] = _interior_field(spec, phi)
    if store_times is not None:
        return stored
    return _interior_field(spec, phi)
