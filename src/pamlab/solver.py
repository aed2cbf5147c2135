"""Linear PAM solver with Dirichlet walls, semigroup, eigenpair, and the
quadratic-absorption dual equation.

The generator is H = Lap_dirichlet + xi_e with xi_e the (d = 2 renormalized)
potential.  Solving on the box with zero boundary data is equivalent to
evolving the odd extension on the torus and restricting; since the potential
acts pointwise and the diffusion is diagonal in the sine basis, the Strang
composition uses exact sub-flows and needs no stability restriction.  The
diffusion takes the outer half-steps (half diffusion, full potential, half
diffusion): the dominant error commutator involves the Laplacian twice, and
this arrangement halves its weight compared to the potential-outside one --
both were measured second order, at constants differing by a factor of two.
Boundary values are never touched and stay exactly zero.

The principal eigenpair is one Lanczos solve on the sparse interior
Hamiltonian; the same matrix, made dense, gives the matrix-exponential
scheme that doubles as the convergence oracle for meshes up to n = 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.linalg import expm

from .lattice import Field, LatticeSpec

SCHEMES = ("splitting", "dense-exponential")


@dataclass(frozen=True)
class PotentialEnvironment:
    """Minimal environment protocol: a lattice and a potential array.

    Used for closed-form tests (zero or constant potential); the enhanced
    environment from :mod:`pamlab.environment` provides the same surface.
    The branching intensity defaults to zero (no noise, no branching).
    """

    spec: LatticeSpec
    xi_e_values: np.ndarray
    c_n: float = 0.0
    nu: float = 0.0

    @property
    def xi_e(self) -> np.ndarray:
        return self.xi_e_values


def zero_environment(spec: LatticeSpec) -> PotentialEnvironment:
    return PotentialEnvironment(spec, np.zeros(spec.shape))


def constant_environment(spec: LatticeSpec, c: float) -> PotentialEnvironment:
    return PotentialEnvironment(spec, np.full(spec.shape, float(c)))


@dataclass
class PamProblem:
    env: object                      # anything with .spec and .xi_e
    w0: Field
    T: float
    dt: float
    f: object = None                 # None, Field, or callable t -> Field
    scheme: str = "splitting"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.w0.is_dirichlet():
            raise ValueError("initial condition must vanish on the boundary")

    def forcing_at(self, t: float):
        if self.f is None:
            return None
        if callable(self.f):
            return self.f(t)
        return self.f


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


class _StrangStepper:
    """Precomputed exact sub-flows for one step size."""

    def __init__(self, spec: LatticeSpec, xi_e: np.ndarray, dt: float):
        from .spectral import frequency_grid, laplacian_symbol

        self.spec = spec
        self.dt = dt
        self.interior = spec.interior_slices()
        self.full_pot = np.exp(dt * xi_e)
        self.half_pot = np.exp(0.5 * dt * xi_e)
        ln = laplacian_symbol(frequency_grid(spec, "dirichlet"), spec.n)
        P = spec.L * spec.n
        self._dst_scale = (2.0 * P) ** spec.d
        self.diff_half = np.exp(0.5 * dt * ln)
        self.diff_quarter = np.exp(0.25 * dt * ln)

    def _diffuse(self, w: np.ndarray, sym: np.ndarray) -> None:
        block = w[self.interior]
        c = sfft.dstn(block, type=1) * sym
        w[self.interior] = sfft.dstn(c, type=1) / self._dst_scale

    def step(self, w: np.ndarray) -> None:
        self._diffuse(w, self.diff_half)
        w *= self.full_pot
        self._diffuse(w, self.diff_half)

    def half_step_applied(self, g: np.ndarray) -> np.ndarray:
        out = g.copy()
        self._diffuse(out, self.diff_quarter)
        out *= self.half_pot
        self._diffuse(out, self.diff_quarter)
        return out


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


def _dense_solve(problem: PamProblem) -> Trajectory:
    spec = problem.env.spec
    H = dense_hamiltonian(problem.env)
    P_full = expm(problem.dt * H)
    P_half = expm(0.5 * problem.dt * H)
    steps = _step_count(problem.T, problem.dt)
    sl = spec.interior_slices()
    w = problem.w0.values[sl].ravel().copy()
    times = [0.0]
    states = [problem.w0.copy()]
    t = 0.0
    for _ in range(steps):
        w = P_full @ w
        g = problem.forcing_at(t + 0.5 * problem.dt)
        if g is not None:
            w = w + problem.dt * (P_half @ g.values[sl].ravel())
        t += problem.dt
        full = np.zeros(spec.shape)
        full[sl] = w.reshape((spec.L * spec.n - 1,) * spec.d)
        times.append(t)
        states.append(Field(spec, full))
    return Trajectory(np.array(times), states)


def _step_count(T: float, dt: float) -> int:
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon {T} is not an integer multiple of dt {dt}")
    return steps


def solve_linear_pam(problem: PamProblem) -> Trajectory:
    """Trajectory of dw = (Lap_d + xi_e) w + f with w = 0 on the walls.

    Strang splitting is second order with exact sub-flows; forcing enters
    through midpoint quadrature propagated by a half step, which preserves
    the order.  The dense-exponential scheme exponentiates the full interior
    generator and is exact for f = 0 (up to roundoff).
    """
    if problem.scheme == "dense-exponential":
        return _dense_solve(problem)
    spec = problem.env.spec
    stepper = _StrangStepper(spec, np.asarray(problem.env.xi_e), problem.dt)
    steps = _step_count(problem.T, problem.dt)
    w = problem.w0.values.copy()
    times = [0.0]
    states = [problem.w0.copy()]
    t = 0.0
    for _ in range(steps):
        stepper.step(w)
        g = problem.forcing_at(t + 0.5 * problem.dt)
        if g is not None:
            if not g.is_dirichlet():
                raise ValueError("forcing must vanish on the boundary")
            w += problem.dt * stepper.half_step_applied(g.values)
        t += problem.dt
        times.append(t)
        states.append(Field(spec, w.copy()))
    return Trajectory(np.array(times), states)


def semigroup_apply(env, t: float, phi: Field, dt: float = 1e-3) -> Field:
    """T_t phi = exp(t H) phi; the t = 0 case short-circuits to a copy."""
    if t < 0:
        raise ValueError("negative times are outside the semigroup")
    if t == 0.0:
        return phi.copy()
    steps = max(1, int(round(t / dt)))
    problem = PamProblem(env, phi, T=t, dt=t / steps)
    return solve_linear_pam(problem).final


def mass_bound_sweep(env, T: float, dt: float = 1e-3, samples: int = 10) -> float:
    """sup over the sampled grid of ||T_t 1_interior||_inf up to horizon T."""
    spec = env.spec
    one = np.ones(spec.shape)
    one[spec.boundary_mask()] = 0.0
    traj = solve_linear_pam(PamProblem(env, Field(spec, one), T=T, dt=dt))
    idx = np.unique(np.linspace(0, len(traj.states) - 1, samples).astype(int))
    return max(float(np.abs(traj.states[i].values).max()) for i in idx)


def apply_hamiltonian(env, u: Field) -> Field:
    """Exact H u = Lap_d u + xi_e * u (a Dirichlet field again)."""
    from .spectral import apply_laplacian

    out = apply_laplacian(u, "dirichlet").values + np.asarray(env.xi_e) * u.values
    out[env.spec.boundary_mask()] = 0.0
    return Field(env.spec, out)


def principal_eigenpair(env, tol: float = 1e-8, maxit: int = 2000) -> EigenPair:
    """Largest eigenvalue and positive eigenfunction of H by one Lanczos solve.

    ARPACK (``eigsh``, k = 1, which = "LA") runs on the sparse Hamiltonian
    at machine precision with at most ``maxit`` restarts, started from the
    normalized ones vector: it is strictly positive, so it has a component
    along the Perron vector, and a fixed start makes repeated calls
    bit-identical.  The pair is accepted only if the explicit residual
    ||H v - lambda v||_2 is at most tol * |lambda|; with strict interior
    positivity this certifies the principal pair (Perron-Frobenius).
    ``iterations`` counts the applications of H, the residual check included.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    spec = env.spec
    sl = spec.interior_slices()
    H = hamiltonian(env)
    size = H.shape[0]
    applications = 0

    def apply_H(vec):
        nonlocal applications
        applications += 1
        return H @ vec

    if size == 1:
        lam, v = float(H[0, 0]), np.ones(1)
    else:
        try:
            vals, vecs = eigsh(LinearOperator(H.shape, matvec=apply_H, dtype=H.dtype),
                               k=1, which="LA", v0=np.full(size, size ** -0.5),
                               tol=0, maxiter=maxit)
        except ArpackNoConvergence as exc:
            raise RuntimeError(
                f"Lanczos did not converge in {maxit} restarts; "
                f"residual tolerance {tol:.1e} not reached") from exc
        lam, v = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(apply_H(v) - lam * v))
    if residual > tol * max(abs(lam), 1e-12):
        raise RuntimeError(
            f"eigenpair residual {residual:.3e} exceeds {tol:.1e} * |lambda| "
            f"for lambda {lam:.6e}")

    if v.sum() < 0:
        v = -v
    full = np.zeros(spec.shape)
    full[sl] = v.reshape((spec.L * spec.n - 1,) * spec.d)
    if full[sl].min() <= 0:
        raise ArithmeticError(
            "principal eigenfunction failed strict interior positivity")
    return EigenPair(lam=lam, efunc=Field(spec, full), residual=residual,
                     iterations=applications)


def solve_dual_fkpp(env, phi0: Field, nu: float, t: float, dt: float,
                    store_times=None) -> Field | dict:
    """Mild solution of d(phi) = H phi - nu phi^2 with zero boundary data.

    Strang arrangement: half absorption (exact pointwise 1/(1 + nu s phi)
    flow), full linear step, half absorption.  The comparison solution
    w = T_t phi0 is propagated alongside and the bounds 0 <= phi <= w are
    enforced after every step.

    With ``store_times`` a dict {s: Field} of intermediate states is
    returned (s = 0 maps to a copy of phi0); otherwise the final state.
    """
    if float(np.min(phi0.values)) < 0:
        raise ValueError("initial condition must be nonnegative")
    if not phi0.is_dirichlet():
        raise ValueError("initial condition must vanish on the boundary")
    spec = env.spec
    if t == 0.0:
        return {0.0: phi0.copy()} if store_times is not None else phi0.copy()
    steps = _step_count(t, dt)
    stepper = _StrangStepper(spec, np.asarray(env.xi_e), dt)

    wanted = sorted(set(store_times)) if store_times is not None else []
    for s in wanted:
        k = s / dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"store time {s} is not on the dt grid")
    stored = {}

    def sink(arr: np.ndarray, tau: float) -> None:
        if nu != 0.0:
            arr /= 1.0 + nu * tau * arr

    phi = phi0.values.copy()
    wlin = phi0.values.copy()
    if 0.0 in wanted:
        stored[0.0] = phi0.copy()
    s = 0.0
    for _ in range(steps):
        sink(phi, 0.5 * dt)
        stepper.step(phi)
        sink(phi, 0.5 * dt)
        stepper.step(wlin)
        s += dt
        np.clip(phi, 0.0, None, out=phi)
        if np.any(phi > wlin + 1e-9 * max(1.0, float(wlin.max()))):
            raise ArithmeticError("comparison bound phi <= T_t phi0 violated")
        key = round(s / dt) * dt
        for want in wanted:
            if abs(key - want) < 1e-12 and want not in stored:
                stored[want] = Field(spec, phi.copy())
    if store_times is not None:
        return stored
    return Field(spec, phi)
