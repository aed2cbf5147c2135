"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
pre-registered seeds and 3-standard-error thresholds; exact criteria use the
stated tolerances.  Tolerances on algebraic identities are understood
relative to the magnitude of the quantities involved (absolute when that
magnitude is at most one).
"""

import math
import os

import numpy as np

from pamlab import verify
from pamlab.besov import all_blocks, bony_decomposition, build_partition
from pamlab.cli import cmd_gen_env, cmd_simulate, cmd_solve, cmd_survey, parse_config_text
from pamlab.environment import (
    build_environment,
    regularity_norm_survey,
    nu_closed_form,
    positive_part_statistics,
    positive_part_variance,
    sample_noise,
    survey_medians,
)
from pamlab.lattice import (
    Field,
    LatticeSpec,
    even_extension,
    odd_extension,
)
from pamlab.solver import (
    PamProblem,
    dense_hamiltonian,
    principal_eigenpair,
    solve_linear_pam,
)
from pamlab.spectral import (
    MultiplierSpec,
    apply_laplacian,
    apply_laplacian_spectral,
    basis_field,
    dense_basis_matrix,
    fourier_multiplier,
    frequency_grid,
    laplacian_symbol,
    mode_axis,
    periodic_multiplier,
    renormalization_constant,
)

TOL_ALGEBRA = 1e-10


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def rand_field(spec, seed, dirichlet=False):
    rng = np.random.default_rng(seed)
    u = Field(spec, rng.normal(size=spec.shape))
    if dirichlet:
        u.values[spec.boundary_mask()] = 0.0
    return u


def rel_err(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def test_criterion_01_exact_algebra():
    worst = 0.0
    for d in (1, 2):
        spec = LatticeSpec(n=8 if d == 1 else 4, L=2, d=d)
        part = build_partition(spec)
        rng = np.random.default_rng(42)
        u = Field(spec, rng.normal(size=spec.shape))
        w = Field(spec, rng.normal(size=spec.shape))
        # extension product identities (sign/copy operations, exact)
        prod = Field(spec, u.values * w.values)
        assert np.array_equal(even_extension(prod).values,
                              even_extension(u).values * even_extension(w).values)
        assert np.array_equal(odd_extension(prod).values,
                              odd_extension(u).values * even_extension(w).values)
        # multiplier commutation with the odd extension
        sym = MultiplierSpec(
            lambda k: 1.0 + (np.cos(2 * np.pi * k) - 1.0).sum(axis=-1), "probe")
        ud = Field(spec, u.values.copy())
        ud.values[spec.boundary_mask()] = 0.0
        lhs = odd_extension(fourier_multiplier(sym, ud, "dirichlet")).values
        rhs = periodic_multiplier(sym, odd_extension(ud)).values
        worst = max(worst, rel_err(lhs, rhs))
        # Bony decomposition and LP resummation
        lh, hl, res = bony_decomposition(u, w, "neumann", "neumann", part)
        worst = max(worst, rel_err(lh.values + hl.values + res.values,
                                   u.values * w.values))
        total = np.sum(all_blocks(part, u, "neumann"), axis=0)
        worst = max(worst, rel_err(total, u.values))
        # dense orthonormality via weighted Gram matrices
        for flavor in ("dirichlet", "neumann"):
            B = dense_basis_matrix(spec, flavor)
            P = spec.L * spec.n
            a = np.ones(P + 1)
            if flavor == "dirichlet":
                a[0] = a[P] = 0.0
            else:
                a[0] = a[P] = 0.5
            wts = a if spec.d == 1 else np.outer(a, a)
            G = B.T @ (wts.ravel()[:, None] * B) / spec.n ** spec.d
            worst = max(worst, float(np.abs(G - np.eye(B.shape[1])).max()))
        # Dirichlet fields vanish on the boundary exactly
        blk = all_blocks(part, ud, "dirichlet")
        for b in blk:
            assert np.all(b[spec.boundary_mask()] == 0.0)
    report(1, "exact-algebra", worst < TOL_ALGEBRA, f"worst deviation {worst:.2e}")


def test_criterion_02_laplacian_consistency():
    worst = 0.0
    for d in (1, 2):
        spec = LatticeSpec(n=8, L=2, d=d)
        for seed in range(20):
            u = rand_field(spec, seed)
            a = apply_laplacian(u, "neumann").values
            b = apply_laplacian_spectral(u, "neumann").values
            worst = max(worst, rel_err(a, b))
        # eigen-relation on every basis mode
        for flavor in ("dirichlet", "neumann"):
            kk = frequency_grid(spec, flavor)
            lam = laplacian_symbol(kk, spec.n)
            modes = mode_axis(spec, flavor)
            probe = modes if d == 1 else [(m, m) for m in modes]
            for i, m in enumerate(probe):
                mm = (m,) if d == 1 else m
                lk = basis_field(spec, flavor, mm)
                lhs = apply_laplacian(lk, flavor).values
                lam_i = lam[(i, i)] if d == 2 else lam[i]
                worst = max(worst, rel_err(lhs, lam_i * lk.values))
    report(2, "laplacian-consistency", worst < TOL_ALGEBRA, f"worst deviation {worst:.2e}")


def test_criterion_03_kappa_log_growth():
    ks = {n: renormalization_constant(LatticeSpec(n=n, L=2, d=2))
          for n in (16, 32, 64, 128)}
    diffs = [ks[32] - ks[16], ks[64] - ks[32], ks[128] - ks[64]]
    positive = all(x > 0 for x in diffs)
    within = max(diffs) / min(diffs) <= 1.1
    kL2 = ks[64]
    kL4 = renormalization_constant(LatticeSpec(n=64, L=4, d=2))
    box_ok = abs(kL2 - kL4) <= 5.0 / 4  # N = 4 for the smaller box
    report(3, "kappa-log-growth", positive and within and box_ok,
           f"diffs {[round(x, 5) for x in diffs]}, spread "
           f"{max(diffs) / min(diffs):.4f}, |L2-L4| {abs(kL2 - kL4):.2e}")


def test_criterion_04_stochastic_survey():
    rows = regularity_norm_survey([8, 16, 32], range(50), alpha=0.8, eps=0.1,
                             L=2, d=2, distribution="uniform")
    flat_ok = True
    detail = []
    for key in ("xi_neg_reg", "X_reg", "resonant_renorm"):
        med = survey_medians(rows, key)
        vals = list(med.values())
        ratio = max(vals) / min(vals)
        flat_ok = flat_ok and ratio < 2.0
        detail.append(f"{key} ratio {ratio:.2f}")
    raw = survey_medians(rows, "resonant_raw")
    rv = [raw[n] for n in (8, 16, 32)]
    increasing = rv[0] < rv[1] < rv[2]
    detail.append(f"raw medians {[round(v, 3) for v in rv]}")
    report(4, "stochastic-survey", flat_ok and increasing, "; ".join(detail))


def test_criterion_05_nu_identification():
    spec = LatticeSpec(n=64, L=2, d=2)
    noise = sample_noise("gaussian", 31, spec)
    stats = positive_part_statistics(noise)
    nu = nu_closed_form("gaussian")
    se_pos = math.sqrt(positive_part_variance("gaussian") / stats.site_count)
    se_abs = math.sqrt((1.0 - (2 * nu) ** 2) / stats.site_count)
    ok_pos = abs(stats.pos_mean - nu) <= 3 * se_pos
    ok_abs = abs(stats.abs_mean - 2 * nu) <= 3 * se_abs
    report(5, "nu-identification", ok_pos and ok_abs,
           f"pos {stats.pos_mean:.5f} vs {nu:.5f} (3se {3 * se_pos:.5f}); "
           f"abs {stats.abs_mean:.5f} vs {2 * nu:.5f} (3se {3 * se_abs:.5f})")


def test_criterion_06_solver_oracle():
    # oracle equivalence on unit vectors (the linear-algebra convention for
    # comparisons against a dense matrix exponential)
    T, dt = 0.1, 1e-3
    worst = 0.0
    ratios = []
    for seed in range(20):
        env = build_environment(8, 2, 2, "gaussian", seed)
        w0 = basis_field(env.spec, "dirichlet", (1, 1))
        w0 = Field(env.spec, w0.values / np.linalg.norm(w0.values))
        dense = solve_linear_pam(
            PamProblem(env, w0, T=T, dt=dt, scheme="dense-exponential")).final
        s1 = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt)).final
        s2 = solve_linear_pam(PamProblem(env, w0, T=T, dt=dt / 2)).final
        e1 = float(np.abs(s1.values - dense.values).max())
        e2 = float(np.abs(s2.values - dense.values).max())
        worst = max(worst, e1)
        ratios.append(e1 / e2)
    order_ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(6, "solver-oracle", worst <= 1e-4 and order_ok,
           f"max sup-diff {worst:.2e} (<= 1e-4), dt-halving ratios "
           f"[{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_07_principal_eigenpair():
    from scipy.linalg import eigh

    ok = True
    details = []
    for seed in (0, 1, 2):
        env = build_environment(8, 2, 2, "gaussian", seed)
        H = dense_hamiltonian(env)
        evals, evecs = eigh(H)
        pair = principal_eigenpair(env, tol=1e-10)
        sl = env.spec.interior_slices()
        v = pair.efunc.values[sl].ravel()
        cos = abs(float(v @ evecs[:, -1])) / float(np.linalg.norm(v))
        lam_err = abs(pair.lam - evals[-1])
        pos = pair.efunc.values[sl].min() > 0
        ok = ok and lam_err < 1e-6 and cos >= 1 - 1e-8 and pos
        details.append(f"seed {seed}: lam-err {lam_err:.1e}, 1-cos {1 - cos:.1e}")
    report(7, "principal-eigenpair", ok, "; ".join(details))


def test_criterion_08_moment_duality():
    details = []
    ok = True
    # d = 1, n = 32, L = 2, t = 0.25, 2000 replicas, fixed environment
    env = build_environment(32, 2, 1, "gaussian", seed=101)
    phi = verify.smooth_bump(env.spec, 0.5)
    rep = verify.test_moment_duality(env, L=2, t=0.25, phi=phi, replicas=2000)
    ok = ok and rep.passed
    details.append(f"d=1 |diff| {abs(rep.statistic - rep.reference):.4f} "
                   f"3se {3 * rep.se:.4f}")
    # d = 2, n = 16 with renormalized rates
    env2 = build_environment(16, 2, 2, "gaussian", seed=101)
    phi2 = verify.smooth_bump(env2.spec, 0.5)
    rep2 = verify.test_moment_duality(env2, L=2, t=0.25, phi=phi2, replicas=2000)
    ok = ok and rep2.passed
    details.append(f"d=2 |diff| {abs(rep2.statistic - rep2.reference):.4f} "
                   f"3se {3 * rep2.se:.4f}")
    report(8, "moment-duality", ok, "; ".join(details))


def test_criterion_09_martingale_suite():
    details = []
    env = build_environment(32, 2, 1, "gaussian", seed=101)
    phi = verify.smooth_bump(env.spec, 0.5)
    rep = verify.test_martingale_qv(env, L=2, T=0.25, phi=phi, replicas=2000)
    details.append(
        f"K mean {rep.statistic:+.4f} (3se {3 * rep.se:.4f}); "
        f"QV paired diff {rep.extras['qv_paired_diff']:+.5f} "
        f"(3se {3 * rep.extras['qv_paired_se']:.5f})")
    env2 = build_environment(16, 2, 2, "gaussian", seed=101)
    phi0 = verify.smooth_bump(env2.spec, 0.3)
    rep2 = verify.test_laplace_functional(env2, L=2, t=0.25, phi0=phi0, replicas=2000)
    devs = [abs(rep2.extras[f"mean_s{j}"] - rep2.extras["n0"]) for j in (1, 2)]
    ses = [rep2.extras[f"se_s{j}"] for j in (1, 2)]
    details.append(
        f"Laplace devs {[f'{x:.5f}' for x in devs]} vs 3se {[f'{3 * s:.5f}' for s in ses]}")
    report(9, "martingale-suite", rep.passed and rep2.passed, "; ".join(details))


def test_criterion_10_coupling_order():
    env = build_environment(16, 2, 1, "gaussian", seed=7)
    rep = verify.test_ordering(env, Ls=[2, 4, 6], T=0.2,
                               snapshot_times=[0.0, 0.1, 0.2],
                               replicas=1000, L_max=8)
    details = [f"violations {int(rep.statistic)} over {rep.extras['atoms_checked']} atoms"]
    ok = rep.passed
    for n in (16, 32):
        envn = build_environment(n, 2, 1, "gaussian", seed=7)
        tail = verify.test_mass_tail(envn, L=2, T=0.4, replicas=1000,
                                     R_grid=[2.0, 4.0, 8.0], L_max=8)
        ok = ok and tail.passed
        details.append(
            f"n={n} tail(2)={tail.extras['tail_R2']:.3f} tail(8)={tail.extras['tail_R8']:.3f}")
    report(10, "coupling-order", ok, "; ".join(details))


def test_criterion_11_reproducibility(tmp_path):
    text = ("d=1\nn_list=16\nseeds=101\nT=0.1\ndt=0.001\nreplicas=40\n"
            "L_list=2\nL_max=4\n")
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        for cmd in (cmd_gen_env, cmd_solve, cmd_simulate, cmd_survey):
            cmd(parse_config_text(text), str(out))
        outs.append(out)
    mismatched = []
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        if name == "manifest.json":
            continue  # timestamps live only here
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            mismatched.append(name)
    report(11, "reproducibility", not mismatched,
           f"{len(names) - 1} data files byte-identical"
           + (f", mismatched: {mismatched}" if mismatched else ""))
