"""Dump formats: fields, environment archives, measure snapshots, norm reports.

Text dumps use ``repr`` for floats (shortest round-trip representation), so
reading a dump back reproduces the array bit for bit.  Field dumps, and
each field block of an environment archive, start with the ``n,L,d,flavor``
header line.
"""

from __future__ import annotations

import csv
import numpy as np

from .lattice import Field, LatticeSpec

_ENV_MAGIC = "pamlab-env-v1"


def _header(spec: LatticeSpec, flavor: str) -> str:
    return f"{spec.n},{spec.L},{spec.d},{flavor}"


def _parse_header(line: str, centered: bool = True):
    n, L, d, flavor = line.strip().split(",")
    return LatticeSpec(n=int(n), L=int(L), d=int(d), centered=centered), flavor


def write_field_text(field: Field, path, flavor: str = "none") -> None:
    with open(path, "w") as fh:
        fh.write(_header(field.spec, flavor) + "\n")
        for i, v in enumerate(field.values.ravel()):
            fh.write(f"{i},{float(v)!r}\n")


def read_field_text(path):
    with open(path) as fh:
        spec, flavor = _parse_header(fh.readline())
        vals = np.empty(spec.site_count)
        for line in fh:
            idx, val = line.split(",")
            vals[int(idx)] = float(val)
    return Field(spec, vals.reshape(spec.shape)), flavor


def write_environment(env, path) -> None:
    """Single-file archive: header plus field blocks in the text format."""
    noise = env.noise
    lines = [
        _ENV_MAGIC,
        (
            f"n={noise.spec.n},L={noise.spec.L},d={noise.spec.d},"
            f"phi={noise.distribution},seed={noise.seed},"
            f"kappa_n={env.kappa_n!r},c_n={env.c_n!r},nu={env.nu!r}"
        ),
    ]

    def block(name, values):
        lines.append(f"[{name}]")
        lines.append(_header(noise.spec, "neumann"))
        for i, v in enumerate(values.ravel()):
            lines.append(f"{i},{float(v)!r}")

    block("xi", noise.values)
    if env.X is not None:
        block("X", env.X.values)
    if env.resonant_renormalized is not None:
        block("resonant_renormalized", env.resonant_renormalized.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_environment(path):
    from .environment import EnhancedEnvironment, NoiseRealization

    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != _ENV_MAGIC:
        raise ValueError(f"not an environment archive: {path}")
    meta = dict(kv.split("=", 1) for kv in lines[1].split(","))
    spec = LatticeSpec(n=int(meta["n"]), L=int(meta["L"]), d=int(meta["d"]), centered=True)
    blocks = {}
    name = None
    for line in lines[2:]:
        if line.startswith("["):
            name = line.strip("[]")
            blocks[name] = np.empty(spec.site_count)
            skip_header = True
            continue
        if skip_header:
            skip_header = False
            continue
        idx, val = line.split(",")
        blocks[name][int(idx)] = float(val)
    noise = NoiseRealization(spec, blocks["xi"].reshape(spec.shape),
                             int(meta["seed"]), meta["phi"])
    X = Field(spec, blocks["X"].reshape(spec.shape)) if "X" in blocks else None
    res = (Field(spec, blocks["resonant_renormalized"].reshape(spec.shape))
           if "resonant_renormalized" in blocks else None)
    return EnhancedEnvironment(
        noise, X, res,
        kappa_n=float(meta["kappa_n"]), c_n=float(meta["c_n"]), nu=float(meta["nu"]))


NORM_REPORT_COLUMNS = ("quantity", "n", "L", "alpha", "p", "q", "flavor", "value", "seed")

# survey column -> (quantity label, alpha expression, p, q)
_SURVEY_QUANTITIES = {
    "xi_neg_reg": ("xi_holder", lambda a, e: a - 2, "inf", "inf"),
    "xi_pos_reg": ("xi_pos_holder", lambda a, e: -e, "inf", "inf"),
    "xi_pos_l2": ("xi_pos_l2", lambda a, e: 0.0, "2", "inf"),
    "X_reg": ("X_holder", lambda a, e: a, "inf", "inf"),
    "resonant_renorm": ("resonant_renormalized_holder", lambda a, e: 2 * a - 2, "inf", "inf"),
    "resonant_raw": ("resonant_raw_holder", lambda a, e: 2 * a - 2, "inf", "inf"),
    "kappa_n": ("kappa_n", lambda a, e: float("nan"), "", ""),
}


def write_norm_report_csv(rows, path, L: int) -> None:
    """Survey rows in the long `quantity,n,L,alpha,p,q,flavor,value,seed` form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(NORM_REPORT_COLUMNS)
        for r in rows:
            for col, (label, alpha_fn, p, q) in _SURVEY_QUANTITIES.items():
                val = r[col]
                if isinstance(val, float) and np.isnan(val):
                    continue
                alpha = alpha_fn(r["alpha"], r["eps"])
                w.writerow([
                    label, r["n"], L,
                    "" if np.isnan(alpha) else repr(float(alpha)),
                    p, q, "neumann", repr(float(val)), r["seed"],
                ])


def write_measure_csv(snapshots, path) -> None:
    """`t,L,site,mass` rows; sites as ;-joined centered integer coordinates."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "L", "site", "mass"])
        for t, L, site, mass in snapshots:
            w.writerow([repr(float(t)), L, site, repr(float(mass))])


def site_label(spec: LatticeSpec, flat: int) -> str:
    """Centered integer coordinates of a flat ambient index, ;-joined."""
    P = spec.L * spec.n
    S = spec.box_sites_per_axis
    if spec.d == 1:
        return str(flat - P // 2)
    i, j = divmod(flat, S)
    return f"{i - P // 2};{j - P // 2}"
