"""Dump formats: fields, environment archives, measure snapshots, norm reports.

Text dumps use ``repr`` for floats (shortest round-trip representation), so
reading a dump back reproduces the array bit for bit.  Field dumps, and
each field block of an environment archive, start with the ``n,L,d,flavor``
header line and list every site index exactly once.  Both are written and
read by one block writer and one block reader, and a file that breaks the
format (cut short, a repeated index, a stray line, a block of another
lattice, an archive without ``[xi]``) raises ``ValueError`` naming it.
"""

from __future__ import annotations

import csv
import numpy as np

from .lattice import Field, LatticeSpec

_ENV_MAGIC = "pamlab-env-v1"


def _block_lines(spec: LatticeSpec, flavor: str, values: np.ndarray) -> list:
    """A field block: the ``n,L,d,flavor`` header, then ``index,value`` rows."""
    return ([f"{spec.n},{spec.L},{spec.d},{flavor}"]
            + [f"{i},{float(v)!r}" for i, v in enumerate(values.ravel())])


def _read_block(lines: list, path, spec: LatticeSpec | None = None):
    """(spec, flavor, values) of ``_block_lines`` output; the header must name
    ``spec`` if given, and each site index must appear exactly once."""
    try:
        n, L, d, flavor = lines[0].split(",")
        got = LatticeSpec(n=int(n), L=int(L), d=int(d))
        rows = [line.split(",") for line in lines[1:]]
        idx = np.array([int(i) for i, _ in rows], dtype=np.intp)
        vals = np.array([float(v) for _, v in rows])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed field block in {path}: {exc}") from None
    if spec is not None and got != spec:
        raise ValueError(f"field block in {path} has header {lines[0]!r}; the archive "
                         f"is n={spec.n}, L={spec.L}, d={spec.d}")
    S = got.site_count
    if idx.size != S or not np.array_equal(np.sort(idx), np.arange(S)):
        raise ValueError(f"field block in {path} has {idx.size} rows; it needs each "
                         f"site index 0..{S - 1} exactly once")
    values = np.empty(S)
    values[idx] = vals
    return got, flavor, values.reshape(got.shape)


def write_field_text(field: Field, path, flavor: str = "none") -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(_block_lines(field.spec, flavor, field.values)) + "\n")


def read_field_text(path):
    with open(path) as fh:
        spec, flavor, values = _read_block(fh.read().splitlines(), path)
    return Field(spec, values), flavor


_ENV_BLOCKS = ("xi", "X", "resonant_renormalized")


def write_environment(env, path) -> None:
    """Single-file archive: header plus field blocks in the text format."""
    noise = env.noise
    lines = [
        _ENV_MAGIC,
        (
            f"n={noise.spec.n},L={noise.spec.L},d={noise.spec.d},"
            f"phi={noise.distribution},seed={noise.seed},"
            f"kappa_n={env.c_n!r},c_n={env.c_n!r},nu={env.nu!r}"
        ),
    ]
    for name, f in zip(_ENV_BLOCKS, (noise, env.X, env.resonant_renormalized)):
        if f is not None:
            lines.append(f"[{name}]")
            lines += _block_lines(noise.spec, "neumann", f.values)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_environment(path):
    """Read an archive back, checking every block against the header line
    and that the header's ``kappa_n`` and ``c_n`` (one constant) agree."""
    from .environment import EnhancedEnvironment, NoiseRealization

    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _ENV_MAGIC:
        raise ValueError(f"not an environment archive: {path}")
    try:
        meta = dict(kv.split("=", 1) for kv in lines[1].split(","))
        spec = LatticeSpec(n=int(meta["n"]), L=int(meta["L"]), d=int(meta["d"]))
        seed, phi = int(meta["seed"]), meta["phi"]
        kappa_n, c_n, nu = (float(meta[k]) for k in ("kappa_n", "c_n", "nu"))
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed archive header in {path}: {exc!r}") from None
    if kappa_n != c_n:
        raise ValueError(f"archive {path} has kappa_n={kappa_n!r} but c_n={c_n!r}; "
                         "they must agree")
    starts = [i for i, line in enumerate(lines) if line.startswith("[")]
    if (starts[0] if starts else len(lines)) != 2:
        raise ValueError(f"archive {path} has a line outside any field block")
    blocks = {}
    for a, b in zip(starts, starts[1:] + [len(lines)]):
        name = lines[a].strip("[]")
        if name not in _ENV_BLOCKS or name in blocks:
            raise ValueError(f"archive {path} has an unknown or repeated block {lines[a]!r}")
        blocks[name] = Field(spec, _read_block(lines[a + 1:b], path, spec)[2])
    if "xi" not in blocks:
        raise ValueError(f"archive {path} has no [xi] block")
    noise = NoiseRealization(spec, blocks["xi"].values, seed, phi)
    return EnhancedEnvironment(noise, blocks.get("X"), blocks.get("resonant_renormalized"),
                               c_n, nu)


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
