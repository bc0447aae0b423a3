"""File formats: impedance sweeps and result emission.

Impedance sweep files are plain CSV with a commented header::

    # ucadiv impedance sweep v1
    # N = 2
    # d = 0.25
    # funit = relative
    f,re_z11,im_z11,re_z12,im_z12
    0.850000000000000,...

One row per frequency sample (strictly increasing f/fc), Re/Im pairs for
the M = N//2 + 1 independent first-row impedances.  The writer and parser
round-trip exactly; blank body lines are skipped, and everything else the
writer did not produce is rejected with a line-numbered diagnostic.
"""

import math
import os
import re

import numpy as np

from .errors import ParseError
from .modes import ArraySweep, distinct_dft_indices, usable_bandwidth
from .network import FrequencyGrid

FORMAT_TAG = "ucadiv impedance sweep v1"
# a number as the writer formats it ("%.17g" of a finite float, or an
# int): float() and int() would also take "7_0", " 72 ", "+1" and "nan".
# "(?:...|)" is "(?:...)?" with less backtracking state for re to save per
# field (a quarter less time per row)
_NUMBER = r"-?[0-9]+(?:\.[0-9]+|)(?:e[-+][0-9]+|)"


# ---------------------------------------------------------------------------
# impedance sweep files

def _fmt(x):
    return format(float(x), ".17g")


def _write_lines(path, lines):
    """The lines as text, also written to ``path`` when one is given."""
    text = "\n".join(lines) + "\n"
    if path:
        # not "w": O_TRUNC stalls ext4 mounted with discard ~50 ms a rewrite
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if os.path.isfile(path):  # truncate() refuses /dev/null
                fh.truncate()
    return text


def write_impedance(sweep: ArraySweep, path):
    """Write an ArraySweep to the CSV sweep format.

    A sweep the parser would refuse (a non-finite or negative spacing,
    fewer than two samples, a non-finite value) raises ``ValueError``
    before the file is opened.
    """
    if not (math.isfinite(sweep.d) and sweep.d >= 0):
        raise ValueError(f"spacing must be finite and >= 0, got {sweep.d}")
    if sweep.grid.size < 2:
        raise ValueError("need at least two frequency samples")
    # one (F, 1 + 2M) table: f, then Re/Im pairs of the first row
    table = np.column_stack([
        sweep.grid.samples, np.ascontiguousarray(sweep.first_row).view(float)
    ])
    if not np.all(np.isfinite(table)):
        raise ValueError("impedance sweep holds a non-finite value")
    cols = ["f"] + [f"{part}_z1{j}" for j in range(1, sweep.n // 2 + 2)
                    for part in ("re", "im")]
    lines = [
        f"# {FORMAT_TAG}",
        f"# N = {sweep.n}",
        f"# d = {_fmt(sweep.d)}",
        "# funit = relative",
        ",".join(cols),
    ]
    row = ",".join(["%.17g"] * table.shape[1])
    lines += [row % tuple(values) for values in table.tolist()]
    _write_lines(path, lines)


def parse_impedance(path) -> ArraySweep:
    """Parse a CSV sweep file, validating structure and monotonicity."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path) from None

    if not raw or raw[0][:1] != "#" or raw[0][1:].strip() != FORMAT_TAG:
        raise ParseError(f"the first line must be '# {FORMAT_TAG}'", path, 1)
    header, header_line = {}, {}
    for lineno, line in enumerate(raw[1:], 2):
        if not line.startswith("#"):
            break
        key, eq, val = (part.strip() for part in line[1:].partition("="))
        if not eq or key not in ("N", "d", "funit"):
            raise ParseError(f"unknown header line {line!r}", path, lineno)
        if key in header:
            raise ParseError(f"repeated header field {key!r}", path, lineno)
        header[key], header_line[key] = val, lineno
    else:
        raise ParseError("file has no column header", path)
    body_start = lineno - 1

    for key in ("N", "d"):
        if key not in header:
            raise ParseError(f"missing header field {key!r}", path)
        if not re.fullmatch(_NUMBER, header[key]):
            raise ParseError(f"bad header value {key} = {header[key]!r}",
                             path, header_line[key])
    try:
        n = int(header["N"])
    except ValueError:
        raise ParseError(f"element count must be an integer, got "
                         f"{header['N']}", path, header_line["N"]) from None
    d = float(header["d"])
    if n < 1:
        raise ParseError(f"element count must be >= 1, got {n}", path)
    if not (math.isfinite(d) and d >= 0):
        raise ParseError(f"spacing must be finite and >= 0, got {d}",
                         path, header_line["d"])
    funit = header.get("funit", "relative")
    if funit != "relative":
        raise ParseError(f"unsupported frequency unit {funit!r}", path)
    m = n // 2 + 1
    n_cols = 1 + 2 * m

    columns = raw[body_start].split(",")
    if len(columns) != n_cols or columns[0] != "f":
        raise ParseError(
            f"expected {n_cols} columns starting with 'f', got "
            f"{len(columns)}", path, body_start + 1,
        )

    row_re = re.compile(_NUMBER + f"(?:,{_NUMBER}){{{n_cols - 1}}}")
    lines, linenos, miss = [], [], None
    for lineno, line in enumerate(raw[body_start + 1:], body_start + 2):
        if row_re.fullmatch(line):  # one match per row
            lines.append(line)
            linenos.append(lineno)
        elif line.strip():  # named below, after a fault in an earlier row
            miss = lineno
            break
    # one correctly rounded conversion, with no Python object per field
    table = np.fromstring(",".join(lines), sep=",").reshape(-1, n_cols)
    f = table[:, 0]
    finite = np.isfinite(table).all(axis=1)  # a literal beyond float range
    ok = finite & (f > 0)
    ok[1:] &= f[1:] > f[:-1]
    if not ok.all():
        i = int(np.argmin(ok))
        if not finite[i]:
            raise ParseError("non-finite value", path, linenos[i])
        if f[i] <= 0:
            raise ParseError(f"non-positive frequency {float(f[i])}", path,
                             linenos[i])
        raise ParseError(f"non-monotone frequency {float(f[i])} (previous "
                         f"{float(f[i - 1])})", path, linenos[i])
    if miss is not None:
        parts = raw[miss - 1].split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} values, got {len(parts)}",
                             path, miss)
        bad = next(p for p in parts if not re.fullmatch(_NUMBER, p))
        raise ParseError(f"not a number: {bad!r}", path, miss)
    if len(table) < 2:
        raise ParseError("need at least two data rows", path)
    grid = FrequencyGrid(table[:, 0].copy())
    return ArraySweep(n=n, d=d, grid=grid,
                      first_row=np.ascontiguousarray(table[:, 1:]).view(complex))


# ---------------------------------------------------------------------------
# result emission

def config_hash(config):
    """Stable short hash over a SimConfig's ``to_dict()``."""
    import hashlib
    import json
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def capacity_unit(to_bits):
    """(scale, name): the factor that takes nats to the reported unit."""
    return (1.0 / np.log(2.0), "bits") if to_bits else (1.0, "nats")


def emit_curve(curve, config, table_path, doc_path, to_bits=False):
    """Write an OutageCurve of a SimConfig as a CSV table and a JSON document.

    The paths' directory must exist.  Both files are reproducible byte for
    byte from the configuration and its seed, which the JSON embeds whole.
    """
    import json
    h = config_hash(config)
    scale, unit = capacity_unit(to_bits)

    rows = [f"spacing,c_out_{unit},ci_half_width,samples,seed,config"]
    points = []
    for p in curve.points:
        ok = p.cause is None  # the one test for a failed point
        c, half = ((p.c_out * scale, p.ci_half_width * scale) if ok
                   else (None, None))
        values = (f"{_fmt(c)},{_fmt(half)},{p.n_samples}" if ok
                  else "error,error,0")
        rows.append(f"{_fmt(p.d)},{values},{config.seed},{h}")
        points.append({"spacing": p.d, "c_out": c, "ci_half_width": half,
                       "samples": p.n_samples, "error": p.error})
    doc = {
        "config": config.to_dict(),
        "config_hash": h,
        "capacity_unit": f"{unit}/s/Hz",
        "points": points,
    }
    # strict JSON: a non-finite value raises here, before any file is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    _write_lines(table_path, rows)
    _write_lines(doc_path, [text])


def emit_mode_report(mode_set, out_path=None):
    """Delimited mode table: index, multiplicity, R, Q, f0, L, C, band."""
    rows = ["dft_index,multiplicity,r_ohm,q,f0,l_per_fc,c_per_fc,"
            "band_lo,band_hi,band_width"]
    for (m, mult), mode in zip(distinct_dft_indices(mode_set.n),
                               mode_set.modes):
        lo, hi = usable_bandwidth(mode)
        rows.append(
            f"{m},{mult},{_fmt(mode.r)},"
            f"{_fmt(mode.q)},{_fmt(mode.f0)},{_fmt(mode.inductance)},"
            f"{_fmt(mode.capacitance)},{_fmt(lo)},{_fmt(hi)},{_fmt(hi - lo)}"
        )
    return _write_lines(out_path, rows)


def emit_match_report(mode_set, specs, reports, out_path=None):
    """Delimited matching-budget table per distinct mode."""
    rows = ["dft_index,q,f0,w,gamma0,gamma0_sq,gamma0_sq_upper,"
            "rhp_zero_alpha,usable,residual_a,residual_b,residual_b_bound"]
    for m, (mode, spec, rep) in enumerate(zip(mode_set.modes, specs,
                                              reports)):
        rows.append(
            f"{m},{_fmt(mode.q)},{_fmt(mode.f0)},{_fmt(spec.w)},"
            f"{_fmt(spec.gamma0)},{_fmt(spec.gamma0_sq)},"
            f"{_fmt(spec.gamma0_sq_upper)},{_fmt(spec.alpha)},"
            f"{int(spec.usable)},{_fmt(rep.residual_a)},"
            f"{_fmt(rep.residual_b)},{_fmt(rep.residual_b_bound)}"
        )
    return _write_lines(out_path, rows)
