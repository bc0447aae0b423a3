"""File formats: impedance sweeps, run configuration, result emission.

Impedance sweep files are plain CSV with a commented header::

    # ucadiv impedance sweep v1
    # N = 2
    # d = 0.25
    # funit = relative
    f,re_z11,im_z11,re_z12,im_z12
    0.850000000000000,...

One row per frequency sample (strictly increasing f/fc), Re/Im pairs for
the M = N//2 + 1 independent first-row impedances.  The writer and parser
round-trip exactly; everything the writer did not produce is rejected with
a line-numbered diagnostic.
"""

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce

import numpy as np

from .capacity import OutageCurve, SimConfig
from .errors import ConfigError, ParseError
from .modes import ArraySweep, usable_bandwidth
from .network import FrequencyGrid

FORMAT_TAG = "ucadiv impedance sweep v1"
OUTDIR_ENV = "UCADIV_OUTDIR"


def default_outdir():
    return os.environ.get(OUTDIR_ENV, ".")


# ---------------------------------------------------------------------------
# impedance sweep files

def _fmt(x):
    return format(float(x), ".17g")


def _write_lines(path, lines):
    """The lines as text, also written to ``path`` when one is given."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


def write_impedance(sweep: ArraySweep, path):
    """Write an ArraySweep to the CSV sweep format.

    A sweep the parser would refuse (no element, a non-finite or negative
    spacing, fewer than two samples, a non-finite value) raises
    ``ValueError`` before the file is opened.
    """
    if sweep.n < 1:
        raise ValueError(f"element count must be >= 1, got {sweep.n}")
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
    row = ",".join(["{:.17g}"] * table.shape[1])
    lines += [row.format(*values) for values in table.tolist()]
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

    try:
        n = int(header["N"])
        d = float(header["d"])
    except KeyError as exc:
        raise ParseError(f"missing header field {exc}", path) from None
    except ValueError as exc:
        raise ParseError(f"bad header value: {exc}", path) from None
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

    rows = []
    prev_f = None
    for lineno0 in range(body_start + 1, len(raw)):
        line = raw[lineno0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(
                f"expected {n_cols} values, got {len(parts)}",
                path, lineno0 + 1,
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno0 + 1) from None
        if not all(map(math.isfinite, vals)):
            raise ParseError("non-finite value", path, lineno0 + 1)
        f = vals[0]
        if f <= 0:
            raise ParseError(f"non-positive frequency {f}", path, lineno0 + 1)
        if prev_f is not None and f <= prev_f:
            raise ParseError(
                f"non-monotone frequency {f} (previous {prev_f})",
                path, lineno0 + 1,
            )
        prev_f = f
        rows.append(vals)

    if len(rows) < 2:
        raise ParseError("need at least two data rows", path)
    table = np.array(rows)
    grid = FrequencyGrid(table[:, 0].copy())
    return ArraySweep(n=n, d=d, grid=grid,
                      first_row=np.ascontiguousarray(table[:, 1:]).view(complex))


# ---------------------------------------------------------------------------
# run configuration: each leaf field of SimConfig (NoiseTemps flattened) is
# a config key, a to_dict entry and a hashed value

# fields whose config key is not the field name
_RENAMES = {"t_antenna": "temp_antenna", "t_forward": "temp_forward",
            "t_reverse": "temp_reverse"}
# parsed and validated, but never emitted or hashed: it changes no result
_UNHASHED = {"workers"}


def _leaves(cls, path=()):
    """(config key, attribute path, field) per leaf field, in field order."""
    for f in fields(cls):
        if is_dataclass(f.type):
            yield from _leaves(f.type, path + (f.name,))
        else:
            yield _RENAMES.get(f.name, f.name), path + (f.name,), f


_SIM_LEAVES = tuple(_leaves(SimConfig))
# JSON types per key: a float takes any number, a tuple a list, and a field
# that defaults to None also null
_CONFIG_KEYS = {
    key: {float: (int, float), tuple: (list,)}.get(f.type, (f.type,))
    + ((type(None),) if f.default is None else ()) for key, _, f in _SIM_LEAVES
}
_CONFIG_KEYS.update(input=(str,), impedance_files=(list,),
                    fixture_modes=(list,))


@dataclass(frozen=True)
class RunConfig:
    """File-form of SimConfig plus the input mode.

    ``input_mode`` is "fixture" (synthetic coupling model, optionally pinned
    by ``fixture_modes``) or "files" (one impedance sweep per spacing in
    ``impedance_files``).
    """

    sim: SimConfig = field(default_factory=SimConfig)
    input_mode: str = "fixture"
    impedance_files: tuple = ()
    fixture_modes: tuple = ()

    def to_dict(self):
        """The hashed configuration; ``json`` writes its tuples as lists."""
        sim = {key: reduce(getattr, path, self.sim)
               for key, path, _ in _SIM_LEAVES if key not in _UNHASHED}
        return {**sim, "input": self.input_mode,
                "impedance_files": self.impedance_files,
                "fixture_modes": self.fixture_modes}


def config_from_dict(doc) -> RunConfig:
    """Validate a flat key/value document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be an object")
    unknown = set(doc) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key, types in _CONFIG_KEYS.items():  # schema order names the key
        value = doc.get(key)
        # bool is an int to isinstance, but true is no antenna count
        if key in doc and (not isinstance(value, types) or
                           isinstance(value, bool) and bool not in types):
            raise ConfigError(f"key {key!r} has wrong type "
                              f"{type(value).__name__}")
    input_mode = doc.get("input", "fixture")
    if input_mode not in ("fixture", "files"):
        raise ConfigError(f"input mode must be 'fixture' or 'files', got "
                          f"{input_mode!r}")
    try:
        sim = _build(SimConfig, doc)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(sim=sim, input_mode=input_mode,
                     impedance_files=_entries(doc, "impedance_files", _pair),
                     fixture_modes=_entries(doc, "fixture_modes",
                                            lambda e: _pair(e, _triples)))


def _build(cls, doc):
    """``cls`` from the document; an absent key keeps the field's default."""
    given = {}
    for f in fields(cls):
        key = _RENAMES.get(f.name, f.name)
        if is_dataclass(f.type):
            given[f.name] = _build(f.type, doc)
        elif key in doc:
            if f.type is tuple:
                _entries(doc, key, _number)  # checked, kept as written
            value = doc[key]  # an int for a float field is hashed as float
            given[f.name] = None if value is None else f.type(value)
    return cls(**given)


def _number(value):
    """A finite JSON number as a float; bool, str, null and lists are not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


def _pair(entry, convert=str):
    """A ``[spacing, value]`` entry as (spacing, convert(value))."""
    if not (isinstance(entry, list) and len(entry) == 2):
        raise TypeError(f"expected a [spacing, value] pair, got {entry!r}")
    return _number(entry[0]), convert(entry[1])


def _triples(modes):
    """The (R, Q, f0) triples of one ``fixture_modes`` entry."""
    if not all(isinstance(m, list) and len(m) == 3 for m in modes):
        raise TypeError(f"expected [R, Q, f0] triples, got {modes!r}")
    return tuple(tuple(map(_number, m)) for m in modes)


def _entries(doc, key, convert):
    """``convert`` applied to each entry of the list ``doc[key]``."""
    try:
        return tuple(convert(entry) for entry in doc.get(key) or ())
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def load_config(path) -> RunConfig:
    import json  # here, not at import: `modes`, `match` and `fit` never use it
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc), path, exc.lineno) from None
    return config_from_dict(doc)


def config_hash(config: RunConfig):
    """Stable short hash over the full configuration."""
    import hashlib
    import json
    canon = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# result emission

def capacity_unit(to_bits):
    """(scale, name): the factor that takes nats to the reported unit."""
    return (1.0 / np.log(2.0), "bits") if to_bits else (1.0, "nats")


def emit_curve(curve: OutageCurve, run_config: RunConfig, out_dir,
               stem="sweep", to_bits=False):
    """Write an outage curve as a CSV table plus a JSON document.

    Both files are reproducible byte-for-byte from the same configuration
    and seed; the JSON embeds the full configuration.
    """
    import json
    os.makedirs(out_dir, exist_ok=True)
    h = config_hash(run_config)
    scale, unit = capacity_unit(to_bits)

    rows = [f"spacing,c_out_{unit},ci_half_width,samples,seed,config"]
    for p in curve.points:
        values = "error,error,0" if p.error is not None else (
            f"{_fmt(p.c_out * scale)},{_fmt(p.ci_half_width * scale)},"
            f"{p.n_samples}")
        rows.append(f"{_fmt(p.d)},{values},{run_config.sim.seed},{h}")
    doc = {
        "config": run_config.to_dict(),
        "config_hash": h,
        "capacity_unit": f"{unit}/s/Hz",
        "points": [
            {
                "spacing": p.d,
                "c_out": None if p.error else p.c_out * scale,
                "ci_half_width": None if p.error else p.ci_half_width * scale,
                "samples": p.n_samples,
                "error": p.error,
            }
            for p in curve.points
        ],
    }
    # strict JSON: a non-finite value raises here, before any file is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    table_path = os.path.join(out_dir, f"{stem}.csv")
    _write_lines(table_path, rows)
    doc_path = os.path.join(out_dir, f"{stem}.json")
    _write_lines(doc_path, [text])
    return table_path, doc_path


def emit_mode_report(mode_set, out_path=None):
    """Delimited mode table: index, multiplicity, R, Q, f0, L, C, band."""
    rows = ["dft_index,multiplicity,r_ohm,q,f0,l_per_fc,c_per_fc,"
            "band_lo,band_hi,band_width"]
    for mode in mode_set.modes:
        lo, hi = usable_bandwidth(mode)
        rows.append(
            f"{mode.dft_index},{mode.multiplicity},{_fmt(mode.r)},"
            f"{_fmt(mode.q)},{_fmt(mode.f0)},{_fmt(mode.inductance)},"
            f"{_fmt(mode.capacitance)},{_fmt(lo)},{_fmt(hi)},{_fmt(hi - lo)}"
        )
    return _write_lines(out_path, rows)


def emit_match_report(mode_set, specs, reports, out_path=None):
    """Delimited matching-budget table per distinct mode."""
    rows = ["dft_index,q,f0,w,gamma0,gamma0_sq,gamma0_sq_upper,"
            "rhp_zero_alpha,usable,residual_a,residual_b,residual_b_bound"]
    for mode, spec, rep in zip(mode_set.modes, specs, reports):
        rows.append(
            f"{mode.dft_index},{_fmt(mode.q)},{_fmt(mode.f0)},{_fmt(spec.w)},"
            f"{_fmt(spec.gamma0)},{_fmt(spec.gamma0_sq)},"
            f"{_fmt(spec.gamma0_sq_upper)},{_fmt(spec.rhp_zero.real)},"
            f"{int(spec.usable)},{_fmt(rep.residual_a)},"
            f"{_fmt(rep.residual_b)},{_fmt(rep.residual_b_bound)}"
        )
    return _write_lines(out_path, rows)
