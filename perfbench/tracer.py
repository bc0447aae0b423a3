"""In-memory span tracer that instruments ucadiv from outside.

The tracer wraps each layer function named in ``LAYERS`` in every ucadiv
module namespace that binds it, so calls through ``from .x import f`` and
through ``x.f`` are both seen.  A span is (name, start, end, parent); spans
stay in memory until the run ends.  A layer's self time is its span minus the
time its direct child spans cover.

Monte-Carlo worker processes inherit the wrappers when the pool forks.  Each
worker chunk is recorded as a ``capacity.pool.chunk`` span and flushed to a
file that the parent collects after the job.  Under a start method that does
not fork, workers record nothing and only the parent's spans are reported.
"""

import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

# (module, attribute path) of every traced layer; the span name is
# "<module>.<attribute path>".  A layer missing from the code is skipped and
# reported with zero calls.
LAYERS = (
    ("capacity", "sweep"),
    ("capacity", "run_monte_carlo"),
    ("capacity", "realization_capacity"),
    ("capacity", "outage"),
    ("channel", "realization_rng"),
    ("channel", "draw_taps"),
    ("channel", "taps_to_subcarriers"),
    ("channel", "to_eigenbasis"),
    ("channel", "spatial_correlation"),
    ("fixtures", "CouplingModel.mode_set"),
    ("fixtures", "fixture_sweep"),
    ("fano", "fano_boxcar"),
    ("fano", "fano_integral_check"),
    ("frontend", "build_frontend"),
    ("frontend", "noise_cov"),
    ("network", "z_to_s"),
    ("network", "cascade"),
    ("network", "check_lossless"),
    ("modes", "fit_modes"),
    ("modes", "extend_to_2n_port"),
    ("io", "write_impedance"),
    ("io", "parse_impedance"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in LAYERS)
JOB = "job"
POOL = "capacity.pool"
CHUNK = "capacity.pool.chunk"
SPAN_NAMES = (JOB, POOL, CHUNK) + LAYER_NAMES


class Tracer:
    """Span recorder for one process; forked workers get a fresh buffer."""

    def __init__(self, worker_dir):
        self.worker_dir = Path(worker_dir)
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.home_pid = os.getpid()
        self.segments = []  # (pid, arrays of name, start, end, parent)
        self.worker_files = 0
        self.clear()

    def clear(self):
        self.name_ids, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = [-1]

    def open(self, name):
        i = len(self.starts)
        self.name_ids.append(self.ids[name])
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def arrays(self):
        return dict(
            name=np.asarray(self.name_ids, dtype=np.int64),
            start=np.asarray(self.starts, dtype=float),
            end=np.asarray(self.ends, dtype=float),
            parent=np.asarray(self.parents, dtype=np.int64),
        )

    def flush(self):
        """Move this process's finished spans into ``segments``."""
        if self.starts:
            self.segments.append((os.getpid(), self.arrays()))
        self.clear()

    def collect_workers(self):
        """Adopt and delete the span files written by pool workers."""
        files = sorted(self.worker_dir.glob("worker-*.npz"))
        for path in files:
            with np.load(path) as data:
                pid = int(path.name.split("-")[1])
                self.segments.append((pid, {k: data[k] for k in data.files}))
            path.unlink()
        self.worker_files += len(files)

    def worker_chunk(self, fn):
        """Wrap the pool's per-chunk entry point so workers flush spans."""
        @functools.wraps(fn)
        def chunk(*args, **kwargs):
            if os.getpid() == self.home_pid:
                return fn(*args, **kwargs)
            self.clear()
            i = self.open(CHUNK)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                name = f"worker-{os.getpid()}-{perf_counter_ns()}.npz"
                np.savez(self.worker_dir / name, **self.arrays())
                self.clear()
        return chunk


def _pool_class(tracer):
    class TracedPool(ProcessPoolExecutor):
        """Process pool whose lifetime, start to shutdown, is one span."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.open(POOL)
            try:
                super().__init__(*args, **kwargs)
            except BaseException:
                self._close_span()
                raise

        def _close_span(self):
            if self._span is not None:
                tracer.close(self._span)
                self._span = None

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                self._close_span()

    return TracedPool


def _ucadiv_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "ucadiv" or name.startswith("ucadiv.")]


def install(tracer):
    """Wrap every layer in every ucadiv namespace; returns an undo list."""
    modules = _ucadiv_modules()
    replacements = []
    for mod_name, attr in LAYERS:
        owner = sys.modules.get(f"ucadiv.{mod_name}")
        *path, fn_name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, fn_name, None)
        if fn is None:
            continue
        # a method is patched on its class, a function wherever it is bound
        targets = [owner] if path else modules
        replacements.append((targets, fn, tracer.wrap(f"{mod_name}.{attr}", fn)))
    capacity = sys.modules.get("ucadiv.capacity")
    if getattr(capacity, "_pool_run", None) is not None:
        fn = capacity._pool_run
        replacements.append(([capacity], fn, tracer.worker_chunk(fn)))
    replacements.append((modules, ProcessPoolExecutor, _pool_class(tracer)))

    undo = []
    for targets, old, new in replacements:
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is old:
                    setattr(ns, key, new)
                    undo.append((ns, key, old))
    return undo


def uninstall(undo):
    for ns, key, old in reversed(undo):
        setattr(ns, key, old)


def self_times(segments):
    """Per span name: (calls, total self seconds), over all processes."""
    n = len(SPAN_NAMES)
    calls = np.zeros(n, dtype=np.int64)
    self_s = np.zeros(n)
    for _, seg in segments:
        dur = seg["end"] - seg["start"]
        child = np.zeros_like(dur)
        nested = seg["parent"] >= 0
        np.add.at(child, seg["parent"][nested], dur[nested])
        calls += np.bincount(seg["name"], minlength=n)
        self_s += np.bincount(seg["name"], weights=dur - child, minlength=n)
    return {name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(SPAN_NAMES)}


def save(segments, path):
    """Write every recorded span, one row each, to a compressed archive."""
    cols = {"pid": [], "name": [], "start": [], "end": [], "parent": []}
    for pid, seg in segments:
        cols["pid"].append(np.full(seg["name"].size, pid))
        for key in ("name", "start", "end", "parent"):
            cols[key].append(seg[key])
    arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}
    np.savez_compressed(path, names=np.asarray(SPAN_NAMES), **arrays)
