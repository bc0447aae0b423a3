"""ucadiv benchmark: one closed-loop client running one workload's jobs.

    python3 perfbench/run.py --workload {sweep,hires-point,characterize} \
        --seed N --seconds S --trace {0,1}

The client runs jobs back to back for about S seconds; at most two worker
processes are ever busy (the ``hires-point`` pool).  Every job's outputs are
checked.  Detail lines go to stdout first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, from untraced jobs.  With
``--trace 1`` the first half of the time runs untraced jobs and the second
half re-runs the same jobs traced; the metrics are the per-layer ones.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits non-zero before measuring.

End-to-end times are paced against fixed reference work that no change to
the program can touch (see ``Pace``): other tenants of a shared host slow
it by 20-70% for minutes at a time, and the reference slows with it.
"""

# Only the standard library at module level: numpy must load after
# pin_threads has set the BLAS thread count.
import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).with_name("reference.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
IMPORTS = {
    "import.ucadiv_s": "ucadiv",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_constants_s": "scipy.constants",
}
SUBPROCESS_TIMEOUT = 120
SETUP_REPS = 3  # fresh-interpreter set-ups per run
CLI_REPS = 2    # passes over the workload's CLI calls per run
# The reference start is a fresh interpreter importing numpy alone.
REFERENCE_START = ["-c", "import numpy"]


def pin_threads():
    """One BLAS/OpenMP thread in this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program():
    """Import ucadiv from this checkout's ``src/``; exit if it is absent."""
    if not (SRC / "ucadiv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ucadiv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ucadiv
    if not Path(ucadiv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: ucadiv was imported from "
                         f"{ucadiv.__file__}, not from {SRC}")
    return ucadiv


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def machine():
    """The facts that a timing depends on, recorded with every run."""
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def python(args, workdir, **kwargs):
    """Run a fresh interpreter on ``args`` and wait for it to end."""
    return subprocess.run(
        [sys.executable, *args], cwd=workdir, env=child_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, **kwargs,
    )


def calibration_s(reps=10):
    """Median time of a fixed loop resembling the kernel, outside ucadiv.

    Each pass builds Philox streams, draws normals, takes small FFTs and
    small solves: the kind of work the program does, in code that no change
    to the program can touch.
    """
    import numpy as np

    a = np.eye(8) * 8.0 + np.random.default_rng(0).standard_normal((8, 8))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for i in range(50):
            rng = np.random.Generator(np.random.Philox(i))
            w = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
            h = np.fft.fft(w, n=64, axis=0)
            np.linalg.solve(a, h[:8])
            np.log1p(np.abs(h) ** 2).mean()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def calibration_worker():
    """Answer each line on stdin with one ``calibration_s``; stop at EOF."""
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(calibration_s(), flush=True)


class Calibrator:
    """``calibration_s`` on as many CPUs at once as the workload keeps busy.

    A job that runs ``workers`` processes is paced by as many concurrent
    calibration loops, in child interpreters kept for the run.  They talk
    over their stdin and stdout, so this process starts no thread that a fork
    could copy, and ``close`` waits for every child to end.
    """

    def __init__(self, workers):
        self.procs = []
        code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
                f"import run; run.calibration_worker()")
        try:
            for _ in range(workers if workers > 1 else 0):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.close()
            raise

    def __call__(self):
        if not self.procs:
            return calibration_s()
        for proc in self.procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return statistics.mean(float(proc.stdout.readline())
                               for proc in self.procs)

    def close(self):
        for proc in self.procs:
            try:
                proc.stdin.close()  # EOF ends the loop
            except OSError:
                pass
            try:
                proc.wait(timeout=SUBPROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


def start_s(workdir):
    """Wall seconds of the reference fresh-interpreter start."""
    t0 = perf_counter()
    python(REFERENCE_START, workdir, check=True)
    return perf_counter() - t0


@dataclass
class Pace:
    """Times measured against adjacent reference work, in reference seconds.

    A timed piece of work is bracketed by two measurements of a reference:
    ``calibration_s`` for work inside this process, ``start_s`` for a fresh
    interpreter.  Its paced time is wall time x nominal / (mean of the two
    reference times), where the nominal is the reference's time on a quiet
    2-CPU host.  Slowdowns that last longer than the bracket cancel out.
    """

    nominal_calibration_s: float = 2.0e-3
    nominal_start_s: float = 0.13
    raw: list = field(default_factory=list)  # (wall, ref before, ref after)

    def paced(self, wall_s, ref_before, ref_after, nominal):
        self.raw.append((wall_s, ref_before, ref_after))
        return wall_s * nominal / (0.5 * (ref_before + ref_after))


@dataclass
class Job:
    steps: dict  # step key -> paced seconds
    wall_s: float
    digest: str

    @property
    def seconds(self):
        return sum(self.steps.values())


def run_job(workload, j, tally, pace, calibrate, tracer=None):
    """Run job j step by step, timing each step and checking its output."""
    import tracer as tr

    digest = hashlib.sha256()
    steps, wall = {}, 0.0
    for k, inp in enumerate(workload.inputs(j)):
        before = calibrate()
        undo = tr.install(tracer) if tracer else None
        span = tracer.open(tr.JOB) if tracer else None
        t0 = perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failed operation: count it, keep going
            tally.check(False, f"{workload.name} job {j} step {k}: {exc!r}")
            out = None
        step_s = perf_counter() - t0
        if tracer:
            tracer.close(span)
            tr.uninstall(undo)
        after = calibrate()
        wall += step_s
        steps[workload.step_key(inp)] = pace.paced(
            step_s, before, after, pace.nominal_calibration_s)
        if tracer:
            tracer.flush()
            tracer.collect_workers()
        if out is not None:
            workload.check(j, k, inp, out, tally)
            digest.update(workload.fingerprint(out).encode())
    return Job(steps, wall, digest.hexdigest())


def run_jobs(workload, tally, deadline, pace, calibrate, tracer=None,
             limit=None):
    """Closed loop: jobs back to back until the next would pass the deadline."""
    done, walls = [], []
    while limit is None or len(done) < limit:
        t0 = perf_counter()
        done.append(run_job(workload, len(done), tally, pace, calibrate,
                            tracer))
        walls.append(perf_counter() - t0)
        if perf_counter() + statistics.median(walls) > deadline:
            break
    return done


def time_starts(commands, workdir, pace):
    """Paced seconds of fresh-interpreter commands, each run to its exit.

    ``commands`` holds (python arguments, then) pairs; ``then(process)`` runs
    inside the timed span, after the process has ended.
    """
    times = []
    ref = start_s(workdir)
    for args, then in commands:
        t0 = perf_counter()
        then(python(args, workdir))
        wall = perf_counter() - t0
        after = start_s(workdir)
        times.append(pace.paced(wall, ref, after, pace.nominal_start_s))
        ref = after
    return times


def time_setup(workload, workdir, reps, pace):
    """A fresh ``import ucadiv`` plus building the workload's inputs."""
    def build(proc):
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: a fresh interpreter cannot import "
                             f"ucadiv: {proc.stderr.strip()[-300:]}")
        workload.setup(workdir)

    return time_starts([(["-c", "import ucadiv"], build)] * reps, workdir, pace)


def time_cli(argvs, workdir, tally, pace):
    """Each CLI call in a fresh interpreter, process start to exit."""
    def checked(argv):
        def then(proc):
            tally.check(
                proc.returncode == 0 and proc.stdout.strip() != "",
                f"ucadiv {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}")
        return then

    return time_starts([(["-m", "ucadiv.cli", *argv], checked(argv))
                        for argv in argvs], workdir, pace)


def package_seconds(importtime_log, package):
    """Seconds that ``-X importtime`` attributes to a package's first import.

    Sums the cumulative time of the outermost lines naming the package or
    one of its submodules (scipy's lazy loader can hide the package line
    itself).  Packages pulled in by another's import overlap with it.
    """
    rows = re.findall(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)",
                      importtime_log)
    total, stack = 0, []
    for cum, indent, name in reversed(rows):  # parents before children
        depth = len(indent)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        hit = name == package or name.startswith(package + ".")
        if hit and not inside:
            total += int(cum)
        stack.append((depth, inside or hit))
    return total / 1e6


def import_profile(workdir, reps):
    logs = [python(["-X", "importtime", "-c", "import ucadiv"], workdir,
                   check=True).stderr for _ in range(reps)]
    return {metric: statistics.median(package_seconds(log, pkg) for log in logs)
            for metric, pkg in IMPORTS.items()}


def layer_metrics(stats, traced, untraced):
    """Per-layer self time, calls and share over the traced jobs."""
    import tracer as tr

    jobs = len(traced)
    total_self = sum(s for _, s in stats.values())
    metrics = {}
    for name in tr.LAYER_NAMES:
        calls, self_s = stats[name]
        metrics[f"{name}.us"] = (self_s / calls * 1e6 if calls else 0.0, "us")
        metrics[f"{name}.calls"] = (calls / jobs, "count")
        metrics[f"{name}.share"] = (self_s / total_self, "fraction")
    pool_calls, pool_s = stats[tr.POOL]
    metrics["capacity.pool.starts"] = (pool_calls / jobs, "count")
    metrics["capacity.pool.s"] = (pool_s / jobs, "s")
    metrics["trace.other.share"] = (stats[tr.JOB][1] / total_self, "fraction")
    traced_s = statistics.median(job.wall_s for job in traced)
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (
        traced_s - statistics.median(job.wall_s for job in untraced), "s")
    return metrics


def measure(name, seed, seconds, trace, small=False):
    """One benchmark run; returns (result dict, detail dict)."""
    import tracer as tr
    import workloads as wl

    nproc = len(os.sched_getaffinity(0))
    workload = wl.WORKLOADS[name](seed, small)
    workers = getattr(workload, "workers", 1)
    if workers > nproc:
        raise SystemExit(f"perfbench: {name} needs {workers} workers but "
                         f"only {nproc} CPUs are available")
    reps = 1 if small else SETUP_REPS
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tally = wl.Tally()
    pace = Pace()
    calibrate = None
    try:
        calibrate = Calibrator(workers)
        setup = time_setup(workload, workdir, reps, pace)
        workload.warm_up()
        start = perf_counter()
        untraced = run_jobs(workload, tally,
                            start + (seconds / 2 if trace else seconds), pace,
                            calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if seed == 0 and not small:
            recorded = json.loads(REFERENCE.read_text())[name]
            tally.check(untraced[0].digest == recorded,
                        f"{name}: seed-0 outputs differ from the digest "
                        f"recorded in {REFERENCE.name}")
        detail = {"machine": machine(), "setup_s": setup,
                  "job_s": [job.seconds for job in untraced],
                  "job_wall_s": [job.wall_s for job in untraced],
                  "digests": [job.digest for job in untraced]}
        if trace:
            tracer = tr.Tracer(workdir)
            traced = run_jobs(workload, tally, start + seconds, pace,
                              calibrate, tracer, limit=len(untraced))
            for j, (plain, seen) in enumerate(zip(untraced, traced)):
                tally.check(plain.digest == seen.digest,
                            f"{name} job {j}: traced outputs differ")
            tr.save(tracer.segments, OUT / f"spans-{name}.npz")
            stats = tr.self_times(tracer.segments)
            detail["traced_job_wall_s"] = [job.wall_s for job in traced]
            detail["worker_span_files"] = tracer.worker_files
            detail["self_s_per_job"] = {
                span: self_s / len(traced)
                for span, (calls, self_s) in stats.items() if calls}
        cli = time_cli(workload.cli_argv * (1 if small else CLI_REPS),
                       workdir, tally, pace)
        detail["cli_s"] = cli
        detail["paced_raw"] = pace.raw
        if trace:
            metrics = layer_metrics(stats, traced, untraced)
            for metric, value in import_profile(workdir, reps).items():
                metrics[metric] = (value, "s")
        else:
            job_s = [job.seconds for job in untraced]
            metrics = {
                "job_s": (statistics.median(job_s), "s"),
                "items_per_s": (statistics.median(
                    workload.items_per_job() / s for s in job_s), "1/s"),
                "cli_cold_s": (statistics.median(cli), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        if calibrate is not None:
            calibrate.close()
        shutil.rmtree(workdir, ignore_errors=True)
    detail["errors"] = tally.errors
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "hires-point", "characterize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    pin_threads()
    load_program()
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    for error in detail["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
