"""Self-tests of the benchmark.

    python3 -m pytest perfbench

A reduced-size run of every workload must report each metric named in
BENCHMARK.json with its unit, and corrupted outputs must fail the checks.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run

run.load_program()
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_metric(name, trace):
    result, _ = run.measure(name, seed=3, seconds=1, trace=trace, small=True)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and np.isfinite(metric["value"])
    json.dumps(result)


def test_corrupted_samples_trip_the_check():
    hires = wl.HiresPoint(seed=5, small=True)
    config = hires.inputs(0)[0]
    samples, result = hires.run(config)
    clean = wl.Tally()
    wl.check_samples(config, hires.d, samples, result, clean)
    assert clean.attempted > 0 and clean.failed == 0

    corrupt = samples.copy()
    corrupt[-1] = np.nextafter(corrupt[-1], np.inf)
    tally = wl.Tally()
    wl.check_samples(config, hires.d, corrupt, result, tally)
    assert tally.failed == 1
    assert "straight-line" in tally.errors[0]


def test_wrong_curve_point_trips_the_check():
    sweep = wl.Sweep(seed=5, small=True)
    config = sweep.inputs(0)[0]
    curve = sweep.run(config)
    point = curve.points[0]
    curve.points[0] = replace(point, c_out=np.nextafter(point.c_out, 0.0))
    tally = wl.Tally()
    sweep.check(0, 0, config, curve, tally)
    assert tally.failed == 1
    assert "straight-line" in tally.errors[0]


def test_import_log_parsing():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:        50 |         50 |         scipy.integrate._q",
        "import time:       200 |        250 |     scipy.stats._b",
        "import time:        10 |        600 |   ucadiv.capacity",
        "import time:         5 |        700 | ucadiv",
    ])
    assert run.package_seconds(log, "ucadiv") == pytest.approx(700e-6)
    assert run.package_seconds(log, "scipy.stats") == pytest.approx(350e-6)
    assert run.package_seconds(log, "scipy.integrate") == pytest.approx(50e-6)
    assert run.package_seconds(log, "scipy.constants") == 0.0


def test_self_time_subtracts_direct_children():
    seg = dict(
        name=np.array([0, 3, 4]),
        start=np.array([0.0, 1.0, 2.0]),
        end=np.array([10.0, 5.0, 3.0]),
        parent=np.array([-1, 0, 1]),
    )
    stats = tr.self_times([(1, seg)])
    assert stats[tr.SPAN_NAMES[0]] == (1, 6.0)
    assert stats[tr.SPAN_NAMES[3]] == (1, 3.0)
    assert stats[tr.SPAN_NAMES[4]] == (1, 1.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
