"""File formats, run configuration, result emission, and the CLI surface."""

import argparse
import hashlib
import json
import math
import os
import re
import stat
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ucadiv import capacity, errors
from ucadiv.capacity import (
    OutageCurve,
    SimConfig,
    SpacingResult,
    config_from_dict,
    load_config,
)
from ucadiv.cli import build_parser, cli_main
from ucadiv.errors import DataError, ModelError, ParseError, UcadivError
from ucadiv.fixtures import (
    TABLE1_MODE1,
    TABLE1_MODE2,
    TABLE1_MODES,
    TABLE1_SPACING,
    CouplingModel,
    fixture_sweep,
    table1_fixture,
    table1_sweep,
)
from ucadiv.io import config_hash, emit_curve, parse_impedance, write_impedance
from ucadiv.modes import ArraySweep, fit_modes
from ucadiv.network import FrequencyGrid, default_grid

CONFIG_KEYS = sorted(f.name for f in fields(SimConfig))

# keys that changed no result, and the only values the hash saw of them:
# bandwidth_hz was informational, and retune moved each mode's f0, which
# the box-car budget, centred on the carrier, never reads
DROPPED_KEYS = {"bandwidth_hz": 20000000.0, "retune": True}

THREE_ROW_FILE = (
    "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
    "# funit = relative\n"
    "f,re_z11,im_z11,re_z12,im_z12\n"
    "0.9,70,-30,20,-5\n"
    "1.0,72,1,21,0.5\n"
    "1.1,75,28,22,6\n"
)


class TestImpedanceFiles:
    def test_small_round_trip(self, tmp_path):
        sweep = table1_sweep()
        path = tmp_path / "sweep.csv"
        write_impedance(sweep, path)
        back = parse_impedance(path)
        assert back.n == sweep.n
        assert back.d == sweep.d
        assert_allclose(back.grid.samples, sweep.grid.samples, rtol=0)
        assert_allclose(back.first_row, sweep.first_row, rtol=0)

    def test_write_parse_fit_recovers_modes(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_impedance(table1_sweep(), path)
        modes = fit_modes(parse_impedance(path))
        want = table1_fixture()
        for got, ref in zip(modes.modes, want.modes):
            assert abs(got.r - ref.r) / ref.r < 1e-6
            assert abs(got.q - ref.q) / ref.q < 1e-6
            assert abs(got.f0 - ref.f0) / ref.f0 < 1e-6

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
            "# funit = relative\n"
            "f,re_z11,im_z11,re_z12,im_z12\n"
            "0.9,70,-30,20,-5\n"
            "1.0,72,1,21,0.5\n"
            "1.1,75,28,22,6\n"
        )
        sweep = parse_impedance(path)
        assert sweep.grid.size == 3
        assert sweep.first_row[1, 0] == 72 + 1j

    def test_shuffled_rows_name_first_bad_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
            "f,re_z11,im_z11,re_z12,im_z12\n"
            "1.0,72,1,21,0.5\n"
            "0.9,70,-30,20,-5\n"
            "1.1,75,28,22,6\n"
        )
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == 6
        assert "non-monotone" in str(err.value)

    def test_column_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
            "f,re_z11,im_z11,re_z12,im_z12\n"
            "0.9,70,-30,20\n"
        )
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == 5

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
            "f,re_z11,im_z11,re_z12,im_z12\n"
            "0.9,70,-30,20,-5\n"
            "1.0,seventy,1,21,0.5\n"
        )
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == 6

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# ucadiv impedance sweep v1\n# N = 2\n"
                        "f,re_z11,im_z11\n0.9,70,-30\n")
        with pytest.raises(ParseError):
            parse_impedance(path)

    @pytest.mark.parametrize("old,new,lineno", [
        ("1.0,72,1,", "1.0,72,nan,", 7),
        ("0.9,70,", "nan,70,", 6),  # a NaN passes f <= 0 and f <= prev_f
        ("1.1,75,28,22,6", "1.1,75,28,22,-inf", 8),
        ("1.1,", "1e400,", 8),
        ("# d = 0.25", "# d = nan", 3),
        ("# d = 0.25", "# d = inf", 3),
        ("# d = 0.25", "# d = -1", 3),
        # a header the writer never writes
        pytest.param("# ucadiv impedance sweep v1\n", "", 1, id="no-tag"),
        pytest.param("# d = 0.25\n", "# d = 0.25\n# d = 0.5\n", 4,
                     id="repeated-key"),
        pytest.param("# funit = relative\n",
                     "# funit = relative\n# colour = blue\n", 5,
                     id="unknown-key"),
        # header numbers float() and int() take but the writer never writes
        ("# N = 2", "# N = 0_2", 2),
        ("# N = 2", "# N = +2", 2),
        ("# N = 2", "# N = 2.5", 2),
        ("# d = 0.25", "# d = 0_25", 3),
        ("# d = 0.25", "# d = 0x1p-2", 3),
    ])
    def test_non_finite_or_negative_value_names_line(self, tmp_path, old,
                                                     new, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(THREE_ROW_FILE.replace(old, new))
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == lineno

    @pytest.mark.parametrize("rows,lineno,field", [
        # float() reads both rows as Z = 70 - 30j and 72 + 1j
        pytest.param("0.9,7_0,-30,20,-5\n 1.0 , 72 ,1,21,0.5\n", 5, "7_0",
                     id="underscore"),
        pytest.param("0.9,70,-30,20,-5\n 1.0 , 72 ,1,21,0.5\n", 6, " 1.0 ",
                     id="spaced-row"),
        pytest.param("0.9,70,-30,20,-5\n1.0, 72 ,1,21,0.5\n", 6, " 72 ",
                     id="spaced-field"),
        pytest.param("0.9,70,-30,20,-5\n1.0,72,1,21,+0.5\n", 6, "+0.5",
                     id="plus-sign"),
    ])
    def test_numbers_the_writer_never_writes(self, tmp_path, rows, lineno,
                                             field):
        path = tmp_path / "bad.csv"
        path.write_text("# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
                        "f,re_z11,im_z11,re_z12,im_z12\n" + rows
                        + "1.1,75,28,22,6\n")
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == lineno
        assert str(err.value).endswith(f"not a number: {field!r}")

    @pytest.mark.parametrize("rows,lineno,message", [
        ("1.0,72,1,21,0.5\n0.9,70,-30,20,-5\n1.1,7_0,28,22,6\n", 6,
         "non-monotone frequency 0.9 (previous 1.0)"),
        ("1.0,72,1,21,0.5\n0.9,70,-30,20,-5\n1.1,75,28\n", 6,
         "non-monotone frequency 0.9 (previous 1.0)"),
        ("0.9,7_0,-30,20,-5\n0.8,70,-30,20,-5\n", 5, "not a number: '7_0'"),
        ("0.9,70,-30,20,1e+400\n-1.0,7_0,-30,20,-5\n", 5,
         "non-finite value"),
        ("-0.9,70,-30,20,-5\n", 5, "non-positive frequency -0.9"),
    ])
    def test_first_faulty_line_is_named(self, tmp_path, rows, lineno,
                                        message):
        path = tmp_path / "bad.csv"
        path.write_text("# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
                        "f,re_z11,im_z11,re_z12,im_z12\n" + rows)
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno == lineno
        assert str(err.value).endswith(message)

    def test_writer_numbers_parse_back(self, tmp_path):
        # every shape "{:.17g}" gives: integral, signed zero, both exponents
        path = tmp_path / "ok.csv"
        path.write_text(THREE_ROW_FILE.replace(
            "1.0,72,1,21,0.5", "1.0,7.2e+01,-0,2.1000000000000001e-05,5e+20"))
        assert parse_impedance(path).first_row[1].tolist() == [
            72 - 0j, 2.1000000000000001e-05 + 5e+20j]

    @pytest.mark.parametrize("old,new,message", [
        (THREE_ROW_FILE[THREE_ROW_FILE.index("f,"):], "",
         "file has no column header"),
        ("1.0,72,1,21,0.5\n1.1,75,28,22,6\n", "",
         "need at least two data rows"),
        ("# N = 2", "# N = 0", "element count must be >= 1, got 0"),
    ])
    def test_whole_file_faults_name_no_line(self, tmp_path, old, new,
                                            message):
        path = tmp_path / "bad.csv"
        path.write_text(THREE_ROW_FILE.replace(old, new))
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert err.value.lineno is None
        assert str(err.value) == f"{path}: {message}"

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(THREE_ROW_FILE.encode().replace(b"72", b"\xff\xfe"))
        with pytest.raises(ParseError, match="UTF-8"):
            parse_impedance(path)

    def test_unsupported_frequency_unit(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# ucadiv impedance sweep v1\n# N = 2\n# d = 0.25\n"
            "# funit = GHz\n"
            "f,re_z11,im_z11,re_z12,im_z12\n"
            "0.9,70,-30,20,-5\n1.0,72,1,21,0.5\n"
        )
        with pytest.raises(ParseError) as err:
            parse_impedance(path)
        assert "GHz" in str(err.value)

    @pytest.mark.parametrize("n,d", [(2, 0.05), (2, 0.5), (3, 0.1),
                                     (4, 0.25), (4, 1.0)])
    def test_fixture_files_are_passive(self, tmp_path, n, d):
        from ucadiv.fixtures import fixture_sweep
        from ucadiv.modes import eigen_impedances

        path = tmp_path / "fx.csv"
        write_impedance(fixture_sweep(n, d), path)
        lam = eigen_impedances(parse_impedance(path))  # raises if not passive
        assert np.all(lam.real > 0)


def per_element_writer(sweep):
    """The sweep file bytes, formatted one numpy element at a time."""
    def fmt(x):
        return format(float(x), ".17g")

    m = sweep.n // 2 + 1
    cols = ["f"]
    for j in range(1, m + 1):
        cols += [f"re_z1{j}", f"im_z1{j}"]
    lines = ["# ucadiv impedance sweep v1", f"# N = {sweep.n}",
             f"# d = {fmt(sweep.d)}", "# funit = relative", ",".join(cols)]
    for i, f in enumerate(sweep.grid.samples):
        row = [fmt(f)]
        for j in range(m):
            z = sweep.first_row[i, j]
            row += [fmt(z.real), fmt(z.imag)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def extreme_sweep():
    """N = 3 sweep holding -0.0, the smallest subnormal and +-1e300."""
    vals = np.array([[-0.0, 5e-324, 1e300, -1e300],
                     [-1e300, -0.0, -5e-324, 0.0],
                     [1.0 / 3.0, 1e300, -0.0, 2.0 ** -1074]])
    grid = FrequencyGrid(np.array([0.5, 1.0, 1.0 + 2.0 ** -52]))
    return ArraySweep(n=3, d=-0.0, grid=grid, first_row=vals.view(complex))


def integral_sweep():
    """N = 2 sweep of integer-valued floats with 16 and 17 digits."""
    vals = np.array([[1e16, -12345678901234568.0, 2.0 ** 53, -(2.0 ** 56)],
                     [99999999999999984.0, 1e17, -1e16, 2.0 ** 53 + 2.0]])
    grid = FrequencyGrid(np.array([1.0, 2.0 ** 53]))
    return ArraySweep(n=2, d=1e16, grid=grid, first_row=vals.view(complex))


class TestImpedanceFileBytes:
    """One formatting pass writes the per-element writer's bytes."""

    @pytest.mark.parametrize("make", [
        table1_sweep,
        lambda: fixture_sweep(16, 0.3),
        extreme_sweep,
        integral_sweep,
    ], ids=["table1", "fixture-n16", "extremes", "integral"])
    def test_bytes_and_round_trip_bits(self, make, tmp_path):
        sweep = make()
        path = tmp_path / "z.csv"
        write_impedance(sweep, path)
        assert path.read_bytes() == per_element_writer(sweep)
        back = parse_impedance(path)
        # tobytes tells -0.0 from 0.0, which array_equal does not
        assert back.first_row.tobytes() == sweep.first_row.tobytes()
        assert back.grid.samples.tobytes() == sweep.grid.samples.tobytes()
        assert str(back.d) == str(sweep.d)
        # a blank line between rows is skipped, and nothing else changes
        lines = path.read_text().splitlines(keepends=True)
        gap = tmp_path / "gap.csv"
        gap.write_text("".join(lines[:-1] + ["\n"] + lines[-1:]))
        again = parse_impedance(gap)
        assert again.first_row.tobytes() == back.first_row.tobytes()
        assert again.grid.samples.tobytes() == back.grid.samples.tobytes()
        assert (again.n, again.d) == (back.n, back.d)

    @pytest.mark.parametrize("d,bad,match", [
        (float("nan"), None, "spacing"),
        (-1.0, None, "spacing"),
        (float("inf"), None, "spacing"),
        (0.25, np.nan, "non-finite"),
        (0.25, np.inf, "non-finite"),
    ])
    def test_refuses_what_the_parser_refuses(self, d, bad, match, tmp_path):
        sweep = table1_sweep(default_grid(points=5))
        sweep.d = d
        if bad is not None:
            sweep.first_row[2, 1] = complex(1.0, bad)
        path = tmp_path / "z.csv"
        with pytest.raises(ValueError, match=match):
            write_impedance(sweep, path)
        assert not path.exists()

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        # the writer opens without O_TRUNC and cuts the old tail after
        path, short = tmp_path / "z.csv", table1_sweep()
        write_impedance(fixture_sweep(16, 0.3), path)
        write_impedance(short, path)
        assert path.read_bytes() == per_element_writer(short)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_rewrite_through_a_symlink_keeps_link_and_mode(self, tmp_path):
        target, link = tmp_path / "z.csv", tmp_path / "link.csv"
        write_impedance(fixture_sweep(16, 0.3), target)
        target.chmod(0o640)
        link.symlink_to(target)
        write_impedance(table1_sweep(), link)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == per_element_writer(table1_sweep())
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_symlink_to_dev_null_takes_the_write(self, tmp_path):
        # only a regular file is cut: truncate() on /dev/null is EINVAL
        link = tmp_path / "null.csv"
        link.symlink_to(os.devnull)
        write_impedance(table1_sweep(), link)
        assert link.is_symlink() and link.resolve() == Path(os.devnull)

    def test_refuses_no_element(self):
        # ArraySweep itself refuses, so no such sweep reaches the writer
        g = default_grid(points=5)
        with pytest.raises(ValueError, match="element count"):
            ArraySweep(n=0, d=0.25, grid=g,
                       first_row=np.ones((g.size, 1), dtype=complex))

    def test_refuses_a_single_sample(self, tmp_path):
        sweep = table1_sweep(FrequencyGrid(np.array([1.0])))
        path = tmp_path / "z.csv"
        with pytest.raises(ValueError, match="two"):
            write_impedance(sweep, path)
        assert not path.exists()


class TestTable1Fixture:
    def test_mode_values(self):
        modes = table1_fixture()
        assert (modes.modes[0].r, modes.modes[0].q, modes.modes[0].f0) == (
            118.76, 3.75, 1.0425,
        )
        assert (modes.modes[1].r, modes.modes[1].q, modes.modes[1].f0) == (
            28.31, 16.0, 0.9675,
        )

    def test_derived_inductance_row(self):
        modes = table1_fixture()
        assert abs(modes.modes[0].inductance - 67.99) < 0.005


class TestRunConfig:
    def test_defaults_match_reference_scenario(self):
        sim = config_from_dict({})
        assert sim.subcarriers == 64
        assert sim.relative_bandwidth == 0.02
        assert sim.snr_db == 10.0
        assert (sim.temps.t_antenna, sim.temps.t_forward,
                sim.temps.t_reverse) == (1.0, 2.0, 0.0)
        assert sim.outage_p == 0.01

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError) as err:
            config_from_dict({"subcarirers": 64})
        assert "subcarirers" in str(err.value)

    def test_bad_types_rejected(self):
        with pytest.raises(DataError):
            config_from_dict({"subcarriers": "sixty-four"})
        with pytest.raises(DataError, match="^configuration document "
                                            "must be an object$"):
            config_from_dict([{"seed": 1}])

    def test_schema_violations_rejected(self):
        with pytest.raises(DataError):
            config_from_dict({"outage_p": 0.7})
        with pytest.raises(DataError, match="^input mode must be 'fixture' "
                                            "or 'files', got 'file'$"):
            config_from_dict({"input": "file"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 42, "realizations": 500}))
        run = load_config(path)
        assert run.seed == 42
        assert run.realizations == 500

    def test_repeated_key_refused(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"seed": 1, "realizations": 200, "seed": 5}')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                                             "repeated key 'seed'$"):
            load_config(path)
        rc = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 3 and not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("path", [5, True, None, ["z.csv"]])
    def test_impedance_file_path_must_be_a_string(self, path):
        with pytest.raises(DataError, match="^key 'impedance_files': expected "
                           f"a path string, got {re.escape(repr(path))}$"):
            config_from_dict({"impedance_files": [[0.25, "z.csv"],
                                                  [0.5, path]]})

    def test_json_syntax_error_names_its_line(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{\n  "seed": 42,\n}\n')  # a trailing comma
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert err.value.lineno == 3
        assert str(err.value).startswith(f"{path}:3: Expecting property name")

    def test_hash_sensitivity(self):
        base = config_hash(config_from_dict({}))
        perturbations = [
            {"seed": 1},
            {"realizations": 600},
            {"snr_db": 11.0},
            {"relative_bandwidth": 0.03},
            {"temp_reverse": 0.1},
            {"coupling": False},
            {"spacings": [0.1]},
            {"n_taps": 4},
            {"input": "files"},
        ]
        hashes = {base}
        for doc in perturbations:
            hashes.add(config_hash(config_from_dict(doc)))
        assert len(hashes) == len(perturbations) + 1

    # each pin is config_hash(config_from_dict(doc)) computed by the
    # hand-written key table, parser and to_dict that the schema derived
    # from SimConfig's fields replaced, back when the hashed document still
    # held bandwidth_hz and retune; result files of that time embed them
    @pytest.mark.parametrize("doc,pinned", [
        ({}, "2138195298e0fb98"),
        ({"n_antennas": 16}, "a51e74655682c7df"),
        ({"input": "files", "impedance_files": [[0.25, "z.csv"]]},
         "af75f24b928f8bf3"),
        ({"fixture_modes": [[0.25, [list(TABLE1_MODE1),
                                    list(TABLE1_MODE2)]]]},
         "d70f49aa5e589b13"),
        ({"temp_reverse": 0.7}, "16ab5e03fc5ad67f"),
        ({"n_taps": 2, "tap_powers": [0.75, 0.25]}, "9a88179d83d27071"),
        ({"spacings": [1, 2]}, "95e78493f4a9fe9c"),
        ({"workers": 2}, "2138195298e0fb98"),  # workers is never hashed
    ])
    def test_hash_pins(self, doc, pinned):
        # today's hashed document is that earlier one less the dropped keys
        earlier = {**config_from_dict(doc).to_dict(), **DROPPED_KEYS}
        canon = json.dumps(earlier, sort_keys=True).encode()
        assert hashlib.sha256(canon).hexdigest()[:16] == pinned

    # the same documents hashed without the dropped keys
    @pytest.mark.parametrize("doc,pinned", [
        ({}, "c966990b52c1cd17"),
        ({"n_antennas": 16}, "48e7d39b68404fc9"),
        ({"input": "files", "impedance_files": [[0.25, "z.csv"]]},
         "9dfc723b5d853fb6"),
        ({"fixture_modes": [[0.25, [list(TABLE1_MODE1),
                                    list(TABLE1_MODE2)]]]},
         "4c52a3f3b4e16b1b"),
        ({"temp_reverse": 0.7}, "75cb0f0f36b9f7cb"),
        ({"n_taps": 2, "tap_powers": [0.75, 0.25]}, "ca55de297ca503cb"),
        ({"spacings": [1, 2]}, "bfee2f5c32386a15"),
        ({"workers": 2}, "c966990b52c1cd17"),
    ])
    def test_config_hash_pins(self, doc, pinned):
        assert config_hash(config_from_dict(doc)) == pinned

    @pytest.mark.parametrize("key", sorted(DROPPED_KEYS))
    def test_dropped_keys_refused(self, key):
        with pytest.raises(DataError) as err:
            config_from_dict({key: DROPPED_KEYS[key]})
        assert key in str(err.value)

    def test_readme_key_table_is_the_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("**Run configuration JSON**")[1]
        rows = re.findall(r"^\| `(\w+)` \|.*\| `(.+)` \|$",
                          section.split("**Results**")[0], re.M)
        assert sorted(key for key, _ in rows) == CONFIG_KEYS
        run = SimConfig()
        defaults = json.loads(json.dumps(run.to_dict()))
        defaults["workers"] = run.workers
        assert {key: json.loads(v) for key, v in rows} == defaults

    def test_readme_flag_table_is_the_parser(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("Each subcommand accepts only the flags")[1]
        rows = re.findall(r"^\| `(\w+)` \| (.+) \|$",
                          section.split("\n\n")[1], re.M)
        # a code span's first word names its flag: `--spacing D [D ...]`
        documented = {command: sorted(span.split()[0] for span
                                      in re.findall(r"`([^`]+)`", cell))
                      for command, cell in rows}
        assert len(documented) == len(rows)  # one row per subcommand
        [commands] = [a.choices for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        # a positional argument is documented by its upper-cased name
        parsed = {command: sorted(flag for a in p._actions
                                  if not isinstance(a, argparse._HelpAction)
                                  for flag in a.option_strings
                                  or [a.dest.upper()])
                  for command, p in commands.items()}
        assert documented == parsed

    def test_fixture_modes_pinning(self):
        run = config_from_dict({
            "fixture_modes": [
                [0.25, [[118.76, 3.75, 1.0425], [28.31, 16.0, 0.9675]]],
            ],
        })
        assert run.fixture_modes[0][0] == 0.25
        assert run.fixture_modes[0][1][1] == (28.31, 16.0, 0.9675)

    def test_spacings_apart_by_more_than_the_match_rule_are_kept(self):
        t1 = [list(TABLE1_MODE1), list(TABLE1_MODE2)]
        run = config_from_dict({"impedance_files": [[0.25, "z.csv"]],
                                "fixture_modes": [[0.25 + 4e-12, t1]]})
        assert run.impedance_files == ((0.25, "z.csv"),)

    def test_input_mode_refused_at_construction(self):
        with pytest.raises(ValueError, match="^input mode must be 'fixture' "
                                             "or 'files', got 'bogus'$"):
            SimConfig(input="bogus")

    @pytest.mark.parametrize("files,pinned", [
        (((0.25, "a.csv"), (0.25 + 1e-12, "b.csv")), ()),
        (((0.25, "a.csv"),), ((0.25, tuple(TABLE1_MODES)),)),
        ((), ((0.5, tuple(TABLE1_MODES)), (0.5, tuple(TABLE1_MODES)))),
    ], ids=["two-files", "file-and-modes", "two-modes"])
    def test_spacing_configured_twice_refused_at_construction(self, files,
                                                              pinned):
        with pytest.raises(ValueError, match=r"^spacing 0\.(25|5) is "
                           "configured more than once in impedance_files "
                           "and fixture_modes$"):
            SimConfig(impedance_files=files, fixture_modes=pinned)

    @pytest.mark.parametrize("kwargs,message", [
        ({"impedance_files": ((0.25,),)}, "key 'impedance_files': expected "
         "a [spacing, value] pair, got (0.25,)"),
        ({"impedance_files": [("0.25", "z.csv")]}, "key 'impedance_files': "
         "expected a finite number, got '0.25'"),
        ({"fixture_modes": ((0.25, ((1.0, 2.0),)),)}, "key 'fixture_modes': "
         "expected [R, Q, f0] triples, got ((1.0, 2.0),)"),
        ({"spacings": (0.25, None)}, "key 'spacings': expected a finite "
         "number, got None"),
        ({"n_antennas": True}, "key 'n_antennas' has wrong type bool"),
        ({"seed": 1.5}, "key 'seed' has wrong type float"),
        ({"realizations": 100.5}, "key 'realizations' has wrong type float"),
    ])
    def test_python_config_names_the_faulty_key(self, kwargs, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SimConfig(**kwargs)

    def test_config_not_utf8_names_its_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"realizations": "\xff"}')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                                             "not UTF-8 text: "):
            load_config(path)
        rc = cli_main(["sweep", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 3 and not (tmp_path / "sweep.json").exists()
        assert capsys.readouterr().err.startswith(f"error: {path}: not "
                                                  "UTF-8 text: ")

    @pytest.mark.parametrize("input_doc", ["files", "fixture_modes",
                                           "python", "table1"])
    def test_library_sweep_writes_the_cli_bytes(self, tmp_path, input_doc):
        # sweep(load_config(path)) reads the files and pinned modes the CLI
        # reads, and SimConfig(**doc), given an int for a float and a list
        # for a tuple, stores what the document does: same csv and json
        # bytes as `ucadiv sweep --config path`.  `--fixture table1
        # --spacing 0.25` is shorthand for the table1 document's keys
        z = tmp_path / "d025.csv"
        write_impedance(table1_sweep(), z)
        doc = {"spacings": [0.1, 0.25], "seed": 3, "realizations": 200,
               **{"files": {"input": "files",
                            "impedance_files": [[0.25, str(z)]]},
                  "fixture_modes": {"fixture_modes": [
                      [0.1, [list(m) for m in TABLE1_MODES]]]},
                  "python": {"snr_db": 12},
                  "table1": {"spacings": [0.25], "input": "files",
                             "fixture_modes": [[0.25, TABLE1_MODES]]},
                  }[input_doc]}
        cli_doc, flags = doc, []
        if input_doc == "table1":
            cli_doc = {"seed": 3, "realizations": 200}
            flags = ["--fixture", "table1", "--spacing", "0.25"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cli_doc))
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        rc = cli_main(["sweep", "--config", str(cfg), *flags,
                       "--out", str(cli_dir)])
        assert rc == (3 if input_doc == "files" else 0)
        config = (SimConfig(**doc) if input_doc in ("python", "table1")
                  else load_config(cfg))
        emit_curve(capacity.sweep(config), config, lib_dir)
        for name in ("sweep.csv", "sweep.json"):
            assert (lib_dir / name).read_bytes() == (cli_dir /
                                                     name).read_bytes()
        points = json.loads((lib_dir / "sweep.json").read_text())["points"]
        missing = "no impedance_files or fixture_modes entry for spacing 0.1"
        assert [p["error"] for p in points] == (
            [missing, None] if input_doc == "files"
            else [None] * len(doc["spacings"]))


# any JSON value: scalars (unbounded ints, non-finite floats) and nested lists
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
CONFIG_DOCS = st.dictionaries(st.sampled_from(CONFIG_KEYS),
                              JSON_VALUES, max_size=4)
# in-range values for every key; whole numbers may stand for floats
_REAL = st.floats(-50, 50) | st.integers(-50, 50)
_TEMP = st.floats(0, 10) | st.integers(0, 10)
_SPACING = st.floats(0, 2) | st.integers(0, 2)
_TRIPLE = st.lists(st.floats(0.1, 200), min_size=3, max_size=3)
VALID_DOCS = st.fixed_dictionaries({}, optional={
    "n_antennas": st.integers(1, 16),
    "spacings": st.lists(_SPACING, max_size=3),
    "subcarriers": st.integers(8, 128),
    "relative_bandwidth": st.floats(0.001, 1.9),
    "snr_db": _REAL,
    "temp_antenna": _TEMP,
    "temp_forward": _TEMP,
    "temp_reverse": _TEMP,
    "realizations": st.integers(100, 10**6),
    "outage_p": st.floats(0.01, 0.49),
    "seed": st.integers(0, 2**63),
    "n_taps": st.integers(1, 8),
    "tap_powers": st.sampled_from([None, [1.0], [0.75, 0.25], [1, 0]]),
    "coupling": st.booleans(),
    "planewaves": st.integers(1, 64),
    "workers": st.integers(1, 4),
    "input": st.sampled_from(["fixture", "files"]),
    "impedance_files": st.lists(st.tuples(_SPACING, st.text(max_size=4))
                                .map(list), max_size=2),
    "fixture_modes": st.lists(
        st.tuples(_SPACING, st.lists(_TRIPLE, max_size=3)).map(list),
        max_size=2),
})


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_only_config_error_escapes(self, doc):
        try:
            run = config_from_dict(doc)
        except DataError:
            return
        assert isinstance(run, SimConfig)
        # a bool is a number to isinstance, but only the flag takes one
        assert all(key == "coupling"
                   for key, value in doc.items() if isinstance(value, bool))

    @settings(max_examples=300, deadline=None)
    @given(doc=VALID_DOCS)
    def test_result_config_reads_back(self, doc):
        # the "config" of a result json re-runs the same configuration
        try:
            run = config_from_dict(doc)
        except DataError:  # e.g. too few realizations for outage_p
            return
        back = config_from_dict(json.loads(json.dumps(run.to_dict())))
        assert back == replace(run, workers=1)
        assert config_hash(back) == config_hash(run)

    @settings(max_examples=200, deadline=None)
    @given(doc=VALID_DOCS)
    def test_python_config_is_the_document_config(self, doc):
        # one schema: SimConfig(**doc) stores and hashes what the JSON does
        try:
            run = config_from_dict(doc)
        except DataError:
            return
        built = SimConfig(**doc)
        assert built == run and config_hash(built) == config_hash(run)

    @settings(max_examples=200, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_python_config_refuses_what_the_document_refuses(self, doc):
        try:
            SimConfig(**doc)
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                config_from_dict(doc)
        else:
            config_from_dict(doc)


# tokens a corrupted or hand-edited file might hold
BAD_TOKENS = ["nan", "NaN", "inf", "-inf", "1e400", "-1", "0", "", "junk",
              "1,2", "=", "# d = 1", "\u00e9"]


def _mutate(lines, op):
    """One edit of a sweep file's lines; indices wrap around."""
    kind, i, j, k, token = op
    i %= len(lines)
    fields = lines[i].split(",")
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j, k = j % len(fields), k % len(fields)
        fields[j], fields[k] = fields[k], fields[j]
        lines[i] = ",".join(fields)
    elif kind == "field":
        fields[j % len(fields)] = token
        lines[i] = ",".join(fields)
    elif kind == "header":  # the value of a "# key = value" line
        key = ("N", "d", "funit")[j % 3]
        lines = [f"# {key} = {token}" if ln.startswith(f"# {key} =") else ln
                 for ln in lines]
    else:
        lines[i] = token
    return lines or [""]


MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["drop", "duplicate", "swap", "field",
                               "header", "line"]),
              st.integers(0, 40), st.integers(0, 4), st.integers(0, 4),
              st.sampled_from(BAD_TOKENS)),
    min_size=1, max_size=4,
)


class TestImpedanceFuzz:
    @settings(max_examples=200, deadline=None)
    @given(ops=MUTATIONS)
    def test_only_ucadiv_error_escapes(self, ops, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        write_impedance(table1_sweep(default_grid(points=12)), path)
        lines = path.read_text().splitlines()
        for op in ops:
            lines = _mutate(lines, op)
        path.write_text("\n".join(lines) + "\n")
        try:
            sweep = parse_impedance(path)
        except UcadivError:
            return
        assert math.isfinite(sweep.d) and sweep.d >= 0
        assert np.all(np.isfinite(sweep.grid.samples))
        assert np.all(np.isfinite(sweep.first_row))


# argv tokens per flag, valid and not; a switch takes none.  "@name" is a
# file prepared by the test.  The Monte-Carlo values keep a run small: at
# most 300 realizations and 2 workers.
CLI_FLAGS = {
    "--config": ["@run.json", "@files.json", "@bad.json", "@missing.json",
                 "@"],
    "--fixture": ["table1", "other"],
    "--spacing": ["0.25", "0.5", "0", "-1", "nan", "1e400", "x"],
    "--workers": ["-1", "0", "1", "2"],
    "--seed": ["0", "-3", str(2**70), "x"],
    "--realizations": ["-1", "0", "1", "150", "300", "x"],
    "--n": ["-1", "0", "1", "3"],
    # --span and --points are taken by no subcommand
    "--span": ["0.15", "0", "-1", "nan"],
    "--points": ["-1", "0", "1", "3", "12"],
    "--bits": [], "-v": [], "--bogus": [],
}


_INPUT = ["--config", "--fixture", "--spacing"]
_MONTE_CARLO = _INPUT + ["--workers", "--seed", "--realizations", "--bits",
                         "-v"]
# each subcommand's own flags; the others are usage errors
CLI_OWN_FLAGS = {
    "modes": _INPUT, "match": _INPUT,
    "capacity": _MONTE_CARLO, "sweep": _MONTE_CARLO,
    "fit": [], "fixture": ["--n", "--spacing"],
    "other": [],
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(CLI_OWN_FLAGS)))
    argv = [command]
    if command == "fit":
        argv.append(draw(st.sampled_from(["@sweep.csv", "@bad.json",
                                          "@missing.csv", "@"])))
    if command in ("capacity", "sweep"):  # the default is 5000
        argv += ["--realizations", draw(st.sampled_from(["150", "300"]))]
    own = CLI_OWN_FLAGS[command]
    flags = draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
    flags += draw(st.lists(st.sampled_from(sorted(CLI_FLAGS)), max_size=1))
    for flag in flags:
        argv.append(flag)
        if flag == "--spacing":  # a count other than one may be a usage error
            argv += draw(st.lists(st.sampled_from(CLI_FLAGS[flag]),
                                  max_size=2))
        elif CLI_FLAGS[flag]:
            argv.append(draw(st.sampled_from(CLI_FLAGS[flag])))
    return argv


class TestCliFuzz:
    @settings(max_examples=100, deadline=None)
    @given(argv=cli_argvs())
    def test_only_exit_codes_escape(self, argv, tmp_path_factory):
        base = tmp_path_factory.getbasetemp() / "cli-fuzz"
        base.mkdir(exist_ok=True)
        write_impedance(table1_sweep(), base / "sweep.csv")
        (base / "run.json").write_text(json.dumps(
            {"spacings": [0.25, 0.5], "realizations": 150}))
        (base / "files.json").write_text(json.dumps({
            "input": "files", "spacings": [0.25, 0.5], "realizations": 150,
            "impedance_files": [[0.25, str(base / "sweep.csv")]],
        }))
        (base / "bad.json").write_text("{")
        argv = [str(base / a[1:]) if a.startswith("@") else a for a in argv]
        out = base / "out"
        for stale in out.glob("fixture_*.csv"):
            stale.unlink()
        try:
            rc = cli_main(argv + ["--out", str(out)])
        except SystemExit as exc:  # an argparse usage error
            assert exc.code == 2
            return
        assert isinstance(rc, int) and rc in (0, 2, 3, 4, 5)
        # a fixture run writes a file the parser accepts, or exits non-zero
        # and writes nothing
        written = list(out.glob("fixture_*.csv"))
        if argv[0] == "fixture" and rc == 0:
            assert len(written) == 1
            parse_impedance(written[0])
        else:
            assert written == []


class TestCli:
    def test_modes_fixture_table1(self, capsys):
        assert cli_main(["modes", "--fixture", "table1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # one row per mode plus header, usable bandwidths included
        assert len(lines) == 3
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert_allclose(float(row1[2]), 118.76)
        assert_allclose(float(row2[2]), 28.31)
        assert float(row1[9]) > float(row2[9])  # broadband mode is wider

    def test_match_report(self, capsys):
        assert cli_main(["match", "--fixture", "table1"]) == 0
        out = capsys.readouterr().out
        assert "gamma0" in out.splitlines()[0]

    def test_fit_subcommand(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_impedance(table1_sweep(), path)
        assert cli_main(["fit", str(path)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert_allclose(float(row[2]), 118.76, rtol=1e-9)

    def test_fixture_then_fit_pipeline(self, tmp_path, capsys):
        assert cli_main(["fixture", "--n", "2", "--spacing", "0.25",
                         "--out", str(tmp_path)]) == 0
        produced = capsys.readouterr().out.strip()
        assert os.path.exists(produced)
        assert cli_main(["fit", produced]) == 0

    def test_sweep_empty_spacings_is_usage_error(self, tmp_path, capsys):
        # a bare flag is a usage error; an empty key, an invalid config
        assert cli_main(["sweep", "--spacing"]) == 2
        capsys.readouterr()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spacings": []}))
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: sweep needs at least one spacing\n")
        assert not out.exists()

    def test_every_error_has_an_exit_code(self):
        # cli_main maps these three categories to exits 3, 4 and 5; it has
        # no branch for any other UcadivError
        categories = (errors.DataError, errors.ModelError,
                      errors.NumericError)
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, UcadivError)]
        assert len(classes) > len(categories) + 1
        assert [c for c in classes
                if not issubclass(c, categories)] == [UcadivError]

    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert cli_main(["modes", "--bogus"]) == 2

    @pytest.mark.parametrize("flag", ["--retune", "--no-retune"])
    def test_retune_flags_gone_exit_2(self, flag, tmp_path, capsys):
        assert cli_main(["capacity", flag, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "capacity.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["modes", "--seed", "1"],
        ["match", "--bits"],
        ["fit", "sweep.csv", "--config", "run.json"],
        ["fixture", "--realizations", "10"],
    ])
    def test_flags_are_per_subcommand(self, argv, capsys):
        assert cli_main(argv) == 2

    @pytest.mark.parametrize("doc", [
        {"spacings": ["a"]},
        {"spacings": [True]},
        {"spacings": [-0.1]},
        {"spacings": [float("inf")]},
        {"n_antennas": 0},
        {"snr_db": float("nan")},
        {"temp_forward": float("nan")},
        {"realizations": 2**32 + 1},
        {"impedance_files": [1]},
        {"fixture_modes": [5]},
        {"fixture_modes": [[0.25, [[118.76, 3.75], [28.31, 16.0]]]]},
        {"n_antennas": True, "spacings": [0.25], "realizations": 200},
        {"snr_db": True},
        {"snr_db": 10**400},
        {"snr_db": 4000},  # would overflow snr_linear
        {"snr_db": 3080},  # would overflow the capacity products
        {"n_taps": 1, "tap_powers": [True]},
        {"bandwidth_hz": 2e7},  # keys that no longer exist
        {"retune": True},
        {"retune": False},
        {"n_taps": 2, "tap_powers": [float("nan"), 1.0]},
        {"fixture_modes": [[0.25, [[118.76, 3.75, float("inf")]] * 2]]},
        {"workers": 0},
        {"workers": -2},
        {"spacings": [0.25, 0.5], "realizations": 200,
         "tap_powers": [1.5, -0.5, 0, 0, 0, 0, 0, 0]},
        {"tap_powers": [0.5, 0.6]},
        {"seed": -1},
        {"n_taps": 0},
        {"planewaves": 2, "n_antennas": 4},
    ])
    def test_bad_config_exit_3(self, doc, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"realizations": 150, **doc}))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "Traceback" not in err
        if "tap_powers" in doc:  # named, and refused before any draw
            assert "tap_powers" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["capacity", "sweep"])
    def test_workers_below_one_exit_3(self, command, tmp_path, capsys):
        rc = cli_main([command, "--workers", "0", "--realizations", "150",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: need at least one worker")

    @pytest.mark.parametrize("command", ["capacity", "sweep"])
    def test_negative_seed_exit_3(self, command, tmp_path, capsys):
        # -1 used to reach the random streams, which refused it unnamed
        rc = cli_main([command, "--seed", "-1", "--realizations", "150",
                       "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert os.listdir(tmp_path) == []

    def test_unallocatable_config_exit_3(self, tmp_path, capsys):
        # 10**14 sub-carriers ask for 728 TiB, beyond the 128 TiB address
        # space of a 64-bit Linux process, so the allocation fails before a
        # page is touched; its MemoryError used to escape as a traceback
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"subcarriers": 10**14, "spacings": [0.25],
                                   "realizations": 200}))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fixture_without_antennas_exit_3(self, n, tmp_path, capsys):
        # N = 0 used to escape as an IndexError traceback
        rc = cli_main(["fixture", "--n", n, "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--spacing", "nan"],
                                      ["--spacing", "-1"],
                                      ["--spacing", "inf"],
                                      ["--spacing", "1e400"]])
    def test_fixture_unparseable_sweep_exit_3(self, argv, tmp_path, capsys):
        # these used to exit 0 with a file that parse_impedance refuses; a
        # bad spacing was blamed on the R, Q and f0 it made
        rc = cli_main(["fixture", *argv, "--out", str(tmp_path)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert err.endswith(f", spacing {float(argv[1])}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [["--span", "0.1"], ["--points", "5"]])
    def test_fixture_grid_flags_gone_exit_2(self, argv, tmp_path, capsys):
        # fixture writes the default grid; a grid of its own is one
        # library call away, write_impedance(fixture_sweep(n, d, grid), path)
        assert cli_main(["fixture", *argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == ""
        assert os.listdir(tmp_path) == []

    def test_fit_reports_residuals_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        write_impedance(table1_sweep(), path)
        assert cli_main(["fit", str(path), "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert out == (tmp_path / "fit.csv").read_text()
        assert "residual" not in out
        modes = fit_modes(parse_impedance(path)).modes
        assert err.splitlines() == [
            f"mode {m}: rms fit residual {mode.fit_residual:.3g} ohm"
            for m, mode in enumerate(modes)
        ]

    def test_coarse_quantile_warns_on_stderr(self, tmp_path, capsys):
        assert cli_main(["sweep", "--realizations", "1000",
                         "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: 1000 samples resolve the 0.01 outage "
                       "quantile coarsely; about 10000 are needed\n")
        assert "warning" not in out
        assert cli_main(["capacity", "--realizations", "150",
                         "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err.startswith("warning: 150 samples ")
        assert cli_main(["sweep", "--realizations", "10000", "--spacing",
                         "0.25", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_zero_noise_temperatures_exit_5(self, tmp_path, capsys):
        # N0 = 0 used to give 0/0 samples: an all-NaN curve and exit 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25], "realizations": 150,
            "temp_antenna": 0.0, "temp_forward": 0.0,
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 5
        assert capsys.readouterr().err.startswith("numeric error: ")
        table = (tmp_path / "sweep.csv").read_text()
        assert "nan" not in table
        assert table.splitlines()[1].split(",")[1:3] == ["error", "error"]

    def test_reverse_noise_above_antenna_noise_exit_5(self, tmp_path, capsys):
        # (T_A - T_r) < 0 makes the floor negative; it was reported as zero
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25], "realizations": 200, "temp_reverse": 3.0,
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 5
        out, err = capsys.readouterr()
        assert err.startswith("numeric error: negative or NaN noise floor "
                              "(minimum -")
        assert "zero noise" not in out + err

    def test_unphysical_spacing_fails_its_point_exit_5(self, tmp_path,
                                                       capsys):
        # d = 1e308 gave NaN phases; the NaN R_h passed the PSD test, the
        # JSON writer refused the NaN curve (exit 3) and the good point was
        # lost with it.  Its infinite phase is refused before any is taken.
        rc = cli_main(["sweep", "--spacing", "0.25", "1e308",
                       "--realizations", "200", "--out", str(tmp_path)])
        assert rc == 5
        out, err = capsys.readouterr()
        assert "Warning" not in err
        assert err.startswith("numeric error: spacing 1e+308 is too large")
        assert out.splitlines()[1].startswith("d = 1e+308: failed (")
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][0] == "0.25" and float(rows[0][1]) > 0
        assert rows[1][:3] == ["1e+308", "error", "error"]
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert len(doc["points"]) == 2
        rc = cli_main(["capacity", "--spacing", "1e308", "--realizations",
                       "200", "--out", str(tmp_path / "cap")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "Warning" not in err and err.startswith("numeric error: ")

    def test_unresolved_phase_spacing_fails_its_point_exit_5(self, tmp_path,
                                                             capsys):
        # d = 1e300 gave a capacity made of rounding noise, and exit 0
        rc = cli_main(["sweep", "--spacing", "0.25", "1e300",
                       "--realizations", "200", "--out", str(tmp_path)])
        assert rc == 5
        out, err = capsys.readouterr()
        assert err.startswith("numeric error: spacing 1e+300 is too large")
        assert out.splitlines()[1].startswith("d = 1e+300: failed (")
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][0] == "0.25" and float(rows[0][1]) > 0
        assert float(rows[1][0]) == 1e300
        assert rows[1][1:3] == ["error", "error"]
        rc = cli_main(["capacity", "--spacing", "1e300", "--realizations",
                       "200", "--out", str(tmp_path / "cap")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("numeric error: spacing ")

    def test_wrong_triple_count_fails_its_spacing_exit_3(self, tmp_path,
                                                         capsys):
        # a wrong count, Table I's pair at N = 4 included, is refused when
        # the config is built, naming key and spacing; a non-positive
        # triple fails only its own spacing
        count = "key 'fixture_modes': spacing 0.5 needs 3 (R, Q, f0) " \
                "triples for N=4, got 2"
        for i, (n, triples, message) in enumerate([
            (4, [list(TABLE1_MODE1), list(TABLE1_MODE2)], count),
            (4, [[100, 5, 1], [30, 8, 1]], count),
            (2, [[-1, 1, 1], [1, 1, 1]],
             "R, Q and f0 must all be finite and positive"),
        ]):
            out = tmp_path / f"out{i}"
            cfg = tmp_path / f"run{i}.json"
            cfg.write_text(json.dumps({
                "n_antennas": n, "spacings": [0.25, 0.5],
                "realizations": 150, "fixture_modes": [[0.5, triples]],
            }))
            rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
            assert rc == 3
            assert capsys.readouterr().err == f"error: {message}\n"
            if message == count:
                assert not out.exists()
                continue
            rows = [r.split(",") for r in
                    (out / "sweep.csv").read_text().splitlines()[1:]]
            assert float(rows[0][1]) > 0
            assert rows[1][:3] == ["0.5", "error", "error"]

    @pytest.mark.parametrize("command", ["modes", "match", "capacity"])
    @pytest.mark.parametrize("values", [[], ["0.25", "0.5"]])
    def test_single_spacing_takes_one_value(self, command, values, tmp_path,
                                            capsys):
        # extra spacings were ignored, and a bare --spacing fell back to
        # the Table I spacing, both with exit 0
        rc = cli_main([command, "--spacing", *values,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().out == ""
        assert os.listdir(tmp_path) == []

    def test_match_underflowing_budget_exit_5(self, tmp_path, capsys):
        # |Gamma0|^2 = exp(-2 pi / (3.75 * 0.001)) is 0.0 in double
        # precision; the check took log(0) and exited 3 on a bare ValueError
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({"relative_bandwidth": 0.001}))
        rc = cli_main(["match", "--fixture", "table1", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ")
        assert "Q = 3.75" in err and "W = 0.001" in err
        assert "underflows double precision" in err

    def test_linalg_error_exit_5(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(capacity, "_monte_carlo", singular)
        rc = cli_main(["capacity", "--realizations", "150",
                       "--out", str(tmp_path)])
        assert rc == 5
        assert capsys.readouterr().err == "numeric error: Singular matrix\n"

    def test_fit_nan_impedance_exit_3(self, tmp_path, capsys):
        # a NaN impedance used to fit to NaN R/Q/f0 with exit 0
        path = tmp_path / "sweep.csv"
        write_impedance(table1_sweep(), path)
        lines = path.read_text().splitlines()
        row = lines[100].split(",")
        lines[100] = ",".join(row[:2] + ["nan"] + row[3:])
        path.write_text("\n".join(lines) + "\n")
        assert cli_main(["fit", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}:101: ")

    @pytest.mark.parametrize("argv,doc,stem", [
        (["capacity", "--spacing", "0.25", "--realizations", "150"], None,
         "capacity"),
        (["sweep"], {"spacings": [0.25, 0.5], "realizations": 150}, "sweep"),
        # an error point: its NaN capacity is written as null
        (["sweep"], {"spacings": [0.25], "realizations": 150,
                     "temp_antenna": 0.0, "temp_forward": 0.0}, "sweep"),
    ])
    def test_result_json_is_strict(self, argv, doc, stem, tmp_path):
        if doc is not None:
            (tmp_path / "run.json").write_text(json.dumps(doc))
            argv = argv + ["--config", str(tmp_path / "run.json")]
        cli_main(argv + ["--out", str(tmp_path)])

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        json.loads((tmp_path / f"{stem}.json").read_text(),
                   parse_constant=reject)

    def test_non_finite_result_writes_nothing(self, tmp_path):
        point = SpacingResult(d=0.25, c_out=math.inf, ci_half_width=0.0,
                              n_samples=150)
        curve = OutageCurve(points=[point])
        with pytest.raises(ValueError, match="JSON"):
            emit_curve(curve, SimConfig(), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_fit_without_resonance_exit_4(self, tmp_path, capsys):
        # a reactance that never crosses zero is a model error, not bad data
        grid = default_grid(points=101)
        row = np.zeros((grid.size, 2), dtype=complex)
        row[:, 0] = 50.0 + 30.0j
        path = tmp_path / "flat.csv"
        write_impedance(ArraySweep(n=2, d=0.25, grid=grid, first_row=row),
                        path)
        assert cli_main(["fit", str(path), "--out", str(tmp_path)]) == 4
        assert capsys.readouterr() == (
            "", "model error: reactance does not cross zero in the fit "
                "band\n")
        assert not (tmp_path / "fit.csv").exists()

    def test_indefinite_correlation_fails_its_point_exit_4(self, tmp_path,
                                                            capsys):
        # at N = 3 and 7 plane waves, R_h at d = 2.5 is not PSD
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_antennas": 3, "spacings": [0.25, 2.5],
                                   "planewaves": 7, "realizations": 150}))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        assert capsys.readouterr().err == (
            "model error: correlation matrix is not PSD (min eigenvalue "
            "-0.363)\n")
        rows = [r.split(",")[:4] for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][0] == "0.25" and rows[0][3] == "150"
        assert rows[1] == ["2.5", "error", "error", "0"]

    def test_fully_reflecting_budgets_fail_their_point_exit_4(self, tmp_path,
                                                              capsys):
        # Q = 1e20 rounds every |Gamma0| to 1 on a grid inside the band; the
        # error blamed the grid alone
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "fixture_modes": [[0.25, [[100, 1e20, 1], [30, 1e20, 1]]]],
            "spacings": [0.25], "realizations": 200}))
        rc = cli_main(["capacity", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("model error: every |Gamma| is 1: ")
        assert "every budget reflects fully" in err
        rows = [r.split(",")[:4] for r in
                (tmp_path / "capacity.csv").read_text().splitlines()[1:]]
        assert rows == [["0.25", "error", "error", "0"]]

    def test_planewaves_unchecked_without_coupling_exit_0(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"coupling": False, "planewaves": 2,
                                   "n_antennas": 4, "spacings": [0.25],
                                   "realizations": 150}))
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0

    def test_fit_of_two_samples_exit_3(self, tmp_path, capsys):
        # write_impedance takes two samples; the RLC fit needs three
        path = tmp_path / "two.csv"
        write_impedance(table1_sweep(default_grid(points=2)), path)
        assert cli_main(["fit", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: fit band must contain at least three samples\n")
        assert not (tmp_path / "fit.csv").exists()

    def test_parse_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not an impedance file\n")
        assert cli_main(["fit", str(bad)]) == 3

    def test_capacity_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["capacity", "--seed", "7", "--realizations", "200",
                "--spacing", "0.25"]
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for name in ("capacity.csv", "capacity.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("argv,stem,ran", [
        (["capacity", "--spacing", "0.25"], "capacity", 1),
        (["sweep", "--spacing", "0.1", "0.5"], "sweep", 2),
    ])
    def test_verbose_timing_goes_to_stderr_only(self, tmp_path, capsys, argv,
                                                stem, ran):
        args = argv + ["--seed", "7", "--realizations", "200"]
        assert cli_main(args + ["--out", str(tmp_path / "quiet")]) == 0
        quiet = capsys.readouterr()
        assert cli_main(args + ["-v", "--out", str(tmp_path / "loud")]) == 0
        loud = capsys.readouterr()
        for name in (f"{stem}.csv", f"{stem}.json"):
            assert ((tmp_path / "quiet" / name).read_bytes()
                    == (tmp_path / "loud" / name).read_bytes())
        # stdout gains only the file names; the timing line is on stderr
        assert loud.out.startswith(quiet.out)
        assert loud.out[len(quiet.out):].startswith("wrote ")
        assert "realizations/s" not in loud.out
        timing = loud.err.replace(quiet.err, "")
        assert re.fullmatch(rf"monte carlo: \d+\.\d{{3}} s for 200 "
                            rf"realizations x {ran} spacings, \d+ "
                            rf"realizations/s\n", timing)

    def test_default_capacity_changes_only_hash_and_config(self, tmp_path):
        # the earlier files are what `ucadiv capacity --out DIR` wrote at
        # defaults while bandwidth_hz and retune were still config keys
        earlier_hash, now_hash = "6a650cbca7233a22", "82a05aee9d20de20"
        earlier_csv = (
            "spacing,c_out_nats,ci_half_width,samples,seed,config\n"
            "0.25,2.0988592828669201,0.033341292997960625,5000,0,"
            f"{earlier_hash}\n"
        )
        earlier_json = "\n".join([
            '{', '  "capacity_unit": "nats/s/Hz",', '  "config": {',
            '    "bandwidth_hz": 20000000.0,', '    "coupling": true,',
            '    "fixture_modes": [],', '    "impedance_files": [],',
            '    "input": "fixture",', '    "n_antennas": 2,',
            '    "n_taps": 8,', '    "outage_p": 0.01,',
            '    "planewaves": 32,', '    "realizations": 5000,',
            '    "relative_bandwidth": 0.02,', '    "retune": true,',
            '    "seed": 0,', '    "snr_db": 10.0,', '    "spacings": [',
            '      0.25', '    ],', '    "subcarriers": 64,',
            '    "tap_powers": null,', '    "temp_antenna": 1.0,',
            '    "temp_forward": 2.0,', '    "temp_reverse": 0.0', '  },',
            f'  "config_hash": "{earlier_hash}",', '  "points": [', '    {',
            '      "c_out": 2.09885928286692,',
            '      "ci_half_width": 0.033341292997960625,',
            '      "error": null,', '      "samples": 5000,',
            '      "spacing": 0.25', '    }', '  ]', '}', '',
        ])
        assert cli_main(["capacity", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "capacity.csv").read_text() == (
            earlier_csv.replace(earlier_hash, now_hash))
        want = earlier_json.replace(earlier_hash, now_hash)
        for line in ('    "bandwidth_hz": 20000000.0,\n',
                     '    "retune": true,\n'):
            want = want.replace(line, "")
        assert (tmp_path / "capacity.json").read_text() == want

    def test_sweep_writes_results(self, tmp_path, capsys):
        assert cli_main([
            "sweep", "--spacing", "0.25", "0.5", "--realizations", "150",
            "--seed", "3", "--out", str(tmp_path),
        ]) == 0
        table = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(table) == 3
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["config"]["seed"] == 3
        assert len(doc["points"]) == 2

    def test_bits_flag_scales_output(self, tmp_path):
        args = ["capacity", "--seed", "5", "--realizations", "150",
                "--spacing", "0.5"]
        assert cli_main(args + ["--out", str(tmp_path / "nats")]) == 0
        assert cli_main(args + ["--bits", "--out", str(tmp_path / "bits")]) == 0
        nats = (tmp_path / "nats" / "capacity.csv").read_text().splitlines()[1]
        bits = (tmp_path / "bits" / "capacity.csv").read_text().splitlines()[1]
        c_nats = float(nats.split(",")[1])
        c_bits = float(bits.split(",")[1])
        assert_allclose(c_bits, c_nats / np.log(2.0), rtol=1e-12)

    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("UCADIV_OUTDIR", str(tmp_path))
        assert cli_main(["capacity", "--seed", "1", "--realizations", "150",
                         "--spacing", "0.5"]) == 0
        assert (tmp_path / "capacity.csv").exists()
        # modes and match print their table, and write it only into --out
        monkeypatch.chdir(tmp_path)
        for command in ("modes", "match"):
            assert cli_main([command, "--fixture", "table1"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["capacity.csv",
                                                "capacity.json"]

    def test_empty_outdir_env_var_is_the_working_directory(
            self, tmp_path, monkeypatch, capsys):
        # an empty variable reads as an unset one, not as the path ""
        monkeypatch.setenv("UCADIV_OUTDIR", "")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["capacity", "--realizations", "150"]) == 0
        assert cli_main(["fixture"]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "capacity.csv", "capacity.json", "fixture_n2_d0.25.csv"]

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.5], "realizations": 150, "seed": 2,
        }))
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["points"][0]["spacing"] == 0.5

    def test_impedance_file_input_mode(self, tmp_path):
        sweep_path = tmp_path / "d025.csv"
        write_impedance(table1_sweep(), sweep_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25], "realizations": 150, "seed": 2,
            "input": "files",
            "impedance_files": [[0.25, str(sweep_path)]],
        }))
        assert cli_main(["sweep", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["points"][0]["error"] is None

    @pytest.mark.parametrize("doc,argv", [
        ({"input": "files", "impedance_files": [[0.25, "missing.csv"]],
          "spacings": [0.25]}, []),
        ({}, ["--fixture", "table1", "--spacing", "0.5"]),
    ])
    def test_coupling_off_never_resolves_modes(self, tmp_path, doc, argv):
        # a missing file or a spacing table1 does not cover fails only
        # where modes are read, which an uncoupled run never does
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"coupling": False, "realizations": 150,
                                   **doc}))
        assert cli_main(["sweep", "--config", str(cfg), *argv,
                         "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert [p["error"] for p in doc["points"]] == [None]

    def test_non_string_impedance_file_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"impedance_files": [[0.5, 5], [0.25, None]],
                                   "spacings": [0.1]}))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3 and not (tmp_path / "sweep.json").exists()
        assert capsys.readouterr().err == ("error: key 'impedance_files': "
                                           "expected a path string, got 5\n")

    def test_single_spacing_commands_never_read_config_spacings(
            self, tmp_path, capsys):
        # --spacing defaults to 0.25, and that default overrides the
        # config's spacings as a given flag does; only sweep reads them
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.5], "input": "files", "realizations": 150,
            "fixture_modes": [[0.5, [list(m) for m in TABLE1_MODES]]]}))
        run = ["--config", str(cfg), "--out", str(tmp_path)]
        assert cli_main(["modes", *run]) == 3
        assert capsys.readouterr().err == (
            "error: no impedance_files or fixture_modes entry for spacing "
            "0.25\n")
        assert cli_main(["capacity", *run]) == 3
        doc = json.loads((tmp_path / "capacity.json").read_text())
        assert doc["config"]["spacings"] == [0.25]
        assert [p["spacing"] for p in doc["points"]] == [0.25]
        assert cli_main(["sweep", *run]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["config"]["spacings"] == [0.5]

    def test_files_mode_missing_spacing_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25], "realizations": 150, "seed": 2,
            "input": "files", "impedance_files": [],
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3  # the point's data error, after the files are written
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["points"][0]["error"] is not None

    def test_capacity_is_a_one_spacing_sweep(self, tmp_path):
        args = ["--seed", "3", "--realizations", "150", "--spacing", "0.5"]
        assert cli_main(["capacity", *args, "--out", str(tmp_path)]) == 0
        assert cli_main(["sweep", *args, "--out", str(tmp_path)]) == 0
        rows = {stem: (tmp_path / f"{stem}.csv").read_text().splitlines()
                for stem in ("capacity", "sweep")}
        assert rows["capacity"] == rows["sweep"] and len(rows["sweep"]) == 2
        docs = {stem: json.loads((tmp_path / f"{stem}.json").read_text())
                for stem in ("capacity", "sweep")}
        assert docs["capacity"]["points"] == docs["sweep"]["points"]

    def test_capacity_failed_point_writes_its_files_exit_5(self, tmp_path,
                                                          capsys):
        rc = cli_main(["capacity", "--spacing", "1e300", "--realizations",
                       "200", "--out", str(tmp_path)])
        assert rc == 5
        out, err = capsys.readouterr()
        assert out == ("d = 1e+300: failed (spacing 1e+300 is too large for "
                       "the phases of the correlation matrix to be "
                       "resolved)\n")
        assert err.startswith("numeric error: spacing 1e+300 is too large")
        row = (tmp_path / "capacity.csv").read_text().splitlines()[1]
        assert row.split(",")[:4] == ["1.0000000000000001e+300", "error",
                                      "error", "0"]
        doc = json.loads((tmp_path / "capacity.json").read_text())
        assert doc["points"][0]["c_out"] is None
        assert doc["points"][0]["error"] == out[len("d = 1e+300: failed ("):-2]

    def test_files_of_another_n_fail_their_spacing_exit_3(self, tmp_path,
                                                         capsys):
        # the N = 2 file used to reach the kernel and crash the whole sweep
        # with numpy's broadcast message, writing no file
        small, large = tmp_path / "n2.csv", tmp_path / "n4.csv"
        write_impedance(table1_sweep(), small)
        write_impedance(fixture_sweep(4, 0.5), large)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n_antennas": 4, "spacings": [0.25, 0.5], "realizations": 150,
            "input": "files",
            "impedance_files": [[0.25, str(small)], [0.5, str(large)]],
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: modes of spacing 0.25 are for N=2, the run has N=4\n")
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][1:3] == ["error", "error"]
        assert float(rows[1][1]) > 0

    def test_files_of_another_spacing_fail_their_spacing_exit_3(self,
                                                               tmp_path,
                                                               capsys):
        # the d = 0.25 file used to stand in for d = 0.5 with exit 0
        path = tmp_path / "d025.csv"
        write_impedance(table1_sweep(), path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25, 0.5], "realizations": 150, "input": "files",
            "impedance_files": [[0.25, str(path)], [0.5, str(path)]],
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        message = f"{path} describes spacing 0.25, not 0.5"
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == f"d = 0.5: failed ({message})"
        assert err == f"error: {message}\n"
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert float(rows[0][1]) > 0
        assert rows[1][1:3] == ["error", "error"]

    @pytest.mark.parametrize("n", [3, 4, 1])
    @pytest.mark.parametrize("command",
                             ["modes", "match", "capacity", "sweep"])
    def test_table1_fixture_with_another_n_exit_3(self, command, n, tmp_path,
                                                  capsys):
        # Table I is an N = 2 pair: modes and match printed its table for
        # an N = 4 run and exited 0; at N = 3, which takes two triples too,
        # none may read it as a ring.  Each is refused before any file
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_antennas": n, "realizations": 150}))
        out_dir = tmp_path / "out"
        rc = cli_main([command, "--fixture", "table1", "--config", str(cfg),
                       "--out", str(out_dir)])
        assert rc == 3
        message = f"modes of spacing 0.25 are for N=2, the run has N={n}"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["modes", "match"])
    def test_file_of_another_n_exit_3(self, command, tmp_path, capsys):
        # modes and match printed the fit of an N = 4 file for a run of
        # the default N = 2 and exited 0
        path = tmp_path / "n4.csv"
        write_impedance(fixture_sweep(4, 0.5), path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"impedance_files": [[0.5, str(path)]]}))
        out_dir = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfg), "--spacing", "0.5",
                       "--out", str(out_dir)])
        assert rc == 3
        assert capsys.readouterr() == (
            "", "error: modes of spacing 0.5 are for N=4, the run has N=2\n")
        assert not out_dir.exists()

    def test_file_of_another_n_is_refused_before_its_fit(self, tmp_path,
                                                         monkeypatch):
        # the N check used to follow the fit, which such a file ran in vain
        path = tmp_path / "n4.csv"
        write_impedance(fixture_sweep(4, 0.5), path)
        fitted = []
        monkeypatch.setattr(capacity, "fit_modes",
                            lambda swept: fitted.append(fit_modes(swept)))
        run = SimConfig(impedance_files=[[0.5, str(path)]])
        with pytest.raises(DataError, match="^modes of spacing 0.5 are for "
                                            "N=4, the run has N=2$"):
            capacity.modes_at(run, 0.5)
        assert fitted == []

    def test_table1_triples_at_n3_run_as_a_ring(self, tmp_path, capsys):
        # Table I's exact pair was read as the N = 2 set and refused at
        # N = 3, while the pair with one f0 off by 1e-4 ran as a ring
        cfg = tmp_path / "t3.json"
        cfg.write_text(json.dumps({
            "n_antennas": 3, "realizations": 200,
            "fixture_modes": [[0.25, TABLE1_MODES]]}))
        rc = cli_main(["capacity", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("d = 0.25: C_out(0.01) = ")
        row = (tmp_path / "capacity.csv").read_text().splitlines()[1]
        assert math.isfinite(float(row.split(",")[1]))

    def test_table1_fixture_is_in_the_config_hash(self, tmp_path):
        # --fixture table1 ran other modes than the file's fixture_modes,
        # yet wrote the file's config block and hash: one hash, two C_out
        cfg = tmp_path / "pin.json"
        cfg.write_text(json.dumps({
            "fixture_modes": [[0.25, [[100, 5, 1], [30, 8, 1]]]],
            "realizations": 2000}))
        docs = []
        for flags in ([], ["--fixture", "table1"]):
            out = tmp_path / f"out{len(docs)}"
            assert cli_main(["capacity", "--config", str(cfg), *flags,
                             "--out", str(out)]) == 0
            docs.append(json.loads((out / "capacity.json").read_text()))
        assert docs[0]["points"] != docs[1]["points"]
        assert docs[0]["config_hash"] != docs[1]["config_hash"]
        assert docs[1]["config"]["input"] == "files"
        assert docs[1]["config"]["fixture_modes"] == [
            [TABLE1_SPACING, [list(m) for m in TABLE1_MODES]]]

    def test_missing_impedance_file_fails_its_spacing_exit_3(self, tmp_path,
                                                            capsys):
        # the OSError escaped the sweep's per-spacing isolation: exit 3
        # with "[Errno 2] ...", and the good d = 0.25 point was lost
        good, missing = tmp_path / "d025.csv", tmp_path / "missing.csv"
        write_impedance(table1_sweep(), good)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25, 0.5], "realizations": 150, "input": "files",
            "impedance_files": [[0.25, str(good)], [0.5, str(missing)]],
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        message = f"cannot read {missing}: No such file or directory"
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == f"d = 0.5: failed ({message})"
        assert err == f"error: {message}\n"
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert float(rows[0][1]) > 0
        assert rows[1][:3] == ["0.5", "error", "error"]

    @pytest.mark.parametrize("files, pinned", [
        ([[0.25, "good"], [0.25, "missing"]], []),
        ([[0.25, "missing"], [0.25, "good"]], []),
        ([], [[0.25, "table1"], [0.25, "dark"]]),
        ([], [[0.25, "dark"], [0.25, "table1"]]),
        ([[0.25, "good"]], [[0.25 + 1e-12, "dark"]]),
        ([[0.25, "missing"]], [[0.25, "table1"]]),
    ], ids=["files", "files-swapped", "pinned", "pinned-swapped", "across",
            "across-missing"])
    def test_spacing_configured_twice_exit_3(self, files, pinned, tmp_path,
                                             capsys):
        # the first matching entry ran and a later one was never read, so
        # the same entries exited 0 or 3 depending on their order
        good = tmp_path / "d025.csv"
        write_impedance(table1_sweep(), good)
        r2, _, f2 = TABLE1_MODE2
        modes = {"table1": [list(TABLE1_MODE1), list(TABLE1_MODE2)],
                 "dark": [list(TABLE1_MODE1), [r2, 1e20, f2]]}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25], "realizations": 200,
            "input": "files" if files else "fixture",
            "impedance_files": [[d, str(tmp_path / f"{name}.csv")]
                                if name == "missing" else [d, str(good)]
                                for d, name in files],
            "fixture_modes": [[d, modes[name]] for d, name in pinned],
        }))
        out = tmp_path / "out"
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr() == (
            "", "error: spacing 0.25 is configured more than once in "
                "impedance_files and fixture_modes\n")

    def test_failure_with_an_empty_message_is_a_failed_point(
            self, tmp_path, monkeypatch, capsys):
        # a cause whose message is empty read as success: the json got
        # c_out = NaN and the run stopped on "Out of range float values"
        def modes_at(run, d):
            if d == 0.1:
                raise ModelError()
            return CouplingModel().mode_set(run.n_antennas, d)

        monkeypatch.setattr(capacity, "modes_at", modes_at)
        rc = cli_main(["sweep", "--spacing", "0.1", "0.25", "--realizations",
                       "200", "--out", str(tmp_path)])
        assert rc == 4
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == "d = 0.1: failed ()"
        assert err == "model error: \n"
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][1:4] == ["error", "error", "0"]
        assert float(rows[1][1]) > 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["points"][0] == {"spacing": 0.1, "c_out": None,
                                    "ci_half_width": None, "samples": 0,
                                    "error": ""}
        assert doc["points"][1]["error"] is None

    @pytest.mark.parametrize("spacings, good", [
        (["0.05", "1.0"], []), (["0.25", "1.0"], ["0.25"])])
    def test_table1_fixture_at_another_spacing_fails_it_exit_3(
            self, spacings, good, tmp_path, capsys):
        # the d = 0.25 Table I modes were applied at every spacing, exit 0
        rc = cli_main(["sweep", "--fixture", "table1", "--spacing", *spacings,
                       "--realizations", "150", "--out", str(tmp_path)])
        assert rc == 3
        out = capsys.readouterr().out.splitlines()
        rows = [r.split(",") for r in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        for d, line, row in zip(spacings, out, rows):
            if d in good:
                assert float(row[1]) > 0
            else:
                assert line == (f"d = {d}: failed (no impedance_files or "
                                f"fixture_modes entry for spacing {d})")
                assert row[1:3] == ["error", "error"]

    @pytest.mark.parametrize("command", ["modes", "match"])
    def test_table1_fixture_reports_only_at_its_spacing(self, command,
                                                       tmp_path, capsys):
        assert cli_main([command, "--fixture", "table1",
                         "--out", str(tmp_path)]) == 0
        assert os.listdir(tmp_path) == [f"{command}.csv"]
        capsys.readouterr()
        out = tmp_path / "other"
        rc = cli_main([command, "--fixture", "table1", "--spacing", "0.5",
                       "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr() == (
            "", "error: no impedance_files or fixture_modes entry for "
                "spacing 0.5\n")
        assert not out.exists()

    def test_partial_sweep_failure_exits_with_its_category(self, tmp_path,
                                                            capsys):
        # d = 0.5 pins a mode too narrow to match; with no forward or
        # reverse noise its dark sub-carriers have a zero noise floor
        r2, _, f2 = TABLE1_MODE2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "spacings": [0.25, 0.5], "realizations": 150, "seed": 2,
            "temp_forward": 0.0,
            "fixture_modes": [[0.5, [list(TABLE1_MODE1), [r2, 1e20, f2]]]],
        }))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 5
        err = capsys.readouterr().err
        assert err.startswith("numeric error: zero noise")
        table = (tmp_path / "sweep.csv").read_text().splitlines()
        assert table[1].split(",")[1] != "error"
        assert table[2].split(",")[1:3] == ["error", "error"]
