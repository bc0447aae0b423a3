"""File formats, run configuration, result emission, and the CLI surface."""

import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ucadiv import capacity
from ucadiv.capacity import SimConfig
from ucadiv.cli import cli_main
from ucadiv.errors import ConfigError, ParseError
from ucadiv.fixtures import (
    TABLE1_MODE1,
    TABLE1_MODE2,
    table1_fixture,
    table1_sweep,
)
from ucadiv.io import (
    RunConfig,
    config_from_dict,
    config_hash,
    load_config,
    parse_impedance,
    write_impedance,
)
from ucadiv.modes import fit_modes


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
        run = config_from_dict({})
        sim = run.sim
        assert sim.subcarriers == 64
        assert sim.bandwidth_hz == 20e6
        assert sim.relative_bandwidth == 0.02
        assert sim.snr_db == 10.0
        assert (sim.temps.t_antenna, sim.temps.t_forward,
                sim.temps.t_reverse) == (1.0, 2.0, 0.0)
        assert sim.outage_p == 0.01
        assert sim.retune_modes

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"subcarirers": 64})
        assert "subcarirers" in str(err.value)

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"subcarriers": "sixty-four"})

    def test_schema_violations_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"outage_p": 0.7})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 42, "realizations": 500}))
        run = load_config(path)
        assert run.sim.seed == 42
        assert run.sim.realizations == 500

    def test_hash_sensitivity(self):
        base = config_hash(config_from_dict({}))
        perturbations = [
            {"seed": 1},
            {"realizations": 600},
            {"snr_db": 11.0},
            {"relative_bandwidth": 0.03},
            {"temp_reverse": 0.1},
            {"retune": False},
            {"spacings": [0.1]},
            {"n_taps": 4},
            {"input": "files"},
        ]
        hashes = {base}
        for doc in perturbations:
            hashes.add(config_hash(config_from_dict(doc)))
        assert len(hashes) == len(perturbations) + 1

    def test_fixture_modes_pinning(self):
        run = config_from_dict({
            "fixture_modes": [
                [0.25, [[118.76, 3.75, 1.0425], [28.31, 16.0, 0.9675]]],
            ],
        })
        assert run.fixture_modes[0][0] == 0.25
        assert run.fixture_modes[0][1][1] == (28.31, 16.0, 0.9675)


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

    def test_sweep_empty_spacings_is_usage_error(self, capsys):
        assert cli_main(["sweep", "--spacing"]) == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert cli_main(["modes", "--bogus"]) == 2

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
    ])
    def test_bad_config_exit_3(self, doc, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"realizations": 150, **doc}))
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_linalg_error_exit_5(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(capacity, "run_monte_carlo", singular)
        rc = cli_main(["capacity", "--realizations", "150",
                       "--out", str(tmp_path)])
        assert rc == 5
        assert capsys.readouterr().err == "numeric error: Singular matrix\n"

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
        assert err.startswith("numeric error: realization 0: zero noise")
        table = (tmp_path / "sweep.csv").read_text().splitlines()
        assert table[1].split(",")[1] != "error"
        assert table[2].split(",")[1:3] == ["error", "error"]
