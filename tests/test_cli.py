import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import twinbeam
from twinbeam import qdii
from twinbeam.cli import load_histogram, main, save_histogram
from twinbeam.model import Histogram2D

PAPER_PARAMS_DICT = {
    "m_pairs": 179.0, "b_pairs": 0.055,
    "m_noise_s": 8e-6, "b_noise_s": 320.0,
    "m_noise_i": 8e-3, "b_noise_i": 12.0,
}

SIM_CONFIG = {
    "params": {"m_pairs": 8.0, "b_pairs": 0.25, "m_noise_s": 1.5,
               "b_noise_s": 0.3, "m_noise_i": 1.0, "b_noise_i": 0.4},
    "detector_s": {"efficiency": 0.3, "pixels": 1000, "dark_rate": 0.002},
    "detector_i": {"efficiency": 0.28, "pixels": 1000, "dark_rate": 0.002},
    "frames": 60000,
    "seed": 12345,
}


@pytest.fixture
def sim_run(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIM_CONFIG))
    out = tmp_path / "sim_out"
    assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
    return out


class TestHistogramIO:
    def test_round_trip(self, tmp_path):
        h = Histogram2D(np.array([[3.0, 1.0], [0.0, 2.0]]), 6.0)
        path = tmp_path / "h.txt"
        save_histogram(path, h)
        again = load_histogram(path)
        assert np.array_equal(again.counts, h.counts)
        assert again.total_frames == 6.0
        assert path.read_text().splitlines()[0] == "# frames: 6"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(Exception):
            load_histogram(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# frames: 10\n1,2\n3,oops\n")
        with pytest.raises(Exception) as err:
            load_histogram(path)
        assert "3" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("\n# frames: 6\n\n1,2\n  \n3,0\n\n")
        h = load_histogram(path)
        assert np.array_equal(h.counts, [[1.0, 2.0], [3.0, 0.0]])
        assert h.total_frames == 6.0

    def test_ragged_rows_padded(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# frames: 6\n1,2,3\n0\n")
        h = load_histogram(path)
        assert h.counts.shape == (2, 3)
        assert h.counts[1, 1] == 0.0


class TestSimulateCommand:
    def test_outputs_exist_and_load(self, sim_run):
        h = load_histogram(sim_run / "histogram.txt")
        d = load_histogram(sim_run / "dark.txt")
        assert h.total_frames == 60000
        assert d.total_frames == 60000
        manifest = json.loads((sim_run / "manifest.json").read_text())
        assert manifest["seed"] == 12345
        assert manifest["params"]["m_pairs"] == 8.0

    def test_byte_identical_reruns(self, tmp_path, sim_run):
        cfg = tmp_path / "sim2.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        out2 = tmp_path / "out2"
        assert main(["simulate", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("histogram.txt", "dark.txt", "manifest.json"):
            assert (out2 / name).read_bytes() == (sim_run / name).read_bytes()

    def test_seed_and_frames_overrides(self, tmp_path, sim_run):
        cfg = tmp_path / "sim3.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        out = tmp_path / "override"
        assert main(["simulate", str(cfg), "--seed", "777", "--frames", "5000",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 777
        assert manifest["frames"] == 5000
        h = load_histogram(out / "histogram.txt")
        assert h.total_frames == 5000
        assert not np.array_equal(h.counts,
                                  load_histogram(sim_run / "histogram.txt").counts)

    def test_dark_rate_defaults_to_zero(self, tmp_path):
        config = json.loads(json.dumps(SIM_CONFIG))
        del config["detector_s"]["dark_rate"]
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({**config, "frames": 1000}))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["detector_s"]["dark_rate"] == 0.0
        assert manifest["detector_i"]["dark_rate"] == 0.002

    def test_frames_past_numpy_dimension_limit_exit_code(self, tmp_path, capsys):
        # numpy refuses an array of 10^20 elements before it allocates
        # anything; the run is rejected as outside the simulator's domain
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CONFIG))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--frames", str(10**20),
                     "--out-dir", str(out)]) == 2
        assert f"{10**20} frames" in capsys.readouterr().err
        assert not out.exists()


class TestInputChecks:
    """Every command checks that its input files exist before it reads any
    of them or creates an output directory."""

    @staticmethod
    def argv(command, present, missing, out):
        # the missing file comes last, so every input is checked, not just the first
        eta = ["--eta-s", "0.3", "--eta-i", "0.28"]
        return {
            "simulate": ["simulate", missing, "--out-dir", out],
            "moments": ["moments", present, missing, *eta],
            "reconstruct": ["reconstruct", present, missing, *eta, "--out-dir", out],
            "qdii": ["qdii", missing, "--out-dir", out],
            "diagnose": ["diagnose", missing],
        }[command]

    @pytest.mark.parametrize("command",
                             ["simulate", "moments", "reconstruct", "qdii", "diagnose"])
    def test_missing_file_exit_code(self, command, tmp_path, capsys):
        present = tmp_path / "h.txt"
        save_histogram(present, Histogram2D(np.array([[1.0]]), 1.0))
        out = tmp_path / "out"
        argv = self.argv(command, str(present), str(tmp_path / "nope"), str(out))
        assert main(argv) == 2
        assert "input file not found" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "qdii", "diagnose"])
    def test_bad_config_exit_code(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = self.argv(command, None, str(bad), str(tmp_path / "x"))
        assert main(argv) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("simulate", '{"params": [1]}'),
        ("simulate", '{"params": {"m_pairs": "x"}}'),
        ("qdii", "[1, 2]"),
        ("diagnose", '{"m_pairs": "x"}'),
        # integer fields are never truncated or read from a bool
        ("simulate", json.dumps({**SIM_CONFIG, "seed": True})),
        ("simulate", json.dumps({**SIM_CONFIG, "seed": 1.7})),
        ("simulate", json.dumps({**SIM_CONFIG, "frames": 2.5})),
        ("simulate", json.dumps({**SIM_CONFIG, "frames": float("inf")})),
        ("simulate", json.dumps({**SIM_CONFIG, "detector_i": {
            **SIM_CONFIG["detector_i"], "pixels": 999.5}})),
        ("simulate", json.dumps({**SIM_CONFIG, "detector_s": {
            **SIM_CONFIG["detector_s"], "pixels": True}})),
    ], ids=["simulate-list", "simulate-string", "qdii-list", "diagnose-string",
            "seed-bool", "seed-fraction", "frames-fraction", "frames-infinite",
            "pixels-fraction", "pixels-bool"])
    def test_malformed_field_exit_code(self, command, text, tmp_path, capsys):
        # valid JSON of the wrong shape is a validation error, not a traceback
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(self.argv(command, None, str(bad), str(tmp_path / "x"))) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field, value", [
        ("diagnose", "m_pairs", True),
        ("diagnose", "b_pairs", "1.0"),
        ("diagnose", "b_noise_s", 10**400),
        ("qdii", "m_noise_i", False),
        ("qdii", "b_noise_i", "12"),
        ("simulate", "m_pairs", "8"),
        ("simulate", "efficiency", "0.3"),
        ("simulate", "pixels", "100"),
        ("simulate", "dark_rate", False),
        ("simulate", "frames", "200"),
        ("simulate", "seed", "3"),
    ], ids=["diagnose-bool", "diagnose-string", "diagnose-past-double", "qdii-bool",
            "qdii-string", "simulate-params-string", "simulate-efficiency-string",
            "simulate-pixels-string", "simulate-dark-rate-bool", "simulate-frames-string",
            "simulate-seed-string"])
    def test_number_field_must_be_a_json_number(self, command, field, value, tmp_path,
                                                capsys):
        # a bool or a string is not read as a number, nor an integer that
        # passes the double range: the field is named and nothing is written
        if command == "simulate":
            config = json.loads(json.dumps(SIM_CONFIG))
            section = next((config[k] for k in ("params", "detector_s") if field in config[k]),
                           config)
            section[field] = value
        else:
            config = {**PAPER_PARAMS_DICT, field: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = {"diagnose": ["diagnose", str(bad), "--out", str(out)],
                "qdii": ["qdii", str(bad), "--out-dir", str(out)],
                "simulate": ["simulate", str(bad), "--out-dir", str(out)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "malformed" in err and field in err
        assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({**SIM_CONFIG, "seed": -3}))
        out = tmp_path / "out"
        assert main(["simulate", str(config), "--out-dir", str(out)]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, args", [
        ("simulate", ["--frames", "0"]),
        ("reconstruct", ["--scan-points", "1"]),
        ("reconstruct", ["--eta-s", "1.3"]),
        ("reconstruct", ["--pixels-s", "0"]),
        ("qdii", ["--ordering", "1.5"]),
    ], ids=["simulate-frames", "reconstruct-scan-points", "reconstruct-eta",
            "reconstruct-pixels", "qdii-ordering"])
    def test_rejected_argument_creates_no_output_dir(self, command, args, tmp_path):
        # the argument is rejected inside the computation, after every input
        # file has been read; the output directory is made only after that
        config = tmp_path / "sim.json"
        config.write_text(json.dumps(SIM_CONFIG))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        hist = tmp_path / "h.txt"
        save_histogram(hist, Histogram2D(np.array([[3.0, 1.0], [1.0, 2.0]]), 7.0))
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", str(config)],
            # argparse keeps the last of a repeated option, so args override
            "reconstruct": ["reconstruct", str(hist), str(hist),
                            "--eta-s", "0.3", "--eta-i", "0.28"],
            "qdii": ["qdii", str(params)],
        }[command]
        assert main([*argv, *args, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("# frames: many\n1,2\n", "bad frames header"),
        ("# frames: 10\n\n", "no data rows"),
        ("# frames: 3\n# frames: 4\n1,2\n", "h.txt:2: second frames header"),
    ], ids=["bad-frames-header", "header-only", "second-frames-header"])
    def test_bad_histogram_exit_code(self, text, message, tmp_path, capsys):
        hist = tmp_path / "h.txt"
        hist.write_text(text)
        out = tmp_path / "out"
        assert main(["reconstruct", str(hist), str(hist), "--eta-s", "0.3",
                     "--eta-i", "0.28", "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_histogram_without_counts_exit_code(self, tmp_path, capsys):
        # within the sum tolerance of its frame count, but nothing was counted
        hist = tmp_path / "h.txt"
        hist.write_text("# frames: 1e-10\n0,0\n0,0\n")
        out = tmp_path / "report.json"
        assert main(["moments", str(hist), str(hist), "--eta-s", "0.3",
                     "--eta-i", "0.28", "--out", str(out)]) == 2
        assert "the counts sum to 0" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_params_field_exit_code(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(
            {k: v for k, v in PAPER_PARAMS_DICT.items() if k != "b_noise_i"}))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), "--out-dir", str(out)]) == 2
        assert "missing parameter field 'b_noise_i'" in capsys.readouterr().err
        assert not out.exists()

    def test_moments_rejects_efficiency(self, tmp_path, capsys):
        hist = tmp_path / "h.txt"
        save_histogram(hist, Histogram2D(np.array([[3.0, 1.0], [1.0, 2.0]]), 7.0))
        out = tmp_path / "report.json"
        assert main(["moments", str(hist), str(hist), "--eta-s", "1.3",
                     "--eta-i", "0.28", "--out", str(out)]) == 2
        assert "eta_s must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_paired_only_without_pairs_exit_code(self, tmp_path, capsys):
        # the noise-only grid succeeds; its paired part does not exist
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"m_pairs": 0.0, "b_pairs": 0.0,
                                      "m_noise_s": 2.0, "b_noise_s": 1.0,
                                      "m_noise_i": 2.0, "b_noise_i": 1.0}))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), "--paired-only", "--out-dir", str(out)]) == 2
        assert "no paired component" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--grid-max", "0"), ("--grid-max", "-5"), ("--grid-max", "nan"),
        ("--grid-max", "inf"), ("--grid-cells", "0"), ("--grid-cells", "1"),
        # past the largest n x n grid numpy can size, checked before numpy is asked
        ("--grid-cells", str(10**20)),
    ])
    def test_bad_qdii_grid_exit_code(self, flag, value, tmp_path, capsys):
        # an axis that cannot be built fails before the output directory
        # exists, with a message naming the flag
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), flag, value, "--out-dir", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_grid_past_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # a grid numpy sizes but memory cannot hold: the Toeplitz matrix of
        # the lattice, as large as the grid, is refused here without being
        # allocated
        def refused(*args):
            raise MemoryError

        monkeypatch.setattr(qdii, "_toeplitz", refused)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), "--grid-cells", "300", "--out-dir", str(out)]) == 2
        assert "--grid-cells 300" in capsys.readouterr().err
        assert not out.exists()


class TestMomentsCommand:
    def test_report_fields(self, sim_run, capsys):
        code = main(["moments", str(sim_run / "histogram.txt"),
                     str(sim_run / "dark.txt"),
                     "--eta-s", "0.3", "--eta-i", "0.28"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasibility_margin"] > 0
        assert report["var_p_interval"]["high"] > 0
        assert report["detected_moments"]["mean_s"] > 0

    def test_csv_format(self, sim_run, capsys):
        code = main(["moments", str(sim_run / "histogram.txt"),
                     str(sim_run / "dark.txt"),
                     "--eta-s", "0.3", "--eta-i", "0.28", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert any(line.startswith("feasibility_margin,") for line in out.splitlines())

    def test_infeasible_exit_code(self, tmp_path, capsys):
        # perfectly correlated counts with unequal efficiencies violate the
        # efficiency inequality
        counts = np.zeros((5, 5))
        counts[0, 0] = 50.0
        counts[4, 4] = 50.0
        save_histogram(tmp_path / "h.txt", Histogram2D(counts, 100.0))
        save_histogram(tmp_path / "d.txt",
                       Histogram2D(np.array([[100.0]]), 100.0))
        code = main(["moments", str(tmp_path / "h.txt"), str(tmp_path / "d.txt"),
                     "--eta-s", "0.5", "--eta-i", "0.25"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["feasibility_margin"] < 0
        assert report["var_p_interval"] is None

    def test_zero_mean_reports_null_margin(self, tmp_path, capsys):
        # no counts above zero: the dark-corrected means are 0, which leaves
        # the efficiency inequality without a margin; the report still
        # prints, with both fields null, in either format
        hist = tmp_path / "h.txt"
        save_histogram(hist, Histogram2D(np.array([[100.0]]), 100.0))
        args = ["moments", str(hist), str(hist), "--eta-s", "0.5", "--eta-i", "0.25"]
        assert main(args) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["feasibility_margin"] is None
        assert report["var_p_interval"] is None
        assert "must be positive" in captured.err
        assert main([*args, "--format", "csv"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert "feasibility_margin,null" in lines
        assert "var_p_interval,null" in lines

    def test_anti_correlated_counts_are_infeasible(self, tmp_path, capsys):
        # a negative covariance passes the efficiency inequality (margin
        # 4.5) but leaves no valid var_p, so both commands exit with 3
        counts = np.zeros((5, 5))
        counts[0, 0], counts[4, 0], counts[0, 4] = 50.0, 25.0, 25.0
        save_histogram(tmp_path / "h.txt", Histogram2D(counts, 100.0))
        save_histogram(tmp_path / "d.txt", Histogram2D(np.array([[100.0]]), 100.0))
        files = [str(tmp_path / "h.txt"), str(tmp_path / "d.txt"), "--eta-s", "0.5",
                 "--eta-i", "0.25"]
        assert main(["moments", *files]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["feasibility_margin"] > 0
        assert report["var_p_interval"] is None
        out = tmp_path / "fit"
        assert main(["reconstruct", *files, "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_interval_excludes_infeasible_members(self, tmp_path, capsys):
        # at the README state the noise means bind, so the valid interval
        # starts above 0, and the fitted var_p lies inside it
        cfg = tmp_path / "readme.json"
        cfg.write_text(json.dumps({
            "params": PAPER_PARAMS_DICT,
            "detector_s": {"efficiency": 0.243, "pixels": 10000, "dark_rate": 1e-4},
            "detector_i": {"efficiency": 0.235, "pixels": 10000, "dark_rate": 1e-4},
            "frames": 300000, "seed": 1}))
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out-dir", str(run)]) == 0
        counts = [str(run / "histogram.txt"), str(run / "dark.txt")]
        assert main(["moments", *counts, "--eta-s", "0.243", "--eta-i", "0.235"]) == 0
        interval = json.loads(capsys.readouterr().out)["var_p_interval"]
        assert interval["low_exclusive"] > 0
        fit = tmp_path / "fit"
        assert main(["reconstruct", *counts, "--eta-s", "0.243", "--eta-i", "0.235",
                     "--pixels-s", "10000", "--pixels-i", "10000",
                     "--dark-s", "1e-4", "--dark-i", "1e-4",
                     "--scan-points", "60", "--out-dir", str(fit)]) == 0
        var_p = json.loads((fit / "result.json").read_text())["var_p_opt"]
        assert interval["low_exclusive"] < var_p < interval["high"]


class TestReconstructCommand:
    def test_full_pipeline(self, sim_run, tmp_path):
        out = tmp_path / "rec"
        code = main(["reconstruct", str(sim_run / "histogram.txt"),
                     str(sim_run / "dark.txt"),
                     "--eta-s", "0.3", "--eta-i", "0.28",
                     "--pixels-s", "1000", "--pixels-i", "1000",
                     "--dark-s", "0.002", "--dark-i", "0.002",
                     "--scan-points", "25", "--out-dir", str(out)])
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        truth = SIM_CONFIG["params"]
        assert result["var_p_opt"] == pytest.approx(
            truth["m_pairs"] * truth["b_pairs"] ** 2, rel=0.35)
        assert isinstance(result["at_boundary"], bool)
        assert result["diagnostics"]["noise_reduction_factor"] > 0

        scan_rows = [ln for ln in (out / "scan.csv").read_text().splitlines()
                     if not ln.startswith("#")]
        assert len(scan_rows) >= 25
        vps = [float(r.split(",")[0]) for r in scan_rows]
        assert vps == sorted(vps)

        psum_rows = [ln for ln in (out / "p_sum.csv").read_text().splitlines()
                     if not ln.startswith("#")]
        total = sum(float(r.split(",")[1]) for r in psum_rows)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_deterministic_outputs(self, sim_run, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["reconstruct", str(sim_run / "histogram.txt"),
                         str(sim_run / "dark.txt"),
                         "--eta-s", "0.3", "--eta-i", "0.28",
                         "--pixels-s", "1000", "--pixels-i", "1000",
                         "--dark-s", "0.002", "--dark-i", "0.002",
                         "--scan-points", "15", "--out-dir", str(out)]) == 0
            outs.append(out)
        for name in ("result.json", "scan.csv", "p_sum.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("flags, message", [
        ([], "the signal arm's dark record holds 120"),
        (["--dark-s", "0.002", "--dark-i", "0.002", "--pixels-i", "5"],
         "idler counts, above the arm's 5 pixels"),
    ], ids=["dark-rate-left-out", "pixels-below-counts"])
    def test_impossible_input_exit_code(self, flags, message, sim_run, tmp_path, capsys):
        # the run's dark record was drawn at rate 0.002, and its counts reach
        # beyond 5: neither input can have come from the given detector
        out = tmp_path / "fit"
        assert main(["reconstruct", str(sim_run / "histogram.txt"),
                     str(sim_run / "dark.txt"), "--eta-s", "0.3", "--eta-i", "0.28",
                     *flags, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_scan_points_past_the_bound_exit_code(self, sim_run, tmp_path, capsys):
        # 10^20 points would ask numpy for a lattice past its longest array
        out = tmp_path / "fit"
        assert main(["reconstruct", str(sim_run / "histogram.txt"),
                     str(sim_run / "dark.txt"), "--eta-s", "0.3", "--eta-i", "0.28",
                     "--dark-s", "0.002", "--dark-i", "0.002",
                     "--scan-points", str(10**20), "--out-dir", str(out)]) == 2
        assert f"got {10**20}" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_format(self, sim_run, tmp_path):
        # the csv report is the json report flattened: nested keys dotted,
        # booleans lower-case, every float in round-trip precision
        counts = [str(sim_run / "histogram.txt"), str(sim_run / "dark.txt")]
        flags = ["--eta-s", "0.3", "--eta-i", "0.28", "--dark-s", "0.002",
                 "--dark-i", "0.002", "--scan-points", "15"]
        for fmt in ("json", "csv"):
            assert main(["reconstruct", *counts, *flags, "--format", fmt,
                         "--out-dir", str(tmp_path / fmt)]) == 0
        result = json.loads((tmp_path / "json" / "result.json").read_text())
        lines = (tmp_path / "csv" / "result.csv").read_text().splitlines()
        cells = dict(line.split(",", 1) for line in lines)
        assert list(cells) == sorted(cells)
        assert cells["at_boundary"] == ("true" if result["at_boundary"] else "false")
        nonclassical = result["diagnostics"]["nonclassical"]
        assert cells["diagnostics.nonclassical"] == ("true" if nonclassical else "false")
        assert float(cells["var_p_opt"]) == result["var_p_opt"]
        assert float(cells["params.m_pairs"]) == result["params"]["m_pairs"]
        for name in ("scan.csv", "p_sum.csv"):
            assert ((tmp_path / "csv" / name).read_bytes()
                    == (tmp_path / "json" / name).read_bytes())

    def test_scan_narrower_than_interval_fits(self, tmp_path, capsys):
        # the runtime-deps CI run: at 2 scan points one step is var_p_max/2
        # = 5.70, wider than the interval (7.92, 11.40) that moments reports,
        # and the fit still gets a scan point inside it
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "params": {"m_pairs": 10.0, "b_pairs": 1.0, "m_noise_s": 2.0,
                       "b_noise_s": 1.0, "m_noise_i": 2.0, "b_noise_i": 1.0},
            "detector_s": {"efficiency": 0.3, "pixels": 1000, "dark_rate": 1e-4},
            "detector_i": {"efficiency": 0.28, "pixels": 1000, "dark_rate": 1e-4},
            "frames": 20000, "seed": 1}))
        run = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out-dir", str(run)]) == 0
        counts = [str(run / "histogram.txt"), str(run / "dark.txt")]
        assert main(["moments", *counts, "--eta-s", "0.3", "--eta-i", "0.28"]) == 0
        interval = json.loads(capsys.readouterr().out)["var_p_interval"]
        assert interval["high"] - interval["low_exclusive"] < interval["high"] / 2
        fit = tmp_path / "fit"
        assert main(["reconstruct", *counts, "--eta-s", "0.3", "--eta-i", "0.28",
                     "--dark-s", "1e-4", "--dark-i", "1e-4",
                     "--scan-points", "2", "--out-dir", str(fit)]) == 0
        var_p = json.loads((fit / "result.json").read_text())["var_p_opt"]
        assert interval["low_exclusive"] < var_p < interval["high"]
        scan = np.loadtxt(fit / "scan.csv", delimiter=",", comments="#", ndmin=2)
        assert np.all((interval["low_exclusive"] < scan[:, 0])
                      & (scan[:, 0] < interval["high"]))


class TestQdiiCommand:
    def test_normal_ordering_grid_has_negative_cells(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        out = tmp_path / "grid"
        code = main(["qdii", str(params), "--ordering", "1.0",
                     "--grid-max", "25", "--grid-cells", "220",
                     "--paired-only", "--out-dir", str(out)])
        assert code == 0
        body = (out / "qdii.csv").read_text().splitlines()
        assert body[0].startswith("# ws: ")
        assert body[1].startswith("# wi: ")
        values = np.array([[float(c) for c in row.split(",")]
                           for row in body if not row.startswith("#")])
        assert values.min() < 0
        assert (out / "qdii_paired.csv").exists()

    def test_symmetric_ordering_grid_nonnegative(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        out = tmp_path / "grid0"
        code = main(["qdii", str(params), "--ordering", "0.0",
                     "--grid-cells", "160", "--out-dir", str(out)])
        assert code == 0
        body = (out / "qdii.csv").read_text().splitlines()
        values = np.array([[float(c) for c in row.split(",")]
                           for row in body if not row.startswith("#")])
        assert values.min() >= 0.0

    def test_factorized_grid_when_pairs_absent(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "m_pairs": 0.0, "b_pairs": 0.0, "m_noise_s": 2.0,
            "b_noise_s": 0.6, "m_noise_i": 3.0, "b_noise_i": 0.4}))
        out = tmp_path / "gridn"
        code = main(["qdii", str(params), "--ordering", "0.0",
                     "--grid-max", "14", "--grid-cells", "150",
                     "--out-dir", str(out)])
        assert code == 0
        body = [r for r in (out / "qdii.csv").read_text().splitlines()
                if not r.startswith("#")]
        values = np.array([[float(c) for c in row.split(",")] for row in body])
        # rank-1 structure
        u, s, vt = np.linalg.svd(values)
        assert s[1] < 1e-10 * s[0]

    def test_coarse_grid_numerical_exit_code(self, tmp_path, capsys):
        # the paired state and the noise-only state (no pairs) take different
        # grid paths to the same 5 % check on the grid integral
        noise_only = {"m_pairs": 0.0, "b_pairs": 0.0, "m_noise_s": 2.0,
                      "b_noise_s": 0.6, "m_noise_i": 3.0, "b_noise_i": 0.4}
        for name, state in (("paired", PAPER_PARAMS_DICT), ("noise", noise_only)):
            params = tmp_path / f"{name}.json"
            params.write_text(json.dumps(state))
            code = main(["qdii", str(params), "--ordering", "0.0",
                         "--grid-max", "3", "--grid-cells", "20",
                         "--out-dir", str(tmp_path / name)])
            assert code == 4
            assert "more than 5%" in capsys.readouterr().err

    @pytest.mark.parametrize("wide", ["s", "i"])
    def test_auto_grid_covers_the_wider_arm(self, tmp_path, wide):
        # one arm's noise is far wider than the other's; the shared axis must
        # hold either arm, so a state and its signal/idler mirror both pass
        # the grid-integral check
        narrow = "i" if wide == "s" else "s"
        state = {"m_pairs": 5.0, "b_pairs": 0.5,
                 f"m_noise_{narrow}": 1e-3, f"b_noise_{narrow}": 0.1,
                 f"m_noise_{wide}": 2.0, f"b_noise_{wide}": 6.0}
        params = tmp_path / "params.json"
        params.write_text(json.dumps(state))
        assert main(["qdii", str(params), "--out-dir", str(tmp_path / "grid")]) == 0

    def test_many_mode_state(self, tmp_path):
        # 2,000 pairs: the Bessel function of order 1,999 underflows its
        # scaled form on part of the automatic axis
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**PAPER_PARAMS_DICT, "m_pairs": 2000.0}))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), "--out-dir", str(out)]) == 0
        values = np.loadtxt(out / "qdii.csv", delimiter=",", comments="#")
        assert values.shape == (201, 201) and np.isfinite(values).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_numerical_exit_code(self, tmp_path, capsys):
        # the sinc-branch density of 1e-160 photons per pair mode passes the
        # double range on this axis: a numerical failure, with no warning
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"m_pairs": 10.0, "b_pairs": 1e-160,
                                      "m_noise_s": 0.0, "b_noise_s": 0.0,
                                      "m_noise_i": 0.0, "b_noise_i": 0.0}))
        out = tmp_path / "grid"
        assert main(["qdii", str(params), "--ordering", "1", "--grid-max", "4e-159",
                     "--grid-cells", "50", "--out-dir", str(out)]) == 4
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_grid_parse_exit_code(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        code = main(["qdii", str(params), "--grid-cells", "1",
                     "--out-dir", str(tmp_path / "one")])
        assert code == 2


class TestDiagnoseCommand:
    def test_reference_diagnostics(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        assert main(["diagnose", str(params)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nonclassical"] is True
        assert 0.05 <= report["noise_reduction_factor"] <= 0.15
        assert report["s_th"] < 1.0
        psum = report["p_sum_head"]
        assert psum[2] > psum[1] and psum[2] > psum[3]

    def test_csv_format(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(PAPER_PARAMS_DICT))
        assert main(["diagnose", str(params)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert main(["diagnose", str(params), "--format", "csv"]) == 0
        cells = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
        assert cells["nonclassical"] == "true"
        assert cells["params.m_pairs"] == "179.0"
        assert cells["p_sum_head"] == ";".join(repr(p) for p in report["p_sum_head"])
        assert [float(p) for p in cells["p_sum_head"].split(";")] == report["p_sum_head"]


class TestImportContract:
    """Each command loads only the third-party modules it calls.  SciPy and
    mpmath cost more to import than ``simulate``, ``moments``, ``reconstruct``
    and ``diagnose`` take to run, and none of them calls either: the photon
    statistics need no special function.  Only ``qdii`` loads SciPy, and
    ``scipy.signal`` alone costs more than a grid, whose noise convolution
    needs neither it nor ``scipy.fft``; the package itself must still import
    every layer module eagerly."""

    LAYERS = ("simgen", "moments", "photostat", "fit", "qdii", "specfun")
    HEAVY = ("scipy", "scipy.special", "scipy.signal", "scipy.fft", "mpmath")

    SCRIPT = textwrap.dedent("""
        import json, sys
        from pathlib import Path

        import twinbeam.cli

        def heavy():
            return [m for m in HEAVY if m in sys.modules]

        out = Path(sys.argv[1])
        report = {"import": heavy(),
                  "layers": [l for l in LAYERS if "twinbeam." + l in sys.modules]}
        main = twinbeam.cli.main
        assert main(["simulate", str(out / "sim.json"), "--out-dir", str(out / "run")]) == 0
        assert main(["moments", str(out / "run" / "histogram.txt"),
                     str(out / "run" / "dark.txt"), "--eta-s", "0.3", "--eta-i", "0.28",
                     "--out", str(out / "moments.json")]) == 0
        report["moments"] = heavy()
        assert main(["reconstruct", str(out / "run" / "histogram.txt"),
                     str(out / "run" / "dark.txt"), "--eta-s", "0.3", "--eta-i", "0.28",
                     "--dark-s", "0.002", "--dark-i", "0.002", "--scan-points", "10",
                     "--out-dir", str(out / "fit")]) == 0
        report["reconstruct"] = heavy()
        assert main(["diagnose", str(out / "params.json"),
                     "--out", str(out / "diagnose.json")]) == 0
        report["diagnose"] = heavy()
        assert main(["qdii", str(out / "params.json"), "--ordering", "1.0",
                     "--grid-max", "25", "--grid-cells", "120",
                     "--out-dir", str(out / "grids")]) == 0
        report["qdii"] = heavy()
        print(json.dumps(report))
    """)

    def test_commands_load_only_what_they_call(self, tmp_path):
        (tmp_path / "sim.json").write_text(json.dumps(dict(SIM_CONFIG, frames=2000)))
        (tmp_path / "params.json").write_text(json.dumps(PAPER_PARAMS_DICT))
        src = str(Path(twinbeam.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        script = f"HEAVY = {self.HEAVY!r}\nLAYERS = {self.LAYERS!r}\n" + self.SCRIPT
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["import"] == []
        assert report["layers"] == list(self.LAYERS)
        assert report["moments"] == []
        assert report["reconstruct"] == []
        assert report["diagnose"] == []
        assert "scipy.signal" not in report["qdii"]
        assert "scipy.fft" not in report["qdii"]

    def test_simulate_does_not_load_the_thread_pool(self, tmp_path):
        # no module of the package imports concurrent.futures (or the logging
        # it loads), and the simulator starts no thread; of the commands only
        # qdii loads it, through SciPy
        (tmp_path / "sim.json").write_text(json.dumps(dict(SIM_CONFIG, frames=200)))
        script = textwrap.dedent("""
            import sys
            import twinbeam.cli
            before = "concurrent.futures" in sys.modules
            assert twinbeam.cli.main(["simulate", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
            print(before, "concurrent.futures" in sys.modules)
        """)
        src = str(Path(twinbeam.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sim.json"),
                               str(tmp_path / "run")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]
