"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q

Checks that every metric is emitted with its unit on every workload, in
both the untraced and the traced run; that a failing item is counted
instead of aborting the run; that the trace reconciles with the fit's own
evaluation counts; and that the benchmark refuses to run without the
package's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from reference import SMALL  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "roundtrip_sweep": lambda seed: workloads.RoundtripSweep(seed, SMALL),
    "qdii_grids": lambda seed: workloads.QdiiGrids(seed, cells=(120, 160)),
    "cli_pipeline": lambda seed: workloads.CliPipeline(seed, SMALL),
}


def reported(report: str, name: str, unit: str) -> bool:
    """Whether the report has a value line for ``name`` in ``unit``."""
    return re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", report, re.M) is not None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_with_unit(name, trace, capsys):
    result = run.execute(TINY[name](3), seconds=0.0, trace=trace, setup=[0.5, 0.25, 0.75])
    expected = run.metric_units("end_to_end" if trace == 0 else "per_layer")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = capsys.readouterr().out
    assert reported(report, "failed_frac", "1")
    assert "item_p90_s not reported" in report
    for name in ("items_per_s", "item_p50_s", "peak_rss_mb"):
        assert reported(report, name, run.metric_units("end_to_end")[name])
    if trace == 0:
        assert result["metrics"]["setup_s"]["value"] == 0.5
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert "trace.overhead_frac" in report


def test_accuracy_metrics_reported(capsys):
    run.execute(TINY["roundtrip_sweep"](1), seconds=0.0, trace=0, setup=[1.0])
    run.execute(TINY["qdii_grids"](1), seconds=0.0, trace=0, setup=[1.0])
    report = capsys.readouterr().out
    assert reported(report, "var_p_rel_err_median", "1")
    assert reported(report, "qdii_norm_err_max", "1")


class Instant:
    """A workload whose items take microseconds, to fill the p90 sample."""

    name, period = "instant", 1

    def setup(self):
        pass

    def inputs(self, k, pass_no):
        return k

    def run(self, k):
        return {}

    def check(self, k, out):
        return [], {}

    def accuracy(self, facts):
        return {}

    def close(self):
        pass


def test_p90_reported_with_enough_samples(capsys):
    result = run.execute(Instant(), seconds=0.05, trace=0, setup=[1.0])
    assert result["attempted"] >= run.P90_MIN_SAMPLES
    assert reported(capsys.readouterr().out, "item_p90_s", "s")


class CoarseSecondGrid(workloads.QdiiGrids):
    """Item 1 uses axes too coarse for the package's normalization check."""

    def inputs(self, k, pass_no):
        params, cells = super().inputs(k, pass_no)
        return params, 6 if k == 1 else cells


def test_failing_item_is_counted_not_fatal(capsys):
    result = run.execute(CoarseSecondGrid(5, cells=(120, 160)), seconds=0.0, trace=0,
                         setup=[1.0])
    assert not result["correct"]
    assert result["attempted"] == CoarseSecondGrid.period
    assert result["failed"] == 1
    report = capsys.readouterr().out
    assert "item 1 failed" in report
    assert run.report_line("failed_frac", 1 / CoarseSecondGrid.period, "1") in report


def test_failing_command_is_counted_not_fatal(capsys):
    bad = workloads.CliPipeline(1, SMALL)
    bad.sim_config = {**bad.sim_config, "frames": 0}
    result = run.execute(bad, seconds=0.0, trace=0, setup=[1.0])
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert "simulate exited 2" in capsys.readouterr().out


def test_trace_reconciles_with_fit_counts():
    sweep = TINY["roundtrip_sweep"](2)
    sweep.setup()
    tracer = Tracer()
    tracer.install()
    try:
        out = sweep.run(sweep.inputs(1, 0))
    finally:
        tracer.uninstall()
    assert run.reconcile(tracer.spans) == {}
    recon = [s for s in tracer.spans if s.name == "fit.reconstruct"]
    assert len(recon) == 1
    assert recon[0].attrs["evaluations"] == len(out["result"].scan)
    layers = run.layer_metrics(tracer.spans, [run.Item(0, 1.0, [])], 0.0)
    share = run.attribution(tracer.spans)
    parts = sum(v for k, v in share.items() if k != "total")
    assert parts == pytest.approx(share["total"], rel=1e-9)
    assert layers["fit.reconstruct_s"] == pytest.approx(share["total"])
    # restored: the package's own functions are back in place
    assert not hasattr(workloads.tb.fit.joint_photon_distribution, "__wrapped__")


def test_refuses_to_run_without_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(command + ["--workload", "qdii_grids", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
