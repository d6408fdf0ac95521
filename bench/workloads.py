"""The three benchmark workloads.

Each is a closed loop with one client: item ``k`` starts only after item
``k - 1`` has finished.  A workload turns the workload seed into inputs
(``inputs``), runs one item against the package (``run``) and checks what
the item produced (``check``, which returns a list of problems; an empty list
means the item passed).

* ``roundtrip_sweep`` -- simulate 10^6 frames, reconstruct, diagnostics.
  ``simgen``, ``fit`` and ``photostat`` do nearly all the work.
* ``qdii_grids`` -- four quasi-distribution grids per jittered state.
  ``qdii`` and ``specfun`` do all the work.
* ``cli_pipeline`` -- the README's five commands as cold subprocesses.
  Import, file I/O and one-time set-up count here and nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import twinbeam as tb
from reference import REFERENCE, SMALL, Setting
from spans import Span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SEED_POOL = BENCH_DIR / "seed_pool.json"


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng([w % 2**32 for w in words])


def load_pool() -> list[dict]:
    """Simulator seeds with their measured fit cost and cost class (see
    ``make_seed_pool.py``)."""
    return json.loads(SEED_POOL.read_text())["seeds"]


# ---------------------------------------------------------------------------
# roundtrip_sweep
# ---------------------------------------------------------------------------

class RoundtripSweep:
    """Simulate, reconstruct and diagnose one simulator seed per item.

    The fit's cost depends on the seed by two orders of magnitude, so seeds
    are not drawn at random: item ``k`` takes the next seed of the cost class
    ``PATTERN[k % len(PATTERN)]``, and the workload seed only chooses which
    seeds of each class.  The pattern holds the classes in about the shares
    the pool has (49/37/11/3 %), with the heavy tail present once, and runs
    end on a whole pattern, so every run sees the same mix of fits.
    """

    name = "roundtrip_sweep"
    PATTERN = ("light", "mid", "light", "heavy", "light", "mid",
               "light", "upper", "light", "mid", "light", "mid")
    period = len(PATTERN)

    def __init__(self, seed: int, setting: Setting = REFERENCE):
        self.setting = setting
        rng = _rng(seed)
        pool = load_pool()
        self.order = {c: [int(s) for s in rng.permutation(
                          [e["seed"] for e in pool if e["class"] == c])]
                      for c in sorted(set(self.PATTERN))}
        self.var_p_true = setting.params.m_pairs * setting.params.b_pairs ** 2

    def setup(self) -> None:
        self.run(self.inputs(0, 0), SMALL)

    def inputs(self, k: int, pass_no: int) -> int:
        """The simulator seed of item ``k``; no cache keeps a fit, so every
        pass repeats the same seeds."""
        cls = self.PATTERN[k % self.period]
        nth = ((k // self.period) * self.PATTERN.count(cls)
               + self.PATTERN[:k % self.period].count(cls))
        seeds = self.order[cls]
        return seeds[nth % len(seeds)]

    def run(self, sim_seed: int, setting: Setting | None = None) -> dict:
        st = setting or self.setting
        cfg = tb.SimConfig(st.params, st.detector_s, st.detector_i, st.frames, sim_seed)
        hist, dark = tb.simulate_histogram(cfg)
        result = tb.reconstruct(hist, dark, st.detector_s, st.detector_i, st.scan_points)
        p = tb.joint_photon_distribution(result.params, tb.default_cutoffs(result.params))
        return {
            "hist": hist, "dark": dark, "result": result, "p": p,
            "p_sum": tb.sum_distribution(p),
            "threshold": tb.ordering_threshold(result.params),
            "verdict": tb.nonclassicality(result.field_moments),
            "nrf": tb.noise_reduction_factor(result.field_moments),
        }

    def check(self, sim_seed: int, out: dict) -> tuple[list[str], dict]:
        r = out["result"]
        detected = tb.dark_corrected_moments(tb.photocount_moments(out["hist"]),
                                             tb.photocount_moments(out["dark"]))
        var_p_max = tb.inversion_family(detected, self.setting.detector_s.efficiency,
                                        self.setting.detector_i.efficiency).var_p_max
        problems = []
        if not 0.0 < r.var_p_opt <= var_p_max:
            problems.append(f"var_p_opt {r.var_p_opt!r} outside (0, {var_p_max!r}]")
        named = {"declination": r.declination,
                 **{f"params.{k}": v for k, v in vars(r.params).items()}}
        for key, value in named.items():
            if not (math.isfinite(value) and value >= 0):
                problems.append(f"{key} = {value!r} is not finite and >= 0")
        total = float(out["p_sum"].sum())
        if abs(total - (1.0 - out["p"].truncation_mass)) > 1e-12:
            problems.append(f"sum distribution totals {total!r}, "
                            f"not 1 - truncation {1.0 - out['p'].truncation_mass!r}")
        if not math.isfinite(out["nrf"]):
            problems.append(f"noise reduction factor {out['nrf']!r} is not finite")
        return problems, {"var_p_rel_err": abs(r.var_p_opt / self.var_p_true - 1.0)}

    def accuracy(self, facts: list[dict]) -> dict:
        errs = [f["var_p_rel_err"] for f in facts if "var_p_rel_err" in f]
        return {"var_p_rel_err_median": (float(np.median(errs)) if errs else math.nan, "1")}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# qdii_grids
# ---------------------------------------------------------------------------

def grid_max(params: tb.TwinBeamParams, s: float) -> float:
    """Upper axis end: ten standard deviations above the mean intensity of
    the wider arm at ordering ``s``."""
    sigma = (1.0 - s) / 2.0
    bp = params.b_pairs + sigma
    ends = []
    for m_n, b_n in ((params.m_noise_s, params.b_noise_s),
                     (params.m_noise_i, params.b_noise_i)):
        mean = params.m_pairs * bp + m_n * (b_n + sigma)
        var = params.m_pairs * bp ** 2 + m_n * (b_n + sigma) ** 2
        ends.append(mean + 10.0 * math.sqrt(var) + 3.0)
    return max(ends)


class QdiiGrids:
    """Four grids per state: Bessel branch (s = 0, the CLI default ordering)
    and sinc branch (s = 1, the README ordering), each paired-only and
    noise-convolved.  Every state is jittered around the reference state, and
    every pass of a run draws fresh states, so each state misses the
    package's per-state caches as a user's fitted states would.  Every
    fourth state uses 400-cell axes, the others the README's 200."""

    name = "qdii_grids"
    period = 4
    ORDERINGS = (("bessel", 0.0), ("sinc", 1.0))
    JITTER = 0.15

    def __init__(self, seed: int, *, cells: tuple[int, int] = (200, 400)):
        self.seed = seed
        self.cells = cells

    def setup(self) -> None:
        # the reference state itself is never an item, so no item hits a
        # cache this warms; the first convolution imports scipy.signal
        self.run((REFERENCE.params, self.cells[0]))

    def inputs(self, k: int, pass_no: int) -> tuple[tb.TwinBeamParams, int]:
        rng = _rng(self.seed, pass_no, k)
        lo, hi = 1.0 - self.JITTER, 1.0 + self.JITTER
        ref = REFERENCE.params
        params = replace(ref, m_pairs=ref.m_pairs * rng.uniform(lo, hi),
                         b_pairs=ref.b_pairs * rng.uniform(lo, hi))
        return params, self.cells[1] if k % self.period == self.period - 1 else self.cells[0]

    def run(self, inp) -> dict:
        params, cells = inp
        grids = {}
        for branch, s in self.ORDERINGS:
            axis = np.linspace(0.0, grid_max(params, s), cells)
            for paired in (True, False):
                kind = f"{branch}_{'paired' if paired else 'full'}"
                grids[kind] = tb.joint_qdii_grid(params, s, axis, axis, paired_only=paired)
        return grids

    def check(self, inp, grids: dict) -> tuple[list[str], dict]:
        problems = []
        if not (grids["sinc_paired"].values < 0).any():
            problems.append("sinc-branch paired grid has no negative cells")
        if (grids["bessel_paired"].values < 0).any():
            problems.append("Bessel-branch paired grid has negative cells")
        err = max(abs(grids[k].normalization - 1.0) for k in ("bessel_full", "sinc_full"))
        return problems, {"norm_err": err}

    def accuracy(self, facts: list[dict]) -> dict:
        errs = [f["norm_err"] for f in facts if "norm_err" in f]
        return {"qdii_norm_err_max": (max(errs) if errs else math.nan, "1")}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

def run_child(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one command to completion; returns (exit code, seconds, peak RSS
    in MB).  The child is killed if it outlives ``timeout``."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=err,
                                stderr=subprocess.STDOUT, cwd=ROOT,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


class CliPipeline:
    """The README's ``simulate -> moments -> reconstruct -> qdii -> diagnose``
    as subprocesses with cold imports; one item is one whole pipeline.

    The simulator seed is drawn from the pool seeds whose library fit takes
    ``FIT_S`` seconds, around the README's seed 1 (0.52 s): a pipeline's
    time then depends on the run, not on whether the seed happened to need a
    heavy fit (``roundtrip_sweep`` covers the fit-cost spread).  Every item
    repeats the same pipeline, so its output files must be byte-identical
    across the items of a run.
    """

    name = "cli_pipeline"
    period = 1
    COMMANDS = ("simulate", "moments", "reconstruct", "qdii", "diagnose")
    TIMEOUT_S = 60.0
    FIT_S = (0.4, 0.6)

    def __init__(self, seed: int, setting: Setting = REFERENCE):
        lo, hi = self.FIT_S
        near = [e["seed"] for e in load_pool() if lo <= e["reconstruct_s"] < hi]
        self.setting = setting
        self.sim_config = {
            "params": vars(setting.params),
            "detector_s": vars(setting.detector_s),
            "detector_i": vars(setting.detector_i),
            "frames": setting.frames,
            "seed": int(near[int(_rng(seed).integers(len(near)))]),
        }
        self.dir = WORK_DIR / f"cli-{os.getpid()}"
        self.digests: dict[str, str] | None = None
        self.trace_dir: Path | None = None

    def start_tracing(self) -> None:
        """Run later commands through ``cli_child.py``, which records spans."""
        self.trace_dir = self.dir / "spans"
        self.trace_dir.mkdir(exist_ok=True)

    def setup(self) -> None:
        import twinbeam.cli  # noqa: F401  (cold import: fills bytecode and page caches)

        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        (self.dir / "sim.json").write_text(json.dumps(self.sim_config, indent=2))

    def inputs(self, k: int, pass_no: int) -> int:
        return k

    def _argv(self, command: str, d: Path) -> list[str]:
        d_s, d_i = self.setting.detector_s, self.setting.detector_i
        det = ["--eta-s", repr(d_s.efficiency), "--eta-i", repr(d_i.efficiency)]
        args = {
            "simulate": [str(self.dir / "sim.json"), "--out-dir", str(d / "run")],
            "moments": [str(d / "run" / "histogram.txt"), str(d / "run" / "dark.txt"),
                        *det, "--out", str(d / "moments.json")],
            "reconstruct": [str(d / "run" / "histogram.txt"), str(d / "run" / "dark.txt"), *det,
                            "--pixels-s", str(d_s.pixels), "--pixels-i", str(d_i.pixels),
                            "--dark-s", repr(d_s.dark_rate), "--dark-i", repr(d_i.dark_rate),
                            "--scan-points", str(self.setting.scan_points),
                            "--out-dir", str(d / "fit")],
            "qdii": [str(d / "fit_params.json"), "--ordering", "1.0", "--grid-max", "25",
                     "--grid-cells", "200", "--paired-only", "--out-dir", str(d / "grids")],
            "diagnose": [str(d / "fit_params.json"), "--out", str(d / "diagnose.json")],
        }[command]
        if self.trace_dir is None:
            head = [sys.executable, "-m", "twinbeam.cli"]
        else:
            head = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                    str(self.trace_dir / f"{d.name}-{command}.json")]
        return head + [command] + args

    def run(self, k: int) -> dict:
        d = self.dir / f"item{k}"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir()
        times, rss = {}, 0.0
        for command in self.COMMANDS:
            if command == "qdii":
                result = json.loads((d / "fit" / "result.json").read_text())
                (d / "fit_params.json").write_text(json.dumps(result["params"], indent=2))
            log = d / f"{command}.log"
            code, seconds, peak = run_child(self._argv(command, d), log, self.TIMEOUT_S)
            times[command] = seconds
            rss = max(rss, peak)
            if code != 0:
                tail = log.read_text(errors="replace").strip().splitlines()[-1:]
                raise RuntimeError(f"{command} exited {code}: {' '.join(tail)}")
        out = {"dir": d, "times": times, "rss_mb": rss, "import_s": [], "child_spans": []}
        if self.trace_dir is not None:
            for command in self.COMMANDS:
                raw = json.loads((self.trace_dir / f"{d.name}-{command}.json").read_text())
                out["import_s"].append(raw["import_s"])
                out["child_spans"].append([Span(**s) for s in raw["spans"]])
        return out

    OUTPUTS = ("run/histogram.txt", "run/dark.txt", "run/manifest.json", "moments.json",
               "fit/result.json", "fit/scan.csv", "fit/p_sum.csv", "fit_params.json",
               "grids/qdii.csv", "grids/qdii_paired.csv", "diagnose.json")

    def check(self, k: int, out: dict) -> tuple[list[str], dict]:
        d = out["dir"]
        problems = []
        digests, written = {}, 0
        for rel in self.OUTPUTS:
            data = (d / rel).read_bytes()
            written += len(data)
            digests[rel] = hashlib.sha256(data).hexdigest()
            try:
                if rel.endswith(".json"):
                    json.loads(data)
                else:
                    for line in data.decode().splitlines():
                        if not line.startswith("#"):
                            [float(c) for c in line.split(",")]
            except ValueError as exc:
                problems.append(f"{rel} does not parse: {exc}")
        if not problems:
            var_p = json.loads((d / "fit/result.json").read_text())["var_p_opt"]
            interval = json.loads((d / "moments.json").read_text())["var_p_interval"]
            if interval is None or not interval["low_exclusive"] < var_p <= interval["high"]:
                problems.append(f"var_p_opt {var_p!r} outside the moments interval {interval}")
        if self.digests is None:
            self.digests = digests
        changed = sorted(rel for rel in digests if digests[rel] != self.digests[rel])
        if changed:
            problems.append(f"outputs differ from the run's first item: {', '.join(changed)}")
        shutil.rmtree(d)
        return problems, {"cli_times": out["times"], "rss_mb": out["rss_mb"],
                          "bytes_written": written, "import_s": out["import_s"]}

    def accuracy(self, facts: list[dict]) -> dict:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


WORKLOADS = {w.name: w for w in (RoundtripSweep, QdiiGrids, CliPipeline)}
