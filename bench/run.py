"""Benchmark of the twinbeam package.

    python3 bench/run.py --workload roundtrip_sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``roundtrip_sweep``, ``qdii_grids`` and
``cli_pipeline``.  Each is a closed loop with one client.  The untraced run
(``--trace 0``) times items for ``--seconds`` and reports the end-to-end
metrics; set-up is timed separately in fresh interpreters.  The traced run
(``--trace 1``) first runs items untraced for half of ``--seconds``, then the
same number of items again with spans recorded around every call into the
package's layers; it reports per-layer metrics and the tracing overhead.

Every item's output is checked; a failing item is counted, not fatal.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is imported from the
``src/`` directory next to ``bench/``; the working directory does not matter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# Pinned before numpy loads; inherited by every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0
P90_MIN_SAMPLES = 100  # leaves at least ten samples beyond the 90th percentile


@dataclass
class Item:
    index: int
    seconds: float
    problems: list[str]
    facts: dict = field(default_factory=dict)


def metric_units(section: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    the benchmark's contract, ``BENCHMARK.json``, lists them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in contract[section]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (one set-up sample)")
    return p.parse_args(argv)


def import_package():
    """Import twinbeam from this copy's ``src/``; refuse any other copy."""
    if not (SRC / "twinbeam" / "__init__.py").is_file():
        raise SystemExit(f"error: no twinbeam package under {SRC}")
    sys.path.insert(0, str(SRC))
    import twinbeam

    if Path(twinbeam.__file__).resolve().parent != SRC / "twinbeam":
        raise SystemExit(f"error: imported twinbeam from {twinbeam.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------

def run_pass(workload, seconds: float, pass_no: int, *, count: int | None = None,
             tracer=None) -> list[Item]:
    """Closed loop: each item starts when the previous one has finished.

    Runs ``count`` items, or else whole periods of the workload's input
    pattern, so that every run sees the same mix of inputs, stopping at the
    period boundary nearest to ``seconds`` (after at least one period).
    """
    items = []
    start = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k == count:
                break
        elif k and k % workload.period == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (k // workload.period) / 2.0 >= seconds:
                break
        inp = workload.inputs(k, pass_no)
        if tracer is not None:
            tracer.item = k
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failing item is counted, the loop goes on
            items.append(Item(k, time.perf_counter() - t0, [f"raised {exc!r}"]))
            k += 1
            continue
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            for spans in out.get("child_spans", ()) if isinstance(out, dict) else ():
                tracer.merge(spans, k)
        try:
            problems, facts = workload.check(inp, out)
        except Exception as exc:  # a check that cannot read the output fails the item
            problems, facts = [f"check raised {exc!r}"], {}
        items.append(Item(k, elapsed, problems, facts))
        k += 1
    return items


def measure_setup(args) -> list[float]:
    """Wall time of the workload's set-up in fresh interpreters, one at a time."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("error: set-up failed:\n" + proc.stderr.decode(errors="replace"))
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(items: list[Item], setup: list[float]) -> dict:
    times = [it.seconds for it in items]
    passed = sum(not it.problems for it in items)
    rss = [it.facts["rss_mb"] for it in items if "rss_mb" in it.facts]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {
        "items_per_s": passed / sum(times),
        "item_p50_s": statistics.median(times),
        "setup_s": statistics.median(setup) if setup else math.nan,
        "peak_rss_mb": max(rss),
    }


def layer_metrics(spans, items: list[Item], overhead: float) -> dict:
    from spans import children, self_time

    n = len(items)
    kids = children(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def durations(name):
        return [spans[i].duration for i in by[name]]

    def mean(values, scale=1.0):
        return scale * sum(values) / len(values) if values else 0.0

    def per_item(count):
        return count / n

    m = {}
    sim = by["simgen.simulate_histogram"]
    sim_s = sum(durations("simgen.simulate_histogram"))
    m["simgen.simulate_s"] = mean(durations("simgen.simulate_histogram"))
    m["simgen.frames_per_s"] = (sum(spans[i].attrs["frames"] for i in sim) / sim_s
                                if sim_s else 0.0)
    m["simgen.calls"] = per_item(len(sim))

    m["moments.photocount_moments_ms"] = mean(durations("moments.photocount_moments"), 1e3)
    inv = by["moments.invert_at"]
    m["moments.invert_at_calls"] = per_item(len(inv))
    m["moments.invert_at_failed"] = per_item(sum(not spans[i].ok for i in inv))
    m["moments.busy_ms"] = per_item(1e3 * sum(
        self_time(spans, kids, i) for name, idx in by.items()
        if name.startswith("moments.") for i in idx))

    for fname in ("response_table", "joint_photon_distribution", "photocount_distribution"):
        name = f"photostat.{fname}"
        m[f"{name}_calls"] = per_item(len(by[name]))
        m[f"{name}_ms"] = mean(durations(name), 1e3)

    recon = by["fit.reconstruct"]
    forward = {r: [k for k in kids.get(r, ())
                   if spans[k].name == "photostat.joint_photon_distribution"] for r in recon}
    cut = [spans[f[0]].attrs for f in forward.values() if f]
    m["photostat.cutoff_n_s"] = mean([c["n_s"] for c in cut])
    m["photostat.cutoff_n_i"] = mean([c["n_i"] for c in cut])
    m["photostat.forward_cells"] = per_item(sum(
        (spans[k].attrs["n_s"] + 1) * (spans[k].attrs["n_i"] + 1)
        for f in forward.values() for k in f))

    m["fit.reconstruct_s"] = mean(durations("fit.reconstruct"))
    m["fit.self_s"] = mean([self_time(spans, kids, r) for r in recon])
    done = [spans[r].attrs for r in recon if spans[r].ok]
    evaluations = sum(a["evaluations"] for a in done)
    m["fit.evaluations"] = mean([a["evaluations"] for a in done])
    m["fit.feasible_frac"] = (sum(a["feasible"] for a in done) / evaluations
                              if evaluations else 0.0)
    m["fit.declination_calls"] = per_item(len(by["fit.declination"]))
    m["fit.declination_ms"] = mean(durations("fit.declination"), 1e3)

    grid_ms = defaultdict(list)
    for i in by["qdii.joint_qdii_grid"]:
        grid_ms[spans[i].attrs.get("kind")].append(spans[i].duration)
    for kind in ("bessel_paired", "bessel_full", "sinc_paired", "sinc_full"):
        m[f"qdii.{kind}_ms"] = mean(grid_ms[kind], 1e3)
    m["qdii.grid_points"] = per_item(sum(spans[i].attrs.get("cells", 0)
                                         for i in by["qdii.joint_qdii_grid"]))
    m["qdii.ordering_threshold_us"] = mean(durations("qdii.ordering_threshold"), 1e6)
    m["qdii.nonclassicality_us"] = mean(durations("qdii.nonclassicality"), 1e6)

    m["specfun.sinc_calls"] = per_item(len(by["specfun.sinc"]))
    m["specfun.sinc_ms"] = mean(durations("specfun.sinc"), 1e3)
    m["specfun.log_bessel_i_calls"] = per_item(len(by["specfun.log_bessel_i"]))

    cli = [it.facts for it in items if "cli_times" in it.facts]
    imports = [s for f in cli for s in f.get("import_s", ())]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for command in ("simulate", "moments", "reconstruct", "qdii", "diagnose"):
        m[f"cli.{command}_s"] = (statistics.median(f["cli_times"][command] for f in cli)
                                 if cli else 0.0)
    m["cli.bytes_written"] = mean([f["bytes_written"] for f in cli])
    m["trace.overhead_frac"] = overhead
    return m


def reconcile(spans) -> dict[int, list[str]]:
    """Per item, the reconstruct spans whose child counts disagree with the
    evaluation counts the fit reports in its scan."""
    from spans import children

    kids = children(spans)
    problems = defaultdict(list)
    for r, span in enumerate(spans):
        if span.name != "fit.reconstruct" or not span.ok:
            continue
        count = defaultdict(int)
        for k in kids.get(r, ()):
            count[spans[k].name] += 1
        forward = count["photostat.joint_photon_distribution"]
        feasible, evaluations = span.attrs["feasible"], span.attrs["evaluations"]
        # each feasible evaluation runs the forward model once; the refit at
        # the optimum may run it once more
        if not feasible <= forward <= feasible + 1:
            problems[span.item].append(
                f"{forward} forward evaluations for {feasible} feasible scan points")
        if not (count["photostat.photocount_distribution"] == count["fit.declination"]
                == forward):
            problems[span.item].append(
                "photocount_distribution / declination / joint_photon_distribution "
                f"calls differ: {count['photostat.photocount_distribution']} / "
                f"{count['fit.declination']} / {forward}")
        if count["moments.invert_at"] < evaluations:
            problems[span.item].append(
                f"{count['moments.invert_at']} invert_at calls for {evaluations} evaluations")
    return problems


def attribution(spans) -> dict:
    """Where reconstruct's time went, summed over all reconstruct spans."""
    from spans import children, self_time

    kids = children(spans)
    out = defaultdict(float)
    for r, span in enumerate(spans):
        if span.name != "fit.reconstruct":
            continue
        out["total"] += span.duration
        out["fit.self"] += self_time(spans, kids, r)
        for k in kids.get(r, ()):
            child = spans[k].name
            out[child if child == "fit.declination" else child.split(".")[0]] += spans[k].duration
    return dict(out)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict:
    """Cache sizes in bytes as ``getconf`` reports them (Python's
    ``os.sysconf`` does not know the cache names)."""
    names = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2", "LEVEL3_CACHE_SIZE": "L3"}
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in names and parts[1].isdigit():
            out[names[parts[0]]] = int(parts[1])
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def traced_run(workload, seconds: float):
    """Untraced pass for half the time, then the same number of items traced.

    Returns (untraced items, traced items, tracer).  The pass number lets a
    workload draw fresh inputs where the package caches per-input results.
    """
    from spans import Tracer

    plain = run_pass(workload, seconds / 2.0, 0)
    tracer = Tracer()
    getattr(workload, "start_tracing", lambda: None)()
    tracer.install()
    try:
        traced = run_pass(workload, 0.0, 1, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    for index, problems in reconcile(tracer.spans).items():
        traced[index].problems.extend(problems)
    return plain, traced, tracer


def report_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit}"


def execute(workload, seconds: float, trace: int, setup: list[float]) -> dict:
    """Set the workload up, run it, print the report and return the result
    object: untraced end-to-end metrics, or traced per-layer metrics."""
    try:
        workload.setup()
        if trace == 0:
            items = timed = run_pass(workload, seconds, 0)
        else:
            timed, traced, tracer = traced_run(workload, seconds)
            items = timed + traced
    finally:
        workload.close()

    failed = [it for it in items if it.problems]
    for it in failed[:10]:
        print(f"item {it.index} failed: {'; '.join(it.problems)}")

    e2e, units = end_to_end(timed, setup), metric_units("end_to_end")
    times = sorted(it.seconds for it in timed)
    print(f"{workload.name}: {len(timed)} items in {sum(times):.3f} s of items, "
          f"{len(setup)} set-up samples, {BLAS_THREADS} BLAS thread(s)")
    print("end-to-end" + (" (untraced pass)" if trace else ""))
    for name, unit in units.items():
        if setup or name != "setup_s":
            print(report_line(name, e2e[name], unit))
    if len(times) >= P90_MIN_SAMPLES:
        print(report_line("item_p90_s", statistics.quantiles(times, n=10)[-1], "s"))
    else:
        print(f"  item_p90_s not reported: {len(times)} samples < {P90_MIN_SAMPLES}")
    print(report_line("failed_frac", len(failed) / len(items), "1"))
    for name, (value, unit) in workload.accuracy([it.facts for it in timed]).items():
        print(report_line(name, value, unit))

    if trace == 0:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in units.items()}
    else:
        rate = [len(part) / sum(it.seconds for it in part) for part in (timed, traced)]
        layers = layer_metrics(tracer.spans, traced, 1.0 - rate[1] / rate[0])
        units = metric_units("per_layer")
        print("per layer (traced pass)")
        for name, unit in units.items():
            print(report_line(name, layers[name], unit))
        share = attribution(tracer.spans)
        if share:
            print("fit.reconstruct attributed to its children (s, summed over calls)")
            for name, value in sorted(share.items()):
                print(report_line(name, value, "s"))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    return {"correct": not failed, "attempted": len(items), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
        finally:
            workload.close()
        return 0

    setup = measure_setup(args) if args.trace == 0 else []
    print(f"environment {json.dumps(environment(args), sort_keys=True)}")
    result = execute(WORKLOADS[args.workload](args.seed), args.seconds, args.trace, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
