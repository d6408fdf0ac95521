"""Regenerate ``seed_pool.json``: the simulator seeds the ``roundtrip_sweep``
and ``cli_pipeline`` workloads draw from, each tagged with its fit cost.

The cost of one ``reconstruct`` on 10^6 frames of the reference state spans
two orders of magnitude across simulator seeds (rare signal-noise bursts set
the photon cutoffs), so a run that draws seeds at random sees a different
mix of cheap and expensive fits every time.  The benchmark instead draws a
fixed number of seeds from each cost class; this script measures the classes
once.  Run from the repository root:

    python3 bench/make_seed_pool.py 120 > bench/seed_pool.json
"""

import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import twinbeam as tb  # noqa: E402

from reference import REFERENCE as R  # noqa: E402

# upper edges of the cost classes, on the library reconstruct time in seconds
CLASS_EDGES = (("light", 0.3), ("mid", 0.8), ("upper", 3.0), ("heavy", float("inf")))


def cost_class(seconds: float) -> str:
    return next(name for name, upper in CLASS_EDGES if seconds < upper)


def main(count: int) -> None:
    seeds = []
    for seed in range(count):
        h, dark = tb.simulate_histogram(
            tb.SimConfig(R.params, R.detector_s, R.detector_i, R.frames, seed))
        t0 = time.perf_counter()
        tb.reconstruct(h, dark, R.detector_s, R.detector_i, R.scan_points)
        seconds = time.perf_counter() - t0
        seeds.append({"seed": seed, "reconstruct_s": round(seconds, 3),
                      "class": cost_class(seconds)})
        print(json.dumps(seeds[-1]), file=sys.stderr, flush=True)
    edges = {n: u for n, u in CLASS_EDGES if u < float("inf")}
    sys.stdout.write('{"class_upper_edges_s": %s,\n "seeds": [\n  %s\n ]}\n'
                     % (json.dumps(edges), ",\n  ".join(json.dumps(e) for e in seeds)))


if __name__ == "__main__":
    main(int(sys.argv[1]))
