"""Command-line interface: file I/O and end-to-end orchestration.

Commands
--------
moments      histogram + dark -> detected moments, feasibility, var_p interval
reconstruct  histogram + dark + detector -> fitted state + scan curve + diagnostics
simulate     config -> synthetic histogram + dark histogram (seeded)
qdii         state params -> quasi-distribution grid file(s)
diagnose     state params -> sum distribution, noise reduction, non-classicality

Exit codes: 0 success, 2 parse/validation error, 3 infeasible moments,
4 numerical failure.  A missing input file exits with 2 before the command
reads any input.  A command creates its ``--out-dir`` only after its
computation has succeeded, just before the first write, so a run that exits
with 2, 3 or 4 creates none.

Histogram files are plain text: one header line ``# frames: <number>``, then
comma-separated rows indexed by m_s (rows) and m_i (columns).  Results are
JSON; grids and curves are CSV with ``#``-prefixed header lines.  All
numbers are serialized with full round-trip precision and outputs carry no
timestamps, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import (
    GridResolutionError,
    InfeasibleMomentsError,
    NumericsError,
    TwinbeamError,
    ValidationError,
)
from .fit import reconstruct
from .model import DetectorModel, FieldMoments, Histogram2D, TwinBeamParams
from .moments import (
    dark_corrected_moments,
    feasibility,
    field_moments_from_params,
    inversion_family,
    photocount_moments,
)
from .photostat import (
    default_cutoffs,
    joint_photon_distribution,
    noise_reduction_factor,
    sum_distribution,
)
from .qdii import joint_qdii_grid, nonclassicality, ordering_threshold
from .simgen import SimConfig, simulate_histogram

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _input_files(*names: str) -> list[Path]:
    """The command's input files as paths; raises if one is missing."""
    paths = [Path(n) for n in names]
    for p in paths:
        if not p.is_file():
            raise ValidationError(f"input file not found: {p}")
    return paths


def load_histogram(path: Path) -> Histogram2D:
    rows = []
    frames = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("frames:"):
                    if frames is not None:
                        raise ValidationError(f"{path}:{lineno}: second frames header: {line!r}")
                    try:
                        frames = float(body.split(":", 1)[1])
                    except ValueError as exc:
                        raise ValidationError(
                            f"{path}:{lineno}: bad frames header: {line!r}") from exc
                continue
            try:
                rows.append([float(c) for c in line.split(",")])
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: unparseable histogram row: {line!r}") from exc
    if frames is None:
        raise ValidationError(f"{path}: missing '# frames:' header line")
    if not rows:
        raise ValidationError(f"{path}: histogram has no data rows")
    width = max(len(r) for r in rows)
    counts = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        counts[i, :len(r)] = r
    return Histogram2D(counts, frames)


def _save_table(path: Path, header_lines, rows) -> None:
    """Comma-separated ``rows`` below ``#``-prefixed ``header_lines``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def save_histogram(path: Path, h: Histogram2D) -> None:
    frames = int(h.total_frames) if float(h.total_frames).is_integer() else h.total_frames
    _save_table(path, [f"frames: {frames}"], h.counts)


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_params(path: Path) -> TwinBeamParams:
    raw = _load_json(path)
    try:
        return TwinBeamParams(**{k: _json_number(raw, k) for k in (
            "m_pairs", "b_pairs", "m_noise_s", "b_noise_s", "m_noise_i", "b_noise_i")})
    except KeyError as exc:
        raise ValidationError(f"{path}: missing parameter field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed state parameters ({exc})") from exc


def _json_number(raw: dict, key: str) -> float:
    """The number in ``raw[key]`` as a float.  A numeric field must be a
    JSON number: a bool or a string is malformed rather than converted, and
    so is an integer past the double range."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} passes the double range, got {value!r}") from None


def _json_integer(raw: dict, key: str) -> int:
    """The integer in ``raw[key]``: a JSON number (``_json_number``) that is
    whole; a fraction, inf or NaN is malformed rather than truncated."""
    value = raw[key]
    if type(value) is not int and not _json_number(raw, key).is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def load_sim_config(path: Path) -> SimConfig:
    raw = _load_json(path)
    try:
        spec = raw["params"]
        params = TwinBeamParams(**{k: _json_number(spec, k) for k in spec.keys()})
        det = {}
        for arm in ("detector_s", "detector_i"):
            spec = raw[arm]
            det[arm] = DetectorModel(
                efficiency=_json_number(spec, "efficiency"),
                pixels=_json_integer(spec, "pixels"),
                dark_rate=_json_number(spec, "dark_rate") if "dark_rate" in spec else 0.0,
            )
        return SimConfig(params=params, detector_s=det["detector_s"],
                         detector_i=det["detector_i"],
                         frames=_json_integer(raw, "frames"), seed=_json_integer(raw, "seed"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed simulation config ({exc})") from exc


def _write_report(report: dict, fmt: str, out_file: Path | None) -> None:
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
    else:
        lines = []

        def flatten(prefix: str, obj: dict) -> None:
            for k in sorted(obj):
                if isinstance(obj[k], dict):
                    flatten(f"{prefix}{k}.", obj[k])
                else:
                    lines.append(f"{prefix}{k},{_csv_cell(obj[k])}")

        flatten("", report)
        text = "\n".join(lines) + "\n"
    if out_file is None:
        sys.stdout.write(text)
    else:
        out_file.write_text(text, encoding="utf-8")


def _csv_cell(v) -> str:
    # the json report's spellings; a cell is None, a bool, a float or a list
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(_csv_cell(x) for x in v)
    return _fmt(v)


def save_grid(path: Path, grid) -> None:
    _save_table(path, ["ws: " + ",".join(_fmt(x) for x in grid.w_s_axis),
                       "wi: " + ",".join(_fmt(x) for x in grid.w_i_axis),
                       f"ordering: {_fmt(grid.ordering)}",
                       f"normalization: {_fmt(grid.normalization)}"], grid.values)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _detector_from_args(args, arm: str) -> DetectorModel:
    return DetectorModel(
        efficiency=getattr(args, f"eta_{arm}"),
        pixels=getattr(args, f"pixels_{arm}"),
        dark_rate=getattr(args, f"dark_{arm}"),
    )


def _diagnostics(params: TwinBeamParams, fm: FieldMoments) -> tuple[dict, np.ndarray]:
    """Noise reduction, moment criterion and threshold ordering of a state,
    and its sum-photon-number distribution."""
    psum = sum_distribution(joint_photon_distribution(params, default_cutoffs(params)))
    threshold = ordering_threshold(params)
    verdict = nonclassicality(fm)
    return {
        "noise_reduction_factor": noise_reduction_factor(fm),
        "nonclassical": verdict.nonclassical,
        "nonclassicality_margin": verdict.margin,
        "s_th": threshold.s_th,
        "s_th_beta": threshold.beta,
        "s_th_gamma": threshold.gamma,
    }, psum


def cmd_moments(args) -> int:
    hist_path, dark_path = _input_files(args.histogram, args.dark)
    h = load_histogram(hist_path)
    dark = load_histogram(dark_path)
    mom = photocount_moments(h)
    dmom = photocount_moments(dark)
    detected = dark_corrected_moments(mom, dmom)
    report = {
        "photocount_moments": asdict(mom),
        "dark_moments": asdict(dmom),
        "detected_moments": asdict(detected),
        "efficiencies": {"eta_s": args.eta_s, "eta_i": args.eta_i},
        "feasibility_margin": None,
        "var_p_interval": None,
    }
    try:
        report["feasibility_margin"] = feasibility(detected, args.eta_s, args.eta_i)
        lo, hi = inversion_family(detected, args.eta_s, args.eta_i).var_p_range
        report["var_p_interval"] = {"low_exclusive": lo, "high": hi}
    except InfeasibleMomentsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
    _write_report(report, args.format, Path(args.out) if args.out else None)
    return EXIT_OK if report["var_p_interval"] else EXIT_INFEASIBLE


def cmd_reconstruct(args) -> int:
    hist_path, dark_path = _input_files(args.histogram, args.dark)
    h = load_histogram(hist_path)
    dark = load_histogram(dark_path)
    d_s = _detector_from_args(args, "s")
    d_i = _detector_from_args(args, "i")
    result = reconstruct(h, dark, d_s, d_i, scan_points=args.scan_points)

    diagnostics, psum = _diagnostics(result.params, result.field_moments)
    report = {
        "var_p_opt": result.var_p_opt,
        "declination": result.declination,
        "at_boundary": result.at_boundary,
        "params": asdict(result.params),
        "field_moments": asdict(result.field_moments),
        "diagnostics": diagnostics,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(report, args.format, out_dir / f"result.{args.format}")
    _save_table(out_dir / "scan.csv", ["var_p,declination"], result.scan)
    _save_table(out_dir / "p_sum.csv", ["k,p_sum"], enumerate(psum.tolist()))
    return EXIT_OK


def cmd_simulate(args) -> int:
    [config] = _input_files(args.config)
    sim = load_sim_config(config)
    if args.seed is not None or args.frames is not None:
        sim = replace(sim,
                      seed=sim.seed if args.seed is None else args.seed,
                      frames=sim.frames if args.frames is None else args.frames)
    h, dark = simulate_histogram(sim)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_histogram(out_dir / "histogram.txt", h)
    save_histogram(out_dir / "dark.txt", dark)
    manifest = {
        "seed": sim.seed,
        "frames": sim.frames,
        "params": asdict(sim.params),
        "detector_s": asdict(sim.detector_s),
        "detector_i": asdict(sim.detector_i),
    }
    _write_report(manifest, "json", out_dir / "manifest.json")
    return EXIT_OK


def _auto_grid_max(params: TwinBeamParams, s: float) -> float:
    """Ten standard deviations above the mean intensity of the wider arm."""
    sigma = (1.0 - s) / 2.0
    pair = params.b_pairs + sigma
    arms = ((params.m_noise_s, params.b_noise_s + sigma),
            (params.m_noise_i, params.b_noise_i + sigma))
    return max(params.m_pairs * pair + m * b
               + 10.0 * math.sqrt(params.m_pairs * pair ** 2 + m * b ** 2) + 3.0
               for m, b in arms)


# most cells per axis of a qdii grid, 2^30 - 1 on a 64-bit build: the
# largest n for which numpy can size the grid's n x n float64 values
_MAX_GRID_CELLS = math.isqrt(np.iinfo(np.intp).max // 8)


def cmd_qdii(args) -> int:
    [params_path] = _input_files(args.params)
    if args.grid_max is not None and not (math.isfinite(args.grid_max) and args.grid_max > 0):
        raise ValidationError(f"--grid-max must be finite and > 0, got {args.grid_max}")
    if not 2 <= args.grid_cells <= _MAX_GRID_CELLS:
        raise ValidationError(f"--grid-cells must lie in [2, {_MAX_GRID_CELLS}], "
                              f"got {args.grid_cells}")
    params = load_params(params_path)
    grid_max = (_auto_grid_max(params, args.ordering) if args.grid_max is None
                else args.grid_max)
    try:
        axis = np.linspace(0.0, grid_max, args.grid_cells)
        grids = {"qdii.csv": joint_qdii_grid(params, args.ordering, axis, axis)}
        if args.paired_only:
            grids["qdii_paired.csv"] = joint_qdii_grid(params, args.ordering, axis, axis,
                                                       paired_only=True)
    except MemoryError:
        raise ValidationError(f"--grid-cells {args.grid_cells}: a grid of that many cells "
                              "per axis does not fit in memory") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, grid in grids.items():
        save_grid(out_dir / name, grid)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    [params_path] = _input_files(args.params)
    params = load_params(params_path)
    fm = field_moments_from_params(params)
    diagnostics, psum = _diagnostics(params, fm)
    report = {
        "params": asdict(params),
        "field_moments": asdict(fm),
        **diagnostics,
        "p_sum_head": psum[:41].tolist(),
    }
    _write_report(report, args.format, Path(args.out) if args.out else None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta-s", type=float, required=True, help="signal detection efficiency")
    p.add_argument("--eta-i", type=float, required=True, help="idler detection efficiency")
    p.add_argument("--pixels-s", type=int, default=1000)
    p.add_argument("--pixels-i", type=int, default=1000)
    p.add_argument("--dark-s", type=float, default=0.0, help="per-pixel dark rate, signal arm")
    p.add_argument("--dark-i", type=float, default=0.0, help="per-pixel dark rate, idler arm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinbeam",
        description="Twin-beam state reconstruction from joint photocount histograms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="dark-corrected moments and feasibility")
    p.add_argument("histogram")
    p.add_argument("dark")
    p.add_argument("--eta-s", type=float, required=True)
    p.add_argument("--eta-i", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("reconstruct", help="fit the six-parameter state")
    p.add_argument("histogram")
    p.add_argument("dark")
    _add_detector_args(p)
    p.add_argument("--scan-points", type=int, default=200)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("simulate", help="generate a synthetic run")
    p.add_argument("config", help="JSON simulation config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--frames", type=int, default=None, help="override the config frame count")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qdii", help="quasi-distribution grid")
    p.add_argument("params", help="JSON state parameters")
    p.add_argument("--ordering", type=float, default=0.0)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-cells", type=int, default=201)
    p.add_argument("--paired-only", action="store_true",
                   help="also write the paired-field-only grid")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_qdii)

    p = sub.add_parser("diagnose", help="photon-statistics diagnostics of a state")
    p.add_argument("params", help="JSON state parameters")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleMomentsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericsError, GridResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TwinbeamError as exc:  # ValidationError, DomainError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
