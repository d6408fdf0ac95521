"""Spans around calls into the twinbeam layers, recorded from outside the
package.

``install`` replaces each traced function with a timing wrapper at every
name a twinbeam module binds it under (``twinbeam.fit.joint_photon_distribution``
as well as ``twinbeam.photostat.joint_photon_distribution``), so calls made
inside the package are seen exactly as calls made by the benchmark.  Nothing
under ``src/`` is edited; ``uninstall`` puts the original functions back.

This module imports nothing heavy, so the traced CLI child can load it
before timing its cold ``import twinbeam``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field


def _frames(args, kwargs, result):
    return {"frames": args[0].frames}


def _cutoffs(args, kwargs, result):
    n_s, n_i = kwargs.get("cutoffs", args[1] if len(args) > 1 else None)
    return {"n_s": int(n_s), "n_i": int(n_i)}


def _grid_kind(args, kwargs, result):
    params, s = args[0], args[1]
    # sign of k_p(s) selects the branch: Bessel below the paired threshold
    k = -s * params.b_pairs + (1.0 - s) ** 2 / 4.0
    branch = "bessel" if k > 0 else "sinc"
    paired = "paired" if kwargs.get("paired_only", False) else "full"
    return {"kind": f"{branch}_{paired}", "cells": len(args[2]) * len(args[3])}


def _scan_counts(args, kwargs, result):
    return {"evaluations": len(result.scan),
            "feasible": sum(1 for _, d in result.scan if math.isfinite(d))}


# (layer module, function, attributes taken from the call)
TARGETS = (
    ("simgen", "simulate_histogram", _frames),
    ("moments", "photocount_moments", None),
    ("moments", "dark_corrected_moments", None),
    ("moments", "feasibility", None),
    ("moments", "inversion_family", None),
    ("moments", "invert_at", None),
    ("moments", "mode_parameters", None),
    ("moments", "field_moments_from_params", None),
    ("photostat", "default_cutoffs", None),
    ("photostat", "response_table", None),
    ("photostat", "joint_photon_distribution", _cutoffs),
    ("photostat", "photocount_distribution", None),
    ("photostat", "sum_distribution", None),
    ("photostat", "noise_reduction_factor", None),
    ("fit", "reconstruct", _scan_counts),
    ("fit", "declination", None),
    ("qdii", "joint_qdii_grid", _grid_kind),
    ("qdii", "ordering_threshold", None),
    ("qdii", "nonclassicality", None),
    ("specfun", "sinc", None),
    ("specfun", "log_bessel_i", None),
)


@dataclass
class Span:
    """One call into a layer: ``name`` is ``<layer>.<function>``."""

    name: str
    item: int
    parent: int | None
    start: float
    end: float = math.nan
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = 0
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, self.item, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at each twinbeam module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "twinbeam" or n.startswith("twinbeam.")) and m is not None]
        for layer, fname, attrs_of in TARGETS:
            original = getattr(sys.modules[f"twinbeam.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", original, attrs_of)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._restore.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def merge(self, spans: list[Span], item: int) -> None:
        """Append spans recorded by another process, renumbering parents."""
        base = len(self.spans)
        for span in spans:
            span.item = item
            if span.parent is not None:
                span.parent += base
            self.spans.append(span)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()


def children(spans: list[Span]) -> dict[int, list[int]]:
    """Direct child indices of every span index that has children."""
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def self_time(spans: list[Span], kids: dict[int, list[int]], index: int) -> float:
    """Duration minus the time covered by direct children (children of one
    single-threaded call never overlap)."""
    return spans[index].duration - sum(spans[k].duration for k in kids.get(index, ()))
