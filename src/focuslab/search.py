"""Closed-loop lens-position search against the virtual camera.

A coarse scan brackets the focus peak, then golden-section refinement
narrows it. The measured focus curve is unimodal in |z| (detail content
falls off like 1/|z| once defocus dominates), so bracketing before refining
is robust even though the far-defocus tails are nearly flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, refuse_bool, require_int
from .metric import Camera, MetricKind, best_probe, z_grid
from .optics import LensState, OpticalConfig, blur_radius, check_kernel_fits
from .optics import convolve  # noqa: F401  (perfbench's tracer swaps this binding)

__all__ = ["SearchParams", "TracePoint", "AutofocusResult", "autofocus"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

TRACE_CSV_HEADER = "step,z_mm,d_mean,phase"


@dataclass(frozen=True)
class SearchParams:
    """Knobs for the two-stage search."""

    z_min: float
    z_max: float
    coarse_steps: int = 11
    refine_iterations: int = 12
    trials_per_eval: int = 1
    metric: MetricKind = MetricKind.SQUARED

    def __post_init__(self) -> None:
        refuse_bool(self.z_min, "z_min")
        refuse_bool(self.z_max, "z_max")
        if not (math.isfinite(self.z_min) and math.isfinite(self.z_max)):
            raise ValueError(f"z_min and z_max must be finite, got [{self.z_min}, {self.z_max}]")
        if not self.z_min < self.z_max:
            raise ValueError(f"need z_min < z_max, got [{self.z_min}, {self.z_max}]")
        if not isinstance(self.metric, MetricKind):
            raise ValueError(f"metric must be a MetricKind, got {self.metric!r}")
        counts = (("coarse_steps", 5), ("refine_iterations", 0), ("trials_per_eval", 1))
        for name, minimum in counts:
            object.__setattr__(self, name, require_int(getattr(self, name), name, minimum))


@dataclass(frozen=True)
class TracePoint:
    """One probed displacement and the mean metric measured there."""

    z_mm: float
    d_mean: float
    phase: str  # "coarse" or "refine"


@dataclass(frozen=True)
class AutofocusResult:
    """Outcome of a search: best displacement, its metric, and the full trace.

    ``at_boundary`` flags a coarse winner on the interval edge, meaning the
    true focus may lie outside [z_min, z_max]; the result still reports the
    best achievable position rather than raising.
    """

    z_star: float
    d_star: float
    evaluations: int
    trace: tuple[TracePoint, ...]
    at_boundary: bool = False

    def write_trace_csv(self, dest) -> None:
        """CSV export: header ``step,z_mm,d_mean,phase``, one row per probe."""
        rows = [
            (str(i), fmt_num(p.z_mm), fmt_num(p.d_mean), p.phase)
            for i, p in enumerate(self.trace)
        ]
        write_rows(dest, TRACE_CSV_HEADER, rows)


def autofocus(
    scene: Image,
    cfg: OpticalConfig,
    window: WindowSpec,
    noise: NoiseSpec,
    params: SearchParams,
) -> AutofocusResult:
    """Find the lens displacement that maximizes the focus metric.

    Stage 1 evaluates ``coarse_steps`` equally spaced displacements over
    [z_min, z_max] and picks the best (ties prefer smaller |z|). If the
    winner sits on the interval edge the result is returned immediately with
    ``at_boundary`` set. Stage 2 runs ``refine_iterations`` golden-section
    steps on the bracket formed by the winner's neighbors. Every probe
    averages ``trials_per_eval`` captures, each with a noise seed derived
    from (probe index, trial index), so the whole search is deterministic.
    The camera's plan holds a path for every probe the search may make, so
    a probe's draws are queued on the capture pool ahead of its blur, before
    its z is known (``Camera``); the queued draws it does not use end with
    the call.
    Before it plans a probe it raises ValueError if z_max - z_min overflows,
    or if the far end of [z_min, z_max] blurs with a kernel larger than the scene.
    """
    reach = blur_radius(cfg, LensState(max(abs(params.z_min), abs(params.z_max)))).px
    check_kernel_fits(reach, scene.frame_size, "z_min/z_max reach")
    coarse_z = z_grid(params.z_min, params.z_max, params.coarse_steps)
    # Every probe the search can make, coarse ones first: a probe's noise
    # depends only on its index, so it is planned before its z is known.
    probes = params.coarse_steps + 2 + params.refine_iterations
    paths = [(i,) for i in range(probes)]
    camera = Camera(scene, cfg, [window], noise, paths, params.trials_per_eval)
    trace: list[TracePoint] = []

    def probe(zs: list[float], phase: str) -> float:
        """Probe each z in order, append them to the trace, return the last one's mean."""
        samples = camera.probes(zs, params.metric)
        trace.extend(TracePoint(z_mm=s.z_mm, d_mean=s.d_mean, phase=phase) for s in samples)
        return samples[-1].d_mean

    def finish(at_boundary: bool) -> AutofocusResult:
        best = best_probe(trace)
        return AutofocusResult(
            z_star=best.z_mm,
            d_star=best.d_mean,
            evaluations=params.trials_per_eval * len(trace),
            trace=tuple(trace),
            at_boundary=at_boundary,
        )

    with camera:  # the first probe queues the draws; leaving ends those not taken
        # One call: its blurs overlap the draws, queued ahead, of its captures.
        probe(coarse_z, "coarse")
        best_idx = trace.index(best_probe(trace))
        if best_idx == 0 or best_idx == len(coarse_z) - 1:
            return finish(at_boundary=True)

        lo, hi = coarse_z[best_idx - 1], coarse_z[best_idx + 1]
        x1 = hi - _INV_PHI * (hi - lo)
        x2 = lo + _INV_PHI * (hi - lo)
        f1 = probe([x1], "refine")
        f2 = probe([x2], "refine")
        for _ in range(params.refine_iterations):
            if f1 < f2:
                lo = x1
                x1, f1 = x2, f2
                x2 = lo + _INV_PHI * (hi - lo)
                f2 = probe([x2], "refine")
            else:
                hi = x2
                x2, f2 = x1, f1
                x1 = hi - _INV_PHI * (hi - lo)
                f1 = probe([x1], "refine")
        return finish(at_boundary=False)
