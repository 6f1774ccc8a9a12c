"""Measurement-stability study and squared-vs-absolute metric benchmark.

The stability study repeats noisy captures and reports how far individual
metric readings scatter around their mean for each window size: larger
windows average the noise away, so the per-measurement deviation shrinks as
the window grows. The benchmark times both metric kinds and records where
each one peaks in its own noiseless sweep over the same displacements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, require_int
from .metric import Camera, MetricKind, best_probe, resolution, z_list
from .optics import LensState, OpticalConfig

__all__ = [
    "StabilityRow",
    "StabilityReport",
    "MetricTimingRow",
    "MetricBenchReport",
    "stability_study",
    "compare_metrics",
]

STABILITY_CSV_HEADER = "n,measurement_index,d,mean,deviation_pct"
BENCH_CSV_HEADER = "kind,n,mean_ns_per_eval,argmax_z_mm"


@dataclass(frozen=True)
class StabilityRow:
    """Repeated metric readings for one window size.

    ``deviations_pct`` holds the signed percent deviation of each reading
    from the row mean, 100 * (d - mean) / mean.
    """

    n: int
    measurements: tuple[int, ...]
    mean: float
    deviations_pct: tuple[float, ...]
    max_abs_deviation_pct: float

    @classmethod
    def from_measurements(cls, n: int, measurements: Sequence[int]) -> StabilityRow:
        n = require_int(n, "window n", 2)
        values = tuple(require_int(d, "measurement", 0) for d in measurements)
        if not values:
            raise ValueError("a stability row needs at least one measurement")
        mean = float(np.mean(values))
        deviations = tuple(100.0 * (d - mean) / mean if mean else 0.0 for d in values)
        return cls(n, values, mean, deviations, max(abs(p) for p in deviations))


@dataclass(frozen=True)
class StabilityReport:
    """One StabilityRow per requested window size, in request order."""

    rows: tuple[StabilityRow, ...]

    def write_csv(self, dest) -> None:
        """CSV export: ``n,measurement_index,d,mean,deviation_pct`` per reading."""
        out = []
        for row in self.rows:
            for i, (d, pct) in enumerate(zip(row.measurements, row.deviations_pct)):
                out.append((str(row.n), str(i), str(d), fmt_num(row.mean), fmt_num(pct)))
        write_rows(dest, STABILITY_CSV_HEADER, out)


def stability_study(
    scene: Image,
    cfg: OpticalConfig,
    lens: LensState,
    center: tuple[int, int],
    sizes: Sequence[int],
    noise: NoiseSpec,
    repeats: int,
) -> StabilityReport:
    """Repeat noisy captures and measure metric scatter per window size.

    The scene is captured ``repeats`` times with distinct derived noise seeds
    and every window size is evaluated on the same set of captures (as a real
    rig would: acquire frames once, then read windows of different sizes out
    of them). The squared-difference metric is used throughout. With
    sigma = 0 the captures are identical and every deviation is exactly zero.
    """
    repeats = require_int(repeats, "repeats", 3)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    windows = [WindowSpec(*center, n) for n in sizes]
    plan = [[noise.derived(r) for r in range(repeats)]]
    with Camera(scene, cfg, windows, plan) as camera:
        (readings,) = camera.readings([lens.z_mm], MetricKind.SQUARED)
    per_window = zip(*readings)  # [repeat][window] -> [window][repeat]
    return StabilityReport(
        tuple(StabilityRow.from_measurements(w.n, v) for w, v in zip(windows, per_window))
    )


@dataclass(frozen=True)
class MetricTimingRow:
    """Mean wall time per metric evaluation for one (kind, window size)."""

    kind: MetricKind
    n: int
    mean_ns_per_eval: float


@dataclass(frozen=True)
class MetricBenchReport:
    """Timing rows plus each kind's peak displacement in its own sweep."""

    timings: tuple[MetricTimingRow, ...]
    argmax_z_mm: dict[MetricKind, float]

    def write_csv(self, dest) -> None:
        """CSV export: ``kind,n,mean_ns_per_eval,argmax_z_mm`` per timing row."""
        rows = [
            (
                row.kind.value,
                str(row.n),
                fmt_num(row.mean_ns_per_eval),
                fmt_num(self.argmax_z_mm[row.kind]),
            )
            for row in self.timings
        ]
        write_rows(dest, BENCH_CSV_HEADER, rows)


def compare_metrics(
    scene: Image,
    cfg: OpticalConfig,
    window: WindowSpec,
    z_values: Sequence[float],
    repeats_for_timing: int,
    sizes: Sequence[int] = (5, 9, 17, 31),
) -> MetricBenchReport:
    """Time both metric kinds and locate each one's sweep argmax.

    Timing runs sequentially (one kind and window size at a time) to avoid
    contention skew; wall times are reported, never asserted, since they are
    host-dependent. Each kind's argmax comes from a noiseless sweep through
    ``window`` over ``z_values``; both read one camera, which blurs a radius once.
    """
    repeats_for_timing = require_int(repeats_for_timing, "repeats_for_timing", 10)
    if not sizes:
        raise ValueError("sizes must be nonempty")
    timing_windows = [WindowSpec(window.center_x, window.center_y, n) for n in sizes]
    zs = z_list(z_values)

    kinds = (MetricKind.SQUARED, MetricKind.ABSOLUTE)
    timings = []
    for kind in kinds:
        for w in timing_windows:
            resolution(scene, w, kind)  # warm caches before timing; rejects a bad window
            start = time.perf_counter_ns()
            for _ in range(repeats_for_timing):
                resolution(scene, w, kind)
            elapsed = time.perf_counter_ns() - start
            timings.append(
                MetricTimingRow(kind=kind, n=w.n, mean_ns_per_eval=elapsed / repeats_for_timing)
            )

    with Camera(scene, cfg, [window], [[NoiseSpec(0.0)]] * (len(kinds) * len(zs))) as camera:
        argmax = {kind: best_probe(camera.probes(zs, kind)).z_mm for kind in kinds}
    return MetricBenchReport(tuple(timings), argmax)
