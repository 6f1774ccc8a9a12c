"""The benchmark's workloads: seeded inputs, one public call per op, a check per result.

Each workload builds its scenes once, when it is constructed; that is the
set-up the benchmark times in fresh interpreters. Every op's inputs derive
from (seed, op index) alone. Every check holds for any noise draw of a
correct program, so a change that draws noise over other pixels cannot
change how many ops fail.
"""

from __future__ import annotations

import math

import numpy as np

from focuslab import (
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    autofocus,
    blur_radius,
    make_texture,
    stability_study,
    sweep,
)
from focuslab.metric import resolution
from focuslab.optics import convolve, make_pillbox_psf

# The bench camera of the acceptance tests: 47.5 blur px per mm of lens travel.
CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)
PX_PER_MM = blur_radius(CFG, LensState(1.0)).px

# Scenes per workload, reused round-robin. Few enough to keep set-up short;
# ops still differ through their seeded offsets, radii and noise seeds.
SCENES = 4

_SCENE_STREAM = 0
_OP_STREAM = 1


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _scenes(seed: int, size: int) -> list:
    return [
        make_texture(size, size, _draw_seed(_rng(seed, _SCENE_STREAM, k)))
        for k in range(SCENES)
    ]


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class AutofocusWorkload:
    """Criterion-7 autofocus on 512² textures, centred on a seeded offset z0.

    A 31² centre window, a 10 mm interval, 11 coarse steps, 12 refine
    iterations, 5 trials per probe and sigma 2. |z0| <= 0.3 mm keeps the
    largest kernel (R about 252 px) inside the frame; the offset also stops
    ±z probe pairs from sharing a radius, as a real off-focus start would.
    """

    name = "autofocus-512"
    op_name = "search.autofocus"
    trials = 5
    max_focus_error_mm = 0.5

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = 128 if tiny else 512
        scale = self.size / 512
        self.half_interval_mm = 5.0 * scale
        self.max_offset_mm = 0.3 * scale
        centre = self.size // 2
        self.window = WindowSpec(centre, centre, 31)
        self.scenes = _scenes(seed, self.size)

    def inputs(self, index: int) -> tuple:
        rng = _rng(self.seed, _OP_STREAM, index)
        z0 = float(rng.uniform(-self.max_offset_mm, self.max_offset_mm))
        params = SearchParams(
            z_min=z0 - self.half_interval_mm,
            z_max=z0 + self.half_interval_mm,
            coarse_steps=11,
            refine_iterations=12,
            trials_per_eval=self.trials,
        )
        noise = NoiseSpec(2.0, _draw_seed(rng))
        return (self.scenes[index % SCENES], CFG, self.window, noise, params)

    def run(self, op: tuple):
        return autofocus(*op)

    def check(self, index: int, op: tuple, result) -> str | None:
        """Failure reason, or None when the result is acceptable."""
        if result.at_boundary:
            return "search stopped at the interval boundary"
        if not result.trace:
            return "empty trace"
        probed = [v for p in result.trace for v in (p.z_mm, p.d_mean)]
        if not _all_finite([result.z_star, result.d_star, *probed]):
            return "non-finite value"
        best = min(result.trace, key=lambda p: (-p.d_mean, abs(p.z_mm), p.z_mm))
        if (result.z_star, result.d_star) != (best.z_mm, best.d_mean):
            return f"z*={result.z_star} is not the argmax of its trace ({best.z_mm})"
        if result.evaluations != self.trials * len(result.trace):
            return f"{result.evaluations} evaluations for {len(result.trace)} probes"
        if abs(result.z_star) > self.max_focus_error_mm:
            return f"|z*|={abs(result.z_star)} mm exceeds {self.max_focus_error_mm} mm"
        return None

    def counts(self, result) -> tuple[int, int]:
        """(probes, captures) of one op."""
        return len(result.trace), result.evaluations

    def focus_error_mm(self, result) -> float | None:
        return abs(result.z_star)


class SweepWorkload:
    """Noiseless squared-metric sweep on 256² textures with a 255² window.

    33 z values symmetric about 0 up to a seeded R_max in [28, 32] px. The
    negative half is the exact negation of the positive half, so each ±z
    pair blurs with a bit-identical radius and the curve must be symmetric.
    """

    name = "sweep-256"
    op_name = "metric.sweep"
    half_count = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = 64 if tiny else 256
        self.radius_range_px = (28.0 * self.size / 256, 32.0 * self.size / 256)
        centre = self.size // 2
        self.window = WindowSpec(centre, centre, self.size - 1)
        self.scenes = _scenes(seed, self.size)

    def _draw(self, index: int) -> tuple[list[float], int]:
        rng = _rng(self.seed, _OP_STREAM, index)
        z_max = float(rng.uniform(*self.radius_range_px)) / PX_PER_MM
        positive = [z_max * k / self.half_count for k in range(1, self.half_count + 1)]
        zs = [-z for z in reversed(positive)] + [0.0] + positive
        return zs, int(rng.integers(len(zs)))

    def inputs(self, index: int) -> tuple:
        zs, _ = self._draw(index)
        scene = self.scenes[index % SCENES]
        return (scene, CFG, self.window, MetricKind.SQUARED, zs, NoiseSpec(0.0), 1)

    def run(self, op: tuple):
        return sweep(*op)

    def check(self, index: int, op: tuple, curve) -> str | None:
        """Failure reason, or None. One seeded entry is recomputed from scratch."""
        scene, cfg, window, kind, zs = op[:5]
        entries = curve.entries
        if [e.z_mm for e in entries] != zs:
            return "curve z values differ from the requested ones"
        mid = self.half_count
        for k in range(1, mid + 1):
            lo, hi = entries[mid - k], entries[mid + k]
            if (lo.d_mean, lo.d_stddev) != (hi.d_mean, hi.d_stddev):
                return f"entries at z=±{hi.z_mm} differ"
        entry = entries[self._draw(index)[1]]
        psf = make_pillbox_psf(blur_radius(cfg, LensState(entry.z_mm)).px)
        expected = resolution(convolve(scene, psf), window, kind)
        if entry.d_mean != expected:
            return f"d({entry.z_mm})={entry.d_mean}, recomputed {expected}"
        return None

    def counts(self, curve) -> tuple[int, int]:
        return len(curve.entries), sum(e.n_trials for e in curve.entries)

    def focus_error_mm(self, curve) -> float | None:
        return None


class StabilityWorkload:
    """Criterion-5 stability study: 256² texture, z=0, sigma 2, 10 repeats.

    Window sizes 5/9/17/31 share one set of captures. The identity PSF skips
    the optics, so whole-frame noise draws dominate and the 40 small-window
    metric calls per op expose per-call overhead.
    """

    name = "stability-256"
    op_name = "bench.stability_study"
    sizes = (5, 9, 17, 31)
    repeats = 10

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.size = 64 if tiny else 256
        self.scenes = _scenes(seed, self.size)

    def inputs(self, index: int) -> tuple:
        noise = NoiseSpec(2.0, _draw_seed(_rng(self.seed, _OP_STREAM, index)))
        centre = (self.size // 2, self.size // 2)
        scene = self.scenes[index % SCENES]
        return (scene, CFG, LensState(0.0), centre, self.sizes, noise, self.repeats)

    def run(self, op: tuple):
        return stability_study(*op)

    def check(self, index: int, op: tuple, report) -> str | None:
        if [row.n for row in report.rows] != list(self.sizes):
            return f"rows for sizes {[row.n for row in report.rows]}"
        for row in report.rows:
            if len(row.measurements) != self.repeats or len(row.deviations_pct) != self.repeats:
                return f"row n={row.n} holds {len(row.measurements)} measurements"
            values = (row.mean, row.max_abs_deviation_pct, *row.measurements, *row.deviations_pct)
            if not _all_finite(values):
                return f"row n={row.n} holds a non-finite value"
        return None

    def counts(self, report) -> tuple[int, int]:
        return 1, self.repeats

    def focus_error_mm(self, report) -> float | None:
        return None


WORKLOADS = {w.name: w for w in (AutofocusWorkload, SweepWorkload, StabilityWorkload)}
