"""Captures drawn and blurred on the shared capture pool against serial whole-frame ones.

``metric.Camera`` draws the noise of each noisy capture of a sweep, search
or stability study as one task on a module-wide thread pool, queued ahead of
the blur, and blurs a call's new radii largest first on lanes that read the
zone spectra the camera plans: the calling thread makes the first zone
transform, and only then starts a pool lane per further radius up to one
lane per CPU, each lane, the calling thread's included, taking one radius
at a time from one shared queue. In a noiseless call a lane also measures each zone it blurs; in a
noisy one the calling thread applies each draw and measures the capture in
capture order. Results must not depend on the pool: every study equals the
serial oracle, each radius is blurred and measured once whichever lane
takes it, concurrent callers each get their own result, errors reach the
caller and a lane that raises stops the others, a camera refuses every
thread but the one that built it, no draw or blur lane outlives its call
and no draw exceeds the camera's bound, a forked child builds its own pool,
and importing the package starts no thread.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import focuslab
import focuslab.metric
import focuslab.optics
from focuslab import (
    Camera,
    LensState,
    MetricKind,
    NoiseField,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    autofocus,
    blur_radius,
    capture,
    compare_metrics,
    make_texture,
    resolution,
    stability_study,
    sweep,
)

from focuslab.optics import _fft_shape, pillbox_size

from _oracles import naive_probe, naive_transforms

# 0.4 blur px per 0.01 mm: kernels stay within a 96 px scene over +-1 mm.
CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.02, d_max=100.0)
SCENE = make_texture(96, 80, 31)
WINDOW = WindowSpec(50, 40, 21)
NOISE = NoiseSpec(2.0, 11)
ZS = [-0.6, -0.25, -0.1, 0.0, 0.1, 0.3, 0.55]


def _noisy_sweep(seed: int):
    return sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, ZS, NoiseSpec(2.0, seed), 3)


def _stability(noise: NoiseSpec = NOISE):
    return stability_study(SCENE, CFG, LensState(0.15), (48, 40), [5, 9, 17], noise, repeats=4)


def _assert_serial(curve):
    """``curve``, a ``_noisy_sweep(11)``, equals the serial whole-frame oracle."""
    assert len(curve.entries) == len(ZS)
    for i, (z, entry) in enumerate(zip(ZS, curve.entries)):
        values = naive_probe(SCENE, CFG, z, NOISE, (i,), 3, WINDOW, MetricKind.SQUARED)
        assert (entry.z_mm, entry.n_trials) == (z, 3)
        assert (entry.d_mean, entry.d_stddev) == (float(np.mean(values)), float(np.std(values)))


def test_noisy_sweep_equals_the_serial_oracle():
    _assert_serial(_noisy_sweep(11))


def test_autofocus_trace_equals_the_serial_oracle():
    params = SearchParams(z_min=-1.0, z_max=0.8, coarse_steps=7, refine_iterations=4,
                          trials_per_eval=3, metric=MetricKind.ABSOLUTE)
    result = autofocus(SCENE, CFG, WINDOW, NOISE, params)
    assert [p.phase for p in result.trace] == ["coarse"] * 7 + ["refine"] * 6
    for i, point in enumerate(result.trace):
        values = naive_probe(SCENE, CFG, point.z_mm, NOISE, (i,), 3, WINDOW, MetricKind.ABSOLUTE)
        assert point.d_mean == float(np.mean(values)), i


def test_stability_study_equals_the_serial_oracle():
    report = _stability()
    for row in report.rows:
        window = WindowSpec(48, 40, row.n)
        assert list(row.measurements) == naive_probe(
            SCENE, CFG, 0.15, NOISE, (), 4, window, MetricKind.SQUARED
        )


def test_concurrent_callers_each_get_their_serial_result():
    seeds = (3, 4, 5, 6)
    expected = {seed: _noisy_sweep(seed) for seed in seeds}
    got = {}
    start = threading.Barrier(len(seeds))

    def call(seed):
        start.wait()
        got[seed] = _noisy_sweep(seed)

    threads = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_a_camera_refuses_a_second_thread_by_name():
    kind = MetricKind.SQUARED
    paths = [(i,) for i in range(len(ZS))]
    refused = []

    def intrude(camera):
        try:
            camera.readings(ZS[1:2], kind)
        except RuntimeError as exc:
            refused.append(str(exc))

    with Camera(SCENE, CFG, [WINDOW], NOISE, paths, 2) as camera:
        first = camera.readings(ZS[:1], kind)
        intruder = threading.Thread(target=intrude, args=(camera,), name="intruder")
        intruder.start()
        intruder.join(timeout=60)
        rest = camera.readings(ZS[1:], kind)
    owner = threading.current_thread().name
    assert len(refused) == 1 and "'intruder'" in refused[0] and f"'{owner}'" in refused[0]
    for z, path, trials in zip(ZS, paths, [*first, *rest]):
        for t, values in enumerate(trials):
            spec = NOISE.derived(*path, t)
            assert values.tolist() == [
                resolution(capture(SCENE, CFG, LensState(z), spec), WINDOW, kind)]


def test_a_camera_serves_the_thread_that_builds_it():
    kind = MetricKind.SQUARED
    paths = [(i,) for i in range(len(ZS))]
    refused = []

    def intrude(camera):
        try:
            camera.readings(ZS[:1], kind)
        except RuntimeError as exc:
            refused.append(str(exc))

    with Camera(SCENE, CFG, [WINDOW], NOISE, paths, 2) as camera:
        intruder = threading.Thread(target=intrude, args=(camera,), name="intruder")
        intruder.start()  # the first call to read the camera, from another thread
        intruder.join(timeout=60)
        assert not intruder.is_alive()
        readings = camera.readings(ZS, kind)
    owner = threading.current_thread().name
    assert refused == [f"thread 'intruder' called a camera that serves thread '{owner}'"]
    for z, path, trials in zip(ZS, paths, readings):  # the plan starts at its first row
        for t, values in enumerate(trials):
            spec = NOISE.derived(*path, t)
            assert values == [resolution(capture(SCENE, CFG, LensState(z), spec), WINDOW, kind)]


def test_an_error_in_a_capture_task_reaches_the_caller(monkeypatch):
    expected = _noisy_sweep(11)

    def failing(image, window, kind):
        raise ValueError("metric failed")

    with monkeypatch.context() as patch:
        patch.setattr(focuslab.metric, "resolution", failing)
        with pytest.raises(ValueError, match="metric failed"):
            _noisy_sweep(11)
    assert _noisy_sweep(11) == expected


def test_a_draw_that_raises_reaches_the_caller(monkeypatch):
    expected = _noisy_sweep(11)

    def failing(*args):
        raise ValueError("draw failed")

    with monkeypatch.context() as patch:
        patch.setattr(focuslab.metric, "draw_noise", failing)
        with pytest.raises(ValueError, match="draw failed"):
            _noisy_sweep(11)
    assert _noisy_sweep(11) == expected


class _DrawLog:
    """Wraps the camera's ``draw_noise`` and ``add_noise`` bindings to follow each draw.

    ``held`` is the most draws that were started and not yet applied at once.
    ``draw_s`` slows each draw, so that draws are still queued when a call
    returns; ``apply_s`` slows each application, so that uncapped draws run ahead.
    """

    def __init__(self, monkeypatch, draw_s: float = 0.0, apply_s: float = 0.0):
        self.started = self.finished = self.applied = self.held = 0
        lock = threading.Lock()
        draw, add = focuslab.metric.draw_noise, focuslab.metric.add_noise

        def drawing(*args):
            with lock:
                self.started += 1
                self.held = max(self.held, self.started - self.applied)
            try:
                time.sleep(draw_s)
                return draw(*args)
            finally:
                with lock:
                    self.finished += 1

        def adding(image, noise):
            if isinstance(noise, NoiseField):
                time.sleep(apply_s)
                with lock:
                    self.applied += 1
            return add(image, noise)

        monkeypatch.setattr(focuslab.metric, "draw_noise", drawing)
        monkeypatch.setattr(focuslab.metric, "add_noise", adding)


def _drain_pool():
    """Return once every task queued on the capture pool so far has run or been skipped.

    One task per worker waits at a barrier, so all workers must be free at once.
    """
    workers = focuslab.metric._usable_cpus()
    gate = threading.Barrier(workers, timeout=30)
    pool = focuslab.metric._capture_pool()
    for future in [pool.submit(gate.wait) for _ in range(workers)]:
        future.result()


def test_an_autofocus_at_the_boundary_leaves_no_draw_queued_or_running(monkeypatch):
    params = SearchParams(z_min=0.0, z_max=0.8, coarse_steps=5, refine_iterations=4,
                          trials_per_eval=3)
    log = _DrawLog(monkeypatch, draw_s=0.005)
    result = autofocus(SCENE, CFG, WINDOW, NOISE, params)
    assert result.at_boundary and log.applied == 5 * 3
    started = log.started
    assert log.finished == started  # none running
    _drain_pool()
    assert log.started == started  # none queued: a cancelled draw never starts


def test_a_noisy_sweep_never_holds_more_draws_than_its_bound(monkeypatch):
    # A 45 x 45 zone at (9, 1) of a 64 x 48 frame: each draw makes 46 rows of
    # 64 samples, so the workers' prefixes hold about 1.45 fields per worker.
    scene, window = make_texture(64, 48, 3), WindowSpec(31, 23, 45)
    workers = focuslab.metric._usable_cpus()
    bound = max(workers, workers * 46 * 64 // (45 * 45))
    zs, trials = ZS[:3], 7
    assert bound < len(zs) * trials
    expected = sweep(scene, CFG, window, MetricKind.SQUARED, zs, NOISE, trials)
    log = _DrawLog(monkeypatch, apply_s=0.002)
    assert sweep(scene, CFG, window, MetricKind.SQUARED, zs, NOISE, trials) == expected
    assert log.applied == len(zs) * trials
    assert 1 <= log.held <= bound


def test_an_autofocus_512_op_queues_all_its_draws_before_its_first_blur(texture_512,
                                                                        bench_config):
    # An op shaped like the autofocus-512 workload's, as in
    # test_spectrum_plan.py: 25 probes of 5 trials through a 31 px window at
    # the centre. Each draw makes the 272 rows of 512 samples through the
    # window's last row, so two workers may hold 2 * 139,264 // 961 = 289
    # draws, more than the op's 125 captures: its first call queues them all.
    params = SearchParams(z_min=-4.9, z_max=5.1, coarse_steps=11, refine_iterations=12,
                          trials_per_eval=5)
    queued, caps, at_blurs = [], set(), []
    with _lanes(2) as patch:
        submit, blur = Camera._submit, focuslab.metric.convolve

        def submitting(camera):
            submit(camera)
            queued.append(len(camera._draws))
            caps.add(camera._max_draws)

        def blurring(scene, psf):
            at_blurs.append(list(queued))
            return blur(scene, psf)

        patch.setattr(Camera, "_submit", submitting)
        patch.setattr(focuslab.metric, "convolve", blurring)
        result = autofocus(texture_512, bench_config, WindowSpec(256, 256, 31),
                           NoiseSpec(2.0, 11), params)
    assert len(result.trace) == 25 and caps == {289}
    assert at_blurs[0] == [125]


@contextmanager
def _lanes(count: int):
    """Patch the usable CPU count, and with it the most blur lanes, once the pool is built."""
    focuslab.metric._capture_pool()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(focuslab.metric, "_usable_cpus", lambda: count)
        yield patch


class _BlurLog:
    """Wraps the camera's ``convolve`` binding to follow each blur and the thread it runs on.

    ``blur_s`` slows each blur. A blur on a thread of kind ``fail_on``,
    "caller" or "pool", other than the first blur logged, sleeps ``blur_s``
    and then raises.
    """

    def __init__(self, patch, blur_s: float = 0.0, fail_on: str | None = None):
        self.started = self.finished = 0
        self.threads: list[str] = []
        lock = threading.Lock()
        blur, caller = focuslab.metric.convolve, threading.current_thread()

        def blurring(scene, psf):
            kind = "caller" if threading.current_thread() is caller else "pool"
            with lock:
                self.started += 1
                self.threads.append(kind)
                first = self.started == 1
            try:
                time.sleep(blur_s)
                if kind == fail_on and not first:
                    raise ValueError(f"blur failed on a {kind} lane")
                return blur(scene, psf)
            finally:
                with lock:
                    self.finished += 1

        patch.setattr(focuslab.metric, "convolve", blurring)


def _transforms(radii) -> int:
    """The zone transforms a call that blurs ``radii`` of a fresh ``WINDOW`` zone takes."""
    return len(naive_transforms(WINDOW.n, WINDOW.n, sorted(radii, reverse=True), None))


def _transform_spy(patch) -> list[tuple[int, int]]:
    """Wrap the zone-transform builder; list each shape it transforms at."""
    shapes, build = [], focuslab.optics._zone_spectrum

    def building(scene, shape):
        shapes.append(shape)
        return build(scene, shape)

    patch.setattr(focuslab.optics, "_zone_spectrum", building)
    return shapes


def _kernels(radii) -> set[float]:
    """The radii whose kernel is not the identity."""
    return {r for r in radii if pillbox_size(r) > 1}


def test_the_sweep_radii_fill_two_lanes():
    # The lane tests below rely on ZS having more new radii to blur than two lanes.
    assert len(_kernels(blur_radius(CFG, LensState(z)).px for z in ZS)) > 2


def test_a_blur_that_raises_on_a_pool_lane_reaches_the_caller():
    expected = _noisy_sweep(11)
    with _lanes(2) as patch:
        # The pool lane starts once the calling thread's first blur ends, and
        # its first blur raises.
        log = _BlurLog(patch, blur_s=0.05, fail_on="pool")
        with pytest.raises(ValueError, match="^blur failed on a pool lane$"):
            _noisy_sweep(11)
    assert "pool" in log.threads
    after = _noisy_sweep(11)
    assert after == expected
    _assert_serial(after)


@pytest.mark.parametrize("fail_on", (None, "caller"))
@pytest.mark.parametrize("pool_busy", (False, True))
def test_no_blur_lane_runs_or_waits_after_readings(fail_on, pool_busy):
    # The calling thread's zone transform ends before the lane task is
    # queued. With the pool busy, the lane task is still queued when the
    # calling thread has emptied the queue, or raised on its second blur: it
    # is cancelled, having nothing to take. With the pool free, the lane runs
    # on a worker while the caller blurs, and either may blur first.
    # Noiseless, so that no draw waits behind the busy pool.
    workers = focuslab.metric._usable_cpus()
    noiseless = lambda: sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, ZS, NoiseSpec(0.0), 1)
    expected = noiseless()
    release = threading.Event()
    with _lanes(2) as patch:
        log = _BlurLog(patch, blur_s=0.02, fail_on=fail_on)
        pool = focuslab.metric._capture_pool()
        blockers = [pool.submit(release.wait, 30) for _ in range(workers if pool_busy else 0)]
        try:
            if fail_on:
                with pytest.raises(ValueError, match="blur failed on a caller lane"):
                    noiseless()
            else:
                assert noiseless() == expected
            started = log.started
            assert log.finished == started  # none running
        finally:
            release.set()
    for blocker in blockers:
        blocker.result()
    _drain_pool()
    assert log.started == started  # none queued: a cancelled lane never starts
    assert "caller" in log.threads
    assert ("pool" in log.threads) == (not pool_busy)
    if not fail_on:
        assert started == len({blur_radius(CFG, LensState(z)).px for z in ZS})


# 33 noiseless +-z values: the identity and 16 kernels.
_POSITIVE = [0.6 * k / 16 for k in range(1, 17)]
SWEEP_ZS = [-z for z in reversed(_POSITIVE)] + [0.0] + _POSITIVE
SWEEP_RADII = {blur_radius(CFG, LensState(z)).px for z in SWEEP_ZS}


def _noiseless_sweep(zs=SWEEP_ZS):
    return sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, zs, NoiseSpec(0.0), 1)


def _calls(patch, name: str) -> list[tuple[str, tuple]]:
    """Wrap the camera's binding ``name``; list each call's thread, "caller" or "pool", and args."""
    calls, fn, caller = [], getattr(focuslab.metric, name), threading.current_thread()

    def calling(*args):
        calls.append(("caller" if threading.current_thread() is caller else "pool", args))
        return fn(*args)

    patch.setattr(focuslab.metric, name, calling)
    return calls


def test_the_33_value_sweep_has_more_new_radii_than_lanes():
    # The lane tests below rely on more radii to blur than the four lanes.
    assert len(SWEEP_RADII) == 17
    assert len(_kernels(SWEEP_RADII)) > 4


@pytest.mark.parametrize("sigma", (0.0, 2.0))
@pytest.mark.parametrize("cpus", (2, 4))
def test_the_zone_transform_ends_on_the_calling_thread_before_any_lane_blurs(cpus, sigma):
    events, lock = [], threading.Lock()
    with _lanes(cpus) as patch:
        caller = threading.current_thread()

        def logged(name, fn):
            def logging(*args):
                thread = "caller" if threading.current_thread() is caller else "pool"
                with lock:
                    events.append((name, "start", thread))
                time.sleep(0.005)
                try:
                    return fn(*args)
                finally:
                    with lock:
                        events.append((name, "end", thread))
            return logging

        for module, name in ((focuslab.optics, "_zone_spectrum"), (focuslab.metric, "convolve")):
            patch.setattr(module, name, logged(name, getattr(module, name)))
        sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, SWEEP_ZS, NoiseSpec(sigma, 5), 1)
    transform = [("_zone_spectrum", "start", "caller"), ("_zone_spectrum", "end", "caller")]
    assert events[:2] == transform
    starts = [(name, thread) for name, at, thread in events if at == "start"]
    blurs = [thread for name, thread in starts if name == "convolve"]
    assert len(blurs) == len(SWEEP_RADII) and {"caller", "pool"} <= set(blurs)
    assert len(starts) - len(blurs) == _transforms(SWEEP_RADII) == 2


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_a_noiseless_sweep_blurs_and_measures_each_radius_once_on_its_lanes(cpus):
    expected = _noiseless_sweep()
    with _lanes(cpus) as patch:
        blurs, readings = _calls(patch, "convolve"), _calls(patch, "resolution")
        assert _noiseless_sweep() == expected
    assert sorted(psf.radius_px for _, (_, psf) in blurs) == sorted(SWEEP_RADII)
    assert len(readings) == len(SWEEP_RADII)
    if cpus == 1:
        assert {thread for thread, _ in blurs + readings} == {"caller"}


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_compare_metrics_measures_its_second_kind_on_the_calling_thread(cpus):
    with _lanes(cpus) as patch:
        readings = _calls(patch, "resolution")
        compare_metrics(SCENE, CFG, WINDOW, SWEEP_ZS, repeats_for_timing=10, sizes=(5,))
    first = [thread for thread, (_, _, kind) in readings if kind is MetricKind.SQUARED]
    second = [thread for thread, (_, _, kind) in readings if kind is MetricKind.ABSOLUTE]
    assert len(first) == len(SWEEP_RADII)
    assert second == ["caller"] * len(SWEEP_RADII)


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_a_noisy_call_measures_on_the_calling_thread_only(cpus):
    expected = _noisy_sweep(11)
    with _lanes(cpus) as patch:
        readings = _calls(patch, "resolution")
        assert _noisy_sweep(11) == expected
    assert [thread for thread, _ in readings] == ["caller"] * len(ZS) * 3


def test_a_lane_that_raises_clears_the_queue():
    # After the zone transform the calling thread starts the pool lane and
    # blurs; its first blur waits for the pool lane's first blur, which
    # raises. So each lane holds one radius when the queue is cleared: the
    # calling thread finishes its radius and takes no other.
    failed, lock = threading.Event(), threading.Lock()
    radii: dict[str, list[float]] = {"caller": [], "pool": []}
    finished = []
    with _lanes(2) as patch:
        blur, caller = focuslab.metric.convolve, threading.current_thread()

        def blurring(scene, psf):
            thread = "caller" if threading.current_thread() is caller else "pool"
            with lock:
                radii[thread].append(psf.radius_px)
            try:
                if thread == "pool":
                    failed.set()
                    raise ValueError("blur failed on a pool lane")
                assert failed.wait(30)
                return blur(scene, psf)
            finally:
                with lock:
                    finished.append(psf.radius_px)

        patch.setattr(focuslab.metric, "convolve", blurring)
        with pytest.raises(ValueError, match="^blur failed on a pool lane$"):
            _noiseless_sweep()
        started = len(radii["caller"]) + len(radii["pool"])
        assert len(finished) == started  # none running
    _drain_pool()
    assert len(radii["caller"]) + len(radii["pool"]) == started  # none queued
    largest = sorted(SWEEP_RADII, reverse=True)
    assert len(radii["caller"]) == 1 and len(radii["pool"]) == 1
    assert sorted(radii["caller"] + radii["pool"], reverse=True) == largest[:2]


def test_concurrent_callers_blurring_on_lanes_each_get_their_serial_result():
    # More lanes than cores across four callers, switching threads often.
    scales = (0.7, 0.8, 0.9, 1.0)
    zs_of = {scale: [scale * z for z in ZS] for scale in scales}
    noiseless = lambda zs: sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, zs, NoiseSpec(0.0), 1)
    expected = {scale: noiseless(zs) for scale, zs in zs_of.items()}
    got = {}
    start = threading.Barrier(len(scales))

    def call(scale):
        start.wait()
        for _ in range(5):
            got.setdefault(scale, []).append(noiseless(zs_of[scale]))

    threads = [threading.Thread(target=call, args=(scale,)) for scale in scales]
    interval = sys.getswitchinterval()
    with _lanes(4):
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {scale: [curve] * 5 for scale, curve in expected.items()}


# Blur radii in three bands whose kernels need three FFT shapes for almost every zone.
_BANDS = (st.floats(0.5, 3.0), st.floats(7.0, 12.0), st.floats(18.0, 30.0))
_PX_PER_MM = blur_radius(CFG, LensState(1.0)).px


@st.composite
def _z_calls(draw):
    """One or two ``readings`` calls' z lists, spanning the three bands, with repeats."""
    radii = [draw(band) for band in _BANDS] + draw(st.lists(st.floats(0.0, 30.0), max_size=3))
    zs = [draw(st.sampled_from((-1, 1))) * r / _PX_PER_MM for r in draw(st.permutations(radii))]
    zs += [draw(st.sampled_from((-1, 1))) * z for z in draw(st.lists(st.sampled_from(zs),
                                                                      max_size=3))]
    split = draw(st.integers(1, len(zs)))
    return [call for call in (zs[:split], zs[split:]) if call]


@st.composite
def _windows(draw):
    n = draw(st.integers(2, 40))
    half = (n - 1) // 2
    cx = draw(st.integers(half, SCENE.width - n + half))
    cy = draw(st.integers(half, SCENE.height - n + half))
    return WindowSpec(cx, cy, n)


def _zone_shape(windows) -> tuple[int, int]:
    boxes = [(*w.origin(), w.n) for w in windows]
    x0, y0 = min(x for x, _, _ in boxes), min(y for _, y, _ in boxes)
    x1, y1 = max(x + n for x, _, n in boxes), max(y + n for _, y, n in boxes)
    return y1 - y0, x1 - x0


@pytest.mark.parametrize("cpus", (1, 2))
@settings(max_examples=60, deadline=None)
@given(
    calls=_z_calls(),
    ws=st.lists(_windows(), min_size=1, max_size=2),
    sigma=st.sampled_from([0.0, 1.5]),
    kind=st.sampled_from(MetricKind),
    seed=st.integers(0, 2**63),
)
def test_lanes_equal_the_whole_frame_capture_and_blur_each_radius_once(
    cpus, calls, ws, sigma, kind, seed
):
    zs = [z for call in calls for z in call]
    radii = [blur_radius(CFG, LensState(z)).px for z in zs]
    height, width = _zone_shape(ws)
    assume(len({_fft_shape(height, width, pillbox_size(r)) for r in radii
                if pillbox_size(r) > 1}) >= 3)
    noise, paths = NoiseSpec(sigma, seed), [(i,) for i in range(len(zs))]
    built, blurred = [], []
    with _lanes(cpus) as patch:
        transforms = _transform_spy(patch)
        build, blur = focuslab.metric.make_pillbox_psf, focuslab.metric.convolve
        patch.setattr(focuslab.metric, "make_pillbox_psf",
                      lambda radius: built.append(radius) or build(radius))
        patch.setattr(focuslab.metric, "convolve",
                      lambda scene, psf: blurred.append(psf.radius_px) or blur(scene, psf))
        with Camera(SCENE, CFG, ws, noise, paths, 2) as camera:
            readings = [trials for call in calls for trials in camera.readings(call, kind)]
    assert sorted(built) == sorted(blurred) == sorted(set(radii))
    # Each call transforms at the new shapes of its new radii's plan, from
    # the last shape the calls before it transformed at.
    planned, seen = [], set()
    for call in calls:
        new = {blur_radius(CFG, LensState(z)).px for z in call} - seen
        seen |= new
        last = planned[-1] if planned else None
        planned += naive_transforms(height, width, sorted(new, reverse=True), last)
    assert sorted(transforms) == sorted(planned)  # lanes may start two transforms in either order
    for z, path, trials in zip(zs, paths, readings):
        for t, values in enumerate(trials):
            whole = capture(SCENE, CFG, LensState(z), noise.derived(*path, t))
            assert values.tolist() == [resolution(whole, w, kind) for w in ws]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
# Forking a process that runs threads is the case under test.
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_a_forked_child_builds_its_own_pool():
    parent = _stability()  # the parent's pool now has threads, which a child lacks
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(_stability).get(timeout=30)
    assert child == parent


def test_importing_the_package_starts_no_thread():
    code = (
        "import sys, threading, focuslab; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(focuslab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
