"""``metric.Camera`` as a state machine against the whole-frame oracle.

Each machine builds one camera on a small texture, with 1-3 windows, a plan
of 0-4 rows, 1-3 trials, noiseless or noisy, and 1, 2 or 4 usable CPUs, and
then reads it with random z lists by either kind. Every value must equal
``_oracles.naive_probe`` for its row's planned path. A call for more rows
than are left, or with a z whose kernel exceeds the frame, raises ValueError
before any kernel is built; a too-far z also ends the plan. No blur lane
outlives its call, and leaving the camera leaves no draw running or queued.
"""

import functools
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import focuslab.metric
from focuslab import Camera, LensState, MetricKind, NoiseSpec, OpticalConfig, WindowSpec
from focuslab import blur_radius, make_texture
from focuslab.optics import pillbox_size

from _oracles import naive_probe

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)
PX_PER_MM = blur_radius(CFG, LensState(1.0)).px
SCENE = make_texture(48, 40, 13)
NOISE_SEED = 5


def _zs(radii):
    return sorted({sign * radius / PX_PER_MM for radius in radii for sign in (1, -1)})


# Each radius is reached at +z and -z. The fitting kernels are 1-33 px wide, so
# any zone blurs at several FFT shapes; the far ones are 41 and 53 px wide, and
# exceed the 40 px height.
FIT_ZS = _zs((0.0, 0.3, 1.2, 4.4, 15.8))
FAR_ZS = _zs((19.4, 26.0))
assert all(pillbox_size(blur_radius(CFG, LensState(z)).px) <= 40 for z in FIT_ZS)
assert all(pillbox_size(blur_radius(CFG, LensState(z)).px) > 40 for z in FAR_ZS)
KINDS = st.sampled_from(MetricKind)


@st.composite
def _windows(draw):
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 9))
        x0, y0 = draw(st.integers(0, SCENE.width - n)), draw(st.integers(0, SCENE.height - n))
        windows.append(WindowSpec(x0 + (n - 1) // 2, y0 + (n - 1) // 2, n))
    return windows


@functools.lru_cache(maxsize=None)
def _expected(z, sigma, path, trials, window, kind):
    return naive_probe(SCENE, CFG, z, NoiseSpec(sigma, NOISE_SEED), path, trials, window, kind)


class CameraMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.camera = None
        self.kernels, self.draws, self.lanes = [], [], []

    @initialize(windows=_windows(), rows=st.integers(0, 4), trials=st.integers(1, 3),
                sigma=st.sampled_from((0.0, 2.0)), cpus=st.sampled_from((1, 2, 4)))
    def build(self, windows, rows, trials, sigma, cpus):
        pool = focuslab.metric._capture_pool()
        self.patch.setattr(focuslab.metric, "_usable_cpus", lambda: cpus)
        machine = self

        class Recording:
            def submit(self, task, *args):
                future = pool.submit(task, *args)
                tasks = machine.draws if task is focuslab.metric.draw_noise else machine.lanes
                tasks.append(future)
                return future

        build_kernel, draw = focuslab.metric.make_pillbox_psf, focuslab.metric.draw_noise

        def building(radius):
            self.kernels.append(radius)
            return build_kernel(radius)

        def drawing(spec, zone):
            time.sleep(0.001)  # so that draws queued ahead are still queued when the camera is left
            return draw(spec, zone)

        self.patch.setattr(focuslab.metric, "_capture_pool", Recording)
        self.patch.setattr(focuslab.metric, "make_pillbox_psf", building)
        self.patch.setattr(focuslab.metric, "draw_noise", drawing)
        self.windows, self.sigma, self.trials = windows, sigma, trials
        self.rows, self.rows_left, self.reads = rows, rows, 0
        self.camera = Camera(SCENE, CFG, windows, NoiseSpec(sigma, NOISE_SEED),
                             [(i,) for i in range(rows)], trials)

    @rule(zs=st.lists(st.sampled_from(FIT_ZS), min_size=1, max_size=3), kind=KINDS)
    def read(self, zs, kind):
        self.reads += 1
        if self._refused_past_the_plan(zs, kind):
            return
        first = self.rows - self.rows_left
        values = self.camera.readings(zs, kind)
        self.rows_left -= len(zs)
        assert values.shape == (len(zs), self.trials, len(self.windows))
        for i, z in enumerate(zs):
            # With sigma = 0 every trial is the noiseless capture, whatever its path.
            path = (first + i,) if self.sigma else ()
            for k, window in enumerate(self.windows):
                expected = _expected(z, self.sigma, path, self.trials, window, kind)
                assert values[i, :, k].tolist() == expected, (z, first + i, window, kind)

    @precondition(lambda self: self.reads)  # so that most machines read a row first
    @rule(zs=st.lists(st.sampled_from(FIT_ZS), max_size=2), far=st.sampled_from(FAR_ZS),
          at=st.integers(0, 2), kind=KINDS)
    def read_beyond_the_frame(self, zs, far, at, kind):
        zs.insert(min(at, len(zs)), far)
        if self._refused_past_the_plan(zs, kind):
            return
        self._refused(zs, kind, f"^z={far} mm reaches .* exceeds the 48x40 scene$")
        self.rows_left = 0

    def _refused_past_the_plan(self, zs, kind):
        """Whether zs need more rows than are left, in which case the call must be refused."""
        if len(zs) <= self.rows_left:
            return False
        self._refused(zs, kind, f"^{len(zs)} z values need more rows than the "
                                f"{self.rows_left} left in the noise plan$")
        return True

    def _refused(self, zs, kind, message):
        built = len(self.kernels)
        with pytest.raises(ValueError, match=message):
            self.camera.readings(zs, kind)
        assert len(self.kernels) == built

    @invariant()
    def no_lane_outlives_its_call(self):
        assert all(lane.done() for lane in self.lanes)

    def teardown(self):
        try:
            if self.camera is not None:
                self.camera.__exit__(None, None, None)
                assert [draw for draw in self.draws if not draw.done()] == []
                with pytest.raises(ValueError, match="the 0 left in the noise plan"):
                    self.camera.readings([0.0], MetricKind.SQUARED)
        finally:
            self.patch.undo()


CameraMachine.TestCase.settings = settings(max_examples=150, stateful_step_count=6, deadline=None)
TestCameraMachine = CameraMachine.TestCase
