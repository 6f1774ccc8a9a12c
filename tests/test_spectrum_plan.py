"""The zone spectra a camera plans: the shape each blur runs at, and the transforms it takes.

``optics._plan`` gives each radius of a call, largest first, the FFT shape
its blur runs at, from the camera's last spectrum; each new shape is one
zone transform. It must replay the reuse rule one blur at a time
(``_oracles.naive_plan``) for any radii and any shape before them, and a
camera must make the transforms it plans whatever its lane count. (A
sweep-256-shaped call's one transform at 1, 2 and 4 lanes is
``test_blur_passes.py::test_a_sweep_call_builds_its_cosines_once_per_zone_transform``.)
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from focuslab import (
    LensState,
    NoiseSpec,
    SearchParams,
    WindowSpec,
    autofocus,
    blur_radius,
)
from focuslab.optics import _plan

from _oracles import naive_plan, naive_transforms
from test_parallel_capture import _lanes, _transform_spy

_SHAPES = st.tuples(st.integers(1, 1500), st.integers(1, 1500))


@given(height=st.integers(1, 600), width=st.integers(1, 600),
       radii=st.lists(st.floats(0.0, 300.0), max_size=8), shape=st.none() | _SHAPES)
def test_the_plan_replays_the_reuse_rule_blur_by_blur(height, width, radii, shape):
    assert _plan(height, width, radii, shape) == naive_plan(height, width, radii, shape)


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_an_autofocus_512_op_transforms_as_planned_on_any_lane_count(texture_512, bench_config,
                                                                      cpus):
    # An op shaped like the autofocus-512 workload's: 11 coarse probes over
    # 10 mm about z0 = 0.1 mm, 12 golden-section steps and 5 trials of
    # sigma 2 per probe, read through a 31 px window at the centre. The
    # coarse call plans its radii from no spectrum, and each refine call its
    # one radius from the last shape.
    params = SearchParams(z_min=-4.9, z_max=5.1, coarse_steps=11, refine_iterations=12,
                          trials_per_eval=5)
    with _lanes(cpus) as patch:
        transforms = _transform_spy(patch)
        result = autofocus(texture_512, bench_config, WindowSpec(256, 256, 31),
                           NoiseSpec(2.0, 11), params)
    assert len(result.trace) == 25 and not result.at_boundary
    radii = [blur_radius(bench_config, LensState(p.z_mm)).px for p in result.trace]
    planned, seen = [], set()
    for call in [radii[:11], *([r] for r in radii[11:])]:
        new = sorted(set(call) - seen, reverse=True)
        seen.update(new)
        planned += naive_transforms(31, 31, new, planned[-1] if planned else None)
    assert sorted(transforms) == sorted(planned)  # lanes may start two transforms in either order
    assert len(transforms) == 9
