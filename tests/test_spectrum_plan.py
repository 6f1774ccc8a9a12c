"""The zone spectra a camera plans: the shape each blur runs at, and the transforms it takes.

``optics._plan`` gives each radius of a call, largest first, the zone
spectrum its blur runs through, from no spectrum; each spectrum is one zone
transform, made on its first use. Its shapes must replay the reuse rule one
blur at a time (``_oracles.naive_plan``) for any radii, one spectrum must
serve each run of equal shapes, and a camera must make the transforms each
call plans whatever its lane count, keeping none for the next call. (A
sweep-256-shaped call's one transform at 1, 2 and 4 lanes is
``test_blur_passes.py::test_a_sweep_call_builds_its_cosines_once_per_zone_transform``.)
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import focuslab.optics
from focuslab import (
    Image,
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


@given(height=st.integers(1, 600), width=st.integers(1, 600),
       radii=st.lists(st.floats(0.0, 300.0), max_size=8))
def test_the_plan_replays_the_reuse_rule_blur_by_blur(height, width, radii):
    scene = Image(np.zeros((height, width), dtype=np.uint8))
    with pytest.MonkeyPatch.context() as patch:
        built = []
        patch.setattr(focuslab.optics, "_zone_spectrum", lambda *args: built.append(args) or args)
        plan = _plan(scene, radii)
        assert built == []  # nothing is transformed until a blur needs it
        assert [spectrum and spectrum.shape for spectrum in plan] == naive_plan(
            height, width, radii)
        # One spectrum per run of equal shapes.
        spectra = [spectrum for spectrum in plan if spectrum]
        for before, after in zip(spectra, spectra[1:]):
            assert (after is before) == (after.shape == before.shape)
        new = list(dict.fromkeys(spectra))
        for spectrum in new:
            assert spectrum.transform() is spectrum.transform()
        assert built == [(scene, spectrum.shape) for spectrum in new]
        assert [spectrum.shape for spectrum in new] == naive_transforms(height, width, radii)


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_an_autofocus_512_op_transforms_as_planned_on_any_lane_count(texture_512, bench_config,
                                                                      cpus):
    # An op shaped like the autofocus-512 workload's: 11 coarse probes over
    # 10 mm about z0 = 0.1 mm, 12 golden-section steps and 5 trials of
    # sigma 2 per probe, read through a 31 px window at the centre. Each
    # call, the coarse one and each refine one, plans its own radii from no
    # spectrum.
    params = SearchParams(z_min=-4.9, z_max=5.1, coarse_steps=11, refine_iterations=12,
                          trials_per_eval=5)
    with _lanes(cpus) as patch:
        transforms = _transform_spy(patch)
        result = autofocus(texture_512, bench_config, WindowSpec(256, 256, 31),
                           NoiseSpec(2.0, 11), params)
    assert len(result.trace) == 25 and not result.at_boundary
    radii = [blur_radius(bench_config, LensState(p.z_mm)).px for p in result.trace]
    planned = []
    for call in [radii[:11], *([r] for r in radii[11:])]:
        planned += naive_transforms(31, 31, sorted(set(call), reverse=True))
    assert sorted(transforms) == sorted(planned)  # lanes may start two transforms in either order
    # The coarse call's 4, and one for each of the 10 refine probes whose
    # kernel is not the identity.
    assert len(transforms) == 14
