"""Byte stability: the sha256 of every result and CLI output a user sees.

Each entry pins one workload's result ``repr`` or one subcommand's stdout,
CSV or PGM bytes. A change that keeps behaviour keeps every digest; a change
that moves one on purpose says so in CHANGES.md and updates the table. The
inputs are built here, small enough that the module runs in a few seconds,
and cover every stage of a capture: the PSF grid, the FFT blur, the noise
stream, both metric kinds and the golden-section search.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from focuslab import (
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    autofocus,
    make_texture,
    stability_study,
    sweep,
)
from focuslab.cli import main

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)
PX_PER_MM = 47.5  # blur radius per mm of lens travel with CFG

DIGESTS = {
    "autofocus-512": "03e699fbef6c39ee7fc31eb1f9a9a05674c1af1219bdb0642fcee61450cb6eb5",
    "sweep-256": "5e5bd4f21a04c0631f0235e57c6b8bf38bda309e041e07d9b8bbd921816f392c",
    "stability-256": "5fa016ae4cce09efc630276267c617228ea5de509d38184d8d9469342be32e88",
    "gen-step": "07fa1d88ca28fee26b9e997c9ca3eda6d3bd3688dcc6ebe9e9e2920913268e60",
    "gen-texture-256": "8f0ec60052fd5798f2b206e0500d100e66b1e75979e3d1ffc825ab2e55f90885",
    "gen-texture-97x61": "15a1b472eda52b8bc7deea80088ae79c812601b499bf87184c1a6a0da5b1d050",
    "blur-z0": "618fb54473173f7f513f3a76cf0013f6ad674ddfca7d309b0bfd5cbbb1d8d90e",
    "blur-z0.1": "d2f5a0bfadbc6452e1f3a42076c38dc068d6d26782191552cf54e322deb5d62d",
    "blur-z-0.37": "0cbe2d3595831ef77fa77cb708041ab517fd40c23039b1a925c5bf497e6e4614",
    "blur-z0.6": "fdddbb0330b503e5029badfdc89b3be1678728538dd7834cc675e1b676a67461",
    "measure-squared": "ff6a29a9797f1cb9b58ed896c29a521498839ad4d9d49af0fd2a7af7f8a7d8cb",
    "measure-absolute": "2e97da07d8bfdcafb1226b075511a5fbfcc51f135587dacb5a999304d9c70636",
    "sweep-noiseless": "7e4f62b5f66b4949c53eb340aef4a3878a1ff9eebecf31df40c5ee3da111dc88",
    "sweep-noisy": "9dda2c6754901e84d3cdc4fb423688131bb597f207bacad77ec4e34d1c08d798",
    "autofocus-stdout": "f25eda911d8e243398a489b86088b3d38e385cbe0cfcbf775e1c00a55c4b738f",
    "autofocus-trace": "af8626042dcd1048b61559776b21136b904cc9d845e06623c5aff3938a1b2ccc",
    "stability": "b9fe15e27e65178f09c9f3ca65288aee01fe0233014228fa6bcdd552bf6ad156",
    "compare": "53ef079cfe30b52a1b9c2265d50d77bbf19f2f5e3a1cc19d37f16a8fdd68ccff",
}


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _workloads() -> dict[str, str]:
    """The three benchmark workload shapes, each as the ``repr`` of one result."""
    scene_512 = make_texture(512, 512, 2718)
    params = SearchParams(z_min=-4.93, z_max=5.07, coarse_steps=11, refine_iterations=12,
                          trials_per_eval=5)
    focus = autofocus(scene_512, CFG, WindowSpec(256, 256, 31), NoiseSpec(2.0, 4242), params)

    scene_256 = make_texture(256, 256, 3141)
    z_max = 29.3 / PX_PER_MM
    positive = [z_max * k / 16 for k in range(1, 17)]
    zs = [-z for z in reversed(positive)] + [0.0] + positive
    curve = sweep(scene_256, CFG, WindowSpec(128, 128, 255), MetricKind.SQUARED, zs,
                  NoiseSpec(0.0), 1)
    report = stability_study(scene_256, CFG, LensState(0.0), (128, 128), (5, 9, 17, 31),
                             NoiseSpec(2.0, 1618), 10)
    return {"autofocus-512": repr(focus), "sweep-256": repr(curve),
            "stability-256": repr(report)}


def _cli(tmp_path) -> dict[str, bytes | str]:
    """Each subcommand's output bytes: stdout, its CSV or its PGM."""
    outputs: dict[str, bytes | str] = {}

    def run(*argv: str) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(list(argv)) == 0
        return stdout.getvalue()

    def pgm(name: str, *argv: str) -> None:
        path = tmp_path / f"{name}.pgm"
        run(*argv, "--out", str(path))
        outputs[name] = path.read_bytes()

    pgm("gen-step", "gen", "step", "--width", "40", "--height", "24", "--edge-x", "13",
        "--low", "17", "--high", "230")
    pgm("gen-texture-256", "gen", "texture", "--width", "256", "--height", "256", "--seed", "5")
    pgm("gen-texture-97x61", "gen", "texture", "--width", "97", "--height", "61",
        "--seed", "12")
    scene = str(tmp_path / "scene.pgm")
    run("gen", "texture", "--width", "96", "--height", "80", "--seed", "77", "--out", scene)
    for z in ("0", "0.1", "-0.37", "0.6"):
        pgm(f"blur-z{z}", "blur", "--in", scene, "--z", z)
    for kind in ("squared", "absolute"):
        outputs[f"measure-{kind}"] = run("measure", "--in", scene, "--cx", "40", "--cy", "37",
                                         "--n", "23", "--metric", kind)
    sweep_flags = ("sweep", "--in", scene, "--z-min", "-0.5", "--z-max", "0.45",
                   "--z-count", "9", "--n", "41")
    outputs["sweep-noiseless"] = run(*sweep_flags)
    outputs["sweep-noisy"] = run(*sweep_flags, "--sigma", "2.5", "--seed", "31",
                                 "--trials", "3", "--metric", "absolute")
    trace = tmp_path / "trace.csv"
    outputs["autofocus-stdout"] = run("autofocus", "--in", scene, "--z-min", "-0.8",
                                      "--z-max", "0.7", "--sigma", "2", "--seed", "9",
                                      "--trials-per-eval", "3", "--n", "25",
                                      "--trace-out", str(trace))
    outputs["autofocus-trace"] = trace.read_bytes()
    outputs["stability"] = run("stability", "--in", scene, "--z", "0.05", "--seed", "4",
                               "--repeats", "6")
    compare = run("compare", "--in", scene, "--z-min", "-0.4", "--z-max", "0.4",
                  "--z-count", "7", "--timing-repeats", "10", "--sizes", "5,9")
    # The third column is a wall time, which no run repeats.
    outputs["compare"] = "".join(
        ",".join(line.split(",")[:2] + line.split(",")[3:]) + "\n"
        for line in compare.splitlines()
    )
    return outputs


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    outputs = {**_workloads(), **_cli(tmp_path_factory.mktemp("cli"))}
    return {name: _sha(data) for name, data in outputs.items()}


def test_every_output_is_pinned(digests):
    assert set(digests) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bytes_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]
