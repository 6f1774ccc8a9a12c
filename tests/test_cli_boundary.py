"""The CLI boundary as one property.

Every run of ``focuslab.cli.main`` either returns 0 with only finite numbers
in its output, or returns 1 with one ``error:`` line that names a flag. No
run may end in a traceback. Flags take finite, non-finite, negative,
fractional and edge values, with small counts so each run stays cheap.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focuslab
from focuslab import Image, make_texture, save_pgm
from focuslab.cli import main

INF, NAN = math.inf, math.nan


def ints(good_lo, good_hi, *bad):
    return st.integers(good_lo, good_hi), st.sampled_from(bad)


# Each flag maps to (good values, bad values). z is good within +-0.3 mm and
# bad out to +-10 mm and at the non-finite and overflowing edges. The optics
# values give at most 50 blur px per mm (at --a-mm 1e308), so even a kernel
# built before it is refused is at most 1,001 px a side.
Z = st.floats(-0.3, 0.3), st.one_of(
    st.floats(-10.0, 10.0), st.sampled_from([INF, -INF, NAN, 1e308, -1e308]))
OPTICS = {
    "--a-mm": (st.sampled_from([1000.0, 2000.0, 1e308]),
               st.sampled_from([50.0, 0.0, -1.0, NAN, INF])),
    "--f-mm": (st.sampled_from([50.0, 100.0]), st.sampled_from([0.0, -1.0, NAN, INF])),
    "--g": (st.sampled_from([2.0, 4.0]), st.sampled_from([0.0, -2.0, NAN, INF])),
    "--pixel-pitch-mm": (st.sampled_from([0.005, 0.02]),
                         st.sampled_from([0.0, -0.005, NAN, INF])),
}
NOISE = {
    "--sigma": (st.one_of(st.floats(0.0, 5.0), st.just(1e308)),
                st.sampled_from([-1.0, NAN, INF])),
    "--seed": (st.sampled_from([0, 7, 2**64]), st.just(-3)),
}
CENTER = {"--cx": ints(8, 40, -4, 0, 70), "--cy": ints(8, 40, -4, 0, 70)}
WINDOW = {**CENTER, "--n": ints(2, 15, -1, 0, 1, 64, 70)}
KINDS = st.sampled_from(["squared", "absolute"])
METRIC = {"--metric": (KINDS, KINDS)}  # argparse's choices let no bad kind through
SIZES = (
    st.lists(st.integers(2, 15), min_size=1, max_size=4).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["x", ",", "", "1,5", "-2", "5,65"]),
)
Z_GRID = {"--z-min": Z, "--z-max": Z, "--z-count": ints(1, 9, -2, 0)}

COMMANDS = {
    "blur": {"--z": Z, **OPTICS},
    "measure": {**WINDOW, **METRIC},
    "sweep": {**Z_GRID, "--trials": ints(1, 3, -1, 0), **WINDOW, **METRIC, **NOISE, **OPTICS},
    "autofocus": {
        "--z-min": Z, "--z-max": Z, "--coarse-steps": ints(5, 9, -1, 0, 4),
        "--refine-iterations": ints(0, 4, -1), "--trials-per-eval": ints(1, 3, -1, 0),
        **WINDOW, **METRIC, **NOISE, **OPTICS,
    },
    "stability": {
        "--z": Z, "--sizes": SIZES, "--repeats": ints(3, 5, -1, 0, 2), **CENTER, **NOISE,
        **OPTICS,
    },
    "compare": {
        **Z_GRID, "--timing-repeats": ints(10, 10, -1, 0, 9), "--sizes": SIZES, **WINDOW,
        **OPTICS,
    },
}


@st.composite
def runs(draw, command):
    """(scene pixels, flags) for ``command``: up to two bad flags, the rest good or left out.

    The z flags are always given: the CLI's default z ranges suit a 256 px
    scene, and would fail every run on these small ones. Each flag is joined
    to its value with "=" or passed before it as a separate token.
    """
    table = COMMANDS[command]
    bad = draw(st.sets(st.sampled_from(sorted(table)), max_size=2))
    side = st.integers(40, 64) | st.integers(1, 64)
    width, height = draw(side), draw(side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 256, (height, width), dtype=np.uint8)
    flags = []
    for flag, (good_values, bad_values) in table.items():
        if flag in bad or flag.startswith("--z") or draw(st.booleans()):
            value = draw(bad_values if flag in bad else good_values)
            # Spaced, a value such as "-inf" or "-1e-05" must still read as a value.
            flags += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return pixels, flags


def _only_finite_numbers(text: str) -> bool:
    for token in re.split(r"[\s,=]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=20)
@given(data=st.data())
def test_a_run_succeeds_with_finite_output_or_fails_naming_a_flag(tmp_path_factory, command, data):
    pixels, flags = data.draw(runs(command))
    scene = tmp_path_factory.getbasetemp() / "boundary_scene.pgm"
    save_pgm(Image(pixels), scene)
    argv = [command, "--in", str(scene), *flags]
    if command == "blur":
        argv += ["--out", str(tmp_path_factory.getbasetemp() / "boundary_blur.pgm")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert _only_finite_numbers(out), (argv, out)
    else:
        assert code == 1 and out == "", (argv, code, out)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        assert re.search(r"--[a-z]", err), (argv, err)


def _run_in_256_mib(tmp_path, command, *flags):
    """Run ``focuslab <command> --in <32x32 texture> <flags>`` in a child whose
    address space is capped at 256 MiB, set before it starts: room for the
    interpreter and numpy on one thread, but not for a run of 10^8 of anything."""
    resource = pytest.importorskip("resource")  # POSIX only
    cap = 256 * 2**20
    scene = tmp_path / "t32.pgm"
    save_pgm(make_texture(32, 32, 1), scene)
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(focuslab.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "focuslab.cli", command, "--in", str(scene), *flags],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_a_run_that_does_not_fit_in_memory_fails_naming_its_flag(tmp_path):
    proc = _run_in_256_mib(tmp_path, "sweep", "--z-count", "100000000")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: bad z grid (") and "--z-count" in line, line
    assert "does not fit in memory" in line, line


def test_a_search_that_does_not_fit_in_memory_names_its_trial_count(tmp_path):
    # The coarse scan's readings of 10^8 trials per probe outgrow the cap when they are
    # allocated, before its first blur.
    proc = _run_in_256_mib(tmp_path, "autofocus", "--trials-per-eval", "100000000",
                           "--z-min=-0.1", "--z-max", "0.1", "--n", "9")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: bad search interval (") and "--trials-per-eval" in line, line
    assert "does not fit in memory" in line, line


@pytest.mark.parametrize(("command", "flag"), [("sweep", "--trials"), ("stability", "--repeats")])
def test_readings_too_large_to_address_fail_naming_their_flag(tmp_path, command, flag):
    # 2**62 readings per z: numpy cannot count their bytes, so the array is
    # refused when it is allocated, before any capture.
    z_grid = ["--z-count", "3", "--z-min=-0.01", "--z-max", "0.01"] if command == "sweep" else []
    proc = _run_in_256_mib(tmp_path, command, flag, str(2**62), *z_grid)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: bad {command} (") and flag in line, line
    assert "does not fit in memory" in line, line


@pytest.mark.parametrize("flag", ["--g", "--pixel-pitch-mm"])
@pytest.mark.parametrize("command", ["blur", "sweep", "autofocus"])
def test_optics_whose_blur_per_mm_overflows_fail_naming_the_optics(tmp_path, command, flag):
    # Finite and positive, yet (a - f) / a / (2 g) / pitch overflows to inf.
    scene = tmp_path / "t64.pgm"
    save_pgm(make_texture(64, 64, 1), scene)
    argv = [command, "--in", str(scene), flag, "1e-320", *{
        "blur": ["--z", "0", "--out", str(tmp_path / "o.pgm")],
        "sweep": ["--z-count", "3", "--z-min=-0.1", "--z-max", "0.1"],
        "autofocus": ["--z-min=-0.1", "--z-max", "0.1"],
    }[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1 and out.getvalue() == "", (argv, code)
    (line,) = err.getvalue().splitlines()
    assert line.startswith("error: bad optics ("), line
