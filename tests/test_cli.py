import re

import numpy as np
import pytest

import focuslab
from focuslab import Image, load_pgm, make_step_edge, make_texture, save_pgm
from focuslab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def texture_pgm(tmp_path):
    path = tmp_path / "scene.pgm"
    save_pgm(make_texture(64, 64, 7), path)
    return path


class TestGen:
    def test_step_writes_half_dark_half_bright(self, capsys, tmp_path):
        out = tmp_path / "step.pgm"
        code, _, _ = run(capsys, "gen", "step", "--width", "64", "--height", "64",
                         "--edge-x", "32", "--out", str(out))
        assert code == 0
        img = load_pgm(out)
        assert np.all(img.pixels[:, :32] == 0)
        assert np.all(img.pixels[:, 32:] == 255)

    def test_texture_is_bit_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run(capsys, "gen", "texture", "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "gen", "texture", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_edge_sits_at_half_the_width(self, capsys, tmp_path):
        out = tmp_path / "step.pgm"
        code, _, _ = run(capsys, "gen", "step", "--width", "16", "--out", str(out))
        assert code == 0
        px = load_pgm(out).pixels
        assert px.shape == (64, 16)
        assert np.all(px[:, :8] == 0) and np.all(px[:, 8:] == 255)

    def test_bad_edge_names_the_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "step", "--width", "64", "--height", "64",
                           "--edge-x", "99", "--out", str(tmp_path / "x.pgm"))
        assert code != 0
        assert "--edge-x" in err


class TestBlur:
    def test_zero_displacement_is_identity(self, capsys, tmp_path, texture_pgm):
        out = tmp_path / "out.pgm"
        code, _, _ = run(capsys, "blur", "--in", str(texture_pgm), "--z", "0", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == texture_pgm.read_bytes()

    def test_defocus_lowers_the_metric(self, capsys, tmp_path, texture_pgm):
        out = tmp_path / "out.pgm"
        code, _, _ = run(capsys, "blur", "--in", str(texture_pgm), "--z", "0.1",
                         "--out", str(out))
        assert code == 0
        _, sharp, _ = run(capsys, "measure", "--in", str(texture_pgm), "--n", "31")
        _, soft, _ = run(capsys, "measure", "--in", str(out), "--n", "31")
        assert int(soft) < int(sharp)

    def test_oversized_kernel_fails_cleanly(self, capsys, tmp_path, texture_pgm):
        code, _, err = run(capsys, "blur", "--in", str(texture_pgm), "--z", "5",
                           "--out", str(tmp_path / "x.pgm"))
        assert code != 0
        assert "exceeds" in err


class TestMeasure:
    def test_constant_image_prints_zero(self, capsys, tmp_path):
        path = tmp_path / "flat.pgm"
        save_pgm(Image(np.full((16, 16), 40, dtype=np.uint8)), path)
        code, out, _ = run(capsys, "measure", "--in", str(path), "--n", "15")
        assert code == 0 and out.strip() == "0"

    def test_three_column_step_fixture(self, capsys, tmp_path):
        path = tmp_path / "step3.pgm"
        save_pgm(make_step_edge(3, 3, 2, 0, 255), path)
        code, out, _ = run(capsys, "measure", "--in", str(path),
                           "--cx", "1", "--cy", "1", "--n", "3")
        assert code == 0 and out.strip() == "260100"
        code, out, _ = run(capsys, "measure", "--in", str(path), "--cx", "1", "--cy", "1",
                           "--n", "3", "--metric", "absolute")
        assert code == 0 and out.strip() == "1020"

    def test_window_overflow_names_the_flags(self, capsys, texture_pgm):
        code, _, err = run(capsys, "measure", "--in", str(texture_pgm), "--n", "99")
        assert code != 0
        assert "--n" in err


class TestSweep:
    def test_symmetric_range_gives_symmetric_curve(self, capsys, texture_pgm):
        code, out, _ = run(capsys, "sweep", "--in", str(texture_pgm),
                           "--z-min", "-0.2", "--z-max", "0.2", "--z-count", "5", "--n", "31")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z_mm,d_mean,d_stddev,n_trials"
        d = [line.split(",")[1] for line in lines[1:]]
        assert d[0] == d[4] and d[1] == d[3]

    def test_row_at_zero_is_the_peak(self, capsys, texture_pgm):
        code, out, _ = run(capsys, "sweep", "--in", str(texture_pgm),
                           "--z-min", "-0.2", "--z-max", "0.2", "--z-count", "5", "--n", "31")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        peak = max(rows, key=lambda r: float(r[1]))
        assert float(peak[0]) == 0.0

    def test_nan_sigma_fails(self, capsys, tmp_path, texture_pgm):
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "sweep", "--in", str(texture_pgm), "--sigma", "nan",
                           "--out", str(out))
        assert code != 0 and "sigma" in err
        assert not out.exists()

    def test_empty_range_fails(self, capsys, texture_pgm):
        code, _, err = run(capsys, "sweep", "--in", str(texture_pgm), "--z-count", "0")
        assert code != 0 and "--z-count" in err

    def test_output_is_byte_stable(self, capsys, tmp_path, texture_pgm):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--in", str(texture_pgm), "--z-min", "-0.1", "--z-max", "0.1",
                "--z-count", "3", "--trials", "2", "--sigma", "1.5", "--seed", "9", "--n", "31"]
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestAutofocus:
    def test_finds_focus_and_reports_status(self, capsys, tmp_path, texture_pgm):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "autofocus", "--in", str(texture_pgm),
                           "--z-min", "-0.4", "--z-max", "0.4", "--coarse-steps", "9",
                           "--refine-iterations", "6", "--n", "31",
                           "--trace-out", str(trace))
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert abs(float(fields["z_star_mm"])) <= 0.06
        assert fields["status"] == "ok"
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "step,z_mm,d_mean,phase"
        assert len(rows) - 1 == int(fields["evaluations"])  # trials_per_eval = 1

    def test_interval_without_focus_flags_the_boundary(self, capsys, texture_pgm):
        code, out, err = run(capsys, "autofocus", "--in", str(texture_pgm),
                             "--z-min", "0.05", "--z-max", "0.4", "--coarse-steps", "8",
                             "--refine-iterations", "4", "--n", "31")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert fields["status"] == "at_boundary"
        assert float(fields["z_star_mm"]) == 0.05
        assert "boundary" in err

    def test_bad_interval_names_the_flags(self, capsys, texture_pgm):
        code, _, err = run(capsys, "autofocus", "--in", str(texture_pgm),
                           "--z-min", "1", "--z-max", "-1")
        assert code != 0 and "--z-min" in err

    def test_defaults_on_the_default_texture_fail_before_probing(self, capsys, tmp_path):
        scene = tmp_path / "texture.pgm"
        assert run(capsys, "gen", "texture", "--out", str(scene))[0] == 0
        trace = tmp_path / "trace.csv"
        code, out, err = run(capsys, "autofocus", "--in", str(scene), "--trace-out", str(trace))
        assert code != 0 and out == ""
        assert "--z-min/--z-max" in err and "exceeds the 256x256 scene" in err
        assert not trace.exists()


class TestStability:
    def test_deviation_shrinks_with_window_size(self, capsys, texture_pgm):
        code, out, _ = run(capsys, "stability", "--in", str(texture_pgm),
                           "--sizes", "5,9,17,31", "--repeats", "10",
                           "--sigma", "2", "--seed", "1000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,measurement_index,d,mean,deviation_pct"
        worst: dict[int, float] = {}
        for line in lines[1:]:
            n, _, _, _, pct = line.split(",")
            worst[int(n)] = max(worst.get(int(n), 0.0), abs(float(pct)))
        ordered = [worst[n] for n in (5, 9, 17, 31)]
        assert all(b < a for a, b in zip(ordered, ordered[1:]))

    def test_noiseless_run_has_zero_deviation_cells(self, capsys, texture_pgm):
        code, out, _ = run(capsys, "stability", "--in", str(texture_pgm),
                           "--sizes", "5,9", "--repeats", "3", "--sigma", "0")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[4] == "0"

    def test_bad_sizes_fail(self, capsys, texture_pgm):
        code, _, err = run(capsys, "stability", "--in", str(texture_pgm), "--sizes", "5,x")
        assert code != 0 and "--sizes" in err


class TestCompare:
    def test_argmax_columns_agree(self, capsys, texture_pgm):
        code, out, _ = run(capsys, "compare", "--in", str(texture_pgm),
                           "--z-min", "-0.2", "--z-max", "0.2", "--z-count", "5",
                           "--timing-repeats", "10", "--sizes", "5,31", "--n", "31")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,mean_ns_per_eval,argmax_z_mm"
        argmax = {line.split(",")[3] for line in lines[1:]}
        assert len(argmax) == 1


class TestMissingInput:
    def test_missing_scene_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run(capsys, "measure", "--in", str(tmp_path / "none.pgm"))
        assert code != 0 and "error" in err


# Flags that, with the test scene, make each command succeed on its own.
_VALID = {
    "sweep": ["--z-min", "-0.2", "--z-max", "0.2", "--z-count", "3"],
    "compare": ["--z-min", "-0.2", "--z-max", "0.2", "--z-count", "3"],
}


@pytest.mark.parametrize("argv", [
    ["sweep", "--f-mm", "-1"],
    ["sweep", "--a-mm", "10"],
    ["sweep", "--g", "nan"],
    ["compare", "--z-max", "nan"],
    ["sweep", "--sigma", "-1"],
    ["sweep", "--seed", "-3"],
    ["sweep", "--trials", "0"],
    ["stability", "--repeats", "2"],
    ["stability", "--sizes", ","],
    ["compare", "--timing-repeats", "3"],
    ["compare", "--sizes", ","],
    ["compare", "--sizes", "1,5"],
    ["measure", "--n", "1"],
    ["gen", "texture", "--seed", "-1"],
    ["gen", "step", "--low", "300"],
    ["gen", "step", "--width", "0"],
])
def test_rejected_flag_value_exits_1_naming_the_flag(capsys, tmp_path, texture_pgm, argv):
    *base, flag, _ = argv
    if base[0] != "gen":
        base += ["--in", str(texture_pgm), *_VALID.get(base[0], [])]

    def out_flag(path):
        return [] if base[0] == "measure" else ["--out", str(path)]

    # The command succeeds without the bad value, so the value alone fails it.
    out = tmp_path / "out"
    assert run(capsys, *base, *out_flag(tmp_path / "ok"))[0] == 0
    code, stdout, err = run(capsys, *base, *argv[-2:], *out_flag(out))
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert re.search(rf"(?<![\w-]){flag}(?![\w-])", err), err
    assert not out.exists()


def _one_error_line(code, stdout, err):
    return code == 1 and stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("bounds", [
    ["--z-max", "inf"],
    ["--z-min=-1e308", "--z-max", "1e308"],  # the grid step overflows to inf
    ["--z-min", "-inf", "--z-max", "1"],
], ids=["inf", "overflow", "spaced-minus-inf"])
def test_non_finite_z_grid_fails_naming_finiteness(capsys, texture_pgm, bounds):
    code, stdout, err = run(capsys, "sweep", "--in", str(texture_pgm), *bounds)
    assert _one_error_line(code, stdout, err), err
    assert "--z-max" in err and "z_values must be finite" in err


@pytest.mark.parametrize("command", ["sweep", "compare"])
@pytest.mark.parametrize("bounds, given", [
    (["--z-max", "inf"], "inf"),
    (["--z-min", "-inf", "--z-max", "1"], "-inf"),
], ids=["inf", "minus-inf"])
def test_a_non_finite_z_bound_is_named_as_given(capsys, texture_pgm, command, bounds, given):
    code, stdout, err = run(capsys, command, "--in", str(texture_pgm), *bounds)
    assert _one_error_line(code, stdout, err), err
    assert err.rstrip().endswith(f"--z-max/--z-count) flags: z_values must be finite, got {given}")


def test_one_z_sample_needs_equal_bounds(capsys, texture_pgm):
    code, stdout, err = run(capsys, "sweep", "--in", str(texture_pgm), "--z-count", "1")
    assert _one_error_line(code, stdout, err)
    assert err == ("error: bad z grid (--z-min/--z-max/--z-count) flags: "
                   "--z-count 1 requires --z-min == --z-max\n")


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_an_overflowing_z_grid_is_refused_as_an_overflow(capsys, texture_pgm, command):
    # Both bounds are finite, but their span overflows to inf.
    code, stdout, err = run(capsys, command, "--in", str(texture_pgm),
                            "--z-min=-1e308", "--z-max", "1e308")
    assert _one_error_line(code, stdout, err), err
    assert err.startswith("error: bad z grid (--z-min/--z-max/--z-count) flags: ")
    assert "overflows" in err and "nan" not in err and "inf" not in err


@pytest.mark.parametrize("z_min", ["-1e-3", "-2E-1", "-.5e-1", "-1_0e-2"])
def test_a_spaced_negative_value_reads_like_a_joined_one(capsys, texture_pgm, z_min):
    grid = ["--z-max", "1e-1", "--z-count", "3"]
    spaced = run(capsys, "sweep", "--in", str(texture_pgm), "--z-min", z_min, *grid)
    joined = run(capsys, "sweep", "--in", str(texture_pgm), f"--z-min={z_min}", *grid)
    assert spaced == joined and spaced[0] == 0, spaced


def test_help_before_a_negative_value_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help", "-1e-3"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: focuslab sweep")


def test_a_long_flag_before_a_non_numeric_dash_token_is_left_without_a_value(
    capsys, monkeypatch, tmp_path, texture_pgm
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--in", str(texture_pgm), "--out", "--sigma", "1"])
    assert exc.value.code == 2
    assert "argument --out: expected one argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [texture_pgm]


# z = 1000 mm is a 47,500 px blur radius on the default camera.
@pytest.mark.parametrize("argv, flag", [
    (["blur", "--z", "1000"], "--z"),
    (["sweep", "--z-min", "-1000", "--z-max", "1000", "--z-count", "3"], "--z-min"),
    (["stability", "--z", "1000"], "--z"),
    (["compare", "--z-min", "-1000", "--z-max", "1000", "--z-count", "3"], "--z-min"),
], ids=["blur", "sweep", "stability", "compare"])
def test_oversized_kernel_is_refused_before_it_is_built(
    capsys, monkeypatch, tmp_path, texture_pgm, argv, flag
):
    def no_build(*args, **kwargs):
        raise AssertionError("a pillbox was built")

    for module in (focuslab.metric, focuslab.optics):
        monkeypatch.setattr(module, "make_pillbox_psf", no_build)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--in", str(texture_pgm), "--out", str(out))
    assert _one_error_line(code, stdout, err), err
    assert "kernel exceeds the 64x64 scene" in err
    assert re.search(rf"(?<![\w-]){flag}(?![\w-])", err), err
    assert not out.exists()


def test_autofocus_whose_reach_overflows_fails_naming_the_interval(capsys, texture_pgm):
    # The blur radius of |z| = 1e308 mm overflows to inf before any probe.
    code, stdout, err = run(capsys, "autofocus", "--in", str(texture_pgm),
                            "--z-min=-1e308", "--z-max", "1e308")
    assert _one_error_line(code, stdout, err), err
    assert "(--z-min/--z-max)" in err and "kernel exceeds the 64x64 scene" in err


@pytest.mark.parametrize("argv", [
    ["blur", "--z", "0", "--out", "unused.pgm"],
    ["sweep"],
    ["autofocus"],
    ["stability"],
    ["compare"],
], ids=lambda argv: argv[0])
def test_d_max_is_an_unknown_flag(capsys, texture_pgm, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(texture_pgm), "--d-max", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d-max 100" in capsys.readouterr().err
