"""Command-line front end: scene generation, blur, measurement, sweeps,
autofocus, and benchmarks as subcommands emitting PGM and CSV.

Machine output (metric values, CSV) goes to stdout or the --out file;
diagnostics and warnings go to stderr. Every subcommand is deterministic
given its flags: all randomness sits behind explicit --seed values.
"""

from __future__ import annotations

import argparse
import sys

from . import bench, image, metric, optics, search

_METRIC_KINDS = {kind.value: kind for kind in metric.MetricKind}

# Default virtual camera: 1 m object distance, 50 mm lens, 5 um pixels.
_DEF_A_MM = 1000.0
_DEF_F_MM = 50.0
_DEF_G = 2.0
_DEF_PITCH_MM = 0.005
_DEF_D_MAX = 100.0


class CliError(ValueError):
    """Flag-level validation failure; the message names the offending flag."""


def _optics_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("optics")
    group.add_argument("--a-mm", type=float, default=_DEF_A_MM,
                       help=f"distance to the object, mm (default {_DEF_A_MM})")
    group.add_argument("--f-mm", type=float, default=_DEF_F_MM,
                       help=f"focal length, mm (default {_DEF_F_MM})")
    group.add_argument("--g", type=float, default=_DEF_G,
                       help=f"light-gathering parameter (default {_DEF_G})")
    group.add_argument("--pixel-pitch-mm", type=float, default=_DEF_PITCH_MM,
                       help=f"sensor pixel size, mm (default {_DEF_PITCH_MM})")
    group.add_argument("--d-max", type=float, default=_DEF_D_MAX,
                       help=f"resolution ceiling near focus (default {_DEF_D_MAX})")


def _window_flags(parser: argparse.ArgumentParser, default_n: int = 31) -> None:
    group = parser.add_argument_group("window")
    group.add_argument("--cx", type=int, default=None,
                       help="window center x (default: image center)")
    group.add_argument("--cy", type=int, default=None,
                       help="window center y (default: image center)")
    group.add_argument("--n", type=int, default=default_n,
                       help=f"window dimension in pixels (default {default_n})")


def _metric_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", choices=sorted(_METRIC_KINDS), default="squared",
                        help="metric kind (default squared)")


def _noise_flags(parser: argparse.ArgumentParser, default_sigma: float) -> None:
    group = parser.add_argument_group("noise")
    group.add_argument("--sigma", type=float, default=default_sigma,
                       help=f"Gaussian noise stddev in gray levels (default {default_sigma})")
    group.add_argument("--seed", type=int, default=0,
                       help="base RNG seed (default 0)")


def _optical_config(args: argparse.Namespace) -> optics.OpticalConfig:
    if args.f_mm <= 0:
        raise CliError("--f-mm must be positive")
    if args.a_mm <= args.f_mm:
        raise CliError("--a-mm must exceed --f-mm")
    if args.g <= 0:
        raise CliError("--g must be positive")
    if args.pixel_pitch_mm <= 0:
        raise CliError("--pixel-pitch-mm must be positive")
    if args.d_max <= 0:
        raise CliError("--d-max must be positive")
    return optics.OpticalConfig(args.a_mm, args.f_mm, args.g, args.pixel_pitch_mm, args.d_max)


def _noise_spec(args: argparse.Namespace) -> image.NoiseSpec:
    if args.sigma < 0:
        raise CliError("--sigma must be >= 0")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    return image.NoiseSpec(args.sigma, args.seed)


def _window_spec(args: argparse.Namespace, img: image.Image, n: int | None = None) -> image.WindowSpec:
    n = args.n if n is None else n
    if n < 2:
        raise CliError("--n must be >= 2")
    cx = img.width // 2 if args.cx is None else args.cx
    cy = img.height // 2 if args.cy is None else args.cy
    window = image.WindowSpec(cx, cy, n)
    try:
        img.region(window)
    except ValueError as exc:
        raise CliError(f"window does not fit the image (--cx/--cy/--n): {exc}") from None
    return window


def _z_values(args: argparse.Namespace) -> list[float]:
    if args.z_count < 1:
        raise CliError("--z-count must be >= 1")
    if args.z_count == 1:
        if args.z_min != args.z_max:
            raise CliError("--z-count 1 requires --z-min == --z-max")
        return [args.z_min]
    if args.z_min >= args.z_max:
        raise CliError("--z-min must be below --z-max")
    step = (args.z_max - args.z_min) / (args.z_count - 1)
    return [args.z_min + i * step for i in range(args.z_count)]


def _write_or_stdout(writer, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        writer(sys.stdout)
    else:
        writer(out_path)


def cmd_gen_step(args: argparse.Namespace) -> int:
    if not 0 <= args.edge_x <= args.width:
        raise CliError(f"--edge-x must lie in [0, {args.width}], got {args.edge_x}")
    if not 0 <= args.low <= 255:
        raise CliError("--low must lie in [0, 255]")
    if not 0 <= args.high <= 255:
        raise CliError("--high must lie in [0, 255]")
    img = image.make_step_edge(args.width, args.height, args.edge_x, args.low, args.high)
    image.save_pgm(img, args.out)
    print(f"wrote {args.width}x{args.height} step edge to {args.out}", file=sys.stderr)
    return 0


def cmd_gen_texture(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
    img = image.make_texture(args.width, args.height, args.seed)
    image.save_pgm(img, args.out)
    print(f"wrote {args.width}x{args.height} texture to {args.out}", file=sys.stderr)
    return 0


def cmd_blur(args: argparse.Namespace) -> int:
    cfg = _optical_config(args)
    scene = image.load_pgm(args.in_path)
    out = optics.capture(scene, cfg, optics.LensState(args.z), image.NoiseSpec(0.0))
    image.save_pgm(out, args.out)
    print(f"blurred {args.in_path} at z={args.z}mm -> {args.out}", file=sys.stderr)
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    img = image.load_pgm(args.in_path)
    window = _window_spec(args, img)
    d = metric.resolution(img, window, _METRIC_KINDS[args.metric])
    print(d)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    curve = metric.sweep(scene, cfg, window, _METRIC_KINDS[args.metric],
                         _z_values(args), noise, args.trials)
    _write_or_stdout(curve.write_csv, args.out)
    return 0


def cmd_autofocus(args: argparse.Namespace) -> int:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    try:
        params = search.SearchParams(
            z_min=args.z_min,
            z_max=args.z_max,
            coarse_steps=args.coarse_steps,
            refine_iterations=args.refine_iterations,
            trials_per_eval=args.trials_per_eval,
            metric=_METRIC_KINDS[args.metric],
        )
    except ValueError as exc:
        raise CliError(
            f"bad search flags (--z-min/--z-max/--coarse-steps/"
            f"--refine-iterations/--trials-per-eval): {exc}"
        ) from None
    try:
        result = search.autofocus(scene, cfg, window, noise, params)
    except ValueError as exc:
        raise CliError(f"search interval does not fit the scene (--z-min/--z-max): {exc}") from None
    if args.trace_out is not None:
        result.write_trace_csv(args.trace_out)
    if result.at_boundary:
        print("warning: best focus sits on the search boundary; "
              "the true focus may lie outside the interval", file=sys.stderr)
    print(f"z_star_mm={result.z_star!r}")
    print(f"d_star={result.d_star!r}")
    print(f"evaluations={result.evaluations}")
    print(f"status={'at_boundary' if result.at_boundary else 'ok'}")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    if args.repeats < 3:
        raise CliError("--repeats must be >= 3")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}") from None
    if not sizes or any(n < 2 for n in sizes):
        raise CliError("--sizes entries must all be >= 2")
    scene = image.load_pgm(args.in_path)
    cx = scene.width // 2 if args.cx is None else args.cx
    cy = scene.height // 2 if args.cy is None else args.cy
    try:
        report = bench.stability_study(scene, cfg, optics.LensState(args.z),
                                       (cx, cy), sizes, noise, args.repeats)
    except ValueError as exc:
        raise CliError(f"stability study rejected its inputs (--sizes/--cx/--cy): {exc}") from None
    _write_or_stdout(report.write_csv, args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _optical_config(args)
    if args.timing_repeats < 10:
        raise CliError("--timing-repeats must be >= 10")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}") from None
    if not sizes or any(n < 2 for n in sizes):
        raise CliError("--sizes entries must all be >= 2")
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    try:
        report = bench.compare_metrics(scene, cfg, window, _z_values(args),
                                       args.timing_repeats, sizes)
    except ValueError as exc:
        raise CliError(f"comparison rejected its inputs (--sizes/--cx/--cy): {exc}") from None
    _write_or_stdout(report.write_csv, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focuslab",
        description="Defocus camera simulator, gradient focus metrics, and autofocus search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic PGM scenes")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    gen_step = gen_sub.add_parser("step", help="vertical step-edge scene")
    gen_step.add_argument("--width", type=int, default=64)
    gen_step.add_argument("--height", type=int, default=64)
    gen_step.add_argument("--edge-x", type=int, default=32,
                          help="first column holding the high value (default: width/2)")
    gen_step.add_argument("--low", type=int, default=0)
    gen_step.add_argument("--high", type=int, default=255)
    gen_step.add_argument("--out", required=True, help="output PGM path")
    gen_step.set_defaults(handler=cmd_gen_step)

    gen_texture = gen_sub.add_parser("texture", help="high-contrast random texture scene")
    gen_texture.add_argument("--width", type=int, default=256)
    gen_texture.add_argument("--height", type=int, default=256)
    gen_texture.add_argument("--seed", type=int, default=0)
    gen_texture.add_argument("--out", required=True, help="output PGM path")
    gen_texture.set_defaults(handler=cmd_gen_texture)

    blur = sub.add_parser("blur", help="defocus-blur a PGM scene (noise-free capture)")
    blur.add_argument("--in", dest="in_path", required=True, help="input PGM path")
    blur.add_argument("--z", type=float, required=True, help="lens displacement, mm")
    blur.add_argument("--out", required=True, help="output PGM path")
    _optics_flags(blur)
    blur.set_defaults(handler=cmd_blur)

    measure = sub.add_parser("measure", help="print the focus metric of a window")
    measure.add_argument("--in", dest="in_path", required=True, help="input PGM path")
    _window_flags(measure)
    _metric_flag(measure)
    measure.set_defaults(handler=cmd_measure)

    sweep_cmd = sub.add_parser("sweep", help="measure the focus curve over a z range")
    sweep_cmd.add_argument("--in", dest="in_path", required=True, help="scene PGM path")
    sweep_cmd.add_argument("--z-min", type=float, default=-1.0)
    sweep_cmd.add_argument("--z-max", type=float, default=1.0)
    sweep_cmd.add_argument("--z-count", type=int, default=11,
                           help="number of equally spaced z samples (default 11)")
    sweep_cmd.add_argument("--trials", type=int, default=1,
                           help="captures per z (default 1)")
    sweep_cmd.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _window_flags(sweep_cmd)
    _metric_flag(sweep_cmd)
    _noise_flags(sweep_cmd, default_sigma=0.0)
    _optics_flags(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    af = sub.add_parser("autofocus", help="search for the best-focus displacement")
    af.add_argument("--in", dest="in_path", required=True, help="scene PGM path")
    af.add_argument("--z-min", type=float, default=-5.0)
    af.add_argument("--z-max", type=float, default=5.0)
    af.add_argument("--coarse-steps", type=int, default=11)
    af.add_argument("--refine-iterations", type=int, default=12)
    af.add_argument("--trials-per-eval", type=int, default=1)
    af.add_argument("--trace-out", default=None, help="probe trace CSV path")
    _window_flags(af)
    _metric_flag(af)
    _noise_flags(af, default_sigma=0.0)
    _optics_flags(af)
    af.set_defaults(handler=cmd_autofocus)

    stability = sub.add_parser("stability", help="window-size vs dispersion study")
    stability.add_argument("--in", dest="in_path", required=True, help="scene PGM path")
    stability.add_argument("--z", type=float, default=0.0, help="lens displacement, mm (default 0)")
    stability.add_argument("--sizes", default="5,9,17,31",
                           help="comma-separated window sizes (default 5,9,17,31)")
    stability.add_argument("--repeats", type=int, default=10,
                           help="noisy captures per size (default 10)")
    stability.add_argument("--cx", type=int, default=None, help="window center x (default: image center)")
    stability.add_argument("--cy", type=int, default=None, help="window center y (default: image center)")
    stability.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _noise_flags(stability, default_sigma=2.0)
    _optics_flags(stability)
    stability.set_defaults(handler=cmd_stability)

    compare = sub.add_parser("compare", help="time both metric kinds and compare their peaks")
    compare.add_argument("--in", dest="in_path", required=True, help="scene PGM path")
    compare.add_argument("--z-min", type=float, default=-1.0)
    compare.add_argument("--z-max", type=float, default=1.0)
    compare.add_argument("--z-count", type=int, default=9)
    compare.add_argument("--timing-repeats", type=int, default=20,
                         help="evaluations per timing cell (default 20)")
    compare.add_argument("--sizes", default="5,9,17,31",
                         help="comma-separated window sizes to time (default 5,9,17,31)")
    compare.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _window_flags(compare)
    _optics_flags(compare)
    compare.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
