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

# Resolution ceiling of the default virtual camera, which has no flag.
_DEF_D_MAX = 100.0


_WINDOW = "window (--cx/--cy/--n)"
_LENS = "lens (--z)"
_SEARCH = ("search interval (--z-min/--z-max) and count "
           "(--coarse-steps/--refine-iterations/--trials-per-eval)")


def _checked(flags: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError or MemoryError re-raised naming ``flags``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"bad {flags} flags: {exc}") from None
    except MemoryError:
        pass  # raised below, once the handler has freed what the traceback holds
    raise ValueError(f"bad {flags} flags: the run does not fit in memory")


def _optics_flags(parser: argparse.ArgumentParser) -> None:
    # Default virtual camera: 1 m object distance, 50 mm lens, 5 um pixels.
    group = parser.add_argument_group("optics")
    group.add_argument("--a-mm", type=float, default=1000.0,
                       help="distance to the object, mm (default %(default)s)")
    group.add_argument("--f-mm", type=float, default=50.0,
                       help="focal length, mm (default %(default)s)")
    group.add_argument("--g", type=float, default=2.0,
                       help="light-gathering parameter (default %(default)s)")
    group.add_argument("--pixel-pitch-mm", type=float, default=0.005,
                       help="sensor pixel size, mm (default %(default)s)")


def _center_flags(container) -> None:
    """Add --cx/--cy to a parser or argument group."""
    for axis in "xy":
        container.add_argument(f"--c{axis}", type=int, default=None,
                               help=f"window center {axis} (default: image center)")


def _window_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("window")
    _center_flags(group)
    group.add_argument("--n", type=int, default=31,
                       help="window dimension in pixels (default %(default)s)")


def _metric_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", choices=sorted(k.value for k in metric.MetricKind),
                        default="squared", help="metric kind (default %(default)s)")


def _noise_flags(parser: argparse.ArgumentParser, default_sigma: float) -> None:
    group = parser.add_argument_group("noise")
    group.add_argument("--sigma", type=float, default=default_sigma,
                       help="Gaussian noise stddev in gray levels (default %(default)s)")
    group.add_argument("--seed", type=int, default=0, help="base RNG seed (default %(default)s)")


def _optical_config(args: argparse.Namespace) -> optics.OpticalConfig:
    return _checked("optics (--a-mm/--f-mm/--g/--pixel-pitch-mm)", optics.OpticalConfig,
                    args.a_mm, args.f_mm, args.g, args.pixel_pitch_mm, _DEF_D_MAX)


def _noise_spec(args: argparse.Namespace) -> image.NoiseSpec:
    return _checked("noise (--sigma/--seed)", image.NoiseSpec, args.sigma, args.seed)


def _center(args: argparse.Namespace, img: image.Image) -> tuple[int, int]:
    """The --cx/--cy window center, defaulting to the image center."""
    cx = img.width // 2 if args.cx is None else args.cx
    cy = img.height // 2 if args.cy is None else args.cy
    return cx, cy


def _window_spec(args: argparse.Namespace, img: image.Image) -> image.WindowSpec:
    window = _checked(_WINDOW, image.WindowSpec, *_center(args, img), args.n)
    _checked(_WINDOW, img.region, window)
    return window


def _sizes(args: argparse.Namespace) -> list[int]:
    try:
        return [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}") from None


def _z_values(args: argparse.Namespace) -> list[float]:
    """The --z-count grid over [--z-min, --z-max] (``metric.z_grid``)."""
    return _checked("z grid (--z-min/--z-max/--z-count)", metric.z_grid,
                    args.z_min, args.z_max, args.z_count)


def _write_or_stdout(writer, out_path: str | None) -> None:
    writer(sys.stdout if out_path in (None, "-") else out_path)


def cmd_gen_step(args: argparse.Namespace) -> None:
    edge_x = args.width // 2 if args.edge_x is None else args.edge_x
    img = _checked("step (--width/--height/--edge-x/--low/--high)", image.make_step_edge,
                   args.width, args.height, edge_x, args.low, args.high)
    image.save_pgm(img, args.out)
    print(f"wrote {args.width}x{args.height} step edge to {args.out}", file=sys.stderr)


def cmd_gen_texture(args: argparse.Namespace) -> None:
    img = _checked("texture (--width/--height/--seed)", image.make_texture,
                   args.width, args.height, args.seed)
    image.save_pgm(img, args.out)
    print(f"wrote {args.width}x{args.height} texture to {args.out}", file=sys.stderr)


def cmd_blur(args: argparse.Namespace) -> None:
    cfg = _optical_config(args)
    lens = _checked(_LENS, optics.LensState, args.z)
    scene = image.load_pgm(args.in_path)
    out = _checked(_LENS, optics.capture, scene, cfg, lens, image.NoiseSpec(0.0))
    image.save_pgm(out, args.out)
    print(f"blurred {args.in_path} at z={args.z}mm -> {args.out}", file=sys.stderr)


def cmd_measure(args: argparse.Namespace) -> None:
    img = image.load_pgm(args.in_path)
    window = _window_spec(args, img)
    d = metric.resolution(img, window, metric.MetricKind(args.metric))
    print(d)


def cmd_sweep(args: argparse.Namespace) -> None:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    curve = _checked("sweep (--z-min/--z-max/--z-count/--trials)", metric.sweep, scene, cfg, window,
                     metric.MetricKind(args.metric), _z_values(args), noise, args.trials)
    _write_or_stdout(curve.write_csv, args.out)


def cmd_autofocus(args: argparse.Namespace) -> None:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    params = _checked(
        _SEARCH, search.SearchParams, z_min=args.z_min, z_max=args.z_max,
        coarse_steps=args.coarse_steps, refine_iterations=args.refine_iterations,
        trials_per_eval=args.trials_per_eval, metric=metric.MetricKind(args.metric),
    )
    result = _checked(_SEARCH, search.autofocus, scene, cfg, window, noise, params)
    if args.trace_out is not None:
        result.write_trace_csv(args.trace_out)
    if result.at_boundary:
        print("warning: best focus sits on the search boundary; "
              "the true focus may lie outside the interval", file=sys.stderr)
    print(f"z_star_mm={result.z_star!r}")
    print(f"d_star={result.d_star!r}")
    print(f"evaluations={result.evaluations}")
    print(f"status={'at_boundary' if result.at_boundary else 'ok'}")


def cmd_stability(args: argparse.Namespace) -> None:
    cfg = _optical_config(args)
    noise = _noise_spec(args)
    lens = _checked(_LENS, optics.LensState, args.z)
    sizes = _sizes(args)
    scene = image.load_pgm(args.in_path)
    report = _checked("stability (--z/--sizes/--repeats/--cx/--cy)", bench.stability_study,
                      scene, cfg, lens, _center(args, scene), sizes, noise, args.repeats)
    _write_or_stdout(report.write_csv, args.out)


def cmd_compare(args: argparse.Namespace) -> None:
    cfg = _optical_config(args)
    sizes = _sizes(args)
    scene = image.load_pgm(args.in_path)
    window = _window_spec(args, scene)
    report = _checked("comparison (--z-min/--z-max/--z-count/--timing-repeats/--sizes/--cx/--cy)",
                      bench.compare_metrics, scene, cfg, window, _z_values(args),
                      args.timing_repeats, sizes)
    _write_or_stdout(report.write_csv, args.out)


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
    gen_step.add_argument("--edge-x", type=int, default=None,
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
                           help="number of equally spaced z samples (default %(default)s)")
    sweep_cmd.add_argument("--trials", type=int, default=1,
                           help="captures per z (default %(default)s)")
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
    af.add_argument("--coarse-steps", type=int, default=search.SearchParams.coarse_steps)
    af.add_argument("--refine-iterations", type=int,
                    default=search.SearchParams.refine_iterations)
    af.add_argument("--trials-per-eval", type=int, default=search.SearchParams.trials_per_eval)
    af.add_argument("--trace-out", default=None, help="probe trace CSV path")
    _window_flags(af)
    _metric_flag(af)
    _noise_flags(af, default_sigma=0.0)
    _optics_flags(af)
    af.set_defaults(handler=cmd_autofocus)

    stability = sub.add_parser("stability", help="window-size vs dispersion study")
    stability.add_argument("--in", dest="in_path", required=True, help="scene PGM path")
    stability.add_argument("--z", type=float, default=0.0,
                           help="lens displacement, mm (default %(default)s)")
    stability.add_argument("--sizes", default="5,9,17,31",
                           help="comma-separated window sizes (default %(default)s)")
    stability.add_argument("--repeats", type=int, default=10,
                           help="noisy captures per size (default %(default)s)")
    _center_flags(stability)
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
                         help="evaluations per timing cell (default %(default)s)")
    compare.add_argument("--sizes", default="5,9,17,31",
                         help="comma-separated window sizes to time (default %(default)s)")
    compare.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _window_flags(compare)
    _optics_flags(compare)
    compare.set_defaults(handler=cmd_compare)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--flag -1e-3`` pair written as ``--flag=-1e-3``.

    argparse reads a token that starts with "-" as a flag unless it looks
    like a plain negative number such as -0.5, so a negative value written
    with an exponent, or -inf, would leave its flag without a value. Every
    long flag takes a value but --help and its prefixes, "--" included.
    """
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and token.startswith("-")):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{flag}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
        return 0
    except (ValueError, OSError) as exc:
        message = str(exc)
    except MemoryError:
        message = "the run does not fit in memory"
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
