"""Closed-loop, single-thread benchmark of focuslab's public operations.

    python3 perfbench/run.py --workload autofocus-512 --seed 1 --seconds 30 --trace 0

One caller issues each op only after the previous one returns. Every op's
result is checked outside the timed region. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from ops that alternate untraced and traced. The
line before it carries host facts, raw wall times and details such as the
tail percentile. Times are scaled for host speed (see ``hostspeed``).
Run it from the root of a source checkout: it imports focuslab from
``src/`` and refuses any other copy.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed to measure setup_s; the median is reported.
SETUP_STARTS = 5
PROBE_TIMEOUT_S = 60
# The warm-up op's index: its inputs are seeded like any op's, and the timed
# loop never reaches it, so it shares no input with a timed op.
WARMUP_INDEX = 2**31
# Share of loop time spent on the host-speed kernel after each op, and the
# kernel time around each set-up start.
SPEED_SHARE = 0.1
SETUP_SPEED_S = 0.1


def _import_focuslab() -> None:
    """Import focuslab from this checkout's src/, or exit without a result."""
    try:
        import focuslab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import focuslab from {SRC}: {exc}")
    if Path(focuslab.__file__).resolve().parent != SRC / "focuslab":
        sys.exit(f"perfbench: focuslab was imported from {focuslab.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small scenes and one set-up start, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _measure_setup(args, speed) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from process start to ready, per fresh start.

    Ready means focuslab is imported and the workload's scenes are built.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    starts = []
    for _ in range(1 if args.tiny else SETUP_STARTS):
        speed.sample(SETUP_SPEED_S)
        start = time.perf_counter_ns()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter_ns()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        starts.append((start, ready))
    speed.sample(SETUP_SPEED_S)
    return [((end - start) / 1e9, (end - start) / 1e9 * speed.scale(start, end))
            for start, end in starts]


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - 1 - j


def _host() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class _Loop:
    """Issue ops one after another, time each call, check each result."""

    def __init__(self, workload, speed):
        self.workload = workload
        self.speed = speed
        self.attempted = 0
        self.completed = 0
        self.failures: list[str] = []
        # Every timed op, failed ones too: (traced, op index, start ns, end ns).
        self.timed: list[tuple[bool, int, int, int]] = []
        self.probes: list[int] = []
        self.captures: list[int] = []
        self.focus_errors_mm: list[float] = []

    def op(self, index: int, tracer=None, record: bool = True) -> None:
        wl = self.workload
        args = wl.inputs(index)
        result, error = None, None
        if tracer is not None:
            tracer.begin(index)
        start = time.perf_counter_ns()
        try:
            result = wl.run(args)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.end(start, end)
        self.speed.sample(SPEED_SHARE * (end - start) / 1e9)
        if error is None:
            error = wl.check(index, args, result)
        self.attempted += 1
        if record:
            self.timed.append((tracer is not None, index, start, end))
        if error is not None:
            self.failures.append(f"op {index}: {error}")
            return
        if not record:
            return
        self.completed += 1
        probes, captures = wl.counts(result)
        self.probes.append(probes)
        self.captures.append(captures)
        focus_error = wl.focus_error_mm(result)
        if focus_error is not None:
            self.focus_errors_mm.append(focus_error)

    def scales(self) -> dict[int, float]:
        """Host-speed scale of each timed op, by op index."""
        return {index: self.speed.scale(start, end) for _, index, start, end in self.timed}

    def latencies_ms(self, traced: bool, scales: dict[int, float] | None) -> list[float]:
        return [(end - start) / 1e6 * (scales[i] if scales else 1.0)
                for t, i, start, end in self.timed if t == traced]


def _timings(loop: _Loop, lat_ms: list[float], setup_s: list[float]) -> dict:
    tail_ms, _, _ = _tail(lat_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": loop.completed / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
    }


def _end_to_end(loop: _Loop, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    scaled_ms = loop.latencies_ms(False, loop.scales())
    scaled = _timings(loop, scaled_ms, [s for _, s in setup])
    # The tail is reported beside the metrics, not as one: on a 14 ms op it
    # is set by host stalls, and its run-to-run spread reached the bound.
    tail_ms = scaled.pop("op_tail_ms")
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _, tail_pct, beyond = _tail(scaled_ms)
    detail = {
        "raw_wall": _timings(loop, loop.latencies_ms(False, None), [r for r, _ in setup]),
        "setup_starts_s": [r for r, _ in setup],
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(scaled_ms),
    }
    return metrics, detail


def _per_layer(loop: _Loop, tracer) -> tuple[dict, dict]:
    from perfbench.tracer import COMPUTED

    scales = loop.scales()
    layer, not_observed = tracer.metrics(scales)
    untraced = statistics.fmean(loop.latencies_ms(False, scales))
    traced = statistics.fmean(loop.latencies_ms(True, scales))
    raw_untraced = loop.latencies_ms(False, None)
    units = {"self_ms": "ms", "px_in": "px", "useful_frac": "frac", "samples": "samples",
             "calls": "calls", "reuse_frac": "frac", "subsample_tests": "tests", "px": "px"}
    metrics = {name: (value, units[name.rsplit(".", 1)[1]]) for name, value in layer.items()}
    metrics["op.probes"] = (statistics.fmean(loop.probes or [0]), "probes")
    metrics["op.captures"] = (statistics.fmean(loop.captures or [0]), "captures")
    metrics["trace.op_ms"] = (traced, "ms")
    metrics["trace.overhead_frac"] = (1.0 - untraced / traced, "frac")
    detail = {
        "not_observed": not_observed,
        "computed_counters": [m for m in COMPUTED if m in metrics],
        "untraced_op_ms": untraced,
        "raw_wall": {
            "untraced_op_ms": statistics.fmean(raw_untraced),
            "traced_op_ms": statistics.fmean(loop.latencies_ms(True, None)),
        },
        "traced_ops": tracer.ops,
        "untraced_ops": len(raw_untraced),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse(argv)
    # Pinned before numpy loads; the set-up probes inherit them.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    _import_focuslab()
    from perfbench.hostspeed import REFERENCE_MS, HostSpeed
    from perfbench.workloads import WORKLOADS

    try:
        workload_cls = WORKLOADS[args.workload]
    except KeyError:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        workload_cls(args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    speed = HostSpeed()
    setup = [] if args.trace else _measure_setup(args, speed)
    workload = workload_cls(args.seed, args.tiny)
    loop = _Loop(workload, speed)
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer(workload.op_name)

    # Warm-up on its own input lets lazy set-up finish before timing.
    loop.op(WARMUP_INDEX, record=False)
    deadline = time.perf_counter() + args.seconds
    index = 0
    # Trace runs alternate untraced and traced ops: the overhead is paired.
    while time.perf_counter() < deadline or index < (2 if args.trace else 1):
        traced = tracer is not None and index % 2 == 1
        loop.op(index, tracer if traced else None)
        index += 1

    if tracer is None:
        metrics, detail = _end_to_end(loop, setup)
    else:
        metrics, detail = _per_layer(loop, tracer)
    failed = len(loop.failures)
    if loop.focus_errors_mm:
        detail["z_err_p50_um"] = statistics.median(loop.focus_errors_mm) * 1e3
    samples = speed.kernel_ms
    detail["host_speed"] = {"reference_ms": REFERENCE_MS, "kernel_ms_p50": statistics.median(samples),
                            "kernel_ms_min": min(samples), "kernel_ms_max": max(samples)}
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, host=_host(), failures=loop.failures[:20])
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans = OUT / f"{stem}.spans.jsonl"
        tracer.write(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Replace this script's directory on the path with the checkout's src/
    # and root, so focuslab and the perfbench package load from the checkout.
    sys.path[0:1] = [str(SRC), str(ROOT)]
    sys.exit(main())
