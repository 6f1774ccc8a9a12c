"""Outside-in tracing of focuslab's layers, from the benchmark's own files.

``Tracer.begin`` swaps wrappers in for the module attributes through which
the sweep, search and stability code call each layer, and ``Tracer.end``
puts the originals back, so untraced ops run focuslab untouched. Each
wrapped call records a span (name, start, end, op id, parent span); spans
stay in memory until ``write``. Work counters are computed here from each
call's arguments, not read from the program, and are labelled as computed.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from focuslab.image import NoiseSpec
from focuslab.optics import DEFAULT_SUPERSAMPLE

# Modules whose callers bind the layer functions, and the span name of each.
CALLERS = ("focuslab.metric", "focuslab.search", "focuslab.bench")
LAYERS = {
    "make_pillbox_psf": "optics.psf",
    "convolve": "optics.convolve",
    "add_noise": "image.add_noise",
    "resolution": "metric.resolution",
}
DERIVED = "image.derived"

# Per-op metrics derived from call arguments rather than measured.
COMPUTED = (
    "optics.convolve.px_in",
    "optics.convolve.useful_frac",
    "image.add_noise.samples",
    "image.add_noise.useful_frac",
    "optics.psf.calls",
    "optics.psf.reuse_frac",
    "optics.psf.subsample_tests",
    "metric.resolution.calls",
    "metric.resolution.px",
)


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    op_id: int
    parent: int  # index of the parent span in Tracer.spans; -1 for an op span


# Descriptors turn one wrapped call into the facts the counters need. They
# take the call's own parameters so keyword calls bind as they would there.
def _psf_facts(kernel, radius_px, supersample=DEFAULT_SUPERSAMPLE):
    return radius_px, supersample, kernel.size


def _convolve_facts(blurred, scene, psf):
    return id(scene), id(blurred), scene.pixels.shape, psf.size


def _noise_facts(noisy, image, noise):
    return id(image), id(noisy), image.pixels.size, noise.sigma


def _resolution_facts(value, image, window, kind):
    x0, y0 = window.origin()
    return id(image), (x0, y0, window.n)


_FACTS = {
    "optics.psf": _psf_facts,
    "optics.convolve": _convolve_facts,
    "image.add_noise": _noise_facts,
    "metric.resolution": _resolution_facts,
}


@dataclass(eq=False)
class _Frame:
    """An image a layer produced: pixels of work spent on it, windows read from it."""

    work_px: int
    parent: _Frame | None = None
    windows: set = field(default_factory=set)


def _union_px(windows: set) -> int:
    if len(windows) == 1:
        (_, _, n), = windows
        return n * n
    x0 = min(x for x, _, _ in windows)
    y0 = min(y for _, y, _ in windows)
    x1 = max(x + n for x, _, n in windows)
    y1 = max(y + n for _, y, n in windows)
    mask = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    for x, y, n in windows:
        mask[y - y0 : y - y0 + n, x - x0 : x - x0 + n] = True
    return int(mask.sum())


def _ratio(num: float, den: float) -> float:
    """Useful share of the work done; 1.0 when no work was done, so none was wasted."""
    return num / den if den else 1.0


class Tracer:
    """Span and counter recorder for the traced ops of one benchmark run.

    ``op_name`` names the public call each op makes; its self time, the op
    span minus its layer spans, is the orchestration cost reported as ``op.self_ms``.
    """

    def __init__(self, op_name: str):
        self.op_name = op_name
        self.spans: list[Span | None] = []
        self.ops = 0
        self._stack: list[int] = []
        self._op_id = -1
        self._calls: list[tuple[str, tuple]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._totals: defaultdict[str, float] = defaultdict(float)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self._calls
        facts = _FACTS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, self._op_id, parent)
            if facts is not None:
                calls.append((name, facts(result, *args, **kwargs)))
            return result

        traced.__wrapped__ = fn
        return traced

    def _swap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def begin(self, op_id: int) -> None:
        """Install the wrappers and open the op span; call right before timing."""
        for module_name in CALLERS:
            module = importlib.import_module(module_name)
            for attr, name in LAYERS.items():
                if hasattr(module, attr):
                    self._swap(module, attr, name)
        self._swap(NoiseSpec, "derived", DERIVED)
        self._op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(None)

    def end(self, start_ns: int, end_ns: int) -> None:
        """Close the op span with the benchmark's own timestamps, then unwrap."""
        index = self._stack.pop()
        self.spans[index] = Span(self.op_name, start_ns, end_ns, self._op_id, -1)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.ops += 1
        self._count_op()

    # -- counters ------------------------------------------------------------

    def _count_op(self) -> None:
        """Fold this op's call facts into the run totals (outside the timed span)."""
        t = self._totals
        live: dict[int, _Frame] = {}  # id -> latest frame; ids may be reused
        blurred: list[_Frame] = []
        noisy: list[_Frame] = []
        psf_keys = set()
        for name, facts in self._calls:
            if name == "optics.psf":
                radius, supersample, size = facts
                t["psf.calls"] += 1
                psf_keys.add((radius, supersample))
                if size > 1:
                    t["psf.subsample_tests"] += size * size * supersample * supersample
            elif name == "optics.convolve":
                src, out, (h, w), k = facts
                if k > 1:
                    t["convolve.px_in"] += (h + k - 1) * (w + k - 1)
                    live[out] = _Frame(h * w)
                    blurred.append(live[out])
            elif name == "image.add_noise":
                src, out, px, sigma = facts
                if sigma > 0:
                    live[out] = _Frame(px, parent=live.get(src))
                    noisy.append(live[out])
            elif name == "metric.resolution":
                img, window = facts
                t["resolution.calls"] += 1
                t["resolution.px"] += window[2] ** 2
                frame = live.get(img)
                while frame is not None:
                    frame.windows.add(window)
                    frame = frame.parent
        t["psf.distinct"] += len(psf_keys)
        for key, frames in (("convolve", blurred), ("noise", noisy)):
            t[f"{key}.work"] += sum(f.work_px for f in frames)
            t[f"{key}.read"] += sum(_union_px(f.windows) for f in frames if f.windows)
        self._calls.clear()

    # -- results -------------------------------------------------------------

    def self_ns(self, scales: dict[int, float]) -> dict[str, float]:
        """Total self time per span name: duration minus direct children,
        each multiplied by the host-speed scale of its op."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end_ns - s.start_ns
        total: defaultdict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            total[s.name] += (s.end_ns - s.start_ns - c) * scales[s.op_id]
        return dict(total)

    def metrics(self, scales: dict[int, float]) -> tuple[dict[str, float], list[str]]:
        """Per-op layer metrics, and the layers whose wrappers were never entered.

        ``scales`` maps each op id to its host-speed scale.
        """
        per_op = 1.0 / self.ops
        self_ns = self.self_ns(scales)
        t = self._totals
        layer_metrics = {
            "optics.convolve": {
                "px_in": t["convolve.px_in"] * per_op,
                "useful_frac": _ratio(t["convolve.read"], t["convolve.work"]),
            },
            "image.add_noise": {
                "samples": t["noise.work"] * per_op,
                "useful_frac": _ratio(t["noise.read"], t["noise.work"]),
            },
            "optics.psf": {
                "calls": t["psf.calls"] * per_op,
                "reuse_frac": 1.0 - _ratio(t["psf.distinct"], t["psf.calls"]),
                "subsample_tests": t["psf.subsample_tests"] * per_op,
            },
            "metric.resolution": {
                "calls": t["resolution.calls"] * per_op,
                "px": t["resolution.px"] * per_op,
            },
            DERIVED: {},
        }
        out = {"op.self_ms": self_ns[self.op_name] * per_op / 1e6}
        not_observed = []
        for layer, extra in layer_metrics.items():
            if layer not in self_ns:
                not_observed.append(layer)
                continue
            out[f"{layer}.self_ms"] = self_ns[layer] * per_op / 1e6
            out.update({f"{layer}.{k}": v for k, v in extra.items()})
        return out, not_observed

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")
