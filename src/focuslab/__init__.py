"""focuslab: defocus camera simulator, gradient focus metrics, autofocus search.

The pieces chain together like a bench setup: ``image`` provides scenes and
sensor noise, ``optics`` the thin-lens defocus model, ``metric`` the windowed
sharpness measure and focus curves, ``search`` the closed-loop lens-position
search, and ``bench`` the stability/timing studies. ``cli`` exposes all of it
as a command-line tool.
"""

from .bench import (
    MetricBenchReport,
    MetricTimingRow,
    StabilityReport,
    StabilityRow,
    compare_metrics,
    stability_study,
)
from .image import (
    Image,
    NoiseSpec,
    PgmFormatError,
    WindowSpec,
    add_noise,
    load_pgm,
    make_step_edge,
    make_texture,
    save_pgm,
)
from .metric import Camera, FocusCurve, FocusSample, MetricKind, resolution, sweep
from .optics import (
    BlurRadius,
    EdgeResponse,
    LensState,
    OpticalConfig,
    PsfKernel,
    blur_radius,
    capture,
    convolve,
    edge_response,
    line_spread,
    make_pillbox_psf,
    pillbox_size,
    theoretical_resolution,
)
from .search import AutofocusResult, SearchParams, TracePoint, autofocus

__version__ = "0.1.0"

__all__ = [
    "Image",
    "WindowSpec",
    "NoiseSpec",
    "PgmFormatError",
    "load_pgm",
    "save_pgm",
    "make_step_edge",
    "make_texture",
    "add_noise",
    "OpticalConfig",
    "LensState",
    "PsfKernel",
    "EdgeResponse",
    "BlurRadius",
    "blur_radius",
    "pillbox_size",
    "make_pillbox_psf",
    "convolve",
    "line_spread",
    "edge_response",
    "theoretical_resolution",
    "capture",
    "MetricKind",
    "FocusSample",
    "FocusCurve",
    "Camera",
    "resolution",
    "sweep",
    "SearchParams",
    "TracePoint",
    "AutofocusResult",
    "autofocus",
    "StabilityRow",
    "StabilityReport",
    "MetricTimingRow",
    "MetricBenchReport",
    "stability_study",
    "compare_metrics",
]
