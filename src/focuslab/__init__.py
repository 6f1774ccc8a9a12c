"""focuslab: defocus camera simulator, gradient focus metrics, autofocus search.

The pieces chain together like a bench setup: ``image`` provides scenes and
sensor noise, ``optics`` the thin-lens defocus model, ``metric`` the windowed
sharpness measure and focus curves, ``search`` the closed-loop lens-position
search, and ``bench`` the stability/timing studies. ``cli`` exposes all of it
as a command-line tool.

Each module's ``__all__`` is its public surface, and the package exports
their union in chain order.
"""

from . import bench, image, metric, optics, search
from .image import *  # noqa: F403
from .optics import *  # noqa: F403
from .metric import *  # noqa: F403
from .search import *  # noqa: F403
from .bench import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*image.__all__, *optics.__all__, *metric.__all__, *search.__all__, *bench.__all__]
