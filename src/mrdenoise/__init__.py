"""Impulse-noise detection and edge-preserving restoration for 8-bit grayscale images.

The package provides seeded noise injectors, window-level noise/edge
classifiers, adaptive restoration filters, an iterative pipeline that
runs on whole frames or streams rows with bit-identical results,
median-filter baselines, PGM I/O, PSNR metrics, and a CLI (``mrdenoise``).
Its public names are those of its modules' ``__all__`` lists.
"""

from . import detect, image, noise, pgm, pipeline, restore, stream
from .detect import *
from .image import *
from .noise import *
from .pgm import *
from .pipeline import *
from .restore import *
from .stream import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *detect.__all__,
    *image.__all__,
    *noise.__all__,
    *pgm.__all__,
    *pipeline.__all__,
    *restore.__all__,
    *stream.__all__,
]
