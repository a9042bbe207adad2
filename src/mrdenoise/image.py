"""8-bit grayscale images: validation and quality metrics.

Images are plain 2-D ``numpy.uint8`` arrays, row-major with the origin at
the top-left corner. All functions treat their inputs as read-only and
return fresh arrays, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "PEAK",
    "as_gray",
    "mse",
    "psnr",
]

PEAK = 255


def _require_int(name: str, value) -> int:
    """*value* as an int, or a ValueError naming *name* when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_gray(img) -> np.ndarray:
    """Validate *img* as an 8-bit grayscale image and return it as uint8.

    Accepts any 2-D array-like of integers in [0, 255]. A uint8 array
    passes through unchanged (no copy); other integer dtypes are
    range-checked and converted.
    """
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("image must contain at least one pixel")
    if arr.dtype == np.uint8:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"expected integer intensities, got dtype {arr.dtype}")
    if int(arr.min()) < 0 or int(arr.max()) > PEAK:
        raise ValueError(f"intensities must lie in [0, {PEAK}]")
    return arr.astype(np.uint8)


def mse(a, b) -> float:
    """Mean squared error between two same-sized images.

    The squared differences are accumulated exactly in integers; the only
    floating-point step is the final division, so the result is
    bit-reproducible.
    """
    x = as_gray(a)
    y = as_gray(b)
    if x.shape != y.shape:
        raise ValueError(f"image dimensions differ: {x.shape} vs {y.shape}")
    diff = x.astype(np.int64) - y.astype(np.int64)
    return int(np.sum(diff * diff)) / x.size


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in decibels, with peak fixed at 255.

    Identical images have zero error and are reported as infinite PSNR.
    """
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / err)
