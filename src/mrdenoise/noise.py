"""Seeded impulse-noise injection with ground-truth corruption masks.

One impulse model: a pixel is replaced with probability ``low`` by a uniform
draw from [0, m] and with probability ``high`` by one from [255 - m, 255].
Random-valued noise is the low range alone with m = 255; fixed-valued noise
sets both (m <= 127; m = 0 is classic salt-and-pepper noise).

Randomness is drawn from ``numpy.random.Generator`` backed by the PCG64
bit generator. Each pixel consumes exactly two uniform doubles in raster
order: first the replace/keep decision, then the replacement value. This
fixed draw order makes corrupted corpora reproducible bit-for-bit from
(image, spec) alone.

A mask is a 2-D boolean array, True where a pixel was replaced. It is
stored as a {0, 255} PGM: ``write_pgm(path, mask_to_gray(mask))`` writes
it and ``read_pgm(path) == 255`` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import PEAK, _require_int, as_gray

__all__ = ["NoiseSpec", "inject_rvin", "inject_fvin", "mask_to_gray"]


# noise kind -> the NoiseSpec fields its injector reads
_USES = {"rvin": ("p",), "fvin": ("p1", "p2", "m")}


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of an impulse-noise injection.

    kind is ``"rvin"`` (random-valued, uses ``p``) or ``"fvin"``
    (fixed-valued, uses ``p1``/``p2``/``m``; total density is p1 + p2).
    A field its kind does not use must stay zero.
    """

    kind: str
    p: float = 0.0
    p1: float = 0.0
    p2: float = 0.0
    m: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _USES:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("p", "p1", "p2", "m"):
            if name not in _USES[self.kind] and getattr(self, name) != 0:
                raise ValueError(f"{self.kind} noise does not use {name} (it uses {', '.join(_USES[self.kind])})")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        # written so that a NaN probability fails the test
        if not (self.p1 >= 0.0 and self.p2 >= 0.0 and self.p1 + self.p2 <= 1.0):
            raise ValueError("p1 and p2 must be nonnegative with p1 + p2 <= 1")
        for label, value in (("margin m", self.m), ("seed", self.seed)):
            _require_int(label, value)
        if not 0 <= self.m <= 127:
            raise ValueError(f"margin m must lie in [0, 127], got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def rvin(cls, p: float, seed: int = 0) -> "NoiseSpec":
        return cls(kind="rvin", p=p, seed=seed)

    @classmethod
    def fvin(cls, p1: float, p2: float, m: int = 0, seed: int = 0) -> "NoiseSpec":
        return cls(kind="fvin", p1=p1, p2=p2, m=m, seed=seed)


def _inject(img, seed, low: float, high: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The impulse model of the module docstring; returns ``(noisy, mask)``."""
    arr = as_gray(img)
    # (h, w, 2) doubles, filled in C order = two draws per pixel, raster order
    draws = np.random.Generator(np.random.PCG64(seed)).random(arr.shape + (2,))
    decision, u = draws[..., 0], draws[..., 1]
    mask = decision < low + high
    # floor(s * u) <= s - 1 for every double u < 1 and integer s <= 256, so
    # with s = m + 1 each offset lies in [0, m] and the uint8 cast is exact
    offsets = np.multiply(u, m + 1, out=u).astype(np.uint8)
    # a high-range offset moves up by 255 - m, to at most 255; for m = 255
    # (RVIN) that shift is 0 on every pixel, so it is skipped
    if m != PEAK:
        offsets += np.uint8(PEAK - m) * (decision >= low)
    # a uint8 select: offsets - arr wraps modulo 256, and adding it back to arr
    # wraps to the offset exactly, so each pixel is arr + 0 or the offset
    return arr + mask * (offsets - arr), mask


def inject_rvin(img, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt each pixel independently with probability ``spec.p``.

    A corrupted pixel takes a value drawn uniformly from [0, 255]; it may
    coincide with the original value, and the mask records it as corrupted
    regardless. Returns ``(noisy, mask)`` with a boolean mask of replaced
    pixels.
    """
    if spec.kind != "rvin":
        raise ValueError(f"inject_rvin requires an rvin spec, got {spec.kind!r}")
    return _inject(img, spec.seed, spec.p, 0.0, PEAK)


def inject_fvin(img, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt pixels toward the intensity extremes.

    With probability ``p1`` a pixel is replaced by a uniform draw from
    [0, m], with probability ``p2`` by a uniform draw from [255 - m, 255]
    (both ranges inclusive), otherwise it is kept. Returns ``(noisy, mask)``.
    """
    if spec.kind != "fvin":
        raise ValueError(f"inject_fvin requires an fvin spec, got {spec.kind!r}")
    return _inject(img, spec.seed, spec.p1, spec.p2, spec.m)


def mask_to_gray(mask) -> np.ndarray:
    """Render a boolean corruption mask as a {0, 255} grayscale image."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.dtype != np.bool_:
        raise ValueError("mask must be a 2-D boolean array")
    return np.where(m, np.uint8(PEAK), np.uint8(0))

