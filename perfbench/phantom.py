"""Frozen input generators for the benchmark.

``make_rng``, ``_blur121`` and ``synthetic_mr_slice`` are verbatim copies of
the phantom builders in ``tests/conftest.py``, kept here so that later test
refactors cannot change the benchmark's inputs. The noise injectors and the
PGM writer below restate the package's documented formats (two PCG64
doubles per pixel in raster order; P5/P2 with maxval 255) for the same
reason, and double as the independent reference the correctness gate uses
for ``eval``.
"""

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _blur121(arr: np.ndarray) -> np.ndarray:
    """One separable 1-2-1 binomial smoothing pass with replicated borders."""
    p = np.pad(arr, ((0, 0), (1, 1)), mode="edge").astype(np.float64)
    horiz = (p[:, :-2] + 2.0 * p[:, 1:-1] + p[:, 2:]) / 4.0
    p = np.pad(horiz, ((1, 1), (0, 0)), mode="edge")
    return (p[:-2, :] + 2.0 * p[1:-1, :] + p[2:, :]) / 4.0


def synthetic_mr_slice(seed: int, size: int = 256, blur_passes: int = 2) -> np.ndarray:
    """Deterministic brain-slice phantom: elliptical ring, smooth interior
    texture, dark pockets, a few lesion-like steps, softened transitions."""
    g = make_rng(seed)
    n = size
    y, x = np.mgrid[0.0:n, 0.0:n]
    cy = n * (0.5 + g.uniform(-0.03, 0.03))
    cx = n * (0.5 + g.uniform(-0.03, 0.03))
    ry = n * g.uniform(0.33, 0.38)
    rx = n * g.uniform(0.38, 0.43)
    r = np.sqrt(((x - cx) / rx) ** 2 + ((y - cy) / ry) ** 2)

    img = np.full((n, n), 14.0)
    img[(r >= 0.93) & (r < 1.02)] = 205.0
    interior = r < 0.93
    f1 = g.uniform(1.2, 2.8)
    f2 = g.uniform(1.2, 2.8)
    ph1 = g.uniform(0, 2 * np.pi)
    ph2 = g.uniform(0, 2 * np.pi)
    texture = (
        118.0
        + 46.0 * np.cos(2 * np.pi * f1 * (x - cx) / n + ph1)
        * np.cos(2 * np.pi * f2 * (y - cy) / n + ph2)
        + 18.0 * np.cos(2 * np.pi * (f1 + f2) * (x + y - cx - cy) / (2 * n) + ph1 - ph2)
    )
    img[interior] = texture[interior]
    for sign in (-1.0, 1.0):
        vcx = cx + sign * n * g.uniform(0.04, 0.07)
        vcy = cy - n * 0.02
        vr = np.sqrt(((x - vcx) / (n * 0.045)) ** 2 + ((y - vcy) / (n * 0.11)) ** 2)
        img[(vr < 1.0) & interior] = 38.0
    for _ in range(3):
        lcx = cx + n * g.uniform(-0.22, 0.22)
        lcy = cy + n * g.uniform(-0.2, 0.2)
        lr = n * g.uniform(0.02, 0.05)
        amp = 55.0 if g.random() < 0.5 else -55.0
        d = np.sqrt((x - lcx) ** 2 + (y - lcy) ** 2)
        img[(d < lr) & interior] += amp
    for _ in range(blur_passes):
        img = _blur121(img)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)



# ---- frozen noise models and PGM encoding (not copied from the package) ----


def rvin(img: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Random-valued impulse noise: replace with probability p by floor(u*256)."""
    draws = make_rng(seed).random(img.shape + (2,))
    values = np.minimum((draws[..., 1] * 256).astype(np.int64), 255).astype(np.uint8)
    return np.where(draws[..., 0] < p, values, img)


def fvin(img: np.ndarray, p1: float, p2: float, m: int, seed: int) -> np.ndarray:
    """Fixed-valued impulse noise: [0, m] with probability p1, [255-m, 255] with p2."""
    draws = make_rng(seed).random(img.shape + (2,))
    low = draws[..., 0] < p1
    high = ~low & (draws[..., 0] < p1 + p2)
    offsets = np.minimum((draws[..., 1] * (m + 1)).astype(np.int64), m)
    return np.where(low, offsets, np.where(high, 255 - m + offsets, img)).astype(np.uint8)


def pgm_bytes(img: np.ndarray, ascii_format: bool = False) -> bytes:
    """Encode a uint8 image as binary P5 or ASCII P2 (one raster row per line)."""
    h, w = img.shape
    if not ascii_format:
        return f"P5\n{w} {h}\n255\n".encode() + img.tobytes()
    rows = (" ".join(map(str, row)) for row in img.tolist())
    return f"P2\n{w} {h}\n255\n".encode() + "\n".join(rows).encode() + b"\n"
