"""Deterministic test images, window helpers and a scalar-pass oracle shared by the tests."""

import numpy as np

from mrdenoise.image import as_gray
from mrdenoise.pipeline import classify_window, restore_pixel


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_image(seed: int, h: int, w: int) -> np.ndarray:
    return make_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)


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


def make_corpus(count: int = 5, size: int = 256) -> list[np.ndarray]:
    return [synthetic_mr_slice(seed, size=size) for seed in range(1, count + 1)]


def axis_step(n: int = 32, low: int = 40, high: int = 200, col: int = 16) -> np.ndarray:
    """Vertical step edge: columns >= col take the high value."""
    _, x = np.mgrid[0:n, 0:n]
    return np.where(x >= col, high, low).astype(np.uint8)


def slanted_step(n: int = 32, low: int = 40, high: int = 200, thresh: float = 24.0) -> np.ndarray:
    """Step edge along a slope-1/2 boundary; its just-inside pixels split a
    3x3 window 4/5, so they are visible to the sorted-gap edge test."""
    y, x = np.mgrid[0:n, 0:n]
    return np.where(x + 0.5 * y >= thresh, high, low).astype(np.uint8)


def scalar_pass(img, cfg, gate_active: bool, skip_npc: bool = False, counters=None) -> np.ndarray:
    """One classify-and-restore pass, pixel by pixel from the scalar specification.

    ``counters``, when given, is bumped per stage the specification runs.
    """
    padded = np.pad(img, 2, mode="edge").tolist()
    h, w = img.shape
    out = np.empty((h, w), np.uint8)
    for r in range(h):
        for c in range(w):
            w5 = [v for row in padded[r : r + 5] for v in row[c : c + 5]]
            w3 = w5[6:9] + w5[11:14] + w5[16:19]
            f = sorted(w3)
            if counters is not None:
                counters["sorter"] += 1
            cls = classify_window(
                w3,
                w5,
                f,
                cfg.thresholds,
                gate_active=gate_active,
                skip_noisy_pixel_check=skip_npc,
                weights_inside_abs=cfg.eq4_literal_weights,
                counters=counters,
            )
            out[r, c] = restore_pixel(cls, w3, w5, f, counters)
    return out


def pad_replicate(img, margin: int) -> np.ndarray:
    """Pad *img* on all sides by *margin* pixels, replicating edge values."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    arr = as_gray(img)
    if margin == 0:
        return arr.copy()
    return np.pad(arr, margin, mode="edge")


def window3(img, row: int, col: int) -> np.ndarray:
    """Extract the 3x3 neighborhood centered at (row, col).

    Returns the nine pixels P1..P9 as a flat array in row-major order;
    index 4 is the center. The full window must lie inside the image.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if not (1 <= row < h - 1 and 1 <= col < w - 1):
        raise ValueError(f"3x3 window at ({row}, {col}) exceeds {h}x{w} image bounds")
    return arr[row - 1 : row + 2, col - 1 : col + 2].reshape(9).copy()


def window5(img, row: int, col: int) -> np.ndarray:
    """Extract the 5x5 neighborhood centered at (row, col).

    Returns the 25 pixels P1..P25 as a flat array in row-major order;
    index 12 is the center. The full window must lie inside the image.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if not (2 <= row < h - 2 and 2 <= col < w - 2):
        raise ValueError(f"5x5 window at ({row}, {col}) exceeds {h}x{w} image bounds")
    return arr[row - 2 : row + 3, col - 2 : col + 3].reshape(25).copy()


def sort9(window) -> np.ndarray:
    """Sort the nine values of a 3x3 window into nondecreasing order F1..F9."""
    arr = np.asarray(window).reshape(-1)
    if arr.size != 9:
        raise ValueError(f"expected 9 window values, got {arr.size}")
    return np.sort(arr)
