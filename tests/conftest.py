"""Deterministic test images and a scalar-pass oracle shared by the tests.

The phantom and its generator come from the benchmark's frozen copy, so the
tests and the benchmark draw the same images.
"""

import numpy as np
from perfbench.phantom import make_rng, synthetic_mr_slice

from mrdenoise.pipeline import classify_window, restore_pixel


def random_image(seed: int, h: int, w: int) -> np.ndarray:
    return make_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)


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
