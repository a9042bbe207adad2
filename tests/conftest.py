"""Deterministic test images, the scalar and median oracles and a memory
probe shared by the tests.

The scalar oracle is the one home of the specification's window walk: every
differential test cuts its windows with ``windows`` and runs them through
``spec_walk``.

The phantom and its generator come from the benchmark's frozen copy, so the
tests and the benchmark draw the same images.
"""

import tracemalloc

import numpy as np
from perfbench.phantom import make_rng, synthetic_mr_slice

from mrdenoise.pipeline import MODULE_NAMES, PixelClass, classify_window, restore_pixel


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


def windows(plane) -> list[tuple[list, list, list]]:
    """``(w3, w5, sorted w3)`` of every full 5x5 window of the 2-D *plane*,
    row by row, as lists of ints: the 3x3 core, the whole window and the core
    sorted, as the scalar specification takes them."""
    w5s = np.lib.stride_tricks.sliding_window_view(plane, (5, 5)).reshape(-1, 25).tolist()
    w3s = [w5[6:9] + w5[11:14] + w5[16:19] for w5 in w5s]
    return [(w3, w5, sorted(w3)) for w3, w5 in zip(w3s, w5s)]


def spec_walk(cut, th, gate_active: bool, skip_npc: bool = False, eq4_literal: bool = False):
    """The class and the restored value of each window of *cut*, as
    ``windows`` cuts them, from the scalar specification, and the counts of
    the stages it ran, by module name."""
    counters = dict.fromkeys(MODULE_NAMES, 0)
    classes, values = [], []
    for w3, w5, f in cut:
        counters["sorter"] += 1
        cls = classify_window(
            w3,
            w5,
            f,
            th,
            gate_active=gate_active,
            skip_noisy_pixel_check=skip_npc,
            weights_inside_abs=eq4_literal,
            counters=counters,
        )
        classes.append(cls)
        values.append(restore_pixel(cls, w3, w5, f, counters))
    return classes, values, counters


def scalar_oracle(img, cfg, gate_active: bool, skip_npc: bool = False):
    """Output, class counts and stage counts of one pass, from the scalar
    specification on every pixel."""
    cut = windows(np.pad(img, 2, mode="edge"))
    classes, values, counters = spec_walk(cut, cfg.thresholds, gate_active, skip_npc, cfg.eq4_literal_weights)
    out = np.array(values, np.uint8).reshape(img.shape)
    return out, {cls: classes.count(cls) for cls in PixelClass}, counters


def scalar_pass(img, cfg, gate_active: bool, skip_npc: bool = False) -> np.ndarray:
    """One classify-and-restore pass, pixel by pixel from the scalar specification."""
    return scalar_oracle(img, cfg, gate_active, skip_npc)[0]


def median_oracle(img, k: int) -> np.ndarray:
    """The k x k median of every pixel by sorting its edge-padded window."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(img, k // 2, mode="edge"), (k, k))
    return np.sort(windows.reshape(*img.shape, k * k), axis=-1)[..., k * k // 2]


def traced_peak(fn) -> int:
    """The peak of memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
