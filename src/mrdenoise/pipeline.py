"""Per-pixel classification, restoration, and the iterative frame pipeline.

Every pixel of a replication-padded frame is classified by a fixed
decision tree and restored by the filter matched to its class:

1. sorted-gap edge test: edge windows go to step 2, the rest to step 3.
2. directional-distance test: a noisy edge is repaired along its flattest
   direction; a clean edge is kept when enough neighbors resemble the
   center, otherwise it is treated as a noisy edge.
3. disorder test: structurally chaotic centers are repaired from the most
   alike symmetric pair.
4. extremum-proximity test: candidates near the window extremes are
   rescued when similar to their neighbors, otherwise smoothed by the
   median-rank average; everything else is kept.

Iterations are double-buffered: each pass reads only the frozen output of
the previous pass, which makes per-pixel work order-independent and
results identical for any worker count. In the first pass of the default
schedule the candidate rescue is bypassed (heavy noise makes neighbor
similarity meaningless), so candidates are smoothed unconditionally.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .detect import (
    FAR_PIXELS,
    NEAR_PIXELS,
    Thresholds,
    disorder,
    noisy_pixel,
    similarity,
    type1_edge,
    type2_edge,
)
from .image import as_gray
from .restore import _PAIRS, average_restore, type1_edge_preserve, type2_edge_preserve

__all__ = [
    "PixelClass",
    "PipelineConfig",
    "classify",
    "classify_window",
    "restore_pixel",
    "denoise_iteration",
    "denoise",
    "denoise_with_stats",
    "median_filter",
    "write_class_stats_csv",
    "MIN_SIZE",
]

MIN_SIZE = 5


class PixelClass(IntEnum):
    """Classification outcome driving the choice of restoration."""

    KEEP_EDGE = 0
    NOISY_EDGE = 1
    DISORDERED = 2
    NOISY_SMOOTH = 3
    KEEP_SMOOTH = 4
    RESCUED_CANDIDATE = 5

    @property
    def label(self) -> str:
        """CamelCase label used in stats CSV output."""
        return _LABELS[self]


_LABELS = {
    PixelClass.KEEP_EDGE: "KeepEdge",
    PixelClass.NOISY_EDGE: "NoisyEdge",
    PixelClass.DISORDERED: "Disordered",
    PixelClass.NOISY_SMOOTH: "NoisySmooth",
    PixelClass.KEEP_SMOOTH: "KeepSmooth",
    PixelClass.RESCUED_CANDIDATE: "RescuedCandidate",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Thresholds and schedule options for the full denoising run.

    ``iteration1_skips_similarity_gate`` restores first-pass candidates
    without the similarity rescue (the default schedule);
    ``iteration1_skips_noisy_pixel_check`` instead disables the candidate
    path entirely in the first pass and takes precedence when both are
    set. ``eq4_literal_weights`` switches the directional distance to the
    variant that applies the half weight inside the absolute value.
    """

    thresholds: Thresholds = field(default_factory=Thresholds)
    iterations: int = 2
    iteration1_skips_similarity_gate: bool = True
    iteration1_skips_noisy_pixel_check: bool = False
    eq4_literal_weights: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


def classify_window(
    w3,
    w5,
    f,
    thresholds: Thresholds,
    *,
    gate_active: bool = True,
    skip_noisy_pixel_check: bool = False,
    weights_inside_abs: bool = False,
    counters: dict | None = None,
) -> PixelClass:
    """Classify one pixel from its 3x3 window, 5x5 window, and sorted values.

    ``counters``, when given, is bumped per classifier stage actually
    evaluated; the stream engine's per-stage counts follow the same rules.
    """
    th = thresholds
    if counters is not None:
        counters["type1_edge_detector"] += 1
    if type1_edge(f, th.t1):
        if counters is not None:
            counters["type2_edge_detector"] += 1
        if type2_edge(w5, th.t2, weights_inside_abs=weights_inside_abs):
            return PixelClass.NOISY_EDGE
        if counters is not None:
            counters["similarity_checker"] += 1
        if similarity(w3, th.t4, th.t5):
            return PixelClass.KEEP_EDGE
        return PixelClass.NOISY_EDGE
    if counters is not None:
        counters["disorder_analyzer"] += 1
    if disorder(int(w3[4]), f, th.t3):
        return PixelClass.DISORDERED
    if skip_noisy_pixel_check:
        return PixelClass.KEEP_SMOOTH
    if counters is not None:
        counters["noisy_pixel_checker"] += 1
    if not noisy_pixel(int(w3[4]), f, th.t4):
        return PixelClass.KEEP_SMOOTH
    if not gate_active:
        return PixelClass.NOISY_SMOOTH
    if counters is not None:
        counters["similarity_checker"] += 1
    if similarity(w3, th.t4, th.t5):
        return PixelClass.RESCUED_CANDIDATE
    return PixelClass.NOISY_SMOOTH


def classify(
    img_padded,
    row: int,
    col: int,
    cfg: PipelineConfig | None = None,
    *,
    gate_active: bool = True,
) -> PixelClass:
    """Classify the pixel at (row, col) of an already padded image.

    The full 5x5 window must exist around (row, col).
    """
    cfg = cfg or PipelineConfig()
    arr = as_gray(img_padded)
    h, w = arr.shape
    if not (2 <= row < h - 2 and 2 <= col < w - 2):
        raise ValueError(f"5x5 window at ({row}, {col}) exceeds {h}x{w} image bounds")
    w5 = arr[row - 2 : row + 3, col - 2 : col + 3].ravel().tolist()
    w3 = [w5[6], w5[7], w5[8], w5[11], w5[12], w5[13], w5[16], w5[17], w5[18]]
    return classify_window(
        w3,
        w5,
        sorted(w3),
        cfg.thresholds,
        gate_active=gate_active,
        weights_inside_abs=cfg.eq4_literal_weights,
    )


def restore_pixel(pixel_class: PixelClass, w3, w5, f, counters: dict | None = None) -> int:
    """Restored intensity for a pixel of the given class.

    Kept classes return the original center; noisy edges are repaired
    along their flattest direction, disordered centers from the most
    alike symmetric pair, and noisy smooth pixels by the median-rank
    average.
    """
    if pixel_class is PixelClass.NOISY_EDGE:
        if counters is not None:
            counters["type2_edge_preserve_filter"] += 1
        return type2_edge_preserve(w5)
    if pixel_class is PixelClass.DISORDERED:
        if counters is not None:
            counters["type1_edge_preserve_filter"] += 1
        return type1_edge_preserve(w3)
    if pixel_class is PixelClass.NOISY_SMOOTH:
        if counters is not None:
            counters["average_filter"] += 1
        return average_restore(f)
    return int(w3[4])


def _window_planes(padded: np.ndarray, size: int) -> list[np.ndarray]:
    """Shifted views of a 2-pixel-padded frame, one per window position."""
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    off = (5 - size) // 2
    return [
        padded[off + dr : off + dr + h, off + dc : off + dc + w]
        for dr in range(size)
        for dc in range(size)
    ]


def _iterate_block(
    padded: np.ndarray,
    th: Thresholds,
    gate_active: bool,
    skip_npc: bool,
    weights_inside_abs: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized classify + restore over one padded block.

    Returns the restored block, its class plane, and the number of edge
    pixels the directional test alone marks noisy (those skip the
    similarity check). All arithmetic is exact integer work mirroring the
    scalar stage functions, so frame and stream outputs agree bit for bit.
    """
    p3 = _window_planes(padded, 3)
    center = p3[4]
    f = np.sort(np.stack(p3), axis=0)

    edge = (f[4] - f[3] > th.t1) | (f[5] - f[4] > th.t1)
    sim_count = np.zeros(center.shape, np.int32)
    for i in (0, 1, 2, 3, 5, 6, 7, 8):
        sim_count += np.abs(p3[i] - center) <= th.t4
    similar = sim_count >= th.t5
    disordered = (
        (np.abs(f[5] - center) > th.t3)
        & (np.abs(center - f[3]) > th.t3)
        & (np.abs(center - f[4]) > th.t3)
    )
    candidate = (f[8] - center < th.t4) | (center - f[0] < th.t4)

    p5 = _window_planes(padded, 5)
    d_half = []
    for (n1, n2), (f1, f2) in zip(NEAR_PIXELS, FAR_PIXELS):
        near = np.abs(center - p5[n1]) + np.abs(center - p5[n2])
        if weights_inside_abs:
            far = np.abs(2 * center - p5[f1]) + np.abs(2 * center - p5[f2])
        else:
            far = np.abs(center - p5[f1]) + np.abs(center - p5[f2])
        d_half.append(2 * near + far)
    noisy_edge = np.minimum.reduce(d_half) > 2 * th.t2

    ke, ne, dis, ns, ks, rc = (int(c) for c in PixelClass)
    if skip_npc:
        cand_branch = ks
    elif gate_active:
        cand_branch = np.where(similar, rc, ns)
    else:
        cand_branch = ns
    cls = np.where(
        edge,
        np.where(noisy_edge, ne, np.where(similar, ke, ne)),
        np.where(disordered, dis, np.where(candidate, cand_branch, ks)),
    ).astype(np.uint8)

    avg = (f[3] + f[4] + f[5] + 1) // 3

    pair_diffs = np.stack([np.abs(p3[a] - p3[b]) for a, b in _PAIRS])
    pair_means = np.stack([(p3[a] + p3[b] + 1) // 2 for a, b in _PAIRS])
    pick = np.argmin(pair_diffs, axis=0)  # first minimum wins ties
    t1ep = np.take_along_axis(pair_means, pick[None], axis=0)[0]

    spreads = []
    medians = []
    for (n1, n2), (f1, f2) in zip(NEAR_PIXELS, FAR_PIXELS):
        line = (p5[n1], p5[n2], p5[f1], p5[f2])
        s = line[0] + line[1] + line[2] + line[3]
        spreads.append(sum(np.abs(4 * v - s) for v in line))
        mn = np.minimum.reduce(line)
        mx = np.maximum.reduce(line)
        medians.append((s - mn - mx + 1) // 2)
    pick2 = np.argmin(np.stack(spreads), axis=0)
    t2ep = np.take_along_axis(np.stack(medians), pick2[None], axis=0)[0]

    out = np.where(
        cls == ne, t2ep, np.where(cls == dis, t1ep, np.where(cls == ns, avg, center))
    ).astype(np.uint8)
    return out, cls, int(np.count_nonzero(edge & noisy_edge))


def _run_iteration(
    padded: np.ndarray,
    th: Thresholds,
    gate_active: bool,
    skip_npc: bool,
    weights_inside_abs: bool,
    workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    h = padded.shape[0] - 4
    if workers <= 1 or h < 2 * workers:
        return _iterate_block(padded, th, gate_active, skip_npc, weights_inside_abs)[:2]
    # split on output rows; each band reads the shared frozen input, so the
    # result is identical for any worker count
    edges = np.linspace(0, h, workers + 1, dtype=int)
    bands = [(int(r0), int(r1)) for r0, r1 in zip(edges[:-1], edges[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(
            pool.map(
                lambda band: _iterate_block(
                    padded[band[0] : band[1] + 4],
                    th,
                    gate_active,
                    skip_npc,
                    weights_inside_abs,
                ),
                bands,
            )
        )
    out = np.vstack([p[0] for p in parts])
    cls = np.vstack([p[1] for p in parts])
    return out, cls


def _require_denoisable(img) -> np.ndarray:
    arr = as_gray(img)
    if arr.shape[0] < MIN_SIZE or arr.shape[1] < MIN_SIZE:
        raise ValueError(
            f"image must be at least {MIN_SIZE}x{MIN_SIZE}, got {arr.shape}"
        )
    return arr


def _schedule(cfg: PipelineConfig) -> list[tuple[bool, bool]]:
    """``(gate_active, skip_noisy_pixel_check)`` for each pass of *cfg*.

    Only the first pass departs from the full decision tree, as the
    ``iteration1_*`` options select.
    """
    return [
        (
            not (k == 0 and cfg.iteration1_skips_similarity_gate),
            k == 0 and cfg.iteration1_skips_noisy_pixel_check,
        )
        for k in range(cfg.iterations)
    ]


def _class_counts(cls: np.ndarray) -> dict[PixelClass, int]:
    counts = np.bincount(cls.ravel(), minlength=len(PixelClass))
    return {c: int(counts[c]) for c in PixelClass}


def denoise_iteration(
    img,
    cfg: PipelineConfig | None = None,
    gate_active: bool = True,
    *,
    skip_noisy_pixel_check: bool = False,
    workers: int = 1,
) -> np.ndarray:
    """Run a single classify-and-restore pass over *img*.

    The pass reads exclusively from a frozen replication-padded copy of
    the input and writes every pixel of the output.
    """
    arr = _require_denoisable(img)
    cfg = cfg or PipelineConfig()
    padded = np.pad(arr, 2, mode="edge").astype(np.int32)
    out, _ = _run_iteration(
        padded,
        cfg.thresholds,
        gate_active,
        skip_noisy_pixel_check,
        cfg.eq4_literal_weights,
        workers,
    )
    return out


def denoise(img, cfg: PipelineConfig | None = None, *, workers: int = 1) -> np.ndarray:
    """Denoise *img* with the configured iteration schedule (default two passes)."""
    return denoise_with_stats(img, cfg, workers=workers)[0]


def denoise_with_stats(
    img, cfg: PipelineConfig | None = None, *, workers: int = 1
) -> tuple[np.ndarray, list[dict[PixelClass, int]]]:
    """Like :func:`denoise` but also returns per-iteration class counts."""
    current = _require_denoisable(img)
    cfg = cfg or PipelineConfig()
    stats: list[dict[PixelClass, int]] = []
    for gate_active, skip_npc in _schedule(cfg):
        padded = np.pad(current, 2, mode="edge").astype(np.int32)
        current, cls = _run_iteration(
            padded,
            cfg.thresholds,
            gate_active,
            skip_npc,
            cfg.eq4_literal_weights,
            workers,
        )
        stats.append(_class_counts(cls))
    return current, stats


def median_filter(img, k: int) -> np.ndarray:
    """Exact k x k median filter over a replication-padded frame.

    The output pixel is the true order statistic of its neighborhood, not
    a float approximation.
    """
    if k % 2 == 0 or k < 3:
        raise ValueError(f"window size must be an odd integer >= 3, got {k}")
    arr = as_gray(img)
    h, w = arr.shape
    if h < k or w < k:
        raise ValueError(f"image must be at least {k}x{k}, got {arr.shape}")
    pad = k // 2
    padded = np.pad(arr, pad, mode="edge")
    stack = np.stack(
        [padded[dr : dr + h, dc : dc + w] for dr in range(k) for dc in range(k)]
    )
    mid = (k * k) // 2
    return np.partition(stack, mid, axis=0)[mid]


def write_class_stats_csv(
    path: str | os.PathLike,
    class_counts: list[dict[PixelClass, int]],
    module_counts: list[dict[str, int]] | None = None,
) -> None:
    """Write per-iteration statistics as ``iteration,class,count`` rows.

    Streaming-engine module invocation counts, when provided, are appended
    as extra rows with the class column spelled ``stream.<module>``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "class", "count"])
        for i, counts in enumerate(class_counts, start=1):
            for cls in PixelClass:
                writer.writerow([i, cls.label, counts.get(cls, 0)])
        if module_counts:
            for i, modules in enumerate(module_counts, start=1):
                for name, count in modules.items():
                    writer.writerow([i, f"stream.{name}", count])
