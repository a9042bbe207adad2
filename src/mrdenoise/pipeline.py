"""Per-pixel classification, restoration, and the iterative pass driver.

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

Each pass reads only the output of the previous pass, which makes
per-pixel work order-independent. One driver runs every pass over a
stream of row chunks, handing each pass's restored rows to the next pass
as they appear. Both engines enter it through ``_run``, which checks the
image and feeds cache-sized bands of rows for the frame engine
(:func:`denoise`) or one row per chunk for the stream engine
(:mod:`mrdenoise.stream`); every chunking gives the same result. The
kernel, :func:`classify` and :func:`median_filter` read one window
layout: the 25 views of a 2-pixel-padded frame, 3x3 at ``_W3``. The
kernel runs each edge-preserve filter only on the pixels of its class.
In the first pass of the default schedule the candidate rescue is
bypassed (heavy noise makes neighbor similarity meaningless), so
candidates are smoothed unconditionally.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from functools import reduce
from itertools import chain

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
    "denoise",
    "denoise_with_stats",
    "median_filter",
    "write_class_stats_csv",
    "MIN_SIZE",
    "MAX_ITERATIONS",
    "MODULE_NAMES",
]

MIN_SIZE = 5

# the largest pass count; both engines allocate per pass before any pixel runs
MAX_ITERATIONS = 4096

MODULE_NAMES = (
    "sorter",
    "type1_edge_detector",
    "type2_edge_detector",
    "disorder_analyzer",
    "noisy_pixel_checker",
    "similarity_checker",
    "average_filter",
    "type1_edge_preserve_filter",
    "type2_edge_preserve_filter",
)


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
    ``iterations`` runs from 1 to ``MAX_ITERATIONS``.
    """

    thresholds: Thresholds = field(default_factory=Thresholds)
    iterations: int = 2
    iteration1_skips_similarity_gate: bool = True
    iteration1_skips_noisy_pixel_check: bool = False
    eq4_literal_weights: bool = False

    def __post_init__(self):
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be 1 to {MAX_ITERATIONS}, got {self.iterations}")


# positions of the 3x3 window in the row-major 5x5 window
_W3 = (6, 7, 8, 11, 12, 13, 16, 17, 18)


def _window_planes(padded: np.ndarray) -> list[np.ndarray]:
    """The 25 shifted views of a 2-pixel-padded frame, in 5x5 window order."""
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    return [padded[dr : dr + h, dc : dc + w] for dr in range(5) for dc in range(5)]


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
    w3 = [w5[i] for i in _W3]
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


def _first_min(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Per pixel, the value paired with the smallest key; the first minimum wins ties.

    The compare-and-select chain of the scalar edge-preserve filters: a
    strictly smaller key replaces the best so far.
    """
    pairs = iter(pairs)
    best_key, best = next(pairs)
    for key, value in pairs:
        take = key < best_key
        best_key = np.where(take, key, best_key)
        best = np.where(take, value, best)
    return best


# rows and columns, in the 5x5 window, of the taps each edge-preserve filter
# reads: the 3x3 pairs of type1_edge_preserve in _PAIRS order, and the four
# pixels of each direction line of type2_edge_preserve in H, V, D, AD order
_PAIR_TAPS = np.divmod(np.take(_W3, _PAIRS).ravel(), 5)
_LINE_TAPS = np.divmod(np.ravel([near + far for near, far in zip(NEAR_PIXELS, FAR_PIXELS)]), 5)


def _pair_restore(taps: np.ndarray) -> np.ndarray:
    """:func:`type1_edge_preserve` over columns of eight taps, two per pair."""
    a, b = taps[0::2], taps[1::2]
    return _first_min(zip(np.abs(a - b), (a + b + 1) // 2))


def _line_restore(taps: np.ndarray) -> np.ndarray:
    """:func:`type2_edge_preserve` over columns of sixteen taps, four per line."""
    lines = taps.reshape(4, 4, -1)
    s = lines.sum(axis=1, dtype=np.int32)
    spread = np.abs(4 * lines - s[:, None]).sum(axis=1, dtype=np.int32)
    return _first_min(zip(spread, (s - lines.min(axis=1) - lines.max(axis=1) + 1) // 2))


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
    similarity check). The classifiers run on whole planes; each
    edge-preserve filter gathers the taps it reads for the pixels of its
    class only, computes on those columns and scatters the results. All
    arithmetic is exact integer work mirroring the scalar stage functions,
    and each filter selects its candidate as they do (first minimum in H,
    V, D, AD order), so frame and stream outputs agree bit for bit.
    """
    p5 = _window_planes(padded)
    p3 = [p5[i] for i in _W3]
    center = p3[4]
    f = np.stack(p3)
    f.sort(axis=0)  # in place: one copy of the nine planes, not two

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
    avg = (f[3] + f[4] + f[5] + 1) // 3
    del f  # free the sorted planes before the 5x5 stage

    lines = [tuple(p5[i] for i in near + far) for near, far in zip(NEAR_PIXELS, FAR_PIXELS)]
    kc = (2 if weights_inside_abs else 1) * center
    d_half = (
        2 * (np.abs(center - n1) + np.abs(center - n2)) + np.abs(kc - f1) + np.abs(kc - f2)
        for n1, n2, f1, f2 in lines
    )
    noisy_edge = reduce(np.minimum, d_half) > 2 * th.t2

    ke, ne, dis, ns, ks, rc = (np.uint8(c) for c in PixelClass)
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
    )

    out = center.astype(np.uint8)
    np.copyto(out, avg, casting="unsafe", where=cls == ns)
    flat, width = padded.ravel(), padded.shape[1]
    for label, (tap_rows, tap_cols), restore in (
        (dis, _PAIR_TAPS, _pair_restore),
        (ne, _LINE_TAPS, _line_restore),
    ):
        r, c = np.nonzero(cls == label)
        if r.size:
            # pixel (r, c) has the top-left corner of its 5x5 window at padded[r, c]
            out[r, c] = restore(flat[r * width + c + (tap_rows * width + tap_cols)[:, None]])
    return out, cls, int(np.count_nonzero(edge & noisy_edge))


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


# tally layout: one slot per PixelClass, then the edge pixels that the
# directional test alone marks noisy
_DIRECT_NOISY_EDGE = len(PixelClass)


def _module_counts(tally: np.ndarray, gate_active: bool, skip_npc: bool) -> dict[str, int]:
    """Per-stage invocation counts of one pass, in ``MODULE_NAMES`` order."""
    counts = [int(v) for v in tally]
    n = sum(counts[:_DIRECT_NOISY_EDGE])
    edges = counts[PixelClass.KEEP_EDGE] + counts[PixelClass.NOISY_EDGE]
    disordered = counts[PixelClass.DISORDERED]
    # edges the directional test alone marks noisy never reach the
    # similarity check; candidates reach it only while the gate is active
    # (with the noisy-pixel check skipped there are no candidates at all)
    similarity_checks = edges - counts[_DIRECT_NOISY_EDGE]
    if gate_active:
        similarity_checks += counts[PixelClass.NOISY_SMOOTH] + counts[PixelClass.RESCUED_CANDIDATE]
    return {
        "sorter": n,
        "type1_edge_detector": n,
        "type2_edge_detector": edges,
        "disorder_analyzer": n - edges,
        "noisy_pixel_checker": 0 if skip_npc else n - edges - disordered,
        "similarity_checker": similarity_checks,
        "average_filter": counts[PixelClass.NOISY_SMOOTH],
        "type1_edge_preserve_filter": disordered,
        "type2_edge_preserve_filter": counts[PixelClass.NOISY_EDGE],
    }


def _drive(
    chunks: Iterable[np.ndarray], cfg: PipelineConfig, tallies: list[np.ndarray]
) -> Iterator[np.ndarray]:
    """Run every pass of *cfg* over uint8 row chunks, yielding restored rows.

    Each pass carries the last four padded int32 rows it has seen. An
    incoming chunk is column-padded and joined below the carry (the first
    chunk instead gets its top row twice above it), the joined block is
    restored by one kernel call, and the restored rows go on to the next
    pass in the same loop. At the end of input each pass in turn gets one
    more kernel call: the rows the previous pass's flush emitted, with the
    pass's last input row replicated twice below them. That is the frame's
    edge padding, so every chunking of an image gives the same output, and
    a run makes one kernel call per pass per chunk plus one per pass. The
    rows of that last call leave one at a time, as a row stream expects.
    ``tallies[k]`` accumulates pass *k*'s class counts and its direct
    noisy-edge count.
    """
    schedule = _schedule(cfg)
    carries: list[np.ndarray | None] = [None] * len(schedule)
    cols = None
    for rows in chain(chunks, [None]):
        end = rows is None
        if cols is None:
            cols = np.clip(np.arange(-2, rows.shape[1] + 2), 0, rows.shape[1] - 1)
        for k, (gate_active, skip_npc) in enumerate(schedule):
            carry = carries[k]
            if rows is None:  # end of input at the first pass
                block = carry
            else:
                padded = rows[:, cols]
                top = padded[[0, 0]] if carry is None else carry
                block = np.concatenate([top, padded], dtype=np.int32)
            if end:
                block = np.concatenate([block, block[[-1, -1]]])
            carries[k] = block[-4:].copy()  # a view would keep the whole block alive
            if len(block) < 5:
                break  # no full window yet, so nothing reaches the later passes
            rows, cls, direct = _iterate_block(
                block, cfg.thresholds, gate_active, skip_npc, cfg.eq4_literal_weights
            )
            tallies[k][:_DIRECT_NOISY_EDGE] += np.bincount(cls.ravel(), minlength=len(PixelClass))
            tallies[k][_DIRECT_NOISY_EDGE] += direct
        else:
            yield from np.split(rows, len(rows)) if end else [rows]


# pixels per frame-engine band. An int32 plane of a band is then 128 KiB,
# so a kernel call's working planes, about 2 MiB, stay in cache; 2**15 ran
# fastest, or within noise of the fastest, of 2**13..2**16 on both 1024-
# and 256-wide frames.
_BAND_PX = 2**15


def _run(
    img, cfg: PipelineConfig | None, rows: int = 0
) -> tuple[np.ndarray, list[dict[PixelClass, int]], list[dict[str, int]]]:
    """Check *img* and drive it through every pass of *cfg* in chunks of *rows* rows.

    ``rows=0`` picks bands of ``_BAND_PX // width`` rows (at least one), so
    each kernel call's planes stay in cache. Returns the output image,
    per-pass class counts and per-pass module counts.
    """
    arr = as_gray(img)
    if arr.shape[0] < MIN_SIZE or arr.shape[1] < MIN_SIZE:
        raise ValueError(f"image must be at least {MIN_SIZE}x{MIN_SIZE}, got {arr.shape}")
    cfg = cfg or PipelineConfig()
    rows = rows or max(1, _BAND_PX // arr.shape[1])
    chunks = (arr[r : r + rows] for r in range(0, arr.shape[0], rows))
    tallies = [np.zeros(_DIRECT_NOISY_EDGE + 1, np.int64) for _ in range(cfg.iterations)]
    out = np.concatenate(list(_drive(chunks, cfg, tallies)))
    class_stats = [{c: int(t[c]) for c in PixelClass} for t in tallies]
    module_stats = [_module_counts(t, *step) for t, step in zip(tallies, _schedule(cfg))]
    return out, class_stats, module_stats


def denoise(img, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Denoise *img* with the configured iteration schedule (default two passes)."""
    return _run(img, cfg)[0]


def denoise_with_stats(
    img, cfg: PipelineConfig | None = None
) -> tuple[np.ndarray, list[dict[PixelClass, int]]]:
    """Like :func:`denoise` but also returns per-iteration class counts."""
    return _run(img, cfg)[:2]


def median_filter(img, k: int) -> np.ndarray:
    """Exact k x k median filter, k = 3 or 5, over a replication-padded frame.

    The output pixel is the true order statistic of its neighborhood, not
    a float approximation.
    """
    if k not in (3, 5):
        raise ValueError(f"window size must be 3 or 5, got {k}")
    arr = as_gray(img)
    if arr.shape[0] < k or arr.shape[1] < k:
        raise ValueError(f"image must be at least {k}x{k}, got {arr.shape}")
    p5 = _window_planes(np.pad(arr, 2, mode="edge"))
    stack = np.stack(p5 if k == 5 else [p5[i] for i in _W3])
    return np.partition(stack, k * k // 2, axis=0)[k * k // 2]


def write_class_stats_csv(
    path: str | os.PathLike,
    class_counts: list[dict[PixelClass, int]],
    module_counts: list[dict[str, int]] | None = None,
) -> None:
    """Write per-iteration statistics as ``iteration,class,count`` rows.

    Streaming-engine module invocation counts, when provided, are appended
    as extra rows with the class column spelled ``stream.<module>``.
    """
    lines = ["iteration,class,count"]
    for i, counts in enumerate(class_counts, start=1):
        lines += [f"{i},{cls.label},{counts.get(cls, 0)}" for cls in PixelClass]
    for i, modules in enumerate(module_counts or (), start=1):
        lines += [f"{i},stream.{name},{count}" for name, count in modules.items()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
