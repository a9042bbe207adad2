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

In the first pass of the default schedule the candidate rescue is
bypassed (heavy noise makes neighbor similarity meaningless), so
candidates are smoothed unconditionally. Each pass reads only the output
of the previous pass, which makes per-pixel work order-independent.

The scalar specification, :func:`classify_window` and
:func:`restore_pixel`, and the kernel's per-pass class tables, built by
:func:`_tables`, walk one tree, :func:`_walk`. The vectorized kernel is
:func:`_iterate_block`. The pass driver, :func:`_drive`, runs the passes
as a pipeline over row chunks: cache-sized bands for the frame engine
(:func:`denoise`) and one row per chunk for :mod:`mrdenoise.stream`, as
:func:`_chunk_rows` picks. The library enters it through ``_run``, and
``mrdenoise denoise`` feeds it bands read from the input file. The
driver carries its blocks as uint8, as an 8-bit datapath would. The
kernel, :func:`classify` and :func:`median_filter` read one window
layout: the 25 views of a 2-pixel-padded frame, 3x3 at ``_W3``. One
runner, :func:`_select`, runs every pruned comparator network: the
kernel's sorter, the paper's, and for :func:`median_filter` the same
network pruned to F4 (3x3) and Batcher's merge-exchange network pruned
to its middle rank (5x5).

A predicate bit that no class of a call's passes reads is a don't-care in
that call, whose stage the kernel skips unless module counts are asked for:
while t5 >= 5 and t1 >= t4, as at the defaults, the noisy-edge bit, and in
a pass without the rescue the similar bit too (the ``reads`` of :func:`_tables`).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache, reduce
from itertools import chain, repeat
from operator import or_

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
from .image import _require_int, as_gray
from .pgm import _replacing
from .restore import average_restore, type1_edge_preserve, type2_edge_preserve

__all__ = [
    "PixelClass",
    "PipelineConfig",
    "classify_window",
    "restore_pixel",
    "denoise",
    "denoise_with_stats",
    "median_filter",
    "write_class_stats_csv",
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
        """CamelCase label used in stats CSV output: ``KEEP_EDGE`` is ``KeepEdge``."""
        return self.name.title().replace("_", "")


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
        if not 1 <= _require_int("iterations", self.iterations) <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be 1 to {MAX_ITERATIONS}, got {self.iterations}")


# positions of the 3x3 window in the row-major 5x5 window
_W3 = (6, 7, 8, 11, 12, 13, 16, 17, 18)


def _window_planes(padded: np.ndarray, taps: Iterable[int]) -> list[np.ndarray]:
    """The shifted views of a 2-pixel-padded plane, a frame or blocks joined
    side by side, at the given positions of the row-major 5x5 window."""
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    return [padded[t // 5 : t // 5 + h, t % 5 : t % 5 + w] for t in taps]


def _walk(test, gate_active: bool, skip_noisy_pixel_check: bool) -> PixelClass:
    """The decision tree, once: ``test(stage)`` runs the classifier stage
    named by its ``MODULE_NAMES`` entry and returns its predicate. Only the
    stages on the pixel's path are asked. :func:`classify_window` answers
    with the scalar predicates, :func:`_tables` with the bits of a code."""
    if test("type1_edge_detector"):
        if not test("type2_edge_detector") and test("similarity_checker"):
            return PixelClass.KEEP_EDGE
        return PixelClass.NOISY_EDGE
    if test("disorder_analyzer"):
        return PixelClass.DISORDERED
    if skip_noisy_pixel_check or not test("noisy_pixel_checker"):
        return PixelClass.KEEP_SMOOTH
    if gate_active and test("similarity_checker"):
        return PixelClass.RESCUED_CANDIDATE
    return PixelClass.NOISY_SMOOTH


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

    def test(stage: str) -> bool:
        if counters is not None:
            counters[stage] += 1
        if stage == "type1_edge_detector":
            return type1_edge(f, th.t1)
        if stage == "type2_edge_detector":
            return type2_edge(w5, th.t2, weights_inside_abs=weights_inside_abs)
        if stage == "similarity_checker":
            return similarity(w3, th.t4, th.t5)
        if stage == "disorder_analyzer":
            return disorder(int(w3[4]), f, th.t3)
        return noisy_pixel(int(w3[4]), f, th.t4)

    return _walk(test, gate_active, skip_noisy_pixel_check)


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


# the restore filter each class runs; the other classes keep the center
_FILTERS = {
    PixelClass.NOISY_EDGE: "type2_edge_preserve_filter",
    PixelClass.DISORDERED: "type1_edge_preserve_filter",
    PixelClass.NOISY_SMOOTH: "average_filter",
}


def restore_pixel(pixel_class: PixelClass, w3, w5, f, counters: dict | None = None) -> int:
    """Restored intensity for a pixel of the given class.

    Kept classes return the original center; noisy edges are repaired
    along their flattest direction, disordered centers from the most
    alike symmetric pair, and noisy smooth pixels by the median-rank
    average. ``counters``, when given, is bumped for the filter that runs.
    """
    if counters is not None and pixel_class in _FILTERS:
        counters[_FILTERS[pixel_class]] += 1
    if pixel_class is PixelClass.NOISY_EDGE:
        return type2_edge_preserve(w5)
    if pixel_class is PixelClass.DISORDERED:
        return type1_edge_preserve(w3)
    if pixel_class is PixelClass.NOISY_SMOOTH:
        return average_restore(f)
    return int(w3[4])


# rows and columns, in the 5x5 window, of the taps each sparse stage reads:
# each line's near taps, type1_edge_preserve's 3x3 pairs in _PAIRS order, and
# for the edge stage the center, then the four pixels of each direction line
# of type2_edge_preserve in H, V, D, AD order, each near, near, far, far
_PAIR_TAPS = np.divmod(np.ravel(NEAR_PIXELS), 5)
_EDGE_TAPS = np.divmod(
    [12, *chain.from_iterable(near + far for near, far in zip(NEAR_PIXELS, FAR_PIXELS))], 5
)

# each direction's index, H, V, D, AD, at bits 8 and 9 of its packed key
_DIRECTIONS = (np.arange(4, dtype=np.int32) << 8)[:, None]


def _packed_min(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Per column, the *value* of the direction with the smallest *key*; the
    first direction wins ties, as in the scalar edge-preserve filters.

    *key* is a (4, n) int32 array below 2**21, which is written over, and
    *value* a (4, n) array below 256. One ``min`` over ``key << 10 |
    direction << 8 | value`` orders by key, then by direction, and its low
    byte is the value.
    """
    key <<= 10
    key |= _DIRECTIONS
    key |= value
    return key.min(axis=0) & 255


def _pair_restore(taps: np.ndarray) -> np.ndarray:
    """:func:`type1_edge_preserve` over int16 columns of eight taps, two per pair."""
    a, b = taps[0::2], taps[1::2]
    key = np.abs(a - b, dtype=np.int32)  # at most 255: an 18-bit packed key
    return _packed_min(key, (a + b + 1) // 2)  # a + b + 1 <= 511


def _edge_stage(
    taps: np.ndarray, weights_inside_abs: bool, t2: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Bits 0 and 1 of the code of edge pixels (1, plus 2 where :func:`type2_edge`
    holds; 1 alone with *t2* None, which skips the distance) and their
    :func:`type2_edge_preserve` values, from int16 columns of the center and
    its sixteen line taps in ``_EDGE_TAPS`` order."""
    center, lines = taps[0], taps[1:].reshape(4, 4, -1)  # each line: near, near, far, far
    bits = np.uint8(1)
    if t2 is not None:
        d = lines - center
        if weights_inside_abs:
            d[:, 2:] -= center  # the far taps against 2 * center
        np.abs(d, out=d)
        # at most 2 * (255 + 255) + 510 + 510 = 2040, the far taps against 2 *
        # center: every t2 >= 1020 makes the test false, as 2 * t2 clamped does
        dist = 2 * (d[:, 0] + d[:, 1]) + d[:, 2] + d[:, 3]
        bits = (dist.min(axis=0) > min(2 * t2, 2040)) * np.uint8(2) + bits
    s = lines.sum(axis=1, dtype=np.int16)  # at most 4 * 255 = 1020
    # at most 2040, at two pixels of 255 and two of 0: the spread is convex in
    # the pixels, so its maximum lies where each is 0 or 255. A 21-bit packed key
    key = np.abs(4 * lines - s[:, None]).sum(axis=1, dtype=np.int32)
    return bits, _packed_min(key, (s - lines.min(axis=1) - lines.max(axis=1) + 1) // 2)


# Floyd's optimal 25-comparator sorting network on nine inputs (Knuth, TAOCP
# vol. 3, §5.3.4), one layer per line. A comparator (i, j) leaves the smaller
# value on wire i and the larger on wire j.
_FLOYD9 = (
    (0, 3), (1, 7), (2, 5), (4, 8),
    (0, 7), (2, 4), (3, 8), (5, 6),
    (0, 2), (1, 3), (4, 5), (7, 8),
    (1, 4), (3, 6), (5, 7),
    (0, 1), (2, 4), (3, 5), (6, 8),
    (2, 3), (4, 5), (6, 7),
    (1, 2), (3, 4), (5, 6),
)


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Batcher's merge-exchange sorting network on *n* inputs (Knuth, TAOCP
    vol. 3, §5.2.2, Algorithm M), in the order the algorithm emits it."""
    t = (n - 1).bit_length()
    comparators = []
    p = 1 << (t - 1)
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            comparators += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return comparators


def _prune(network, ranks) -> tuple[tuple[int, int, str], ...]:
    """*network* pruned backwards to the comparators that reach the wires *ranks*.

    Each kept comparator is ``(i, j, half)``: half is "min" or "max" when
    only that output is read later, and "" when both are.
    """
    live, kept = set(ranks), []
    for i, j in reversed(network):
        if i in live or j in live:
            kept.append((i, j, "" if {i, j} <= live else "min" if i in live else "max"))
            live |= {i, j}
    return tuple(reversed(kept))


# the ranks the classifiers and filters read: 24 comparators, 44 ufunc calls
_SORTER_RANKS = (0, 3, 4, 5, 8)
_SORTER = _prune(_FLOYD9, _SORTER_RANKS)
# the 3x3 median: 20 comparators, 32 calls
_MEDIAN9 = _prune(_FLOYD9, (4,))
# the 5x5 median: 138 comparators pruned to 113, 202 calls
_MEDIAN25 = _prune(_merge_exchange(25), (12,))


def _select(planes: list[np.ndarray], table, ranks) -> list[np.ndarray]:
    """The planes at wires *ranks* after the pruned comparator *table* runs on *planes*.

    A comparator that reads an input plane writes its outputs into fresh
    planes, so the inputs (window views) are never written; every later
    output is written in place, with one spare plane taking a full
    comparator's smaller value.
    """
    # [*planes] takes its list from CPython's free list; list(planes) would not,
    # yet would return it there, so a per-row run would fill the free list
    f = [*planes]
    spare = None
    # a wire holds its input plane until a comparator writes it, and from
    # then on a plane this call allocated, which may be written over
    for i, j, half in table:
        a, b = f[i], f[j]
        if not half:
            f[i] = np.minimum(a, b, out=spare)
            f[j] = np.maximum(a, b, out=b if b is not planes[j] else None)
            spare = a if a is not planes[i] else None
        elif half == "min":
            f[i] = np.minimum(a, b, out=a if a is not planes[i] else None)
        else:
            f[j] = np.maximum(a, b, out=b if b is not planes[j] else None)
    return [f[r] for r in ranks]


_CODES = 32  # the kernel's 5-bit predicate codes
# the classifier stage behind each bit of a code, bit 0 first
_STAGE_BITS = (
    "type1_edge_detector", "type2_edge_detector", "similarity_checker", "disorder_analyzer", "noisy_pixel_checker"
)


@cache
def _tables(gate_active: bool, skip_npc: bool, lemma: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """One schedule step's record, from :func:`_walk` with each stage answering
    its bit of the code: ``classes[code]`` is the class of each code,
    ``runs[code, m]`` how often module ``MODULE_NAMES[m]`` runs on it, counted
    as callers of the scalar spec count (the sorter, each stage asked, the
    filter), and ``reads`` the mask of code bits some class reads: bit b when
    flipping it turns a code the kernel can emit into one of another class.
    Under *lemma*, t5 >= 5 and t1 >= t4, no code is edge and similar: the six
    or more window values within t4 of a similar center hold six ranks, f3 to
    f5 among them, so each sorted gap lies on one side of the center, within t4."""
    classes = np.zeros(_CODES, np.uint8)
    runs = np.zeros((_CODES, len(MODULE_NAMES)), np.int64)
    for code in range(_CODES):
        counts = dict.fromkeys(MODULE_NAMES, 0)
        counts["sorter"] = 1

        def test(stage: str, code: int = code, counts: dict = counts) -> bool:
            counts[stage] += 1
            return bool(code >> _STAGE_BITS.index(stage) & 1)

        classes[code] = cls = _walk(test, gate_active, skip_npc)
        if cls in _FILTERS:
            counts[_FILTERS[cls]] += 1
        runs[code] = list(counts.values())
    classes.flags.writeable = runs.flags.writeable = False  # cached: every pass shares them
    codes = [c for c in range(_CODES) if not (lemma and c & 5 == 5)]
    reads = sum({b for c in codes for b in (1, 2, 4, 8, 16) if c ^ b in codes and classes[c] != classes[c ^ b]})
    return classes, runs, reads


# pixels per slice of a sparse stage. The edge stage's slice holds the most
# per pixel: the gather's intp index of 17 taps (136 bytes), the 17 int16
# taps (34) and the (4, n) int32 key (16), 186 bytes in all, so a slice's
# working set stays below 0.73 MiB (a full slice traced 0.63 MiB) whatever
# the share of pixels a class takes
_SLICE_PX = 2**12


def _gather(i: np.ndarray, padded: np.ndarray, taps) -> Iterator[tuple[slice, np.ndarray]]:
    """Yields ``(s, t)`` for slices s of *i* of at most ``_SLICE_PX`` pixels:
    column k of the int16 array t holds the *taps* (rows, columns in the 5x5
    window) of pixel ``i[s][k]``.

    *i* indexes the pixels of the contiguous 2-D *padded*, without its
    2-pixel border, as a kernel output plane lays them out: for blocks
    joined side by side, each block's pixels and the windows that straddle
    two blocks.
    """
    flat, width = padded.ravel(), padded.shape[1]
    w = width - 4  # the output plane's columns
    offsets = (taps[0] * width + taps[1])[:, None]
    for start in range(0, i.size, _SLICE_PX):
        s = slice(start, start + _SLICE_PX)
        j = i[s]
        # pixel j, in output row j // w, has the top-left corner of its 5x5
        # window at j + 4 * (j // w)
        corner = j + 4 * (j // w)
        yield s, flat[corner + offsets].astype(np.int16)


def _iterate_block(
    padded: np.ndarray, th: Thresholds, classes: np.ndarray, weights_inside_abs: bool, reads: int = _CODES - 1
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized classify + restore over padded uint8 blocks joined side by side.

    *padded* is one contiguous 2-D plane: n blocks of one shape, one per
    pass, joined along the columns, each with its own 2-pixel pad, and row
    j of the (n, 32) *classes* is block j's table from :func:`_tables`.
    Returns the restored plane and its uint8 code plane, each of the
    plane's width less 4: each pixel's five predicate bits (bit 0 edge, 1
    noisy edge, 2 similar, 3 disordered, 4 candidate). A block of w pixel
    columns owns output columns ``[j * (w + 4), j * (w + 4) + w)``; the
    four after each join are windows that straddle two blocks, computed
    and left for the caller to drop. Each block's column segment looks its
    codes up in its own row, as each pass of the chip picks its filters
    from the same five bits. The nine 3x3 window planes go through the
    sorter network, which yields only the five ranks the classifiers and
    filters read, and every dense test runs on uint8 in forms that cannot
    wrap; only ``avg`` widens to int16. The noisy-edge bit is a don't-care
    off edges (no class reads it there), so one fused stage runs on edge
    pixels only, as the chip's type-2 edge detector and filter share one
    wiring of the four direction lines: one gather of each one's center
    and line taps, as int16 columns through :func:`_gather`, yields both
    that bit and the type-2 filter value, which the class lookup then
    scatters onto the ``NoisyEdge`` pixels (all of them edges). The pair
    filter gathers its taps on ``Disordered`` pixels only. All arithmetic
    is exact integer work mirroring the scalar stage functions (each bound
    is written beside its code). Each filter selects its candidate with
    one ``min`` over packed keys (:func:`_packed_min`), first minimum in H,
    V, D, AD order as in the scalar functions, so frame and stream outputs
    agree bit for bit. *reads* masks the code bits the caller reads, all
    by default. A call that leaves out bit 2 skips the similarity count and
    one that leaves out bit 1 the directional distance: in such a pruned
    call that bit is a don't-care, left clear, so its codes give every
    pixel its class but not its exact predicates.
    """
    p3 = _window_planes(padded, _W3)
    center = p3[4]
    f0, f3, f4, f5, f8 = _select(p3, _SORTER, _SORTER_RANKS)
    # thresholds clamped to 255, the largest uint8 difference: x > t and x <= t
    # answer alike for every t >= 255; the one x < t test argues its bound
    t1, t3, t4 = (min(t, 255) for t in (th.t1, th.t3, th.t4))

    # f8 - center and center - f0 are non-negative and sum to f8 - f0 <= 255, so
    # one of them is below 128 and the test holds for every t4 >= 128; the
    # candidate test's bool plane becomes the code, shifted up to bit 4
    code = ((f8 - center < t4) | (center - f0 < t4)).view(np.uint8)
    code <<= 1
    # the center is a window value, so between f3 and f5 it equals f3, f4 or
    # f5 and one of the scalar test's distances is 0; outside, the nearer of
    # f3 and f5 is the closest of the three
    code |= ((np.maximum(center, f5) - f5 > t3) | (f3 - np.minimum(center, f3) > t3)).view(np.uint8)
    code <<= 1
    if reads & 4:
        # |p - center| <= t4 exactly when p lies in [lo, lo + span], the range
        # clipped to [0, 255]: max(center, t4) - t4 and min(center, 255 - t4)
        # + t4 cannot wrap, and p - lo wraps above span when p < lo
        lo = np.maximum(center, t4) - t4
        span = np.minimum(center, 255 - t4) + t4 - lo
        sim_count = np.zeros(center.shape, np.uint8)  # at most 8
        for i in (0, 1, 2, 3, 5, 6, 7, 8):
            sim_count += (p3[i] - lo <= span).view(np.uint8)
        code |= (sim_count >= th.t5).view(np.uint8)
        del lo, span, sim_count
    edge = (f4 - f3 > t1) | (f5 - f4 > t1)  # sorted gaps: non-negative
    avg = np.add(f3, f4, dtype=np.int16)
    avg += f5
    avg += 1
    avg //= 3  # the sum is at most 3 * 255 + 1 = 766
    del p3, f0, f3, f4, f5, f8  # free what the sparse stages do not read

    # bits 0 and 1 and the line filter value, on edge pixels
    t2 = th.t2 if reads & 2 else None
    i, edge = np.flatnonzero(edge), edge.view(np.uint8)  # flatnonzero runs ~10x faster on bool
    edge_flat, line = edge.ravel(), np.empty(i.size, np.uint8)
    for s, taps in _gather(i, padded, _EDGE_TAPS):
        edge_flat[i[s]], line[s] = _edge_stage(taps, weights_inside_abs, t2)
        del taps  # else it stays alive through the next slice's gather
    code <<= 2
    code |= edge
    del edge, edge_flat

    _, ne, dis, ns, _, _ = (np.uint8(c) for c in PixelClass)
    cls = np.empty_like(code)
    width = padded.shape[1] // len(classes)  # of each block, its pad included
    for j, table in enumerate(classes):  # about 3x faster than table[code]
        seg = np.s_[:, j * width : (j + 1) * width]  # block j's columns and the straddles after them
        table.take(code[seg], out=cls[seg], mode="clip")  # codes are below 32; mode "raise" buffers *out*
    out = center.copy()
    np.copyto(out, avg, casting="unsafe", where=cls == ns)
    del avg
    cls, out_flat = cls.ravel(), out.ravel()
    noisy = cls[i] == ne  # every NoisyEdge pixel is an edge pixel
    out_flat[i[noisy]] = line[noisy]
    i = np.flatnonzero(cls == dis)
    for s, taps in _gather(i, padded, _PAIR_TAPS):
        out_flat[i[s]] = _pair_restore(taps)
    return out, code


def _schedule(cfg: PipelineConfig) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The cached ``(classes, runs, reads)`` record of :func:`_tables` for
    each pass of *cfg*.

    Only the first pass departs from the full decision tree, as the
    ``iteration1_*`` options select.
    """
    th = cfg.thresholds
    steps = [
        (not (k == 0 and cfg.iteration1_skips_similarity_gate), k == 0 and cfg.iteration1_skips_noisy_pixel_check)
        for k in range(cfg.iterations)
    ]
    return [_tables(*step, th.t5 >= 5 and th.t1 >= th.t4) for step in steps]


# pixels per frame-engine band, and at most per kernel call. A uint8 plane
# of a band is then 32 KiB, so a kernel call's working planes stay in cache.
# On int32 and int16 planes 2**15 ran fastest, or within noise of it, on
# 1024- and 256-wide frames. On uint8 planes 2**16 ran 15 % faster on a
# 1024-wide frame, but it puts a 256-wide frame in one band, whose traced
# peak is then as high as the int16 kernel's.
_BAND_PX = 2**15


def _drive(
    chunks: Iterable[np.ndarray], cfg: PipelineConfig, stats: tuple[list, ...] = ()
) -> Iterator[np.ndarray]:
    """Run every pass of *cfg* over uint8 row chunks, yielding restored rows.

    The passes form a pipeline, like the stages of a hardware chain: on each
    step pass 0 takes the next chunk, and every later pass the rows the pass
    before it emitted on the previous step, so every block of a step is
    known before any of them runs. A step visits only the passes that can
    hold work: rows reach pass k no sooner than step k, and a pass is done
    once it has taken its end-of-input call. Each pass carries the last four
    padded uint8 rows it has seen; its incoming rows are column-padded and
    joined below the carry (the first rows instead get their top row twice
    above them). Blocks of one shape from consecutive passes are joined side
    by side, each with its own pad columns, and restored by one kernel call
    on that contiguous plane, of at most ``_BAND_PX`` pixels unless one
    block alone is larger, each block classified by its own pass's table.
    No window that straddles two blocks reaches a pass, the output or a
    count. A one-row stream thus makes about one call per row for up to 49
    passes of 128 columns, and each pass holds four carry rows plus one
    pending chunk and emits its rows three rows behind the pass before it
    (the first pass two behind its input), so a stream's working memory is
    O(width x passes), not O(width x height).
    After the last chunk, pass k takes its end-of-input call k steps later:
    the rows the pass before it emitted last, with its last input row
    replicated twice below them. That is the frame's edge padding, so every
    chunking of an image gives the same output. The rows of the last pass's
    end-of-input call leave one at a time, as a row stream expects.

    *stats* names the counts the caller reads, each list getting one dict
    per pass once the last row has left: ``()`` none, ``(classes,)`` class
    counts, ``(classes, modules)`` module counts too. Only counts keep a
    histogram of codes, and only module counts, which read every code bit,
    run the exact kernel; other calls skip the stages no class reads.
    """
    schedule = _schedule(cfg)
    passes = len(schedule)
    tables = np.stack([classes for classes, _, _ in schedule])  # pass k's in row k
    reads = [_CODES - 1 if len(stats) > 1 else bits for _, _, bits in schedule]
    hist = np.zeros((passes, _CODES), np.int64)
    carries: list[np.ndarray | None] = [None] * passes
    # the rows each pass takes on the next step; inputs[passes] leave the pipeline
    inputs: list[np.ndarray | None] = [None] * (passes + 1)
    group: list[np.ndarray] = []  # the blocks of the next kernel call

    def run(end: int) -> None:
        """Restore the grouped blocks, of passes end - len(group) .. end - 1, in one call."""
        n = len(group)
        batch = np.concatenate(group, axis=1) if n > 1 else group[0]
        group.clear()  # so that one copy of the blocks stays alive through the call
        bits = reduce(or_, reads[end - n : end])  # the bits a class of some block reads
        out, code = _iterate_block(batch, cfg.thresholds, tables[end - n : end], cfg.eq4_literal_weights, bits)
        width = batch.shape[1] // n  # of each block, its pad included
        # block j's output columns; the four after each join straddle two blocks
        segments = [np.s_[:, j * width : (j + 1) * width - 4] for j in range(n)]
        if stats:
            for counts, seg in zip(hist[end - n : end], segments):  # each block into its own pass's row
                counts += np.bincount(code[seg].ravel(), minlength=_CODES)
        inputs[end - n + 1 : end + 1] = [out[seg] for seg in segments]

    ending = -1  # once input has ended, the pass taking its end-of-input call
    front = 0  # the first pass no rows have reached
    cols = None
    for chunk in chain(chunks, repeat(None, passes)):
        if chunk is None:
            ending += 1
        elif cols is None:
            cols = np.clip(np.arange(-2, chunk.shape[1] + 2), 0, chunk.shape[1] - 1)
        front = min(front + 1, passes)
        fed, inputs = inputs, [None] * (passes + 1)
        fed[0], fed[passes] = chunk, None  # the rows yielded last step are freed
        for k in range(max(ending, 0), front + 1):  # at k = front, no block: the last group runs
            rows = fed[k]
            block = carries[k] if k == ending else None
            if rows is not None:
                padded = rows[:, cols]
                # the old carry goes with this block: no name keeps it alive
                block = np.concatenate([padded[[0, 0]] if carries[k] is None else carries[k], padded])
            if k == ending:
                block = np.concatenate([block, block[[-1, -1]]])
            if block is not None:
                carries[k] = block[-4:].copy()  # a view would keep the whole block alive
                if len(block) < 5:
                    block = None  # no full window yet, so nothing reaches pass k + 1
            if group and (block is None or block.shape != group[0].shape):
                run(k)
            if block is not None:
                group.append(block)
                if (len(group) + 1) * block.size > _BAND_PX:
                    run(k + 1)  # no further block fits
        rows = inputs[passes]
        if rows is not None:
            # a copy, as a view would keep the other passes' rows of its call alive
            yield from np.split(rows, len(rows)) if ending == passes - 1 else [rows.copy()]
    for b, (classes, runs, _) in zip(hist if stats else (), schedule):
        stats[0].append({c: int(b[classes == c].sum()) for c in PixelClass})
        if len(stats) > 1:
            stats[1].append(dict(zip(MODULE_NAMES, (b @ runs).tolist())))


def _chunk_rows(shape: tuple[int, int], rows: int = 0) -> int:
    """Rows per chunk for driving an image of *shape*: *rows*, or with
    ``rows=0`` bands of ``_BAND_PX // width`` rows (at least one), so each
    kernel call's planes stay in cache. An image too small for the 5x5
    window is a ValueError."""
    if shape[0] < MIN_SIZE or shape[1] < MIN_SIZE:
        raise ValueError(f"image must be at least {MIN_SIZE}x{MIN_SIZE}, got {shape}")
    return rows or max(1, _BAND_PX // shape[1])


def _run(img, cfg: PipelineConfig | None, rows: int = 0, counts: int = 0) -> tuple:
    """Check *img* and drive it through every pass of *cfg* in chunks of
    :func:`_chunk_rows` rows. Returns the output image, then with *counts*
    1 the per-pass class counts, and with 2 the per-pass module counts too.
    """
    arr = as_gray(img)
    rows = _chunk_rows(arr.shape, rows)
    cfg = cfg or PipelineConfig()
    chunks = (arr[r : r + rows] for r in range(0, arr.shape[0], rows))
    stats = ([], [])[:counts]
    out = np.concatenate(list(_drive(chunks, cfg, stats)))
    return (out, *stats)


def denoise(img, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Denoise *img* with the configured iteration schedule (default two passes)."""
    return _run(img, cfg)[0]


def denoise_with_stats(
    img, cfg: PipelineConfig | None = None
) -> tuple[np.ndarray, list[dict[PixelClass, int]]]:
    """Like :func:`denoise` but also returns per-iteration class counts."""
    return _run(img, cfg, counts=1)


def median_filter(img, k: int) -> np.ndarray:
    """Exact k x k median filter, k = 3 or 5, over a replication-padded frame.

    The output pixel is the true order statistic of its neighborhood: the
    middle wire of a comparator network pruned to that one rank, run on the
    uint8 window views (``min``/``max`` cannot overflow, so nothing is
    widened). k = 3 runs the kernel's Floyd network pruned to F4, k = 5
    Batcher's merge-exchange network on 25 inputs pruned to rank 12. Like
    the frame engine, it walks bands of ``_BAND_PX // width`` rows.
    """
    if k not in (3, 5):
        raise ValueError(f"window size must be 3 or 5, got {k}")
    arr = as_gray(img)
    if arr.shape[0] < k or arr.shape[1] < k:
        raise ValueError(f"image must be at least {k}x{k}, got {arr.shape}")
    table, taps, mid = (_MEDIAN9, _W3, 4) if k == 3 else (_MEDIAN25, range(25), 12)
    padded = np.pad(arr, 2, mode="edge")
    out = np.empty_like(arr)
    rows = max(1, _BAND_PX // arr.shape[1])
    for r in range(0, arr.shape[0], rows):
        planes = _window_planes(padded[r : r + rows + 4], taps)
        out[r : r + rows] = _select(planes, table, (mid,))[0]
    return out


def write_class_stats_csv(
    path: str | os.PathLike,
    class_counts: list[dict[PixelClass, int]],
    module_counts: list[dict[str, int]] | None = None,
) -> None:
    """Write per-iteration statistics as ``iteration,class,count`` rows.

    Streaming-engine module invocation counts, when provided, are appended
    as extra rows with the class column spelled ``stream.<module>``. Like
    :func:`~mrdenoise.pgm.write_pgm`, an error leaves *path* as it was.
    """
    lines = ["iteration,class,count"]
    for i, counts in enumerate(class_counts, start=1):
        lines += [f"{i},{cls.label},{counts.get(cls, 0)}" for cls in PixelClass]
    for i, modules in enumerate(module_counts or (), start=1):
        lines += [f"{i},stream.{name},{count}" for name, count in modules.items()]
    with _replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
