"""Row-streaming engine: the frame kernel driven through five-row rings.

Each pass is a generator that holds a ring of the five most recent
replication-padded rows of its input, runs the frame kernel once per
row on that 5-row block, and yields one restored row. Passes are
chained, so pass *k+1* consumes pass *k*'s rows as they are emitted and
each pass reads at most two rows ahead of the row it yields. Working
memory is therefore O(width x passes) rather than O(width x height).
Outputs are bit-identical to :func:`mrdenoise.pipeline.denoise` because
both engines run the same kernel on the same windows under the same
pass schedule.

Per-stage invocation counts (sorter, the two edge detectors, disorder
analyzer, noisy-pixel checker, similarity checker, and the three
restoration filters) are derived from the kernel's class counts with the
short-circuit rules of :func:`mrdenoise.pipeline.classify_window`, so
they equal what the scalar specification would count pixel by pixel.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

import numpy as np

from .pipeline import (
    PipelineConfig,
    PixelClass,
    _iterate_block,
    _require_denoisable,
    _schedule,
)

__all__ = ["MODULE_NAMES", "stream_denoise", "stream_denoise_with_stats"]

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

# tally layout: one slot per PixelClass, then the edge pixels that the
# directional test alone marks noisy
_DIRECT_NOISY_EDGE = len(PixelClass)


def _pass_rows(
    rows: Iterable[np.ndarray],
    cfg: PipelineConfig,
    gate_active: bool,
    skip_npc: bool,
    tally: np.ndarray,
) -> Iterator[np.ndarray]:
    """One pass over a stream of image rows, yielding restored rows in order.

    The ring starts with the first row replicated above the image and is
    flushed with the last row replicated below it, which is exactly the
    frame pipeline's edge padding. *tally* accumulates the pass's class
    counts and its direct noisy-edge count.
    """
    ring: deque[np.ndarray] = deque(maxlen=5)

    def emit() -> np.ndarray:
        out, cls, direct = _iterate_block(
            np.stack(ring),
            cfg.thresholds,
            gate_active,
            skip_npc,
            cfg.eq4_literal_weights,
        )
        tally[:_DIRECT_NOISY_EDGE] += np.bincount(cls[0], minlength=len(PixelClass))
        tally[_DIRECT_NOISY_EDGE] += direct
        return out[0]

    for row in rows:
        padded = np.pad(row, 2, mode="edge").astype(np.int32)
        if not ring:
            ring.extend((padded, padded))
        ring.append(padded)
        if len(ring) == 5:
            yield emit()
    for _ in range(2):
        ring.append(ring[-1])
        yield emit()


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


def stream_denoise_with_stats(
    img, cfg: PipelineConfig | None = None
) -> tuple[np.ndarray, list[dict[PixelClass, int]], list[dict[str, int]]]:
    """Streaming denoise returning per-iteration class and module counts."""
    arr = _require_denoisable(img)
    cfg = cfg or PipelineConfig()
    schedule = _schedule(cfg)
    tallies = [np.zeros(_DIRECT_NOISY_EDGE + 1, np.int64) for _ in schedule]
    rows: Iterable[np.ndarray] = arr
    for (gate_active, skip_npc), tally in zip(schedule, tallies):
        rows = _pass_rows(rows, cfg, gate_active, skip_npc, tally)
    out = np.stack(list(rows))
    class_stats = [{c: int(t[c]) for c in PixelClass} for t in tallies]
    module_stats = [
        _module_counts(t, gate_active, skip_npc)
        for t, (gate_active, skip_npc) in zip(tallies, schedule)
    ]
    return out, class_stats, module_stats


def stream_denoise(img, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Denoise *img* by streaming its rows through chained five-row rings.

    The result is bit-identical to :func:`mrdenoise.pipeline.denoise` with
    the same configuration.
    """
    return stream_denoise_with_stats(img, cfg)[0]
