"""Row-streaming engine: the pass driver, ``pipeline._drive``, fed one row per chunk.

The frame engine, :func:`mrdenoise.pipeline.denoise`, feeds the same
driver cache-sized bands of rows, and ``mrdenoise denoise --engine
stream`` feeds it rows read from the input file. ``_drive``'s docstring
says how the passes run as a pipeline, one kernel call per row step, and
bounds the rows each pass holds. Outputs are bit-identical to the frame
engine because both run the same kernel on the same windows under the
same pass schedule.

The module counts (one per ``pipeline.MODULE_NAMES`` stage) are sums over
each pass's histogram of the kernel's 5-bit predicate codes, each weighted
by the stages on that code's path through
:func:`mrdenoise.pipeline.classify_window`, so they equal what the scalar
specification would count pixel by pixel.
"""

from __future__ import annotations

import numpy as np

from .pipeline import PipelineConfig, PixelClass, _run

__all__ = ["stream_denoise", "stream_denoise_with_stats"]


def stream_denoise_with_stats(
    img, cfg: PipelineConfig | None = None
) -> tuple[np.ndarray, list[dict[PixelClass, int]], list[dict[str, int]]]:
    """Streaming denoise returning per-iteration class and module counts."""
    return _run(img, cfg, rows=1, counts=2)


def stream_denoise(img, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Denoise *img* by streaming its rows, one chunk per row, through every pass.

    The result is bit-identical to :func:`mrdenoise.pipeline.denoise` with
    the same configuration.
    """
    return _run(img, cfg, rows=1)[0]
