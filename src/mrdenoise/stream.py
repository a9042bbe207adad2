"""Row-streaming engine: the frame pipeline's pass driver fed one row at a time.

Both engines drive the same pass driver, ``pipeline._drive``:
:func:`mrdenoise.pipeline.denoise` feeds it cache-sized bands of rows and
this engine one image row per chunk, from an array through
``pipeline._run`` or, in ``mrdenoise denoise``, from the input file. It
runs the passes as a pipeline, like the stages of a hardware
chain: on each row step every pass works on the row the pass before it
emitted on the previous step, and one kernel call restores the one-row
blocks of all passes joined side by side in one contiguous plane, each
block with its own pad columns. Each pass holds its last four
padded rows plus one pending row, and emits its rows three rows behind
the pass before it (the first pass two rows behind its input), so
working memory is O(width x passes) rather than O(width x height).
Outputs are bit-identical to the frame engine because both run the same
kernel on the same windows under the same pass schedule.

Per-stage invocation counts (sorter, the two edge detectors, disorder
analyzer, noisy-pixel checker, similarity checker, and the three
restoration filters) are sums over each pass's histogram of the kernel's
5-bit predicate codes, each weighted by the stages on that code's path
through :func:`mrdenoise.pipeline.classify_window`, so they equal what
the scalar specification would count pixel by pixel.
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
