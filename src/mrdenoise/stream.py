"""Row-streaming engine: the frame pipeline's pass driver fed one row at a time.

:func:`mrdenoise.pipeline.denoise` hands the pass driver the frame in
cache-sized bands of rows; this engine hands it one image row per chunk. Each pass
then holds only the last four padded rows it has seen and reads at most
two rows ahead of the row it emits, so working memory is
O(width x passes) rather than O(width x height). Outputs are
bit-identical to the frame engine because both run the same kernel on
the same windows under the same pass schedule.

Per-stage invocation counts (sorter, the two edge detectors, disorder
analyzer, noisy-pixel checker, similarity checker, and the three
restoration filters) are derived from the kernel's class counts with the
short-circuit rules of :func:`mrdenoise.pipeline.classify_window`, so
they equal what the scalar specification would count pixel by pixel.
"""

from __future__ import annotations

import numpy as np

from .pipeline import PipelineConfig, PixelClass, _require_denoisable, _run

__all__ = ["stream_denoise", "stream_denoise_with_stats"]


def stream_denoise_with_stats(
    img, cfg: PipelineConfig | None = None
) -> tuple[np.ndarray, list[dict[PixelClass, int]], list[dict[str, int]]]:
    """Streaming denoise returning per-iteration class and module counts."""
    return _run(_require_denoisable(img)[:, None], cfg or PipelineConfig())


def stream_denoise(img, cfg: PipelineConfig | None = None) -> np.ndarray:
    """Denoise *img* by streaming its rows, one chunk per row, through every pass.

    The result is bit-identical to :func:`mrdenoise.pipeline.denoise` with
    the same configuration.
    """
    return stream_denoise_with_stats(img, cfg)[0]
