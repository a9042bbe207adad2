"""Impulse-noise detection and edge-preserving restoration for 8-bit grayscale images.

The package provides seeded noise injectors, window-level noise/edge
classifiers, adaptive restoration filters, an iterative pipeline that
runs on whole frames or streams rows with bit-identical results,
median-filter baselines, PGM I/O, PSNR metrics, and a CLI (``mrdenoise``).
"""

from .detect import (
    Thresholds,
    directional_distances,
    disorder,
    load_thresholds,
    noisy_pixel,
    parse_thresholds_config,
    similarity,
    type1_edge,
    type2_edge,
)
from .image import (
    PEAK,
    as_gray,
    mse,
    psnr,
)
from .noise import (
    NoiseSpec,
    gray_to_mask,
    inject_fvin,
    inject_rvin,
    mask_to_gray,
    read_mask,
    write_mask,
)
from .pgm import PgmFormatError, read_pgm, write_pgm
from .pipeline import (
    MODULE_NAMES,
    PipelineConfig,
    PixelClass,
    classify_window,
    denoise,
    denoise_with_stats,
    median_filter,
    restore_pixel,
    write_class_stats_csv,
)
from .restore import average_restore, type1_edge_preserve, type2_edge_preserve
from .stream import stream_denoise, stream_denoise_with_stats

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PEAK",
    "as_gray",
    "mse",
    "psnr",
    "PgmFormatError",
    "read_pgm",
    "write_pgm",
    "NoiseSpec",
    "inject_rvin",
    "inject_fvin",
    "mask_to_gray",
    "gray_to_mask",
    "write_mask",
    "read_mask",
    "Thresholds",
    "parse_thresholds_config",
    "load_thresholds",
    "type1_edge",
    "directional_distances",
    "type2_edge",
    "disorder",
    "noisy_pixel",
    "similarity",
    "average_restore",
    "type1_edge_preserve",
    "type2_edge_preserve",
    "PixelClass",
    "PipelineConfig",
    "classify_window",
    "restore_pixel",
    "denoise",
    "denoise_with_stats",
    "median_filter",
    "write_class_stats_csv",
    "MODULE_NAMES",
    "stream_denoise",
    "stream_denoise_with_stats",
]
