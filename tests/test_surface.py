"""The package surface: each public name is written once, in its module's ``__all__``."""

import importlib
import pkgutil

import mrdenoise

# the modules whose __all__ lists make up the package's; cli and __main__ export nothing
MODULES = ("detect", "image", "noise", "pgm", "pipeline", "restore", "stream")

SURFACE = [
    "MODULE_NAMES",
    "NoiseSpec",
    "PEAK",
    "PgmFormatError",
    "PipelineConfig",
    "PixelClass",
    "Thresholds",
    "__version__",
    "as_gray",
    "average_restore",
    "classify_window",
    "denoise",
    "denoise_with_stats",
    "directional_distances",
    "disorder",
    "inject_fvin",
    "inject_rvin",
    "load_thresholds",
    "mask_to_gray",
    "median_filter",
    "mse",
    "noisy_pixel",
    "psnr",
    "read_pgm",
    "restore_pixel",
    "similarity",
    "stream_denoise",
    "stream_denoise_with_stats",
    "type1_edge",
    "type1_edge_preserve",
    "type2_edge",
    "type2_edge_preserve",
    "write_class_stats_csv",
    "write_pgm",
]


def test_surface_is_frozen():
    assert sorted(mrdenoise.__all__) == SURFACE
    assert len(set(mrdenoise.__all__)) == len(mrdenoise.__all__)


def test_surface_is_the_union_of_the_module_lists():
    found = {m.name for m in pkgutil.iter_modules(mrdenoise.__path__)}
    assert found == {*MODULES, "cli", "__main__"}
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"mrdenoise.{name}")
        for public in module.__all__:
            assert public not in owner, f"{public} in {owner.get(public)} and {name}"
            owner[public] = module
    assert sorted(mrdenoise.__all__) == sorted(["__version__", *owner])
    for public, module in owner.items():
        assert getattr(mrdenoise, public) is getattr(module, public)
