"""Golden grid: SHA-256 of the CLI ``denoise`` input, output and ``--stats`` CSV.

Each cell runs ``mrdenoise denoise`` in-process on a noisy phantom and
compares the three file hashes with ``tests/golden_grid.json``. The 256²
cells cover both noise kinds at three densities, each schedule flag set,
one to three passes and both engines; the 1024² cells (frame engine, two
passes) cross row-band boundaries. At the default thresholds an edge pixel is never
``KeepEdge`` and ``--eq4-literal`` leaves the output unchanged, so the
lower-threshold cells (``--t1 5``, ``--t1 10 --t4 20``, with and without
``--eq4-literal``) reach ``KeepEdge`` and pin the directional distance. The
inputs come from the benchmark's frozen phantom and noise generators, so
the grid does not depend on the package's own injectors.

Regenerate the JSON only when an output change is intended::

    PYTHONPATH=src:. python tests/test_golden_grid.py
"""

import hashlib
import itertools
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from perfbench.phantom import fvin, pgm_bytes, rvin, synthetic_mr_slice

from mrdenoise import cli

GOLDEN = Path(__file__).with_name("golden_grid.json")
KINDS = ("rvin", "fvin")
FLAGS = {
    "default": (),
    "eq4-literal": ("--eq4-literal",),
    "no-iter1-bypass": ("--no-iter1-bypass",),
    "t1-5": ("--t1", "5"),
    "t1-5-eq4-literal": ("--t1", "5", "--eq4-literal"),
    "t1-10-t4-20": ("--t1", "10", "--t4", "20"),
    "t1-10-t4-20-eq4-literal": ("--t1", "10", "--t4", "20", "--eq4-literal"),
}
SCHEDULE_FLAGS = ("default", "eq4-literal", "no-iter1-bypass")
KEEP_EDGE_FLAGS = ("t1-5", "t1-5-eq4-literal", "t1-10-t4-20", "t1-10-t4-20-eq4-literal")
PHANTOM_SEED = 1
NOISE_SEED = 11
FVIN_MARGIN = 5

CELLS = [
    *itertools.product((256,), KINDS, (0.05, 0.2, 0.4), SCHEDULE_FLAGS, (1, 2, 3), ("frame", "stream")),
    *itertools.product((1024,), KINDS, (0.2,), SCHEDULE_FLAGS, (2,), ("frame",)),
    *itertools.product((256,), KINDS, (0.2,), KEEP_EDGE_FLAGS, (2,), ("frame", "stream")),
    *itertools.product((1024,), ("rvin",), (0.2,), KEEP_EDGE_FLAGS, (2,), ("frame",)),
]


def cell_id(size, kind, p, flags, iterations, engine) -> str:
    return f"{size}-{kind}-{p:g}-{flags}-it{iterations}-{engine}"


@lru_cache(maxsize=1)  # CELLS lists the cells of one input together
def noisy_pgm(size: int, kind: str, p: float) -> bytes:
    """P5 bytes of the phantom under RVIN p, or FVIN p1 = p2 = p/2 with m = 5."""
    clean = synthetic_mr_slice(PHANTOM_SEED, size=size)
    if kind == "rvin":
        return pgm_bytes(rvin(clean, p, NOISE_SEED))
    return pgm_bytes(fvin(clean, p / 2, p / 2, FVIN_MARGIN, NOISE_SEED))


def run_cell(tmp: Path, size, kind, p, flags, iterations, engine) -> dict[str, str]:
    paths = {"input": tmp / "in.pgm", "output": tmp / "out.pgm", "stats": tmp / "stats.csv"}
    paths["input"].write_bytes(noisy_pgm(size, kind, p))
    argv = ["denoise", paths["input"], paths["output"], "--engine", engine,
            "--iterations", iterations, "--stats", paths["stats"], *FLAGS[flags]]
    assert cli.main([str(a) for a in argv]) == 0
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_grid_covers_every_cell(golden):
    assert sorted(golden) == sorted(cell_id(*cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_id(*cell))
def test_golden_cell(tmp_path, golden, cell):
    assert run_cell(tmp_path, *cell) == golden[cell_id(*cell)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        grid = {cell_id(*cell): run_cell(Path(tmp), *cell) for cell in CELLS}
    GOLDEN.write_text(json.dumps(grid, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(grid)} cells to {GOLDEN}")
