"""Command-line front end: noise injection, denoising, and evaluation reports.

Exit codes: 0 on success, 2 on usage errors (bad flags, undersized or
otherwise invalid inputs), 1 on I/O failures (unreadable files, missing
output directories, malformed PGM content, memory exhausted). All commands are
deterministic given their flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys
import time
from pathlib import Path

from .detect import Thresholds, load_thresholds
from .image import psnr
from .noise import NoiseSpec, inject_fvin, inject_rvin, mask_to_gray
from .pgm import PgmFormatError, _raster, _replacing, _write, read_pgm, write_pgm
from .pipeline import PipelineConfig, _chunk_rows, _drive, denoise, median_filter, write_class_stats_csv

DEFAULT_DENSITIES = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40)

# eval methods: name -> restore(noisy, cfg)
METHODS = {
    "proposed": denoise,
    "median3": lambda noisy, cfg: median_filter(noisy, 3),
    "median5": lambda noisy, cfg: median_filter(noisy, 5),
}

# inject noise kinds: name -> injector
NOISE_KINDS = {"rvin": inject_rvin, "fvin": inject_fvin}

# threshold flags: Thresholds field -> help text
THRESHOLD_HELP = {
    "t1": "sorted-gap edge threshold",
    "t2": "directional-distance limit for clean edges, which changes no output while t5 >= 5 and t1 >= t4",
    "t3": "disorder margin around the window medians",
    "t4": "intensity tolerance for similarity and extremum proximity",
    "t5": "minimum similar neighbors to keep a pixel",
}

EVAL_HEADER = ("image", "kind", "density", "method", "psnr_db", "time_ms")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    th = Thresholds()
    for name, text in THRESHOLD_HELP.items():
        parser.add_argument(f"--{name}", type=int, help=f"{text} (default {getattr(th, name)})")
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="plain-text key=value threshold file (t1..t5); explicit --tN flags override",
    )
    parser.add_argument(
        "--iterations", type=int, default=PipelineConfig.iterations, help="number of passes (default %(default)s)"
    )
    parser.add_argument(
        "--eq4-literal",
        action="store_true",
        help="apply the half weight inside the directional absolute difference (changes no output while t5 >= 5 and t1 >= t4)",
    )
    parser.add_argument(
        "--no-iter1-bypass",
        action="store_true",
        help="run the candidate similarity rescue in the first pass too",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrdenoise",
        description="Impulse-noise injection, detection-based denoising, and PSNR evaluation for 8-bit grayscale PGM images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inject = sub.add_parser("inject", help="corrupt an image with impulse noise")
    p_inject.set_defaults(handler=_cmd_inject)
    p_inject.add_argument("input", help="clean input PGM")
    p_inject.add_argument("output", help="noisy output PGM")
    p_inject.add_argument("mask", help="corruption mask output PGM ({0,255})")
    p_inject.add_argument("--kind", choices=NOISE_KINDS, default="rvin", help="noise model")
    p_inject.add_argument("--p", type=float, default=0.0, help="rvin corruption probability")
    p_inject.add_argument("--p1", type=float, default=0.0, help="fvin low-range probability")
    p_inject.add_argument("--p2", type=float, default=0.0, help="fvin high-range probability")
    p_inject.add_argument("--m", type=int, default=0, help="fvin intensity margin")
    p_inject.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")

    p_denoise = sub.add_parser("denoise", help="remove impulse noise from an image")
    p_denoise.set_defaults(handler=_cmd_denoise)
    p_denoise.add_argument("input", help="noisy input PGM (at least 5x5)")
    p_denoise.add_argument("output", help="denoised output PGM")
    _add_pipeline_flags(p_denoise)
    p_denoise.add_argument(
        "--engine",
        choices=("frame", "stream"),
        default="frame",
        help="feed the passes cache-sized bands of rows, or one row at a time like a line-buffered chip (same output)",
    )
    p_denoise.add_argument(
        "--stats",
        metavar="CSV",
        help="write per-iteration class counts (and, with --engine stream, module invocation counts)",
    )

    p_eval = sub.add_parser(
        "eval", help="inject, denoise, and report PSNR over a corpus of clean PGMs"
    )
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("corpus", help="directory of clean PGM images")
    p_eval.add_argument("--out", required=True, metavar="CSV", help="report output path")
    p_eval.add_argument(
        "--densities",
        default=",".join(str(d) for d in DEFAULT_DENSITIES),
        help="comma-separated corruption fractions (default %(default)s)",
    )
    p_eval.add_argument(
        "--methods",
        default=",".join(METHODS),
        help=f"comma-separated subset of {','.join(METHODS)} (default %(default)s)",
    )
    p_eval.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_pipeline_flags(p_eval)

    return parser


def _config_from_args(args) -> PipelineConfig:
    base = load_thresholds(args.config) if args.config else Thresholds()
    flags = {name: value for name in THRESHOLD_HELP if (value := getattr(args, name)) is not None}
    return PipelineConfig(
        thresholds=dataclasses.replace(base, **flags),
        iterations=args.iterations,
        iteration1_skips_similarity_gate=not args.no_iter1_bypass,
        eq4_literal_weights=args.eq4_literal,
    )


def _require_output_dirs(*paths) -> None:
    """Refuse, before any input is read, an output path whose directory is
    missing, or two that name one file, which would keep only the last written."""
    paths = [p for p in paths if p]
    for parent in (Path(p).parent for p in paths):
        if not parent.is_dir():
            raise FileNotFoundError(f"output directory not found: {parent}")
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        raise ValueError(f"outputs {' and '.join(paths)} name one file")


def _cmd_inject(args) -> int:
    # NoiseSpec refuses a nonzero flag that the kind does not use
    spec = NoiseSpec(args.kind, p=args.p, p1=args.p1, p2=args.p2, m=args.m, seed=args.seed)
    _require_output_dirs(args.output, args.mask)
    noisy, mask = NOISE_KINDS[args.kind](read_pgm(args.input), spec)
    # the mask is renamed first, and neither file before both are written
    with _replacing(args.output) as out:
        _write(out, noisy.shape, [noisy])
        write_pgm(args.mask, mask_to_gray(mask))
    fraction = int(mask.sum()) / mask.size
    print(f"corrupted {int(mask.sum())}/{mask.size} pixels (fraction {fraction:.6f})")
    return 0


def _cmd_denoise(args) -> int:
    cfg = _config_from_args(args)
    _require_output_dirs(args.output, args.stats)
    # file to file in bands (frame engine) or rows (stream engine): each
    # restored row is written as it leaves the passes, so memory does not
    # grow with the image
    with open(args.input, "rb", buffering=0) as src:
        shape, bands = _raster(src)
        # an undersized image is refused from its header, raster unread
        rows = _chunk_rows(shape, 1 if args.engine == "stream" else 0)
        # class counts, and on the stream engine module counts too
        stats = ([], [])[: 1 + (args.engine == "stream")] if args.stats else ()
        with _replacing(args.output) as dst:
            _write(dst, shape, _drive(bands(rows), cfg, stats))
            # opened after the passes, so they run with one file open; as in
            # inject, neither file is renamed over its path before both are written
            if args.stats:
                write_class_stats_csv(args.stats, *stats)
    return 0


def _comma_list(text: str, what: str, convert) -> list:
    """The items of a comma-separated list of *what*, each through *convert*,
    which refuses a bad one. A repeat would add two runs into one mean."""
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{what} list is empty")
    values = []
    for value in map(convert, items):
        if value in values:
            raise ValueError(f"{what} {value!r} given twice")
        values.append(value)
    return values


def _parse_densities(text: str) -> list[float]:
    def density(tok: str) -> float:
        try:
            d = float(tok)
        except ValueError:
            raise ValueError(f"invalid density list: {text!r}") from None
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"density {d} outside [0, 1]")
        return d

    return _comma_list(text, "density", density)


def _method(tok: str) -> str:
    if tok not in METHODS:
        raise ValueError(f"unknown method {tok!r} (choose from {', '.join(METHODS)})")
    return tok


def _cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    densities = _parse_densities(args.densities)
    methods = _comma_list(args.methods, "method", _method)
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    _require_output_dirs(args.out)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise OSError(f"corpus directory not found: {corpus}")
    paths = sorted(corpus.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm images found in {corpus}")

    rows = []
    sums: dict[tuple[float, str], float] = {}
    # opened before the first cell runs, so an output that cannot be written fails at once
    with _replacing(args.out) as out:
        for img_idx, path in enumerate(paths):
            try:
                clean = read_pgm(path)
                for d_idx, density in enumerate(densities):
                    spec = NoiseSpec.rvin(density, seed=args.seed + 10007 * img_idx + d_idx)
                    noisy, _ = inject_rvin(clean, spec)
                    for method in methods:
                        start = time.perf_counter()
                        restored = METHODS[method](noisy, cfg)
                        elapsed_ms = (time.perf_counter() - start) * 1000.0
                        quality = psnr(clean, restored)
                        rows.append((path.stem, "rvin", f"{density:g}", method, f"{quality:.6f}", f"{elapsed_ms:.3f}"))
                        sums[(density, method)] = sums.get((density, method), 0.0) + quality
            except ValueError as exc:
                # PgmFormatError too; the type, and so the exit code, stays
                exc.args = (f"{path}: {exc}",)
                raise
            except MemoryError as exc:
                # numpy builds its message from the array's shape, not from args
                raise MemoryError(f"{path}: {exc or 'out of memory'}") from None
        # made last: a csv writer holds a 128 KiB record buffer while it lives
        report = io.StringIO()
        csv.writer(report, lineterminator="\n").writerows([EVAL_HEADER, *rows])
        out.write(report.getvalue().encode())

    print("density  " + "".join(f"{m:>12}" for m in methods))
    for density in densities:
        cells = "".join(f"{sums[(density, m)] / len(paths):12.2f}" for m in methods)
        print(f"{100 * density:6.1f}%  {cells}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PgmFormatError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array it could not allocate; a bare one says nothing
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
