"""Command-line front end: noise injection, denoising, and evaluation reports.

Exit codes: 0 on success, 2 on usage errors (bad flags, undersized or
otherwise invalid inputs), 1 on I/O failures (unreadable files, malformed
PGM content). All commands are deterministic given their flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .detect import Thresholds, load_thresholds
from .image import psnr
from .noise import NoiseSpec, inject_fvin, inject_rvin, write_mask
from .pgm import PgmFormatError, read_pgm, write_pgm
from .pipeline import (
    PipelineConfig,
    denoise,
    denoise_with_stats,
    median_filter,
    write_class_stats_csv,
)
from .stream import stream_denoise_with_stats

DEFAULT_DENSITIES = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40)
METHODS = ("proposed", "median3", "median5")

EVAL_HEADER = ("image", "kind", "density", "method", "psnr_db", "time_ms")


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    defaults = Thresholds()
    for name, text in (
        ("t1", "sorted-gap edge threshold"),
        ("t2", "directional-distance limit for clean edges"),
        ("t3", "disorder margin around the window medians"),
        ("t4", "intensity tolerance for similarity and extremum proximity"),
        ("t5", "minimum similar neighbors to keep a pixel"),
    ):
        parser.add_argument(
            f"--{name}",
            type=int,
            default=None,
            help=f"{text} (default {getattr(defaults, name)})",
        )
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="plain-text key=value threshold file (t1..t5); explicit --tN flags override",
    )


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    _add_threshold_flags(parser)
    parser.add_argument(
        "--iterations", type=int, default=2, help="number of passes (default %(default)s)"
    )
    parser.add_argument(
        "--eq4-literal",
        action="store_true",
        help="apply the half weight inside the directional absolute difference",
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
    p_inject.add_argument("input", help="clean input PGM")
    p_inject.add_argument("output", help="noisy output PGM")
    p_inject.add_argument("mask", help="corruption mask output PGM ({0,255})")
    p_inject.add_argument(
        "--kind", choices=("rvin", "fvin"), default="rvin", help="noise model"
    )
    p_inject.add_argument("--p", type=float, default=0.0, help="rvin corruption probability")
    p_inject.add_argument("--p1", type=float, default=0.0, help="fvin low-range probability")
    p_inject.add_argument("--p2", type=float, default=0.0, help="fvin high-range probability")
    p_inject.add_argument("--m", type=int, default=0, help="fvin intensity margin")
    p_inject.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")

    p_denoise = sub.add_parser("denoise", help="remove impulse noise from an image")
    p_denoise.add_argument("input", help="noisy input PGM (at least 5x5)")
    p_denoise.add_argument("output", help="denoised output PGM")
    _add_pipeline_flags(p_denoise)
    p_denoise.add_argument(
        "--engine",
        choices=("frame", "stream"),
        default="frame",
        help="run the passes on the whole frame, or stream its rows through them one at a time (same output)",
    )
    p_denoise.add_argument(
        "--stats",
        metavar="CSV",
        help="write per-iteration class counts (and, with --engine stream, module invocation counts)",
    )

    p_eval = sub.add_parser(
        "eval", help="inject, denoise, and report PSNR over a corpus of clean PGMs"
    )
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
        help="comma-separated subset of proposed,median3,median5 (default %(default)s)",
    )
    p_eval.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_pipeline_flags(p_eval)

    return parser


def _config_from_args(args, parser) -> PipelineConfig:
    try:
        base = load_thresholds(args.config) if args.config else Thresholds()
        overrides = {
            name: value
            for name in ("t1", "t2", "t3", "t4", "t5")
            if (value := getattr(args, name)) is not None
        }
        thresholds = Thresholds(
            **{name: overrides.get(name, getattr(base, name)) for name in ("t1", "t2", "t3", "t4", "t5")}
        )
        return PipelineConfig(
            thresholds=thresholds,
            iterations=args.iterations,
            iteration1_skips_similarity_gate=not args.no_iter1_bypass,
            eq4_literal_weights=args.eq4_literal,
        )
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_inject(args, parser) -> int:
    try:
        if args.kind == "rvin":
            spec = NoiseSpec.rvin(args.p, seed=args.seed)
        else:
            spec = NoiseSpec.fvin(args.p1, args.p2, m=args.m, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    clean = read_pgm(args.input)
    if spec.kind == "rvin":
        noisy, mask = inject_rvin(clean, spec)
    else:
        noisy, mask = inject_fvin(clean, spec)
    write_pgm(args.output, noisy)
    write_mask(args.mask, mask)
    fraction = int(mask.sum()) / mask.size
    print(f"corrupted {int(mask.sum())}/{mask.size} pixels (fraction {fraction:.6f})")
    return 0


def _cmd_denoise(args, parser) -> int:
    cfg = _config_from_args(args, parser)
    noisy = read_pgm(args.input)
    if args.engine == "stream":
        out, class_stats, module_stats = stream_denoise_with_stats(noisy, cfg)
    else:
        out, class_stats = denoise_with_stats(noisy, cfg)
        module_stats = None
    write_pgm(args.output, out)
    if args.stats:
        write_class_stats_csv(args.stats, class_stats, module_stats)
    return 0


def _parse_densities(text: str, parser) -> list[float]:
    try:
        densities = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"invalid density list: {text!r}")
    if not densities:
        parser.error("density list is empty")
    for d in densities:
        if not 0.0 <= d <= 1.0:
            parser.error(f"density {d} outside [0, 1]")
    return densities


def _parse_methods(text: str, parser) -> list[str]:
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not methods:
        parser.error("method list is empty")
    for m in methods:
        if m not in METHODS:
            parser.error(f"unknown method {m!r} (choose from {', '.join(METHODS)})")
    return methods


def _run_method(name: str, noisy: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    if name == "proposed":
        return denoise(noisy, cfg)
    if name == "median3":
        return median_filter(noisy, 3)
    return median_filter(noisy, 5)


def _cmd_eval(args, parser) -> int:
    cfg = _config_from_args(args, parser)
    densities = _parse_densities(args.densities, parser)
    methods = _parse_methods(args.methods, parser)
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise OSError(f"corpus directory not found: {corpus}")
    paths = sorted(corpus.glob("*.pgm"))
    if not paths:
        parser.error(f"no .pgm images found in {corpus}")

    rows = []
    sums: dict[tuple[float, str], float] = {}
    for img_idx, path in enumerate(paths):
        clean = read_pgm(path)
        for d_idx, density in enumerate(densities):
            spec = NoiseSpec.rvin(density, seed=args.seed + 10007 * img_idx + d_idx)
            noisy, _ = inject_rvin(clean, spec)
            for method in methods:
                start = time.perf_counter()
                restored = _run_method(method, noisy, cfg)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                quality = psnr(clean, restored)
                rows.append(
                    (path.stem, "rvin", f"{density:g}", method, f"{quality:.6f}", f"{elapsed_ms:.3f}")
                )
                sums[(density, method)] = sums.get((density, method), 0.0) + quality

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVAL_HEADER)
        writer.writerows(rows)

    n = len(paths)
    header = "density  " + "".join(f"{m:>12}" for m in methods)
    print(header)
    for density in densities:
        cells = "".join(f"{sums[(density, m)] / n:12.2f}" for m in methods)
        print(f"{100 * density:6.1f}%  {cells}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "inject":
            return _cmd_inject(args, parser)
        if args.command == "denoise":
            return _cmd_denoise(args, parser)
        return _cmd_eval(args, parser)
    except PgmFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
