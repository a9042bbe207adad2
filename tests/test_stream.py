import dataclasses
import gc
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import make_rng, random_image, scalar_pass, synthetic_mr_slice

from mrdenoise import (
    MODULE_NAMES,
    NoiseSpec,
    PipelineConfig,
    PixelClass,
    Thresholds,
    denoise,
    denoise_with_stats,
    inject_rvin,
    stream_denoise,
    stream_denoise_with_stats,
)
from mrdenoise import pipeline
from mrdenoise.pipeline import _drive

BIG = 10**6


def scalar_oracle(img, cfg, gate_active, skip_npc):
    """Output and stage counts of one pass, from the scalar specification on every pixel."""
    counters = dict.fromkeys(MODULE_NAMES, 0)
    return scalar_pass(img, cfg, gate_active, skip_npc, counters), counters


class TestRowRing:
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_reads_three_rows_ahead_per_pass(self, iterations):
        img = random_image(50, 17, 9)
        cfg = PipelineConfig(iterations=iterations)
        read = 0

        def source():
            nonlocal read
            for row in img[:, None]:
                read += 1
                yield row

        emitted = []
        for r, rows in enumerate(_drive(source(), cfg, [])):
            # the first pass emits row r once it has read row r + 2; each later
            # pass takes those rows one step later, so it emits three rows behind
            assert rows.shape[0] == 1
            assert read == min(img.shape[0], r + 3 * cfg.iterations)
            emitted.append(rows)
        assert np.array_equal(np.concatenate(emitted), denoise(img, cfg))

    def test_uniform_rows(self):
        img = np.full((6, 8), 31, np.uint8)
        assert np.array_equal(stream_denoise(img), img)


class TestStreamDenoise:
    def test_matches_frame_on_noisy_image(self):
        img = random_image(51, 64, 64)
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(0.10, seed=3))
        assert np.array_equal(stream_denoise(noisy), denoise(noisy))

    def test_matches_frame_on_minimal_image(self):
        img = random_image(52, 5, 7)
        assert np.array_equal(stream_denoise(img), denoise(img))

    def test_single_iteration_definitional(self):
        img = random_image(53, 9, 12)
        cfg = PipelineConfig(iterations=1)
        assert np.array_equal(stream_denoise(img, cfg), denoise(img, cfg))
        assert np.array_equal(stream_denoise(img, cfg), scalar_pass(img, cfg, gate_active=False))

    def test_matches_frame_with_nondefault_config(self):
        img = random_image(54, 20, 15)
        cfg = PipelineConfig(
            thresholds=Thresholds(t1=12, t2=90, t3=18, t4=14, t5=4),
            iterations=3,
            iteration1_skips_similarity_gate=False,
            eq4_literal_weights=True,
        )
        assert np.array_equal(stream_denoise(img, cfg), denoise(img, cfg))

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            stream_denoise(np.zeros((4, 9), np.uint8))

    @pytest.mark.parametrize("engine", [stream_denoise, stream_denoise_with_stats])
    def test_feeds_the_driver_one_row_per_chunk(self, monkeypatch, engine):
        heights = []
        drive = pipeline._drive

        def recording(chunks, *rest):
            return drive((heights.append(len(c)) or c for c in chunks), *rest)

        monkeypatch.setattr(pipeline, "_drive", recording)
        engine(random_image(56, 12, 9))
        assert heights == [1] * 12

    def test_pass_count_beyond_recursion_limit(self):
        img = random_image(57, 5, 5)
        cfg = PipelineConfig(iterations=sys.getrecursionlimit() + 100)
        assert np.array_equal(stream_denoise(img, cfg), denoise(img, cfg))


    def test_row_engine_peak(self):
        # a two-pass 128x128 run holds a few padded rows per pass: about 5
        # images at the peak. Building the kernel's window lines with
        # tuple(generator) raises it to 9 images, because those 4-tuples,
        # once freed, pile up on the interpreter's free list until a full
        # collection.
        noisy, _ = inject_rvin(synthetic_mr_slice(3, size=128), NoiseSpec.rvin(0.20, seed=7))
        stream_denoise_with_stats(noisy)  # warm up lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            stream_denoise_with_stats(noisy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} images"


class TestStreamStats:
    def test_class_counts_match_frame(self):
        img = random_image(55, 24, 19)
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(0.2, seed=9))
        out, class_stats, module_stats = stream_denoise_with_stats(noisy)
        frame_out, frame_stats = denoise_with_stats(noisy)
        assert np.array_equal(out, frame_out)
        assert class_stats == frame_stats
        assert len(module_stats) == 2

    def test_module_counter_consistency(self):
        img = random_image(56, 18, 22)
        _, class_stats, module_stats = stream_denoise_with_stats(img)
        n = img.size
        for counts, mods in zip(class_stats, module_stats):
            edges = counts[PixelClass.KEEP_EDGE] + counts[PixelClass.NOISY_EDGE]
            assert mods["sorter"] == n
            assert mods["type1_edge_detector"] == n
            assert mods["type2_edge_detector"] == edges
            assert mods["disorder_analyzer"] == n - edges
            assert mods["average_filter"] == counts[PixelClass.NOISY_SMOOTH]
            assert mods["type1_edge_preserve_filter"] == counts[PixelClass.DISORDERED]
            assert mods["type2_edge_preserve_filter"] == counts[PixelClass.NOISY_EDGE]

    @pytest.mark.parametrize("eq4_literal", [False, True])
    @pytest.mark.parametrize("skip_npc", [False, True])
    @pytest.mark.parametrize("skip_gate", [False, True])
    @pytest.mark.parametrize(
        "thresholds",
        [
            Thresholds(),
            Thresholds(t1=0, t3=0, t4=0, t5=0),
            Thresholds(t1=0, t3=0, t4=0, t5=8),
            Thresholds(t2=0),
            Thresholds(t1=BIG, t2=BIG, t3=BIG, t4=BIG),
        ],
        ids=["default", "zero-t5-0", "zero-t5-8", "t2-0", "huge"],
    )
    def test_module_counts_match_scalar_oracle(self, thresholds, skip_gate, skip_npc, eq4_literal):
        clean = synthetic_mr_slice(3, size=24)
        noisy, _ = inject_rvin(clean, NoiseSpec.rvin(0.25, seed=4))
        cfg = PipelineConfig(
            thresholds=thresholds,
            iterations=2,
            iteration1_skips_similarity_gate=skip_gate,
            iteration1_skips_noisy_pixel_check=skip_npc,
            eq4_literal_weights=eq4_literal,
        )
        out, _, module_stats = stream_denoise_with_stats(noisy, cfg)
        pass1 = denoise(noisy, dataclasses.replace(cfg, iterations=1))
        oracle1, counts1 = scalar_oracle(noisy, cfg, not skip_gate, skip_npc)
        oracle2, counts2 = scalar_oracle(oracle1, cfg, True, False)
        assert np.array_equal(pass1, oracle1)
        assert np.array_equal(out, oracle2)
        assert module_stats == [counts1, counts2]
        assert all(list(m) == list(MODULE_NAMES) for m in module_stats)


class TestEquivalenceSweep:
    def test_random_shapes_and_configs(self):
        # up to 12 passes, past the 8 stacked blocks at which a uint8 code
        # index would wrap, and heights below the stream's lag of about three
        # rows per pass; both first-pass flags make the first pass's table
        # differ from the later ones
        g = make_rng(58)
        for trial in range(24):
            iterations = int(g.integers(1, 13))
            h = int(g.integers(5, 3 * iterations + 9))
            w = int(g.integers(5, 40))
            img = g.integers(0, 256, (h, w), dtype=np.uint8)
            cfg = PipelineConfig(
                thresholds=Thresholds(
                    t1=int(g.integers(0, 50)),
                    t2=int(g.integers(0, 400)),
                    t3=int(g.integers(0, 70)),
                    t4=int(g.integers(0, 25)),
                    t5=int(g.integers(0, 9)),
                ),
                iterations=iterations,
                iteration1_skips_similarity_gate=bool(g.integers(0, 2)),
                iteration1_skips_noisy_pixel_check=bool(g.integers(0, 2)),
                eq4_literal_weights=bool(g.integers(0, 2)),
            )
            stream_out, *stream_stats = stream_denoise_with_stats(img, cfg)
            frame_out, *frame_stats = pipeline._run(img, cfg, counts=2)
            assert np.array_equal(stream_out, frame_out), f"trial {trial}: {h}x{w} {cfg}"
            assert stream_stats == frame_stats, f"trial {trial}: {h}x{w} {cfg}"


class TestPipelinedCalls:
    """What the kernel receives: one stacked call per stream step, capped in size."""

    @staticmethod
    def record(monkeypatch):
        shapes = []
        kernel = pipeline._iterate_block

        def recording(padded, *rest):
            shapes.append(padded.shape)
            return kernel(padded, *rest)

        monkeypatch.setattr(pipeline, "_iterate_block", recording)
        return shapes

    def test_stream_makes_about_one_call_per_row(self, monkeypatch):
        img = random_image(59, 128, 128)
        cfg = PipelineConfig(iterations=2)
        expected = denoise(img, cfg)
        shapes = self.record(monkeypatch)
        assert np.array_equal(stream_denoise(img, cfg), expected)
        # one call per pass per output row, as the passes ran one after another, made 252
        assert len(shapes) <= 128 + 3 * cfg.iterations
        assert max(n for n, _, _ in shapes) == 2

    def test_cap_splits_a_wide_step(self, monkeypatch):
        img = random_image(60, 64, 1024)
        cfg = PipelineConfig(iterations=40)
        expected = denoise(img, cfg)
        shapes = self.record(monkeypatch)
        assert np.array_equal(stream_denoise(img, cfg), expected)
        for n, rows, cols in shapes:
            assert n * rows * cols <= max(rows * cols, pipeline._BAND_PX), (n, rows, cols)
        per_call = pipeline._BAND_PX // (5 * 1028)
        assert max(n for n, _, _ in shapes) == per_call
        # uncapped, each of the stream's 64 + 40 steps would stack all its
        # one-row blocks into one call
        assert len([s for s in shapes if s[1] == 5]) > 64 + 40

    def test_frame_bands_run_alone(self, monkeypatch):
        shapes = self.record(monkeypatch)
        denoise(np.full((1024, 1024), 90, np.uint8), PipelineConfig(iterations=2))
        # 32-row bands: pass 2 takes each band of pass 1 one step later
        rows = [34] + [36, 32] + [36, 36] * 30 + [6, 36] + [8]
        assert shapes == [(1, r, 1028) for r in rows]
