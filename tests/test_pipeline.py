import sys
import tracemalloc

import numpy as np
import pytest
from conftest import axis_step, make_rng, random_image, scalar_pass, synthetic_mr_slice

from mrdenoise import (
    NoiseSpec,
    PipelineConfig,
    PixelClass,
    Thresholds,
    denoise,
    denoise_with_stats,
    inject_rvin,
    median_filter,
    psnr,
    restore_pixel,
    write_class_stats_csv,
)
from mrdenoise import pipeline
from mrdenoise.pipeline import MAX_ITERATIONS, _BAND_PX, _DIRECT_NOISY_EDGE, _drive, classify


def padded(img):
    return np.pad(img, 2, mode="edge")


def one_pass(gate_active: bool = True) -> PipelineConfig:
    """A single pass with or without the candidate similarity gate."""
    return PipelineConfig(iterations=1, iteration1_skips_similarity_gate=not gate_active)


def drive_one_chunk(img, cfg):
    """Output and per-pass class counts of the pass driver fed *img* as one chunk."""
    tallies = [np.zeros(_DIRECT_NOISY_EDGE + 1, np.int64) for _ in range(cfg.iterations)]
    out = np.concatenate(list(_drive([img], cfg, tallies)))
    return out, [{c: int(t[c]) for c in PixelClass} for t in tallies]


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.iterations == 2
        assert cfg.iteration1_skips_similarity_gate
        assert not cfg.iteration1_skips_noisy_pixel_check
        assert not cfg.eq4_literal_weights

    def test_invalid_iterations(self):
        # the cap must leave room for the getrecursionlimit() + 100 deep-pass tests
        assert MAX_ITERATIONS > sys.getrecursionlimit() + 100
        for iterations in (0, MAX_ITERATIONS + 1, 10**20):
            with pytest.raises(ValueError, match="iterations"):
                PipelineConfig(iterations=iterations)


class TestClassify:
    def test_uniform_interior_is_rescued(self):
        img = np.full((7, 7), 50, np.uint8)
        assert classify(padded(img), 5, 5) is PixelClass.RESCUED_CANDIDATE

    def test_clean_edge_keep_path(self):
        # a window visible to the sorted-gap test (4 low / 5 high) whose
        # vertical line is uniform; t5=4 because the high side of a straight
        # edge can offer at most 4 similar neighbors to a gap-visible center
        w5 = np.full((5, 5), 200, np.uint8)
        for idx in (6, 8, 11, 16):
            w5[divmod(idx, 5)] = 0
        cfg = PipelineConfig(thresholds=Thresholds(t5=4))
        assert classify(w5, 2, 2, cfg) is PixelClass.KEEP_EDGE

    def test_noisy_edge_when_no_direction_aligned(self):
        # gap-visible window like the keep-path one, but with a vertical
        # near pixel knocked out so every direction distance exceeds t2
        w5 = np.full((5, 5), 200, np.uint8)
        for idx in (6, 7, 8, 11, 16):
            w5[divmod(idx, 5)] = 0
        cfg = PipelineConfig(thresholds=Thresholds(t5=4))
        assert classify(w5, 2, 2, cfg) is PixelClass.NOISY_EDGE

    def test_isolated_impulse_is_disordered(self):
        img = np.full((7, 7), 10, np.uint8)
        img[3, 3] = 255
        assert classify(padded(img), 5, 5) is PixelClass.DISORDERED

    def test_gate_inactive_sends_candidates_to_noisy_smooth(self):
        img = np.full((7, 7), 50, np.uint8)
        assert classify(padded(img), 5, 5, gate_active=False) is PixelClass.NOISY_SMOOTH

    def test_candidate_failing_similarity_is_noisy_smooth(self):
        img = np.full((7, 7), 50, np.uint8)
        img[2:5, 2:5] = [[50, 70, 90], [60, 55, 75], [80, 95, 65]]
        # center 55 is within t4 of the window minimum 50 -> candidate;
        # neighbors within 10 of 55: 50, 60, 65 -> 3 < 6 -> not rescued
        assert classify(padded(img), 5, 5) is PixelClass.NOISY_SMOOTH

    def test_out_of_bounds_rejected(self):
        img = np.full((7, 7), 50, np.uint8)
        with pytest.raises(ValueError):
            classify(img, 1, 3)


class TestRestorePixel:
    def test_kept_classes_return_center(self):
        w3 = [1, 2, 3, 4, 42, 6, 7, 8, 9]
        w5 = [0] * 25
        f = sorted(w3)
        for cls in (PixelClass.KEEP_EDGE, PixelClass.KEEP_SMOOTH, PixelClass.RESCUED_CANDIDATE):
            assert restore_pixel(cls, w3, w5, f) == 42

    def test_noisy_smooth_uses_median_rank_average(self):
        # window whose middle sorted values are exactly (10, 12, 14)
        w3 = [10, 12, 14, 1, 2, 3, 250, 251, 252]
        f = sorted(w3)
        assert (f[3], f[4], f[5]) == (10, 12, 14)
        assert restore_pixel(PixelClass.NOISY_SMOOTH, w3, [0] * 25, f) == 12

    def test_noisy_edge_uses_directional_median(self):
        w5 = []
        for _ in range(5):
            w5 += [0, 0, 200, 200, 200]
        w5[12] = 255
        w3 = [w5[i] for i in (6, 7, 8, 11, 12, 13, 16, 17, 18)]
        assert restore_pixel(PixelClass.NOISY_EDGE, w3, w5, sorted(w3)) == 200

    def test_disordered_uses_pair_average(self):
        w3 = [10, 10, 10, 10, 255, 10, 10, 10, 10]
        assert restore_pixel(PixelClass.DISORDERED, w3, [0] * 25, sorted(w3)) == 10


class TestDenoiseIteration:
    def test_uniform_identity(self):
        img = np.full((12, 9), 123, np.uint8)
        for gate in (True, False):
            assert np.array_equal(denoise(img, one_pass(gate)), img)

    def test_single_impulse_removed(self):
        img = np.full((16, 16), 10, np.uint8)
        img[8, 8] = 255
        out = denoise(img, one_pass())
        assert out[8, 8] == 10
        expected = img.copy()
        expected[8, 8] = 10
        assert np.array_equal(out, expected)

    def test_clean_step_edge_is_fixed_point(self):
        img = axis_step()
        once = denoise(img, one_pass())
        assert np.array_equal(once, img)
        assert np.array_equal(denoise(once, one_pass()), img)

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            denoise(np.zeros((4, 8), np.uint8), one_pass())


class TestDenoise:
    def test_single_iteration_equals_gateless_pass(self):
        img = random_image(31, 24, 18)
        cfg = PipelineConfig(iterations=1)
        assert np.array_equal(denoise(img, cfg), scalar_pass(img, cfg, gate_active=False))

    def test_no_bypass_first_iteration_runs_full_gate(self):
        img = random_image(32, 24, 18)
        cfg = PipelineConfig(iterations=1, iteration1_skips_similarity_gate=False)
        assert np.array_equal(denoise(img, cfg), scalar_pass(img, cfg, gate_active=True))

    def test_skip_candidate_path_config(self):
        img = random_image(33, 24, 18)
        cfg = PipelineConfig(iterations=1, iteration1_skips_noisy_pixel_check=True)
        expected = scalar_pass(img, cfg, gate_active=False, skip_npc=True)
        assert np.array_equal(denoise(img, cfg), expected)
        # with the candidate path disabled, smooth pixels all survive
        uniform = np.full((10, 10), 55, np.uint8)
        assert np.array_equal(denoise(uniform, cfg), uniform)

    def test_tie_heavy_images_match_scalar_oracle(self):
        # few distinct values make the edge-preserve filters' candidate
        # keys tie often, so the first-minimum rule decides many pixels
        g = make_rng(4400)
        seen = dict.fromkeys(PixelClass, 0)
        for trial in range(40):
            alphabet = g.integers(0, 256, int(g.integers(2, 6)))
            h, w = (int(v) for v in g.integers(5, 17, 2))
            img = alphabet[g.integers(0, len(alphabet), (h, w))].astype(np.uint8)
            thresholds = Thresholds(
                t1=int(g.integers(0, 60)),
                t2=int(g.integers(0, 400)),
                t3=int(g.integers(0, 70)),
                t4=int(g.integers(0, 25)),
                t5=int(g.integers(0, 9)),
            )
            for skip_gate in (False, True):
                for skip_npc in (False, True):
                    for eq4_literal in (False, True):
                        cfg = PipelineConfig(
                            thresholds=thresholds,
                            iterations=1,
                            iteration1_skips_similarity_gate=skip_gate,
                            iteration1_skips_noisy_pixel_check=skip_npc,
                            eq4_literal_weights=eq4_literal,
                        )
                        out, (counts,) = denoise_with_stats(img, cfg)
                        expected = scalar_pass(img, cfg, not skip_gate, skip_npc)
                        assert np.array_equal(out, expected), f"trial {trial}: {cfg}"
                        for cls, n in counts.items():
                            seen[cls] += n
        assert seen[PixelClass.NOISY_EDGE] > 0
        assert seen[PixelClass.DISORDERED] > 0

    def test_noisy_uniform_image_improves(self):
        img = np.full((256, 256), 100, np.uint8)
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(0.10, seed=5))
        out = denoise(noisy)
        assert psnr(img, out) > psnr(img, noisy)

    def test_clean_phantom_near_identity(self):
        img = synthetic_mr_slice(1)
        assert psnr(img, denoise(img)) >= 40.0

    def test_determinism(self):
        img = random_image(34, 40, 30)
        assert np.array_equal(denoise(img), denoise(img))

    def test_output_shape_and_dtype(self):
        img = random_image(35, 21, 37)
        out = denoise(img)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_row_chunkings_agree(self):
        img = random_image(36, 45, 33)
        cfg = PipelineConfig(iterations=3)
        base, stats = denoise_with_stats(img, cfg)
        for rows in (1, 2, 3, 7, 43, 44, 45):
            tallies = [np.zeros(_DIRECT_NOISY_EDGE + 1, np.int64) for _ in range(cfg.iterations)]
            chunks = (img[r : r + rows] for r in range(0, img.shape[0], rows))
            out = np.concatenate(list(_drive(chunks, cfg, tallies)))
            assert np.array_equal(out, base), rows
            assert [[int(t[c]) for c in PixelClass] for t in tallies] == [
                [counts[c] for c in PixelClass] for counts in stats
            ]

    def test_bands_match_one_chunk(self):
        # the frame engine cuts the image into bands of _BAND_PX // width
        # rows; heights leave a last band of 1 and of 2 rows, and a width
        # above _BAND_PX gives one-row bands
        cfg = PipelineConfig(iterations=3)
        band = 16
        cases = [(2 * band + 1, _BAND_PX // band), (2 * band + 2, _BAND_PX // band), (7, _BAND_PX + 3)]
        for seed, (h, w) in enumerate(cases, start=60):
            img, _ = inject_rvin(random_image(seed, h, w), NoiseSpec.rvin(0.3, seed=seed))
            out, stats = denoise_with_stats(img, cfg)
            expected, expected_stats = drive_one_chunk(img, cfg)
            assert np.array_equal(out, expected), (h, w)
            assert stats == expected_stats, (h, w)

    def test_band_without_restore_pixels(self):
        # three bands of a uniform field; only the middle one holds an
        # impulse, so the other kernel calls have no Disordered or
        # NoisyEdge pixel to restore
        img = np.full((24, _BAND_PX // 8), 100, np.uint8)
        img[12, 40] = 255
        out, (counts,) = denoise_with_stats(img, one_pass())
        assert counts[PixelClass.DISORDERED] == 1 and counts[PixelClass.NOISY_EDGE] == 0
        assert np.array_equal(out, np.full_like(img, 100))
        assert np.array_equal(out, drive_one_chunk(img, one_pass())[0])

    def test_restore_class_covering_the_band(self):
        img = random_image(101, 9, 11)
        cfg = PipelineConfig(thresholds=Thresholds(t1=0, t2=0), iterations=1)
        out, (counts,) = denoise_with_stats(img, cfg)
        assert counts[PixelClass.NOISY_EDGE] == img.size
        assert np.array_equal(out, scalar_pass(img, cfg, gate_active=False))

    @pytest.mark.parametrize("iterations", [1, 2, 3, 10])
    def test_kernel_calls_linear_in_passes(self, monkeypatch, iterations):
        # one kernel call per pass per chunk, plus one end-of-input call per pass
        calls = 0
        kernel = pipeline._iterate_block

        def counting(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(pipeline, "_iterate_block", counting)
        img = random_image(58, 96, 20)
        cfg = PipelineConfig(iterations=iterations)
        for rows in (96, 32):
            calls = 0
            tallies = [np.zeros(_DIRECT_NOISY_EDGE + 1, np.int64) for _ in range(iterations)]
            list(_drive((img[r : r + rows] for r in range(0, 96, rows)), cfg, tallies))
            assert calls == iterations * (96 // rows + 1), rows

    def test_locality_radius(self):
        cfg = PipelineConfig()
        img = random_image(37, 26, 22)
        base = denoise(img, cfg)
        flipped = img.copy()
        flipped[13, 11] ^= 0x55
        out = denoise(flipped, cfg)
        radius = 2 * cfg.iterations + 2
        rows, cols = np.nonzero(out != base)
        if rows.size:
            assert np.abs(rows - 13).max() <= radius
            assert np.abs(cols - 11).max() <= radius

    def test_identical_neighborhood_never_modified_with_gate(self):
        g = make_rng(38)
        for _ in range(50):
            img = g.integers(0, 256, (14, 14), dtype=np.uint8)
            img[5:8, 5:8] = 77  # center pixel equals all 8 neighbors
            th = Thresholds(
                t1=int(g.integers(0, 60)),
                t2=int(g.integers(0, 400)),
                t3=int(g.integers(0, 80)),
                t4=int(g.integers(0, 30)),
                t5=int(g.integers(0, 9)),
            )
            cfg = PipelineConfig(thresholds=th, iterations=1, iteration1_skips_similarity_gate=False)
            assert denoise(img, cfg)[6, 6] == 77


class TestMemory:
    def test_pass_peak_within_plane_budget(self):
        # one pass on a 256x256 frame may hold at most 36 int32 planes of
        # the 2-pixel-padded 260x260 frame at once (about 9.3 MiB)
        noisy, _ = inject_rvin(synthetic_mr_slice(3), NoiseSpec.rvin(0.20, seed=7))
        cfg = PipelineConfig(iterations=1)
        denoise_with_stats(noisy, cfg)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            denoise_with_stats(noisy, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plane = 260 * 260 * np.dtype(np.int32).itemsize
        assert peak <= 36 * plane, f"peak {peak / plane:.1f} planes"

    def test_banded_frame_peak_within_four_images(self):
        # the frame engine holds one band's planes at a time, so a two-pass
        # run on 1024x1024 needs little beyond the output image
        noisy, _ = inject_rvin(synthetic_mr_slice(5, size=1024), NoiseSpec.rvin(0.05, seed=9))
        denoise(noisy[:64])  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            denoise(noisy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} images"


class TestStats:
    def test_counts_are_exhaustive(self):
        img = random_image(39, 30, 20)
        out, stats = denoise_with_stats(img)
        assert len(stats) == 2
        for counts in stats:
            assert sum(counts.values()) == img.size
            assert all(v >= 0 for v in counts.values())
        assert np.array_equal(out, denoise(img))

    def test_csv_schema(self, tmp_path):
        img = random_image(40, 16, 16)
        _, stats = denoise_with_stats(img)
        path = tmp_path / "stats.csv"
        write_class_stats_csv(path, stats)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,class,count"
        assert len(lines) == 1 + 2 * len(PixelClass)
        assert lines[1].startswith("1,KeepEdge,")
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 2 * img.size


class TestMedianFilter:
    def test_uniform_unchanged(self):
        img = np.full((9, 9), 77, np.uint8)
        for k in (3, 5):
            assert np.array_equal(median_filter(img, k), img)

    def test_single_impulse_removed(self):
        img = np.full((9, 9), 20, np.uint8)
        img[4, 4] = 255
        out = median_filter(img, 3)
        assert out[4, 4] == 20

    def test_matches_bruteforce_oracle(self):
        for seed in (41, 42):
            img = random_image(seed, 32, 32)
            for k in (3, 5):
                got = median_filter(img, k)
                pad = k // 2
                p = np.pad(img, pad, mode="edge")
                for r in range(32):
                    for c in range(32):
                        window = sorted(p[r : r + k, c : c + k].ravel().tolist())
                        assert got[r, c] == window[len(window) // 2]

    @pytest.mark.parametrize("k", [2, 1, 0, -3, 4, 7, 9])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError, match="window size"):
            median_filter(np.zeros((9, 9), np.uint8), k)

    def test_undersized_image(self):
        with pytest.raises(ValueError):
            median_filter(np.zeros((4, 8), np.uint8), 5)
