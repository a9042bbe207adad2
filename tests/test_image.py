import math

import numpy as np
import pytest
from conftest import make_rng, pad_replicate, random_image, sort9, window3, window5

from mrdenoise import as_gray, mse, psnr


class TestAsGray:
    def test_uint8_passthrough(self):
        img = np.zeros((3, 4), np.uint8)
        assert as_gray(img) is img

    def test_int_list_converted(self):
        out = as_gray([[1, 2], [3, 4]])
        assert out.dtype == np.uint8
        assert out.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((2, 2, 2)), [[1.5]], [[300]], [[-1]]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_gray(np.asarray(bad))


class TestPadReplicate:
    def test_single_pixel(self):
        out = pad_replicate(np.array([[7]], np.uint8), 1)
        assert out.shape == (3, 3)
        assert (out == 7).all()

    def test_zero_margin_identity(self):
        img = random_image(3, 6, 5)
        out = pad_replicate(img, 0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_hand_expansion_2x2(self):
        out = pad_replicate(np.array([[1, 2], [3, 4]], np.uint8), 1)
        expected = [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]
        assert out.tolist() == expected

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            pad_replicate(np.zeros((2, 2), np.uint8), -1)

    def test_uniform_stays_uniform(self):
        for v in (0, 17, 255):
            out = pad_replicate(np.full((4, 7), v, np.uint8), 2)
            assert (out == v).all()


class TestWindows:
    def test_uniform_window(self):
        img = np.full((5, 5), 9, np.uint8)
        assert (window3(img, 2, 2) == 9).all()
        assert (window5(img, 2, 2) == 9).all()

    def test_window3_center_of_3x3_is_image(self):
        img = random_image(4, 3, 3)
        assert np.array_equal(window3(img, 1, 1), img.ravel())

    def test_window5_of_ramp(self):
        # pixel(r, c) = 5r + c makes the flat window the identity ramp
        img = (5 * np.arange(5)[:, None] + np.arange(5)[None, :]).astype(np.uint8)
        assert window5(img, 2, 2).tolist() == list(range(25))

    @pytest.mark.parametrize("row,col", [(0, 2), (2, 0), (4, 2), (2, 4)])
    def test_window3_bounds(self, row, col):
        img = np.zeros((5, 5), np.uint8)
        with pytest.raises(ValueError):
            window3(img, row, col)

    @pytest.mark.parametrize("row,col", [(1, 2), (2, 1), (3, 2), (2, 3)])
    def test_window5_bounds(self, row, col):
        img = np.zeros((5, 5), np.uint8)
        with pytest.raises(ValueError):
            window5(img, row, col)


class TestSort9:
    def test_permutation(self):
        assert sort9([3, 1, 2, 9, 5, 4, 8, 7, 6]).tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_constant(self):
        assert sort9([7] * 9).tolist() == [7] * 9

    def test_alternating(self):
        out = sort9([0, 255, 0, 255, 0, 255, 0, 255, 0])
        assert out.tolist() == sorted([0, 255, 0, 255, 0, 255, 0, 255, 0])
        assert out.tolist() == [0, 0, 0, 0, 0, 255, 255, 255, 255]

    def test_multiset_matches_reference_sort(self):
        g = make_rng(11)
        for _ in range(1000):
            w = g.integers(0, 256, 9)
            assert sort9(w).tolist() == sorted(int(v) for v in w)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            sort9([1, 2, 3])


class TestMetrics:
    def test_identical_images(self):
        img = random_image(5, 8, 9)
        assert mse(img, img) == 0.0
        assert psnr(img, img) == math.inf

    def test_extreme_difference(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.full((4, 4), 255, np.uint8)
        assert mse(a, b) == 255.0**2
        assert psnr(a, b) == 0.0

    def test_single_pixel_difference(self):
        a = np.zeros((256, 256), np.uint8)
        b = a.copy()
        b[100, 100] = 255
        # mse = 255^2 / 65536, so psnr = 10*log10(65536)
        assert psnr(a, b) == pytest.approx(10 * math.log10(65536.0), abs=1e-12)
        assert psnr(a, b) == pytest.approx(48.165, abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 3), np.uint8), np.zeros((3, 2), np.uint8))

    def test_symmetry_and_monotonicity(self):
        g = make_rng(21)
        for _ in range(50):
            a = g.integers(0, 256, (10, 12), dtype=np.uint8)
            b = g.integers(0, 256, (10, 12), dtype=np.uint8)
            assert psnr(a, b) == psnr(b, a)
        # growing a single-pixel error strictly lowers psnr
        base = np.full((16, 16), 100, np.uint8)
        last = math.inf
        for delta in (10, 40, 90, 155):
            other = base.copy()
            other[3, 3] = 100 + delta
            value = psnr(base, other)
            assert value < last
            last = value

    def test_mse_exact_integer_accumulation(self):
        # values chosen so float32 accumulation would lose precision
        a = np.full((1000, 1000), 255, np.uint8)
        b = np.zeros((1000, 1000), np.uint8)
        assert mse(a, b) == 65025.0
