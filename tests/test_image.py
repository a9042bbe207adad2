import math

import numpy as np
import pytest
from conftest import make_rng, random_image

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
