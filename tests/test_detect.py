import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrdenoise import (
    Thresholds,
    directional_distances,
    disorder,
    noisy_pixel,
    similarity,
    type1_edge,
    type2_edge,
)

window3s = st.lists(st.integers(0, 255), min_size=9, max_size=9)
window5s = st.lists(st.integers(0, 255), min_size=25, max_size=25)
sorted9s = window3s.map(sorted)

# positions in the tuple that directional_distances returns
H, V, D, AD = range(4)


def vertical_step_window5():
    # columns 1-2 hold 0, columns 3-5 hold 200; the center sits on the edge
    w = []
    for _ in range(5):
        w += [0, 0, 200, 200, 200]
    return w


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert (th.t1, th.t2, th.t3, th.t4, th.t5) == (20, 150, 30, 10, 6)

    @pytest.mark.parametrize("kwargs", [dict(t1=-1), dict(t2=-5), dict(t5=9)])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Thresholds(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(t1="5"), dict(t5=float("nan")), dict(t3=2.5)])
    def test_non_integer_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Thresholds(**kwargs)


    def test_numpy_integers_stored_as_int(self):
        th = Thresholds(np.int64(20), np.int16(150), np.uint8(30), np.int64(10), np.uint8(6))
        assert [type(getattr(th, n)) for n in ("t1", "t2", "t3", "t4", "t5")] == [int] * 5
        assert th == Thresholds()


class TestType1Edge:
    def test_uniform_is_non_edge(self):
        assert not type1_edge([100] * 9, 20)

    def test_split_window_is_edge(self):
        assert type1_edge([0, 0, 0, 0, 0, 255, 255, 255, 255], 20)

    def test_gentle_ramp_is_non_edge(self):
        assert not type1_edge([10, 11, 12, 13, 14, 15, 16, 17, 18], 20)

    def test_comparison_is_strict(self):
        f = [0, 0, 0, 0, 0, 20, 20, 20, 20]
        assert not type1_edge(f, 20)
        assert type1_edge(f, 19)

    def test_accepts_numpy_input(self):
        f = np.array([0, 0, 0, 0, 0, 255, 255, 255, 255], np.uint8)
        assert type1_edge(f, 20)


class TestDirectionalDistances:
    # distances are in half units, twice the true weighted distance

    def test_uniform_window(self):
        dd = directional_distances([42] * 25)
        assert dd == (0, 0, 0, 0)
        assert min(dd) == 0
        assert dd.index(min(dd)) == H

    def test_vertical_step_edge(self):
        dd = directional_distances(vertical_step_window5())
        # along the edge the distance vanishes; across it: 1*200 + 0.5*200
        assert dd[V] == 0
        assert dd[H] == 600
        assert min(dd) == 0
        assert dd.index(min(dd)) == V

    def test_corrupted_center_in_uniform_field(self):
        w = [50] * 25
        w[12] = 255
        dd = directional_distances(w)
        # every line sees |255-50| * (1 + 1 + 0.5 + 0.5)
        assert dd == (1230, 1230, 1230, 1230)

    def test_half_unit_exactness(self):
        w = [0] * 25
        w[12] = 1  # far neighbors contribute 0.5 each
        dd = directional_distances(w)
        assert dd == (6, 6, 6, 6)
        w[0] = 1  # kill one far diagonal difference
        assert directional_distances(w)[D] == 5

    def test_weights_inside_abs_variant(self):
        # the alternate form is nonzero even on uniform windows
        dd = directional_distances([100] * 25, weights_inside_abs=True)
        assert dd == (200, 200, 200, 200)
        assert directional_distances([100] * 25) == (0, 0, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(window5s)
    def test_nonnegative_and_min_consistent(self, w):
        dd = directional_distances(w)
        assert all(v >= 0 for v in dd)
        assert all(min(dd) <= v for v in dd)
        assert dd[dd.index(min(dd))] == min(dd)

    @settings(max_examples=300, deadline=None)
    @given(window5s)
    def test_rotation_swaps_directions(self, w):
        arr = np.array(w).reshape(5, 5)
        rotated = np.rot90(arr).ravel().tolist()
        d = directional_distances(w)
        dr = directional_distances(rotated)
        assert dr[H] == d[V]
        assert dr[V] == d[H]
        assert dr[D] == d[AD]
        assert dr[AD] == d[D]
        assert min(dr) == min(d)


class TestType2Edge:
    def test_uniform_is_clean(self):
        assert not type2_edge([80] * 25, 150)

    def test_step_edge_is_clean(self):
        assert not type2_edge(vertical_step_window5(), 150)

    def test_corrupted_center_is_noisy(self):
        w = [50] * 25
        w[12] = 255
        assert type2_edge(w, 150)  # dmin = 615 > 150

    def test_comparison_is_strict(self):
        w = [50] * 25
        w[12] = 255
        assert not type2_edge(w, 615)
        assert type2_edge(w, 614)


class TestDisorder:
    def test_center_at_median_is_smooth(self):
        f = sorted([10, 20, 30, 40, 50, 60, 70, 80, 90])
        assert not disorder(50, f, 30)  # |P5 - F5| = 0

    def test_outlier_center_is_disordered(self):
        f = [0, 5, 10, 10, 10, 10, 40, 200, 255]
        assert disorder(255, f, 30)  # all three differences are 245

    def test_single_failing_clause_means_smooth(self):
        # |F6 - P5| = 10 <= 30 blocks the conjunction
        f = [1, 2, 3, 30, 45, 60, 70, 80, 90]
        assert not disorder(50, f, 30)

    def test_absolute_values_used(self):
        f = [200, 210, 220, 230, 240, 250, 252, 253, 254]
        assert disorder(10, f, 30)


class TestNoisyPixel:
    def test_uniform_center_is_candidate(self):
        f = [100] * 9
        assert noisy_pixel(100, f, 10)  # both differences are 0 < 10

    def test_midrange_center_is_clean(self):
        f = [0, 10, 20, 100, 128, 150, 200, 250, 255]
        assert not noisy_pixel(128, f, 10)

    def test_near_maximum_is_candidate(self):
        f = [10, 20, 30, 100, 128, 150, 200, 250, 255]
        assert noisy_pixel(250, f, 10)  # F9 - P5 = 5 < 10

    def test_comparison_is_strict(self):
        f = [0, 50, 60, 70, 80, 90, 100, 110, 120]
        assert not noisy_pixel(10, f, 10)  # P5 - F1 = 10, not < 10
        assert noisy_pixel(10, f, 11)


class TestSimilarity:
    def test_uniform_window_is_similar(self):
        assert similarity([50] * 9, 10, 6)

    def test_isolated_center_is_non_similar(self):
        w = [50] * 9
        w[4] = 200
        assert not similarity(w, 10, 6)

    def test_hand_counted_example(self):
        # neighbors within 10 of 100: 95, 96, 104, 105, 108 -> count 5 < 6
        w = [95, 96, 104, 105, 100, 108, 130, 140, 150]
        assert not similarity(w, 10, 6)
        assert similarity(w, 10, 5)

    def test_tolerance_is_inclusive(self):
        w = [90] * 9
        w[4] = 100  # all eight neighbors differ by exactly t4
        assert similarity(w, 10, 8)


class TestThresholdMonotonicity:
    @settings(max_examples=300, deadline=None)
    @given(sorted9s, st.integers(0, 260), st.integers(0, 260))
    def test_t1_monotone(self, f, ta, tb):
        lo, hi = min(ta, tb), max(ta, tb)
        if type1_edge(f, hi):
            assert type1_edge(f, lo)

    @settings(max_examples=300, deadline=None)
    @given(window5s, st.integers(0, 1600), st.integers(0, 1600))
    def test_t2_monotone(self, w, ta, tb):
        lo, hi = min(ta, tb), max(ta, tb)
        if type2_edge(w, hi):
            assert type2_edge(w, lo)

    @settings(max_examples=300, deadline=None)
    @given(window3s, st.integers(0, 260), st.integers(0, 260))
    def test_t3_monotone(self, w, ta, tb):
        lo, hi = min(ta, tb), max(ta, tb)
        f = sorted(w)
        if disorder(w[4], f, hi):
            assert disorder(w[4], f, lo)

    @settings(max_examples=300, deadline=None)
    @given(window3s, st.integers(0, 8), st.integers(0, 8))
    def test_t5_monotone(self, w, ta, tb):
        lo, hi = min(ta, tb), max(ta, tb)
        if similarity(w, 10, hi):
            assert similarity(w, 10, lo)


class TestBrightnessShiftInvariance:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 100), st.lists(st.integers(0, 155), min_size=25, max_size=25))
    def test_all_classifiers_shift_invariant(self, c, w5):
        shifted5 = [v + c for v in w5]
        w3 = [w5[6], w5[7], w5[8], w5[11], w5[12], w5[13], w5[16], w5[17], w5[18]]
        shifted3 = [v + c for v in w3]
        f, fs = sorted(w3), sorted(shifted3)
        assert type1_edge(f, 20) == type1_edge(fs, 20)
        assert type2_edge(w5, 150) == type2_edge(shifted5, 150)
        assert disorder(w3[4], f, 30) == disorder(shifted3[4], fs, 30)
        assert noisy_pixel(w3[4], f, 10) == noisy_pixel(shifted3[4], fs, 10)
        assert similarity(w3, 10, 6) == similarity(shifted3, 10, 6)
        assert directional_distances(shifted5) == directional_distances(w5)
