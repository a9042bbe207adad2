import numpy as np
import pytest
from conftest import random_image
from perfbench.phantom import fvin, make_rng, rvin

from mrdenoise import NoiseSpec, inject_fvin, inject_rvin


class TestNoiseSpec:
    def test_rvin_constructor(self):
        spec = NoiseSpec.rvin(0.25, seed=9)
        assert spec.kind == "rvin" and spec.p == 0.25 and spec.seed == 9

    def test_fvin_density(self):
        spec = NoiseSpec.fvin(0.1, 0.2, m=5)
        assert (spec.kind, spec.p, spec.p1, spec.p2, spec.m) == ("fvin", 0.0, 0.1, 0.2, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="speckle"),
            dict(kind="rvin", p=1.5),
            dict(kind="rvin", p=-0.1),
            dict(kind="fvin", p1=0.6, p2=0.6),
            dict(kind="fvin", p1=-0.1),
            dict(kind="fvin", m=128),
            dict(kind="fvin", m=-1),
            dict(kind="rvin", p=0.1, seed=-5),
            dict(kind="rvin", p=float("nan")),
            dict(kind="fvin", p1=float("nan"), p2=0.1),
            dict(kind="fvin", p1=0.1, p2=float("nan")),
            dict(kind="fvin", p1=0.1, p2=0.1, m=2.5),
            dict(kind="fvin", p1=0.1, p2=0.1, m="5"),
            dict(kind="rvin", p=0.1, seed=2.5),
            dict(kind="rvin", p=0.1, seed="3"),
            # a nonzero field the kind does not use
            dict(kind="fvin", p=0.3),
            dict(kind="fvin", p1=0.1, p2=0.1, m=5, p=1e-9),
            dict(kind="rvin", p=0.1, p1=0.1),
            dict(kind="rvin", p=0.1, p2=0.2),
            dict(kind="rvin", p=0.1, m=5),
            dict(kind="rvin", p=0.1, p1=float("nan")),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    def test_numpy_integer_margin_accepted(self):
        assert NoiseSpec.fvin(0.1, 0.1, m=np.int64(5)).m == 5

    def test_numpy_integer_seed_accepted(self):
        img = random_image(3, 12, 12)
        spec = NoiseSpec.rvin(0.3, seed=np.int64(7))
        assert np.array_equal(inject_rvin(img, spec)[0], inject_rvin(img, NoiseSpec.rvin(0.3, seed=7))[0])

    def test_kind_mismatch_rejected(self):
        img = random_image(0, 5, 5)
        with pytest.raises(ValueError):
            inject_rvin(img, NoiseSpec.fvin(0.1, 0.1))
        with pytest.raises(ValueError):
            inject_fvin(img, NoiseSpec.rvin(0.1))


class TestRvin:
    def test_zero_probability_is_identity(self):
        img = random_image(1, 20, 30)
        noisy, mask = inject_rvin(img, NoiseSpec.rvin(0.0, seed=1))
        assert np.array_equal(noisy, img)
        assert not mask.any()

    def test_full_probability_marks_everything(self):
        img = random_image(2, 15, 15)
        _, mask = inject_rvin(img, NoiseSpec.rvin(1.0, seed=2))
        assert mask.all()

    def test_realized_fraction_within_binomial_interval(self):
        # 99.9% two-sided normal interval around p=0.1 for n=65536:
        # 0.1 +- 3.2905267 * sqrt(0.1*0.9/65536) = [0.0961435, 0.1038565]
        img = np.full((256, 256), 100, np.uint8)
        _, mask = inject_rvin(img, NoiseSpec.rvin(0.10, seed=7))
        fraction = mask.sum() / mask.size
        assert 0.0961435 <= fraction <= 0.1038565

    def test_deterministic_given_spec(self):
        img = random_image(3, 40, 25)
        spec = NoiseSpec.rvin(0.3, seed=123)
        n1, m1 = inject_rvin(img, spec)
        n2, m2 = inject_rvin(img, spec)
        assert np.array_equal(n1, n2) and np.array_equal(m1, m2)

    def test_different_seeds_differ(self):
        img = np.full((64, 64), 128, np.uint8)
        n1, _ = inject_rvin(img, NoiseSpec.rvin(0.5, seed=1))
        n2, _ = inject_rvin(img, NoiseSpec.rvin(0.5, seed=2))
        assert not np.array_equal(n1, n2)

    def test_unmasked_pixels_untouched(self):
        img = random_image(4, 33, 21)
        noisy, mask = inject_rvin(img, NoiseSpec.rvin(0.4, seed=5))
        assert np.array_equal(noisy[~mask], img[~mask])

    def test_replacement_values_roughly_uniform(self):
        # chi-square over 16 bins; critical value for 15 dof at 0.999 is 37.697
        img = np.zeros((300, 300), np.uint8)
        noisy, mask = inject_rvin(img, NoiseSpec.rvin(1.0, seed=11))
        values = noisy[mask]
        observed = np.bincount(values // 16, minlength=16).astype(float)
        expected = values.size / 16.0
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 37.697

    def test_full_value_range_reachable(self):
        img = np.full((128, 128), 7, np.uint8)
        noisy, mask = inject_rvin(img, NoiseSpec.rvin(1.0, seed=13))
        assert noisy[mask].min() == 0 and noisy[mask].max() == 255


class TestFvin:
    def test_zero_probabilities_identity(self):
        img = random_image(5, 18, 14)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(0.0, 0.0, m=10, seed=3))
        assert np.array_equal(noisy, img)
        assert not mask.any()

    def test_salt_and_pepper_extreme(self):
        img = random_image(6, 10, 10)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(1.0, 0.0, m=0, seed=4))
        assert mask.all()
        assert (noisy == 0).all()

    def test_high_range_only(self):
        img = random_image(7, 10, 10)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(0.0, 1.0, m=0, seed=4))
        assert mask.all()
        assert (noisy == 255).all()

    def test_replacements_confined_to_margins(self):
        img = np.full((128, 128), 128, np.uint8)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(0.05, 0.05, m=10, seed=8))
        replaced = noisy[mask].astype(int)
        assert replaced.size > 0
        assert (((replaced >= 0) & (replaced <= 10)) | ((replaced >= 245) & (replaced <= 255))).all()
        # inclusive endpoints are reachable
        full, full_mask = inject_fvin(img, NoiseSpec.fvin(0.5, 0.5, m=10, seed=9))
        values = set(full[full_mask].astype(int).tolist())
        assert {0, 10, 245, 255} <= values

    def test_deterministic_given_spec(self):
        img = random_image(8, 22, 31)
        spec = NoiseSpec.fvin(0.2, 0.1, m=3, seed=44)
        n1, m1 = inject_fvin(img, spec)
        n2, m2 = inject_fvin(img, spec)
        assert np.array_equal(n1, n2) and np.array_equal(m1, m2)

    def test_unmasked_pixels_untouched(self):
        img = random_image(9, 17, 26)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(0.2, 0.2, m=25, seed=6))
        assert np.array_equal(noisy[~mask], img[~mask])


class TestExactOutput:
    """Both injectors against the benchmark's frozen restatement of the model."""

    @pytest.mark.parametrize("trial", range(27))
    def test_matches_frozen_reference(self, trial):
        g = make_rng(500 + trial)
        h, w = (int(n) for n in g.integers(1, 48, size=2))
        img = g.integers(0, 256, (h, w), dtype=np.uint8)
        seed = [int(g.integers(0, 2**32)), np.int64(g.integers(0, 2**62)),
                int(g.integers(2**32, 2**64, dtype=np.uint64))][trial % 3]
        p = [0.0, 1.0, float(g.random())][trial // 3 % 3]
        p1 = [0.0, 1.0, 0.5, float(g.random())][trial % 4]
        p2 = [1.0 - p1, float(g.random()) * (1.0 - p1)][trial // 4 % 2]
        m = [0, np.int64(127), int(g.integers(0, 128))][trial // 9]
        decision = make_rng(seed).random((h, w, 2))[..., 0]

        noisy, mask = inject_rvin(img, NoiseSpec.rvin(p, seed=seed))
        assert noisy.dtype == np.uint8 and noisy.tobytes() == rvin(img, p, seed).tobytes()
        assert np.array_equal(mask, decision < p)
        noisy, mask = inject_fvin(img, NoiseSpec.fvin(p1, p2, m=m, seed=seed))
        assert noisy.dtype == np.uint8 and noisy.tobytes() == fvin(img, p1, p2, m, seed).tobytes()
        assert np.array_equal(mask, decision < p1 + p2)

    def test_largest_draw_stays_below_every_span(self):
        # the bound that lets the injector cast floor(s * u) to uint8 unclamped
        u = np.nextafter(1.0, 0.0)
        assert all(int(u * s) == s - 1 for s in range(1, 257))
