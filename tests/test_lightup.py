"""Light-up stage and SNR map semantics."""
import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from evlight import tensor as T
from evlight._kernels import box_filter
from evlight.lightup import (LightUpEstimator, illumination_prior, light_up,
                             snr_map, snr_pyramid)

from helpers import fd_gradcheck


class TestIlluminationPrior:
    def test_channel_max(self):
        img = np.zeros((1, 1, 3))
        img[0, 0] = [0.2, 0.5, 0.1]
        assert illumination_prior(img)[0, 0, 0] == 0.5

    def test_gray_duplicated(self, rng):
        g = rng.uniform(0, 1, (4, 4, 1))
        img = np.repeat(g, 3, axis=2)
        assert np.array_equal(illumination_prior(img), g)

    def test_matches_pixel_oracle(self, rng):
        img = rng.uniform(0, 1, (5, 6, 3))
        prior = illumination_prior(img)
        for i in range(5):
            for j in range(6):
                assert prior[i, j, 0] == max(img[i, j])


class TestLightUp:
    def test_all_ones_l_is_identity(self, rng):
        est = LightUpEstimator(rng)
        for p in est.parameters():
            p.data = np.zeros_like(p.data)
        est.conv_out.bias.data = np.ones(3)
        img = T.Tensor(np.random.default_rng(0).uniform(0, 1, (6, 6, 3)))
        ell = est.forward(img)
        i_lu = light_up(img, est)
        assert np.array_equal(ell.data, np.ones((6, 6, 3)))
        assert np.array_equal(i_lu.data, img.data)

    def test_all_twos_l_doubles(self, rng):
        est = LightUpEstimator(rng)
        for p in est.parameters():
            p.data = np.zeros_like(p.data)
        est.conv_out.bias.data = np.full(3, 2.0)
        img = T.Tensor(np.random.default_rng(0).uniform(0, 0.5, (4, 4, 3)))
        i_lu = light_up(img, est)
        assert np.array_equal(i_lu.data, 2.0 * img.data)

    def test_fresh_estimator_starts_near_identity(self, rng):
        est = LightUpEstimator(rng)
        img = T.Tensor(np.random.default_rng(1).uniform(0, 0.3, (8, 8, 3)))
        ell = est.forward(img)
        assert np.all(np.abs(ell.data - 1.0) < 1.0)

    def test_gradient_through_estimator(self, rng):
        est = LightUpEstimator(rng)
        img = T.Tensor(rng.uniform(0.1, 0.9, (8, 8, 3)))
        leaves = est.parameters()

        def build(*_):
            i_lu = light_up(img, est)
            return T.mean(T.mul(i_lu, i_lu))

        fd_gradcheck(build, leaves)


def _raw_oracle(img, k):
    """raw = box(I_g) / max(|I_g - box(I_g)|, 1e-4), box edge-replicated."""
    gray = np.maximum(img @ np.array([0.299, 0.587, 0.114]), 0.0)
    smooth = uniform_filter(gray, k, mode="nearest")
    return smooth / np.maximum(np.abs(gray - smooth), 1e-4)


class TestSnrMap:
    def test_constant_image_all_ones(self):
        norm = snr_map(np.full((8, 8, 3), 0.4), kernel=5)
        assert np.all(norm == 1.0)
        assert np.all(snr_pyramid(norm, 0.5, levels=1)[0] == 1.0)
        raw = _raw_oracle(np.full((8, 8, 3), 0.4), 5)
        assert np.allclose(raw, 0.4 / 1e-4)
        assert np.allclose(norm, raw / raw.max(), rtol=1e-12)

    def test_center_spike_hand_oracle(self):
        img = np.zeros((5, 5, 3))
        img[2, 2] = 1.0
        norm = snr_map(img, kernel=3)
        # mean filter at center: 1/9; raw = (1/9) / (1 - 1/9) = 0.125
        raw = _raw_oracle(img, 3)
        assert raw[2, 2] == pytest.approx(0.125, abs=1e-12)
        assert norm[2, 2] == pytest.approx(0.125 / raw.max(), abs=1e-12)
        assert np.allclose(norm, raw / raw.max(), rtol=1e-12)

    def test_tau_zero_all_ones(self, rng):
        img = rng.uniform(0, 1, (8, 8, 3))
        assert np.all(snr_pyramid(snr_map(img), 0.0, levels=1)[0] == 1.0)

    def test_overflow_raises_instead_of_a_nan_map(self):
        # smooth / 1e-4 overflows on a flat 1e305 image; a NaN map would
        # binarize to all zeros without a word
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.NonFiniteError, match="snr_map"):
                snr_map(np.full((8, 8, 3), 1e305))

    def test_tau_above_one_rejected(self):
        with pytest.raises(ValueError):
            snr_pyramid(snr_map(np.zeros((8, 8, 3))), 1.5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            snr_map(np.zeros((8, 8, 3)), kernel=4)

    def test_norm_in_unit_range(self, rng):
        norm = snr_map(rng.uniform(0, 1, (16, 16, 3)))
        assert norm.min() >= 0.0 and norm.max() == 1.0

    def test_binary_partition(self, rng):
        (binary,) = snr_pyramid(snr_map(rng.uniform(0, 1, (12, 12, 3))), 0.5, levels=1)
        assert np.array_equal(binary + (1 - binary), np.ones((12, 12)))
        assert set(np.unique(binary)) <= {0.0, 1.0}

    def test_scale_invariance_above_floor(self, rng):
        img = rng.uniform(0.2, 0.9, (16, 16, 3))
        n1 = snr_map(img)
        n2 = snr_map(2.0 * img)
        gray = img @ np.array([0.299, 0.587, 0.114])
        smooth = box_filter(np.ascontiguousarray(gray), 5)
        ok = np.abs(gray - smooth) > 10 * 1e-4
        assert ok.any()
        # raw is scale-invariant where the noise floor is not reached; so
        # is norm, up to the ratio of the two maxima
        r1, r2 = _raw_oracle(img, 5), _raw_oracle(2.0 * img, 5)
        assert np.allclose(r1[ok], r2[ok], rtol=1e-9)
        assert np.allclose(n1 * r1.max(), r1, rtol=1e-12)
        assert np.allclose(n2 * r2.max(), r2, rtol=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_box_filter_matches_scipy(self, rng, k):
        # 1x7 and 3x2 are narrower than the larger kernels: edge replication
        # then reaches past the far border
        for shape in [(9, 11), (1, 7), (3, 2)]:
            img = rng.standard_normal(shape)
            ref = uniform_filter(img, k, mode="nearest")
            assert np.max(np.abs(box_filter(img, k) - ref)) <= 1e-12

    def test_gradient_isolated(self, rng):
        img = T.Tensor(rng.uniform(0.05, 0.3, (8, 8, 3)))
        est = LightUpEstimator(rng)
        i_lu = light_up(img, est)
        norm = snr_map(i_lu.data)
        assert type(norm) is np.ndarray
        # neither the map nor its masks hold graph state
        assert all(type(m) is np.ndarray for m in snr_pyramid(norm, 0.5))


class TestSnrPyramid:
    def test_all_ones_stays_ones(self):
        pyr = snr_pyramid(snr_map(np.full((16, 16, 3), 0.3)), 0.5, 3)
        assert [p.shape for p in pyr] == [(16, 16), (8, 8), (4, 4)]
        for p in pyr:
            assert np.all(p == 1.0)

    def test_checkerboard_pools_to_half_then_ones(self):
        norm = (np.indices((8, 8)).sum(axis=0) % 2).astype(float)
        pyr = snr_pyramid(norm, 0.5, 2)
        assert np.array_equal(pyr[0], norm)
        # the pooled norm is 0.5 everywhere: 0.5 >= tau ties trust the image
        assert np.all(pyr[1] == 1.0)
        assert np.all(snr_pyramid(norm, 0.5 + 1e-12, 2)[1] == 0.0)

    def test_matches_pool_oracle(self, rng):
        # a map whose masks are mixed at every level
        norm = rng.uniform(0, 1, (12, 12))
        pyr = snr_pyramid(norm, 0.5, 3)
        assert all(0.0 < m.mean() < 1.0 for m in pyr)
        assert np.array_equal(pyr[0], (norm >= 0.5).astype(float))
        expect = norm.reshape(6, 2, 6, 2).mean(axis=(1, 3))
        assert np.array_equal(pyr[1], (expect >= 0.5).astype(float))
        expect2 = expect.reshape(3, 2, 3, 2).mean(axis=(1, 3))
        assert np.array_equal(pyr[2], (expect2 >= 0.5).astype(float))

    def test_indivisible_rejected(self):
        norm = snr_map(np.full((10, 12, 3), 0.5))
        with pytest.raises(ValueError, match="divisible"):
            snr_pyramid(norm, 0.5, 3)
