"""Light-up stage and SNR map semantics."""
import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from evlight import tensor as T
from evlight._kernels import box_filter
from evlight.lightup import (LightUpEstimator, SnrMap, illumination_prior,
                             light_up, snr_map, snr_pyramid)

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
        i_lu, ell = light_up(img, est)
        assert np.array_equal(ell.data, np.ones((6, 6, 3)))
        assert np.array_equal(i_lu.data, img.data)

    def test_all_twos_l_doubles(self, rng):
        est = LightUpEstimator(rng)
        for p in est.parameters():
            p.data = np.zeros_like(p.data)
        est.conv_out.bias.data = np.full(3, 2.0)
        img = T.Tensor(np.random.default_rng(0).uniform(0, 0.5, (4, 4, 3)))
        i_lu, _ = light_up(img, est)
        assert np.array_equal(i_lu.data, 2.0 * img.data)

    def test_fresh_estimator_starts_near_identity(self, rng):
        est = LightUpEstimator(rng)
        img = T.Tensor(np.random.default_rng(1).uniform(0, 0.3, (8, 8, 3)))
        _, ell = light_up(img, est)
        assert np.all(np.abs(ell.data - 1.0) < 1.0)

    def test_gradient_through_estimator(self, rng):
        est = LightUpEstimator(rng, hidden=4)
        img = T.Tensor(rng.uniform(0.1, 0.9, (8, 8, 3)))
        leaves = est.parameters()

        def build(*_):
            i_lu, _ = light_up(img, est)
            return T.mean(T.mul(i_lu, i_lu))

        fd_gradcheck(build, leaves)


class TestSnrMap:
    def test_constant_image_all_ones(self):
        m = snr_map(np.full((8, 8, 3), 0.4), kernel=5, tau=0.5)
        assert np.all(m.norm == 1.0)
        assert np.all(m.binary == 1.0)
        assert np.allclose(m.raw, 0.4 / 1e-4)

    def test_center_spike_hand_oracle(self):
        img = np.zeros((5, 5, 3))
        img[2, 2] = 1.0
        m = snr_map(img, kernel=3, tau=0.5)
        # mean filter at center: 1/9; raw = (1/9) / (1 - 1/9) = 0.125
        assert m.raw[2, 2] == pytest.approx(0.125, abs=1e-12)

    def test_tau_zero_all_ones(self, rng):
        img = rng.uniform(0, 1, (8, 8, 3))
        m = snr_map(img, tau=0.0)
        assert np.all(m.binary == 1.0)

    def test_tau_above_one_rejected(self):
        with pytest.raises(ValueError):
            snr_map(np.zeros((8, 8, 3)), tau=1.5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            snr_map(np.zeros((8, 8, 3)), kernel=4)

    def test_norm_in_unit_range(self, rng):
        m = snr_map(rng.uniform(0, 1, (16, 16, 3)))
        assert m.norm.min() >= 0.0 and m.norm.max() == 1.0

    def test_binary_partition(self, rng):
        m = snr_map(rng.uniform(0, 1, (12, 12, 3)))
        assert np.array_equal(m.binary + (1 - m.binary), np.ones((12, 12)))
        assert set(np.unique(m.binary)) <= {0.0, 1.0}

    def test_scale_invariance_above_floor(self, rng):
        img = rng.uniform(0.2, 0.9, (16, 16, 3))
        m1 = snr_map(img)
        m2 = snr_map(2.0 * img)
        gray = img @ np.array([0.299, 0.587, 0.114])
        smooth = box_filter(np.ascontiguousarray(gray), 5)
        ok = np.abs(gray - smooth) > 10 * 1e-4
        assert ok.any()
        assert np.allclose(m1.raw[ok], m2.raw[ok], rtol=1e-9)

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
        est = LightUpEstimator(rng, hidden=4)
        i_lu, _ = light_up(img, est)
        m = snr_map(i_lu)
        assert isinstance(m.raw, np.ndarray)
        est.conv_out.bias.data = est.conv_out.bias.data + 0.25
        i_lu2, _ = light_up(img, est)
        m2 = snr_map(i_lu2)
        # maps may differ numerically, but neither holds graph state
        assert not isinstance(m2.norm, T.Tensor)


class TestSnrPyramid:
    def test_all_ones_stays_ones(self):
        m = snr_map(np.full((16, 16, 3), 0.3))
        pyr = snr_pyramid(m, 3)
        assert [p.shape for p in pyr] == [(16, 16), (8, 8), (4, 4)]
        for p in pyr:
            assert np.all(p.binary == 1.0)

    def test_checkerboard_pools_to_half_then_ones(self):
        norm = np.indices((8, 8)).sum(axis=0) % 2
        m = SnrMap(norm.astype(float), norm.astype(float),
                   norm.astype(float), 0.5)
        pyr = snr_pyramid(m, 2)
        assert np.all(pyr[1].norm == 0.5)
        assert np.all(pyr[1].binary == 1.0)  # 0.5 >= tau ties trust the image

    def test_matches_pool_oracle(self, rng):
        m = snr_map(rng.uniform(0, 1, (12, 12, 3)))
        pyr = snr_pyramid(m, 3)
        expect = m.norm.reshape(6, 2, 6, 2).mean(axis=(1, 3))
        assert np.allclose(pyr[1].norm, expect, atol=1e-12)
        expect2 = expect.reshape(3, 2, 3, 2).mean(axis=(1, 3))
        assert np.allclose(pyr[2].norm, expect2, atol=1e-12)
        assert np.array_equal(pyr[2].binary, (expect2 >= 0.5).astype(float))

    def test_indivisible_rejected(self):
        m = snr_map(np.full((10, 12, 3), 0.5))
        with pytest.raises(ValueError, match="divisible"):
            snr_pyramid(m, 3)
