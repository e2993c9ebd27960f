"""Image metrics vs scalar oracles; PPM/PFM/PGM round-trips."""
import math
import re

import numpy as np
import pytest

from evlight.image import (ImageFormatError, pad_reflect, psnr, psnr_star,
                           read_image, ssim, to_gray, write_image)


def psnr_oracle(a, b):
    """Scalar-loop PSNR reimplementation."""
    total = 0.0
    n = 0
    for va, vb in zip(a.reshape(-1), b.reshape(-1)):
        total += (va - vb) ** 2
        n += 1
    mse = total / n
    return 100.0 if mse < 1e-10 else 10.0 * math.log10(1.0 / mse)


def ssim_oracle(a, b):
    """Direct sliding-window SSIM with an explicitly built Gaussian."""
    coords = np.arange(11) - 5.0
    g = np.exp(-(coords ** 2) / (2 * 1.5 ** 2))
    win = np.outer(g, g)
    win /= win.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for ch in range(a.shape[2]):
        total = 0.0
        count = 0
        for i in range(a.shape[0] - 10):
            for j in range(a.shape[1] - 10):
                pa = a[i:i + 11, j:j + 11, ch]
                pb = b[i:i + 11, j:j + 11, ch]
                mu_a = (pa * win).sum()
                mu_b = (pb * win).sum()
                va = (pa * pa * win).sum() - mu_a ** 2
                vb = (pb * pb * win).sum() - mu_b ** 2
                cov = (pa * pb * win).sum() - mu_a * mu_b
                total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
                    ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2))
                count += 1
        vals.append(total / count)
    return sum(vals) / len(vals)


class TestToGray:
    def test_white_is_one(self):
        assert to_gray(np.ones((2, 2, 3)))[0, 0] == pytest.approx(1.0)

    def test_pure_red(self):
        img = np.zeros((1, 1, 3))
        img[0, 0, 0] = 1.0
        assert to_gray(img)[0, 0] == pytest.approx(0.299)

    def test_matches_scalar_oracle(self, rng):
        img = rng.uniform(0, 1, (5, 6, 3))
        g = to_gray(img)
        assert g.shape == (5, 6)
        for i in range(5):
            for j in range(6):
                expect = (0.299 * img[i, j, 0] + 0.587 * img[i, j, 1]
                          + 0.114 * img[i, j, 2])
                assert g[i, j] == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 1)])
    def test_one_channel_is_returned_as_is(self, rng, shape):
        img = rng.uniform(0, 1, shape)
        assert np.array_equal(to_gray(img), img.reshape(4, 5))

    def test_wrong_channels(self):
        for shape in ((4, 4, 2), (4, 4, 4), (4,), (2, 4, 4, 3)):
            with pytest.raises(ValueError):
                to_gray(np.ones(shape))


class TestPsnr:
    def test_identical_capped(self, rng):
        a = rng.uniform(0, 1, (8, 8, 3))
        assert psnr(a, a) == 100.0

    def test_uniform_difference(self):
        a = np.zeros((16, 16, 3))
        b = np.full((16, 16, 3), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_random_vs_oracle(self, rng):
        a = rng.uniform(0, 1, (9, 7, 3))
        b = rng.uniform(0, 1, (9, 7, 3))
        assert psnr(a, b) == pytest.approx(psnr_oracle(a, b), abs=1e-9)

    def test_symmetric(self, rng):
        a = rng.uniform(0, 1, (8, 8, 3))
        b = rng.uniform(0, 1, (8, 8, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


class TestSsim:
    def test_self_is_one(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_constant_patch_closed_form(self):
        a = np.zeros((12, 12, 1))
        b = np.ones((12, 12, 1))
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        expect = ((2 * 0 * 1 + c1) * (0 + c2)) / ((0 + 1 + c1) * (0 + c2))
        assert ssim(a, b) == pytest.approx(expect, abs=1e-12)

    def test_random_vs_oracle(self, rng):
        a = rng.uniform(0, 1, (14, 13, 3))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-6)

    def test_gray_2d_accepted(self, rng):
        a = rng.uniform(0, 1, (12, 12))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))


class TestPsnrStar:
    def test_half_brightness_hits_cap(self, rng):
        gt = rng.uniform(0.05, 0.5, (8, 8, 3))
        assert psnr_star(0.5 * gt, gt) == 100.0

    def test_ratio_cancellation_powers_of_two(self, rng):
        gt = rng.uniform(0.05, 0.9, (8, 8, 3))
        for c in (0.25, 0.5, 1.0):
            assert psnr_star(c * gt, gt) == 100.0

    def test_equal_reduces_to_psnr(self, rng):
        a = rng.uniform(0.1, 0.9, (8, 8, 3))
        assert psnr_star(a, a) == psnr(a, a)

    def test_matches_scalar_oracle(self, rng):
        en = rng.uniform(0.1, 0.6, (9, 9, 3))
        gt = rng.uniform(0.1, 0.9, (9, 9, 3))
        w = np.array([0.299, 0.587, 0.114])
        r = (gt @ w).mean() / (en @ w).mean()
        expect = psnr_oracle(np.clip(en * r, 0, 1), gt)
        assert psnr_star(en, gt) == pytest.approx(expect, abs=1e-9)

    def test_asymmetric(self, rng):
        gt = rng.uniform(0.1, 0.5, (8, 8, 3))
        en = np.clip(gt * 1.8 + rng.normal(0, 0.05, gt.shape), 0, 1)
        assert psnr_star(en, gt) != psnr_star(gt, en)

    def test_black_prediction_rejected(self):
        with pytest.raises(ValueError, match="degenerate brightness"):
            psnr_star(np.zeros((8, 8, 3)), np.full((8, 8, 3), 0.5))


class TestImageIO:
    def test_pfm_roundtrip_bit_exact(self, rng, tmp_path):
        img = rng.uniform(0, 1, (6, 5, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "x.pfm"
        write_image(str(p), img)
        back = read_image(str(p))
        assert np.array_equal(back, img)

    def test_pfm_gray(self, rng, tmp_path):
        img = rng.uniform(0, 1, (4, 7, 1)).astype(np.float32).astype(np.float64)
        p = tmp_path / "g.pfm"
        write_image(str(p), img)
        assert np.array_equal(read_image(str(p)), img)

    def test_p6_roundtrip_quantization_bound(self, rng, tmp_path):
        img = rng.uniform(0, 1, (8, 9, 3))
        p = tmp_path / "x.ppm"
        write_image(str(p), img)
        back = read_image(str(p))
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 1 / 510 + 1e-12

    def test_pgm_roundtrip_binary_mask(self, tmp_path):
        mask = np.zeros((5, 6, 1))
        mask[1:3, 2:4] = 1.0
        p = tmp_path / "m.pgm"
        write_image(str(p), mask)
        assert np.array_equal(read_image(str(p)), mask)

    def test_bad_magic_offset(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"JUNKJUNK")
        with pytest.raises(ImageFormatError) as e:
            read_image(str(p))
        assert e.value.offset == 0

    def test_pfm_non_finite_names_file_and_offset(self, tmp_path):
        p = tmp_path / "n.pfm"
        write_image(str(p), np.full((3, 4, 3), 0.5))
        data = bytearray(p.read_bytes())
        # floats 7 and 20 of the body; the first one named is the earlier
        first = len(b"PF\n4 3\n-1.0\n") + 4 * 7
        data[first:first + 4] = np.float32(np.nan).tobytes()
        data[first + 52:first + 56] = np.float32(np.inf).tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(ImageFormatError, match="non-finite") as e:
            read_image(str(p))
        assert e.value.offset == first
        assert str(e.value).startswith(f"{p}: ")

    def test_header_comment_allowed(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# comment\n2 1\n255\n" + bytes(6))
        img = read_image(str(p))
        assert img.shape == (1, 2, 3)

    @pytest.mark.parametrize("header,token", [
        (b"P6\n1_0 1\n255\n", b"1_0"), (b"P5\n2 1_0\n255\n", b"1_0"),
        (b"PF\n2 1\nnan\n", b"nan"), (b"Pf\n2 1\n-1_0\n", b"-1_0"),
        (b"Pf\n2 1\n-inf\n", b"-inf"), (b"P5\n2 x1\n255\n", b"x1")])
    def test_header_number_follows_the_field_rule(self, tmp_path, header, token):
        # int() and float() read 1_0 as 10 and take nan and inf; every bad
        # token is reported at its first byte
        p = tmp_path / "h.img"
        p.write_bytes(header + bytes(240))
        with pytest.raises(ImageFormatError, match=re.escape(repr(token))) as e:
            read_image(str(p))
        assert e.value.offset == header.index(token)

    def test_dimension_overflow(self, tmp_path):
        p = tmp_path / "big.ppm"
        p.write_bytes(b"P6\n99999999 1\n255\n")
        with pytest.raises(ImageFormatError, match="out of range"):
            read_image(str(p))

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(str(p))


class TestPadReflect:
    def test_pads_to_multiple(self, rng):
        img = rng.uniform(0, 1, (63, 61, 3))
        padded, h, w = pad_reflect(img, 4)
        assert padded.shape[:2] == (64, 64) and (h, w) == (63, 61)
        assert np.array_equal(padded[:63, :61], img)

    def test_already_divisible_untouched(self, rng):
        img = rng.uniform(0, 1, (8, 8, 3))
        padded, h, w = pad_reflect(img, 4)
        assert padded.shape == img.shape
