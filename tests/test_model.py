"""End-to-end network contracts: shapes, identities, invariances, files."""
import numpy as np
import pytest

from evlight import tensor as T
from evlight.events import EventStream, VoxelGrid, voxelize, write_events
from evlight.image import pad_reflect, read_image, write_image
from evlight.lightup import SnrMap, light_up
from evlight.model import EvLightModel, enhance_file, infer_architecture
from evlight.module import CheckpointError, save_checkpoint


def _small_model(seed=0, bins=4):
    return EvLightModel(np.random.default_rng(seed), base_channels=4,
                        heads=2, bins=bins, snr_kernel=3)


def _grid(rng, bins, h, w, scale=1.0):
    return VoxelGrid(rng.standard_normal((bins, h, w)) * scale, bins, w, h)


def _stream(rng, w, h, n, t_max=1000):
    t = np.sort(rng.integers(0, t_max, n))
    return EventStream(w, h, t, rng.integers(0, w, n), rng.integers(0, h, n),
                       rng.choice([-1, 1], n))


class TestForward:
    def test_output_shapes_and_finiteness(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en, i_lu, smap = model.forward(img, _grid(rng, 4, 16, 16))
        assert i_en.shape == (16, 16, 3)
        assert i_lu.shape == (16, 16, 3)
        assert smap.shape == (16, 16)
        assert np.all(np.isfinite(i_en.data))

    def test_head_zero_makes_enhanced_equal_lightup(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en, i_lu, _ = model.forward(img, _grid(rng, 4, 16, 16))
        assert np.array_equal(i_en.data, i_lu.data)

    def test_event_invariance_where_snr_trusts_image(self, rng):
        model = _small_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        ones = np.ones((16, 16))
        override = SnrMap(ones, ones, ones, 0.5)
        out_a, _, _ = model.forward(img, _grid(rng, 4, 16, 16), override)
        out_b, _, _ = model.forward(img, _grid(rng, 4, 16, 16, scale=7.0), override)
        assert np.array_equal(out_a.data, out_b.data)

    def test_every_parameter_gets_finite_gradient(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en, _, _ = model.forward(img, _grid(rng, 4, 16, 16))
        T.backward(T.mean(T.mul(i_en, i_en)))
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad)), name

    def test_seeded_construction_is_deterministic(self):
        a = dict(EvLightModel(np.random.default_rng(3)).named_parameters())
        b = dict(EvLightModel(np.random.default_rng(3)).named_parameters())
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_forward_is_deterministic(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        grid = _grid(rng, 4, 16, 16)
        out1 = model.forward(img, grid)[0].data
        out2 = model.forward(img, grid)[0].data
        assert np.array_equal(out1, out2)

    def test_no_grad_forward_is_bit_identical_and_tape_free(self, rng, monkeypatch):
        model = _small_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        grid = _grid(rng, 4, 16, 16)
        ref = model.forward(img, grid)[0].data
        made = []
        real = T._result

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(T, "_result", spy)
        with T.no_grad():
            out = model.forward(img, grid)[0]
        assert np.array_equal(out.data, ref)
        assert made
        for t in made:
            assert not t.requires_grad
            assert t._parents == () and t._backward is None


class TestForwardValidation:
    def test_extents_not_divisible_by_four(self, rng):
        model = _small_model()
        with pytest.raises(ValueError, match="pad"):
            model.forward(rng.uniform(0, 1, (15, 16, 3)), _grid(rng, 4, 15, 16))

    def test_bin_count_mismatch(self, rng):
        model = _small_model(bins=4)
        with pytest.raises(ValueError, match="bins"):
            model.forward(rng.uniform(0, 1, (16, 16, 3)), _grid(rng, 6, 16, 16))

    def test_grid_extent_mismatch(self, rng):
        model = _small_model()
        with pytest.raises(ValueError, match="does not match"):
            model.forward(rng.uniform(0, 1, (16, 16, 3)), _grid(rng, 4, 16, 20))

    def test_override_extent_mismatch(self, rng):
        model = _small_model()
        ones = np.ones((8, 8))
        with pytest.raises(ValueError, match="SNR"):
            model.forward(rng.uniform(0, 1, (16, 16, 3)),
                          _grid(rng, 4, 16, 16), SnrMap(ones, ones, ones, 0.5))

    def test_non_rgb_rejected(self, rng):
        with pytest.raises(ValueError, match="H,W,3"):
            _small_model().forward(rng.uniform(0, 1, (16, 16)),
                                   _grid(rng, 4, 16, 16))


class TestNormalizeGrid:
    def test_percentile_scaling(self, rng):
        model = _small_model()
        data = rng.standard_normal((4, 8, 8)) * 3.0
        grid = VoxelGrid(data, 4, 8, 8)
        q = np.percentile(np.abs(data), 98.0)
        out = model.normalize_grid(grid)
        assert out.shape == (8, 8, 4)
        assert np.allclose(out, data.transpose(1, 2, 0) / q)

    def test_zero_grid_passes_through(self):
        model = _small_model()
        out = model.normalize_grid(VoxelGrid(np.zeros((4, 8, 8)), 4, 8, 8))
        assert np.all(out == 0.0)


class TestEnhanceFile:
    def _setup(self, tmp_path, rng, h=15, w=18):
        img = rng.uniform(0.02, 0.3, (h, w, 3))
        img_path = str(tmp_path / "low.pfm")
        write_image(img_path, img)
        stream = _stream(rng, w, h, 60)
        ev_path = str(tmp_path / "events.evst")
        write_events(stream, ev_path)
        model = EvLightModel(np.random.default_rng(0), bins=4)
        ckpt = str(tmp_path / "model.evlt")
        model.save(ckpt)
        return img_path, ev_path, ckpt, model, stream

    def test_pad_crop_round_trip(self, tmp_path, rng):
        img_path, ev_path, ckpt, _, _ = self._setup(tmp_path, rng)
        out_path = str(tmp_path / "out.pfm")
        out = enhance_file(img_path, ev_path, ckpt, out_path, bins=4)
        assert out.shape == (15, 18, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0
        again = read_image(out_path)
        assert np.allclose(again, out, atol=1e-7)

    def test_zero_head_enhance_is_clamped_lightup(self, tmp_path, rng):
        img_path, ev_path, ckpt, model, stream = self._setup(tmp_path, rng)
        out = enhance_file(img_path, ev_path, ckpt, str(tmp_path / "o.pfm"),
                           bins=4)
        # the estimator runs on the padded frame, so crop after the fact
        padded, h, w = pad_reflect(read_image(img_path), 4)
        i_lu, _ = light_up(T.Tensor(padded), model.estimator)
        assert np.array_equal(out, np.clip(i_lu.data[:h, :w, :], 0.0, 1.0))

    def test_sensor_extent_mismatch(self, tmp_path, rng):
        img_path, _, ckpt, _, _ = self._setup(tmp_path, rng)
        bad = str(tmp_path / "bad.evst")
        write_events(_stream(rng, 7, 7, 10), bad)
        with pytest.raises(ValueError, match="sensor"):
            enhance_file(img_path, bad, ckpt, str(tmp_path / "o.pfm"), bins=4)

    def test_corrupt_checkpoint(self, tmp_path, rng):
        img_path, ev_path, _, _, _ = self._setup(tmp_path, rng)
        bad = tmp_path / "bad.evlt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            enhance_file(img_path, ev_path, str(bad), str(tmp_path / "o.pfm"),
                         bins=4)

    def test_bins_cross_check(self, tmp_path, rng):
        img_path, ev_path, ckpt, _, _ = self._setup(tmp_path, rng)
        with pytest.raises(ValueError, match="trained with 4 bins"):
            enhance_file(img_path, ev_path, ckpt, str(tmp_path / "o.pfm"),
                         bins=8)

    def test_architecture_inferred_from_checkpoint(self, tmp_path, rng):
        model = EvLightModel(np.random.default_rng(2), base_channels=4,
                             heads=2, bins=6)
        assert infer_architecture(model.state_arrays()) == (4, 2, 6)
        foreign = str(tmp_path / "foreign.evlt")
        save_checkpoint({"whatever": np.zeros(3)}, foreign)
        img_path, ev_path, _, _, _ = self._setup(tmp_path, rng)
        with pytest.raises(CheckpointError, match="infer"):
            enhance_file(img_path, ev_path, foreign, str(tmp_path / "o.pfm"))

    def test_grayscale_input_promoted(self, tmp_path, rng):
        gray = rng.uniform(0.02, 0.3, (16, 16, 1))
        img_path = str(tmp_path / "g.pgm")
        write_image(img_path, gray)
        ev_path = str(tmp_path / "e.evst")
        write_events(_stream(rng, 16, 16, 40), ev_path)
        ckpt = str(tmp_path / "m.evlt")
        EvLightModel(np.random.default_rng(0), bins=4).save(ckpt)
        out = enhance_file(img_path, ev_path, ckpt, str(tmp_path / "o.pfm"),
                           bins=4)
        assert out.shape == (16, 16, 3)


class TestVoxelIntegration:
    def test_simulated_stream_feeds_forward(self, rng):
        model = _small_model()
        stream = _stream(rng, 16, 16, 200)
        grid = voxelize(stream, bins=4)
        i_en, _, _ = model.forward(rng.uniform(0, 0.3, (16, 16, 3)), grid)
        assert np.all(np.isfinite(i_en.data))
