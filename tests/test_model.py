"""End-to-end network contracts: shapes, identities, invariances, files."""
import gc
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import evlight
from evlight import tensor as T
from evlight.blocks import RegionalSelect
from evlight.events import EventStream, voxelize, write_events
from evlight.image import pad_reflect, read_image, write_image
from evlight.lightup import light_up
from evlight.model import (EvLightModel, enhance_file, infer_architecture,
                           load_sample, predict)
from evlight.module import CheckpointError, save_checkpoint
from evlight.training import RandomConvFeatures, total_loss

from helpers import use_cores


def _small_model(seed=0, bins=4, tau=0.5):
    return EvLightModel(np.random.default_rng(seed), base_channels=4,
                        heads=2, bins=bins, tau=tau)


def _grid(rng, bins, h, w, scale=1.0):
    return rng.standard_normal((h, w, bins)) * scale


def _stream(rng, w, h, n, t_max=1000):
    t = np.sort(rng.integers(0, t_max, n))
    return EventStream(w, h, t, rng.integers(0, w, n), rng.integers(0, h, n),
                       rng.choice([-1, 1], n))


class TestForward:
    def test_output_shapes_and_finiteness(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en = model.forward(img, _grid(rng, 4, 16, 16))
        assert i_en.shape == (16, 16, 3)
        assert np.all(np.isfinite(i_en.data))

    def test_head_zero_makes_enhanced_equal_lightup(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en = model.forward(img, _grid(rng, 4, 16, 16))
        i_lu = light_up(T.Tensor(img), model.estimator)
        assert np.array_equal(i_en.data, i_lu.data)

    def test_event_invariance_where_snr_trusts_image(self, rng):
        # every normalised SNR value is >= 0, so tau 0 trusts every pixel
        model = _small_model(tau=0.0)
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        out_a = model.forward(img, _grid(rng, 4, 16, 16))
        out_b = model.forward(img, _grid(rng, 4, 16, 16, scale=7.0))
        assert np.array_equal(out_a.data, out_b.data)

    def test_every_parameter_gets_finite_gradient(self, rng):
        model = _small_model()
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        i_en = model.forward(img, _grid(rng, 4, 16, 16))
        grads = T.backward(T.mean(T.mul(i_en, i_en)))
        for name, p in model.named_parameters():
            assert p in grads, name
            assert np.all(np.isfinite(grads[p])), name

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
        out1 = model.forward(img, grid).data
        out2 = model.forward(img, grid).data
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_no_grad_forward_is_bit_identical_and_tape_free(self, rng, monkeypatch,
                                                            cores):
        # on two cores the spy also sees the tensors the worker thread makes
        use_cores(monkeypatch, cores)
        model = _small_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        grid = _grid(rng, 4, 16, 16)
        ref = model.forward(img, grid).data
        made = []
        real = T._result

        def spy(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(T, "_result", spy)
        with T.no_grad():
            out = model.forward(img, grid)
        assert np.array_equal(out.data, ref)
        assert made
        for t in made:
            assert not t.requires_grad
            assert t._node is None


class TestTape:
    """What a training step's graph keeps alive, and that it frees itself."""

    # tracemalloc bytes the graph of one crop-32 sample of _small_model
    # keeps between forward and backward (perceptual loss, lambda 0.1) were
    # 3,332,826 with closures that keep only what their gradient reads,
    # against 5,301,508 when every closure kept its input tensors
    TAPE_BYTES = 3_332_826

    @pytest.mark.parametrize("cores", [1, 2])
    def test_model_is_freed_by_reference_counting(self, rng, monkeypatch, cores):
        # no reference cycle: with the collector off, dropping the model and
        # the gradients frees every parameter array
        use_cores(monkeypatch, cores)
        img = rng.uniform(0.0, 0.3, (16, 16, 3))
        grid = _grid(rng, 4, 16, 16)
        gc.collect()
        gc.disable()
        try:
            model = _small_model()
            out = model.forward(img, grid)
            grads = T.backward(T.mean(T.mul(out, out)))
            assert len(grads) == len(model.parameters())
            refs = [weakref.ref(p.data) for p in model.parameters()]
            del model, out, grads
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_one_crop_keeps_a_bounded_tape(self, rng, monkeypatch):
        use_cores(monkeypatch, 1)
        model = _small_model()
        phi = RandomConvFeatures(seed=1)
        img = rng.uniform(0.0, 0.3, (32, 32, 3))
        gt = rng.uniform(0.0, 1.0, (32, 32, 3))
        grid = _grid(rng, 4, 32, 32)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = total_loss(model.forward(img, grid), gt, 0.1, phi)[0]
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 1.1 * self.TAPE_BYTES
        assert len(T.backward(loss)) == len(model.parameters())


class TestPredictPeak:
    """The memory one inference needs at its peak."""

    # tracemalloc peak of the default model's serial predict at 96x128:
    # 23,446,899 bytes with each gated residual built in one buffer
    # (T.gated_add), against 28,167,057 when Hrf's product and F2's output
    # were both alive through F3's pad and unfold
    PREDICT_PEAK = 23_446_899

    def test_serial_predict_peak(self, rng, monkeypatch):
        use_cores(monkeypatch, 1)
        model = EvLightModel(np.random.default_rng(0))
        img = rng.uniform(0.0, 0.3, (96, 128, 3))
        grid = _grid(rng, 32, 96, 128)
        gc.collect()
        tracemalloc.start()
        try:
            predict(model, img, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.PREDICT_PEAK


class TestForkedForward:
    """Two cores run the regional branches on a worker thread (``T.cores()``)."""

    @staticmethod
    def _model(rng):
        model = _small_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        return model

    @pytest.mark.parametrize("shape", [(32, 48, 3), (30, 42, 3), (28, 36, 1)],
                             ids=["aligned", "padded", "gray"])
    def test_predict_is_bit_identical_on_one_or_two_cores(self, rng, monkeypatch,
                                                          shape):
        model = self._model(rng)
        img = rng.uniform(0.0, 0.3, shape)
        grid = _grid(rng, 4, *shape[:2])
        select = RegionalSelect.forward
        main = threading.get_ident()
        threads = set()  # True for a regional selector in the calling thread

        def spy(self, *args):
            threads.add(threading.get_ident() == main)
            return select(self, *args)

        monkeypatch.setattr(RegionalSelect, "forward", spy)
        outs = []
        interval = sys.getswitchinterval()
        try:
            # switch threads often, so the hand-off is exercised mid-op
            sys.setswitchinterval(1e-6)
            for cores, on_main in ((1, {True}), (2, {False})):
                use_cores(monkeypatch, cores)
                threads.clear()
                outs.append(predict(model, img, grid))
                assert threads == on_main
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(outs[0], outs[1])

    def test_forked_predict_honours_the_callers_errstate_handler(self, rng,
                                                                 monkeypatch):
        # weights at N(0,1) underflow exp on both threads: the worker must
        # call the caller's handler, not fail to find one
        model = _small_model()
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape)
        img, grid = rng.uniform(0.0, 0.3, (16, 16, 3)), _grid(rng, 4, 16, 16)
        outs, calls = [], []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            calls.append([])
            with np.errstate(under="call",
                             call=lambda err, flag: calls[-1].append(threading.get_ident())):
                outs.append(predict(model, img, grid))
        assert np.array_equal(outs[0], outs[1])
        assert calls[0] and len(calls[0]) == len(calls[1])
        assert set(calls[1]) - {threading.get_ident()}  # the worker called it too

    # (failing block, the worker's last block of that phase or None, whether
    # the caller raises): each phase fails once on either thread, and when
    # the caller fails its phase's worker is still busy
    FAILURES = {
        "erfs": (lambda m: m.erfs[1].res2, None, False),
        "trunk": (lambda m: m.fuse, lambda m: m.erfs[1], True),
        "irfs": (lambda m: m.irfs[0], None, False),
        "decoder": (lambda m: m.dec_hfe[0], lambda m: m.erfs[0], True),
    }

    @pytest.mark.parametrize("where", FAILURES)
    def test_a_failure_surfaces_with_its_type_and_every_thread_ends(
            self, rng, monkeypatch, where):
        use_cores(monkeypatch, 2)
        model = self._model(rng)
        get_block, get_busy, on_caller = self.FAILURES[where]
        block, busy = get_block(model), get_busy and get_busy(model)
        failed_on = []
        failed = threading.Event()

        def boom(*args):
            failed_on.append(threading.get_ident())
            failed.set()
            raise T.NonFiniteError(f"{where} produced non-finite values")

        monkeypatch.setattr(block, "forward", boom)
        if busy:
            last = busy.forward

            def late(*args):
                # the worker is still busy when the caller fails; predict
                # must wait for it
                failed.wait(5.0)
                time.sleep(0.2)
                return last(*args)

            monkeypatch.setattr(busy, "forward", late)
        img, grid = rng.uniform(0.0, 0.3, (16, 16, 3)), _grid(rng, 4, 16, 16)
        seen = {}

        def call():
            # on a thread of its own, so a hang fails the test instead
            seen["before"] = threading.active_count()
            try:
                predict(model, img, grid)
            except Exception as exc:  # checked below, in the test's thread
                seen["error"] = exc
            seen["after"] = threading.active_count()

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(30.0)
        assert not caller.is_alive()
        assert type(seen["error"]) is T.NonFiniteError
        assert str(seen["error"]) == f"{where} produced non-finite values"
        assert seen["after"] == seen["before"]
        assert [t == caller.ident for t in failed_on] == [on_caller]

    @pytest.mark.parametrize("selector", ["irfs", "erfs"])
    def test_the_decoder_runs_beside_the_full_resolution_selectors(
            self, rng, monkeypatch, selector):
        use_cores(monkeypatch, 2)
        model = self._model(rng)
        selecting, decoding = threading.Event(), threading.Event()
        seen, met = {}, []  # met: whether each side saw the other running
        select, fuse = getattr(model, selector)[0].forward, model.hrf[1].forward

        def slow_select(*args):
            # returns only once the caller has started hrf[1] (or on timeout)
            seen["select"] = threading.get_ident()
            selecting.set()
            met.append(decoding.wait(5.0))
            return select(*args)

        def spy_fuse(*args):
            seen["fuse"] = threading.get_ident()
            decoding.set()
            met.append(selecting.wait(5.0))
            return fuse(*args)

        monkeypatch.setattr(getattr(model, selector)[0], "forward", slow_select)
        monkeypatch.setattr(model.hrf[1], "forward", spy_fuse)
        predict(model, rng.uniform(0.0, 0.3, (16, 16, 3)), _grid(rng, 4, 16, 16))
        assert seen["fuse"] == threading.get_ident() != seen["select"]
        assert met == [True, True]


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

    def test_grid_in_bins_first_order_rejected(self, rng):
        model = _small_model(bins=4)
        with pytest.raises(ValueError, match=r"grid shape \(4, 16, 12\)"):
            model.forward(rng.uniform(0, 1, (16, 12, 3)),
                          rng.standard_normal((4, 16, 12)))

    @pytest.mark.parametrize("tau", [7.0, -0.1, float("nan")])
    def test_tau_outside_unit_interval_refused_at_construction(self, tau):
        with pytest.raises(ValueError, match=rf"tau must lie in \[0, 1\], got {tau}"):
            _small_model(tau=tau)

    def test_non_rgb_rejected(self, rng):
        with pytest.raises(ValueError, match="H,W,3"):
            _small_model().forward(rng.uniform(0, 1, (16, 16)),
                                   _grid(rng, 4, 16, 16))


class TestNormalizeGrid:
    def test_percentile_scaling(self, rng):
        model = _small_model()
        grid = rng.standard_normal((8, 8, 4)) * 3.0
        q = np.percentile(np.abs(grid), 98.0)
        out = model.normalize_grid(grid)
        assert out.shape == (8, 8, 4)
        assert np.allclose(out, grid / q)

    def test_zero_grid_passes_through(self):
        model = _small_model()
        out = model.normalize_grid(np.zeros((8, 8, 4)))
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
        save_checkpoint(model.state_arrays(), ckpt)
        return img_path, ev_path, ckpt, model, stream

    def test_pad_crop_round_trip(self, tmp_path, rng):
        img_path, ev_path, ckpt, _, _ = self._setup(tmp_path, rng)
        out_path = str(tmp_path / "out.pfm")
        out = enhance_file(img_path, ev_path, ckpt, out_path)
        assert out.shape == (15, 18, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0
        again = read_image(out_path)
        assert np.allclose(again, out, atol=1e-7)

    def test_zero_head_enhance_is_clamped_lightup(self, tmp_path, rng):
        img_path, ev_path, ckpt, model, stream = self._setup(tmp_path, rng)
        out = enhance_file(img_path, ev_path, ckpt, str(tmp_path / "o.pfm"))
        # the estimator runs on the padded frame, so crop after the fact
        padded, h, w = pad_reflect(read_image(img_path), 4)
        i_lu = light_up(T.Tensor(padded), model.estimator)
        assert np.array_equal(out, np.clip(i_lu.data[:h, :w, :], 0.0, 1.0))

    def test_sensor_extent_mismatch(self, tmp_path, rng):
        img_path, _, ckpt, _, _ = self._setup(tmp_path, rng)
        bad = str(tmp_path / "bad.evst")
        write_events(_stream(rng, 7, 7, 10), bad)
        with pytest.raises(ValueError, match="sensor"):
            enhance_file(img_path, bad, ckpt, str(tmp_path / "o.pfm"))

    def test_corrupt_checkpoint(self, tmp_path, rng):
        img_path, ev_path, _, _, _ = self._setup(tmp_path, rng)
        bad = tmp_path / "bad.evlt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            enhance_file(img_path, ev_path, str(bad), str(tmp_path / "o.pfm"))

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
        save_checkpoint(EvLightModel(np.random.default_rng(0), bins=4).state_arrays(), ckpt)
        out = enhance_file(img_path, ev_path, ckpt, str(tmp_path / "o.pfm"))
        assert out.shape == (16, 16, 3)


class TestVoxelIntegration:
    def test_simulated_stream_feeds_forward(self, rng):
        model = _small_model()
        stream = _stream(rng, 16, 16, 200)
        grid = voxelize(stream, bins=4).data.transpose(1, 2, 0)
        i_en = model.forward(rng.uniform(0, 0.3, (16, 16, 3)), grid)
        assert np.all(np.isfinite(i_en.data))

    def test_load_sample_grid_is_the_contiguous_transpose(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, (12, 20, 3))
        stream = _stream(rng, 20, 12, 300)
        write_image(str(tmp_path / "low.pfm"), img)
        write_events(stream, str(tmp_path / "ev.evst"))
        low, grid = load_sample(str(tmp_path / "low.pfm"),
                                str(tmp_path / "ev.evst"), 5, 100, 900)
        assert low.shape == (12, 20, 3)
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        assert np.array_equal(grid, voxelize(stream, 5, 100, 900).data
                              .transpose(1, 2, 0))


def test_star_import_resolves_every_export():
    # a stale name in __all__ makes the star import raise AttributeError
    namespace = {}
    exec("from evlight import *", namespace)
    assert set(evlight.__all__) <= set(namespace)
