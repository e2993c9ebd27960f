"""Losses, optimizer, augmentation, config plumbing, and the train loop."""
import filecmp
import math
import os
import re
import threading
import weakref

import numpy as np
import pytest

from evlight import blocks, training
from evlight import tensor as T
from evlight.events import EventStream, VoxelGrid, write_events
from evlight.fixtures import fixtures
from evlight.image import write_image
from evlight.tensor import Tensor
from evlight.training import (CHARBONNIER_EPS, Adam, RandomConvFeatures,
                              TrainConfig, augment, charbonnier, clip_grad_norm,
                              parse_config, parse_manifest, perceptual,
                              total_loss, train)

from helpers import fd_gradcheck, use_cores


class TestCharbonnier:
    def test_exact_epsilon_at_zero_error(self, rng):
        x = rng.uniform(0, 1, (5, 5, 3))
        assert charbonnier(Tensor(x), x).item() == CHARBONNIER_EPS

    def test_matches_closed_form(self, rng):
        en = rng.uniform(0, 1, (6, 7, 3))
        gt = rng.uniform(0, 1, (6, 7, 3))
        got = charbonnier(Tensor(en), gt).item()
        want = math.sqrt(np.mean((en - gt) ** 2) + CHARBONNIER_EPS ** 2)
        assert abs(got - want) < 1e-15

    def test_gradcheck(self, rng):
        en = Tensor(rng.uniform(0, 1, (4, 4, 3)), requires_grad=True)
        gt = rng.uniform(0, 1, (4, 4, 3))
        fd_gradcheck(lambda *_: charbonnier(en, gt), [en], tol=1e-6)


class _IdentityFeatures:
    """A perceptual extractor whose one feature map is its input."""

    def features(self, x):
        return [x]


class TestPerceptual:
    def test_zero_at_equal_inputs(self, rng):
        phi = RandomConvFeatures()
        x = rng.uniform(0, 1, (8, 8, 3))
        assert perceptual(Tensor(x), x, phi).item() == 0.0

    def test_identity_stage_reduces_to_mean_l1(self, rng):
        phi = _IdentityFeatures()
        en = rng.uniform(0, 1, (6, 6, 3))
        gt = rng.uniform(0, 1, (6, 6, 3))
        got = perceptual(Tensor(en), gt, phi).item()
        assert abs(got - np.mean(np.abs(en - gt))) < 1e-15

    def test_identity_stage_gradient_is_sign(self, rng):
        phi = _IdentityFeatures()
        en = Tensor(rng.uniform(0, 1, (5, 5, 3)), requires_grad=True)
        gt = rng.uniform(0, 1, (5, 5, 3))
        g = T.backward(perceptual(en, gt, phi))[en]
        assert np.allclose(g, np.sign(en.data - gt) / en.data.size)

    def test_discriminates_different_images(self, rng):
        phi = RandomConvFeatures()
        en = rng.uniform(0, 1, (8, 8, 3))
        gt = rng.uniform(0, 1, (8, 8, 3))
        assert perceptual(Tensor(en), gt, phi).item() > 0.0

    def test_frozen_stages_are_seed_deterministic(self):
        a = RandomConvFeatures(seed=9)
        b = RandomConvFeatures(seed=9)
        for (wa, _), (wb, _) in zip(a.stages, b.stages):
            assert np.array_equal(wa.data, wb.data)

    def test_pyramid_has_three_downsampling_stages(self, rng):
        phi = RandomConvFeatures()
        feats = phi.features(Tensor(rng.uniform(0, 1, (16, 16, 3))))
        assert [f.shape for f in feats] == [(8, 8, 8), (4, 4, 16), (2, 2, 32)]


class TestTotalLoss:
    def test_lambda_zero_is_plain_charbonnier(self, rng):
        en = Tensor(rng.uniform(0, 1, (5, 5, 3)))
        gt = rng.uniform(0, 1, (5, 5, 3))
        loss, ch, pe = total_loss(en, gt, 0.0, RandomConvFeatures())
        assert loss.item() == charbonnier(en, gt).item()
        assert ch == loss.item() and pe == 0.0

    def test_weighted_sum(self, rng):
        phi = _IdentityFeatures()
        en = Tensor(rng.uniform(0, 1, (5, 5, 3)))
        gt = rng.uniform(0, 1, (5, 5, 3))
        loss, ch, pe = total_loss(en, gt, 0.3, phi)
        assert abs(loss.item() - (ch + 0.3 * pe)) < 1e-15
        assert abs(pe - np.mean(np.abs(en.data - gt))) < 1e-15


class TestAdam:
    def test_first_step_is_signed_lr(self, rng):
        p = T.Parameter(rng.standard_normal(20))
        g = rng.standard_normal(20)
        g[np.abs(g) < 0.1] = 0.5  # keep |g| >> eps so the step saturates
        before = p.data.copy()
        Adam([p], lr=1e-3).step([g])
        assert np.allclose(p.data, before - 1e-3 * np.sign(g), atol=1e-8)

    def test_zero_gradient_leaves_parameter_fixed(self):
        p = T.Parameter(np.array([1.5, -2.0]))
        Adam([p], lr=1e-2).step([np.zeros(2)])
        assert np.array_equal(p.data, np.array([1.5, -2.0]))

    def test_ten_steps_match_scalar_reference(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        p = T.Parameter(np.array([0.7]))
        opt = Adam([p], lr)
        ref_p, m, v = 0.7, 0.0, 0.0
        for t in range(1, 11):
            g = math.sin(t * 1.7) + 0.3
            opt.step([np.array([g])])
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref_p -= lr * mh / (math.sqrt(vh) + eps)
            assert abs(p.data[0] - ref_p) < 1e-12


class TestClipGradNorm:
    def test_small_norm_untouched(self):
        g = np.array([0.3, 0.0, -0.4, 0.0])
        norm = clip_grad_norm([g], 10.0)
        assert abs(norm - 0.5) < 1e-15
        assert np.array_equal(g, np.array([0.3, 0.0, -0.4, 0.0]))

    def test_large_norm_rescaled(self):
        # the norm is joint over all arrays: sqrt(30^2 + 40^2) = 50
        grads = [np.array([30.0]), np.array([40.0])]
        norm = clip_grad_norm(grads, 10.0)
        assert abs(norm - 50.0) < 1e-12
        assert np.allclose(np.concatenate(grads), np.array([6.0, 8.0]))
        assert abs(float(np.linalg.norm(np.concatenate(grads))) - 10.0) < 1e-12


class TestAugment:
    def _triplet(self, rng, h=12, w=16, bins=3):
        img = rng.uniform(0, 1, (h, w, 3))
        gt = rng.uniform(0, 1, (h, w, 3))
        grid = VoxelGrid(rng.standard_normal((bins, h, w)), bins, w, h)
        return img, grid, gt

    def test_no_op_settings_identity(self, rng):
        img, grid, gt = self._triplet(rng)
        a, g, b = augment(img, grid, gt, np.random.default_rng(0))
        assert np.array_equal(a, img)
        assert np.array_equal(g.data, grid.data)
        assert np.array_equal(b, gt)

    def test_same_seed_same_output(self, rng):
        img, grid, gt = self._triplet(rng, 16, 16)
        outs = [augment(img, grid, gt, np.random.default_rng(5), crop=8,
                        hflip=True, rotate=True) for _ in range(2)]
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1].data, outs[1][1].data)
        assert np.array_equal(outs[0][2], outs[1][2])

    def test_identical_transform_across_modalities(self):
        base = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
        img = np.repeat(base[:, :, None], 3, axis=2)
        grid = VoxelGrid(np.repeat(base[None], 4, axis=0), 4, 16, 16)
        for seed in range(20):
            a, g, b = augment(img, grid, img.copy(),
                              np.random.default_rng(seed), crop=8,
                              hflip=True, rotate=True)
            assert a.shape == (8, 8, 3) and g.data.shape == (4, 8, 8)
            for bin_idx in range(4):
                assert np.array_equal(a[:, :, 0], g.data[bin_idx])
            assert np.array_equal(a, b)

    def test_rotation_skipped_for_non_square(self, rng):
        img, grid, gt = self._triplet(rng, 12, 16)
        a, g, b = augment(img, grid, gt, np.random.default_rng(1), rotate=True)
        assert a.shape == (12, 16, 3)
        assert np.array_equal(a, img)

    def test_crop_exceeding_extent(self, rng):
        img, grid, gt = self._triplet(rng, 12, 16)
        with pytest.raises(ValueError, match="crop"):
            augment(img, grid, gt, np.random.default_rng(0), crop=14)

    def test_extent_mismatch(self, rng):
        img, grid, _ = self._triplet(rng, 12, 16)
        with pytest.raises(ValueError, match="agree"):
            augment(img, grid, np.zeros((12, 12, 3)), np.random.default_rng(0))


class TestParseManifest:
    def test_relative_paths_resolved(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("# header comment\n"
                       "a/low.ppm\ta/ev.evst\ta/gt.ppm\t0\t1000\n"
                       "\n"
                       "b/low.ppm\tb/ev.evst\tb/gt.ppm\t50\t2000\n")
        pairs = parse_manifest(str(man))
        assert len(pairs) == 2
        assert pairs[0].low == str(tmp_path / "a" / "low.ppm")
        assert pairs[1].t0 == 50 and pairs[1].t1 == 2000

    def test_wrong_field_count_names_line(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("only\tthree\tfields\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_manifest(str(man))


    def test_bad_time_names_file_and_line(self, tmp_path):
        man = tmp_path / "m.txt"
        for rows, message in (("a\tb\tc\t0\t10\na\tb\tc\t0\tabc\n",
                               "line 2: bad integer 'abc' for t1"),
                              ("a\tb\tc\t1e3\t10\n", "line 1: bad integer '1e3' for t0")):
            man.write_text(rows)
            with pytest.raises(ValueError, match=re.escape(f"{man}: {message}")):
                parse_manifest(str(man))


class TestParseConfig:
    def test_types_and_lambda_alias(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("lr = 5e-4\n"
                            "epochs = 3  # trailing comment\n"
                            "lambda = 0.25\n"
                            "hflip = false\n"
                            "crop = 32\n")
        cfg = parse_config(str(cfg_file))
        assert cfg.lr == 5e-4 and cfg.epochs == 3
        assert cfg.lam == 0.25 and cfg.hflip is False and cfg.crop == 32
        assert cfg.rotate is True  # untouched default

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("momentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(str(cfg_file))

    def test_bad_boolean(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("hflip = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            parse_config(str(cfg_file))

    @pytest.mark.parametrize("line,message", [
        ("steps = 1.5", "line 2: bad integer '1.5' for steps"),
        ("lr = fast", "line 2: bad number 'fast' for lr"),
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, line, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"crop = 32\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{cfg_file}: {message}")):
            parse_config(str(cfg_file))

    def test_config_validation_still_applies(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("crop = 30\n")
        with pytest.raises(ValueError, match="divide by 4"):
            parse_config(str(cfg_file))

    @pytest.mark.parametrize("line", ["batch = 0", "epochs = 0", "steps = -1",
                                      "crop = 0"])
    def test_bad_counts_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(line + "\n")
        key = line.split(" ")[0]
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            parse_config(str(cfg_file))

    @pytest.mark.parametrize("lines,message", [
        ("lr = -1\n", "lr must be > 0"),
        ("lr = 0\n", "lr must be > 0"),
        ("lr = inf\n", "lr must be > 0 and finite"),
        ("lr = nan\n", "lr must be > 0 and finite"),
        ("lambda = nan\n", "lambda must be >= 0 and finite"),
        ("lambda = inf\n", "lambda must be >= 0 and finite"),
        ("grad_clip = -1\n", "grad_clip must be > 0"),
        ("tau = 1.5\n", "tau must lie in"),
        ("tau = -0.1\n", "tau must lie in"),
        ("heads = 3\nbase_channels = 4\n", "multiple of heads 3"),
        ("heads = 0\n", "multiple of heads 0"),
    ])
    def test_settings_the_loop_cannot_honour_rejected(self, tmp_path, lines, message):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(lines)
        with pytest.raises(ValueError, match=message):
            parse_config(str(cfg_file))

    def test_direct_validation(self):
        with pytest.raises(ValueError, match="lambda"):
            TrainConfig(lam=-0.1)


def _tiny_config(**kw):
    base = dict(lr=1e-3, steps=2, crop=16, lam=0.1, seed=11, bins=4,
                base_channels=4, heads=2)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_empty_manifest_rejected(self, tmp_path):
        man = tmp_path / "m.txt"
        man.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no sample"):
            train(str(man), _tiny_config(), str(tmp_path / "out"))

    def test_loop_writes_checkpoints_and_loss_rows(self, tmp_path):
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        ckpt, csv_path = train(man, _tiny_config(steps=0, epochs=2),
                               str(tmp_path / "out"))
        assert os.path.exists(ckpt) and ckpt.endswith("final.evlt")
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "step,loss,charbonnier,perceptual"
        assert len(lines) == 3  # one pair -> one step per epoch
        out = os.path.dirname(ckpt)
        assert os.path.exists(os.path.join(out, "epoch_001.evlt"))
        assert os.path.exists(os.path.join(out, "epoch_002.evlt"))
        for row in lines[1:]:
            loss, ch, pe = map(float, row.split(",")[1:])
            assert math.isfinite(loss) and loss > 0
            assert abs(loss - (ch + 0.1 * pe)) < 1e-9

    def test_exact_step_count_writes_only_final_checkpoint(self, tmp_path):
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        ckpt, _ = train(man, _tiny_config(), str(tmp_path / "out"))
        names = sorted(os.listdir(os.path.dirname(ckpt)))
        assert names == ["final.evlt", "loss.csv"]

    def test_seeded_run_is_bit_reproducible(self, tmp_path):
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        ckpt1, csv1 = train(man, _tiny_config(), str(tmp_path / "a"))
        ckpt2, csv2 = train(man, _tiny_config(), str(tmp_path / "b"))
        assert filecmp.cmp(csv1, csv2, shallow=False)
        assert filecmp.cmp(ckpt1, ckpt2, shallow=False)

    def test_sample_graph_freed_before_next_forward(self, tmp_path, monkeypatch):
        man = fixtures(str(tmp_path / "data"), seed=3, count=2, size=32)
        forward = training.EvLightModel.forward
        outputs: list[weakref.ref] = []
        alive_at_forward: list[int] = []

        def spy(self, *args, **kwargs):
            alive_at_forward.append(sum(r() is not None for r in outputs))
            result = forward(self, *args, **kwargs)
            outputs.append(weakref.ref(result.data))
            return result

        monkeypatch.setattr(training.EvLightModel, "forward", spy)
        train(man, _tiny_config(steps=2, batch=2), str(tmp_path / "out"))
        assert alive_at_forward == [0, 0, 0, 0]

    def test_step_gradients_freed_before_next_step(self, tmp_path, monkeypatch):
        # one core: the two samples of a step run one after the other
        man = fixtures(str(tmp_path / "data"), seed=3, count=2, size=32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        backward, forward = T.backward, training.EvLightModel.forward
        arrays: list[weakref.ref] = []
        alive_at_forward: list[int] = []

        def backward_spy(loss):
            grads = backward(loss)
            arrays.extend(weakref.ref(g) for g in grads.values())
            return grads

        def forward_spy(self, *args, **kwargs):
            alive_at_forward.append(sum(r() is not None for r in arrays))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(T, "backward", backward_spy)
        monkeypatch.setattr(training.EvLightModel, "forward", forward_spy)
        train(man, _tiny_config(steps=3, batch=2), str(tmp_path / "out"))
        # a step's second sample runs while its first sample's sum is alive;
        # no gradient of a step is alive at the next step's first forward
        assert len(alive_at_forward) == 6
        assert alive_at_forward[0::2] == [0, 0, 0]
        assert all(n > 0 for n in alive_at_forward[1::2])

    def test_parameter_without_gradient_stays_fixed(self, tmp_path, monkeypatch):
        # a parameter missing from every returned dict is stepped with zeros
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        backward, init = T.backward, training.Adam.__init__
        params, before = [], []

        def adam_spy(self, ps, lr):
            params.extend(ps)
            before.extend(p.data.copy() for p in ps)
            init(self, ps, lr)

        def backward_spy(loss):
            grads = backward(loss)
            del grads[params[0]]
            return grads

        monkeypatch.setattr(training.Adam, "__init__", adam_spy)
        monkeypatch.setattr(T, "backward", backward_spy)
        train(man, _tiny_config(), str(tmp_path / "out"))
        assert np.array_equal(params[0].data, before[0])
        assert not np.array_equal(params[1].data, before[1])

    @staticmethod
    def _wide_manifest(tmp_path, rng):
        """One 32x48 sample: its image, events and target share that extent."""
        h, w = 32, 48
        d = tmp_path / "wide"
        d.mkdir()
        write_image(str(d / "low.ppm"), rng.uniform(0.02, 0.25, (h, w, 3)))
        write_image(str(d / "gt.ppm"), rng.uniform(0.2, 0.9, (h, w, 3)))
        n = 200
        write_events(EventStream(w, h, np.sort(rng.integers(0, 1000, n)),
                                 rng.integers(0, w, n), rng.integers(0, h, n),
                                 rng.choice([-1, 1], n)), str(d / "ev.evst"))
        man = d / "manifest.txt"
        man.write_text("low.ppm\tev.evst\tgt.ppm\t0\t1000\n")
        return str(man)

    def test_crop_fitting_both_sides_is_honoured(self, tmp_path, rng, monkeypatch):
        man = self._wide_manifest(tmp_path, rng)
        forward = training.EvLightModel.forward
        shapes = []

        def spy(self, img, *args, **kwargs):
            shapes.append(img.shape)
            return forward(self, img, *args, **kwargs)

        monkeypatch.setattr(training.EvLightModel, "forward", spy)
        train(man, _tiny_config(crop=32, steps=3), str(tmp_path / "out"))
        assert shapes == [(32, 32, 3)] * 3

    def test_crop_beyond_a_side_rejected_before_writing(self, tmp_path, rng):
        man = self._wide_manifest(tmp_path, rng)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"low\.ppm: crop 40 exceeds its extent 32x48"):
            train(man, _tiny_config(crop=40), str(out))
        assert not out.exists()

    def test_lambda_changes_trajectory(self, tmp_path):
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        _, csv_a = train(man, _tiny_config(lam=0.0), str(tmp_path / "a"))
        _, csv_b = train(man, _tiny_config(lam=0.1), str(tmp_path / "b"))
        rows_a = [r.split(",") for r in open(csv_a).read().strip().splitlines()[1:]]
        rows_b = [r.split(",") for r in open(csv_b).read().strip().splitlines()[1:]]
        assert all(float(r[3]) == 0.0 for r in rows_a)
        assert all(float(r[3]) > 0.0 for r in rows_b)
        # same data and seed, so the first charbonnier matches; later steps
        # diverge because the perceptual term steers the parameters
        assert rows_a[0][2] == rows_b[0][2]
        assert rows_a[1][2] != rows_b[1][2]

    @pytest.mark.parametrize("batch", [2, 3])
    def test_outputs_do_not_depend_on_the_core_count(self, tmp_path, monkeypatch, batch):
        man = fixtures(str(tmp_path / "data"), seed=3, count=3, size=32)
        forward = training.EvLightModel.forward
        main = threading.get_ident()
        threads = set()  # True for a forward in the calling thread

        def spy(self, *args, **kwargs):
            threads.add(threading.get_ident() == main)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(training.EvLightModel, "forward", spy)
        runs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            threads.clear()
            out = tmp_path / f"cores{cores}"
            runs.append(train(man, _tiny_config(batch=batch, steps=3), str(out)))
            # one sample per usable core: the second core runs a sample of its own
            assert len(threads) == cores
        (ckpt1, csv1), (ckpt2, csv2) = runs
        assert filecmp.cmp(csv1, csv2, shallow=False)
        assert filecmp.cmp(ckpt1, ckpt2, shallow=False)

    def test_batch_one_outputs_match_with_a_forked_forward(self, tmp_path, monkeypatch):
        # on two cores the one sample's forward runs its regional branches
        # on a worker thread; the run must not notice
        man = fixtures(str(tmp_path / "data"), seed=3, count=2, size=32)
        select = blocks.RegionalSelect.forward
        main = threading.get_ident()
        threads = set()  # True for a regional selector in the calling thread

        def spy(self, *args, **kwargs):
            threads.add(threading.get_ident() == main)
            return select(self, *args, **kwargs)

        monkeypatch.setattr(blocks.RegionalSelect, "forward", spy)
        runs = []
        for cores, on_main in ((1, {True}), (2, {False})):
            use_cores(monkeypatch, cores)
            threads.clear()
            out = tmp_path / f"cores{cores}"
            runs.append(train(man, _tiny_config(batch=1, steps=3), str(out)))
            assert threads == on_main
        (ckpt1, csv1), (ckpt2, csv2) = runs
        assert filecmp.cmp(csv1, csv2, shallow=False)
        assert filecmp.cmp(ckpt1, ckpt2, shallow=False)

    def test_a_failing_sample_thread_fails_the_run(self, tmp_path, monkeypatch):
        man = fixtures(str(tmp_path / "data"), seed=3, count=2, size=32)
        forward = training.EvLightModel.forward
        main = threading.get_ident()

        def spy(self, *args, **kwargs):
            if threading.get_ident() != main:
                raise T.NonFiniteError("conv2d produced non-finite values")
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(training.EvLightModel, "forward", spy)
        use_cores(monkeypatch, 2)
        with pytest.raises(T.NonFiniteError, match="conv2d"):
            train(man, _tiny_config(batch=2), str(tmp_path / "out"))

    @staticmethod
    def _first_chunk(tmp_path, monkeypatch, batch):
        """T.cores() in each sample thread of train's first group of samples."""
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        shares = []

        class Stop(Exception):
            pass

        def spy(self, *args, **kwargs):
            shares.append(T.cores())
            raise Stop

        monkeypatch.setattr(training.EvLightModel, "forward", spy)
        with pytest.raises(Stop):
            train(man, _tiny_config(batch=batch), str(tmp_path / "out"))
        return shares

    @pytest.mark.parametrize("cores,env,batch,want", [
        (4, {}, 8, 1),                              # BLAS's default: every core
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 8, 4),
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),  # never more than the batch
        (4, {"OMP_NUM_THREADS": "2"}, 8, 2),
        (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 1),
        (2, {"MKL_NUM_THREADS": "8"}, 8, 1),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 8, 2),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, 8, 1),  # 0 leaves BLAS its default
    ])
    def test_samples_run_on_the_cores_blas_leaves_free(self, tmp_path, monkeypatch,
                                                      cores, env, batch, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        for var in T._BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, val in env.items():
            monkeypatch.setenv(var, val)
        # each sample of the first group reaches its forward pass, then stops
        assert len(self._first_chunk(tmp_path, monkeypatch, batch)) == want

    @pytest.mark.parametrize("batch,shares", [(1, [2]), (2, [1, 1])])
    def test_a_sample_thread_gets_its_share_of_the_cores(self, tmp_path, monkeypatch,
                                                         batch, shares):
        # BLAS 1 on 2 cores: a lone sample may fork its forward, two may not
        use_cores(monkeypatch, 2)
        assert self._first_chunk(tmp_path, monkeypatch, batch) == shares

    def test_log_reports_grad_norm_clipping_and_step_time(self, tmp_path, monkeypatch):
        man = fixtures(str(tmp_path / "data"), seed=3, count=1, size=32)
        norms = []

        def spy(grads, max_norm):
            # the norm recomputed independently, from the unclipped gradients
            norms.append(math.sqrt(sum(float(np.sum(g ** 2)) for g in grads)))
            return clip_grad_norm(grads, max_norm)

        monkeypatch.setattr(training, "clip_grad_norm", spy)
        lines = []
        for grad_clip in (1e3, 1e-3):
            lines.clear()
            norms.clear()
            train(man, _tiny_config(grad_clip=grad_clip), str(tmp_path / "out"),
                  log=lines.append)
            assert len(lines) == len(norms) == 2
            for k, (line, norm) in enumerate(zip(lines, norms), 1):
                m = re.fullmatch(r"step (\d+)/2 loss [\d.]+ grad_norm (\S+) "
                                 r"clipped ([01]) time ([\d.]+)s", line)
                assert m, line
                assert int(m[1]) == k
                assert float(m[2]) == pytest.approx(norm, rel=1e-5)
                assert m[3] == ("1" if norm > grad_clip else "0")
                assert float(m[4]) > 0
            assert {line.split()[7] for line in lines} == {"0" if grad_clip > 1 else "1"}
