"""Acceptance gate: ten release properties, one test and one verdict each.

Every test ends in a single ``criterion N: PASS`` line (visible under
``pytest -s``); a failure reads as the assertion that broke. Oracles are
independent of the library: scalar loops for metrics, itertools brute
force for the matcher, and finite differences for gradients.
"""
import filecmp
import itertools
import math
import os
import time

import numpy as np

from evlight import tensor as T
from evlight.alignment import MatchResult, SequenceMeta, interval, match
from evlight.blocks import EcaResidual, Hfe, Hrf, RegionalSelect
from evlight.cli import main
from evlight.events import EventStream, read_events, voxelize, write_events
from evlight.fixtures import fixtures
from evlight.image import psnr, psnr_star, read_image, ssim, write_image
from evlight.lightup import LightUpEstimator, light_up
from evlight.model import EvLightModel
from evlight.module import Conv2d, Deconv2d, load_checkpoint, save_checkpoint
from evlight.training import (RandomConvFeatures, TrainConfig, charbonnier,
                              perceptual, total_loss, train)

from helpers import fd_gradcheck, rand_tensor, sum_all


def _randomize(module, rng, scale=0.3):
    for p in module.parameters():
        p.data = rng.standard_normal(p.data.shape) * scale
    return module


def test_criterion_01_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    checked = []

    def check(name, build, leaves):
        err = fd_gradcheck(build, leaves, tol=1e-5)
        checked.append((name, err))

    # convolutions as used by the model: stems, strided down, deconv up, head
    for name, conv, shape in (
            ("img_stem", Conv2d(rng, 3, 3, 4), (6, 6, 3)),
            ("ev_stem", Conv2d(rng, 3, 4, 4), (6, 6, 4)),
            ("down", Conv2d(rng, 4, 4, 8, stride=2), (8, 8, 4)),
            ("up", Deconv2d(rng, 8, 4), (4, 4, 8)),
            ("head", Conv2d(rng, 3, 4, 3), (6, 6, 4))):
        x = rand_tensor(rng, shape)
        check(name, lambda *_, c=conv, x=x: sum_all(c.forward(x)),
              [x] + conv.parameters())

    # light-up estimator; the illumination prior is a stop-gradient
    # feature, so parameters are the gradient surface
    est = LightUpEstimator(rng)
    img = T.Tensor(rng.uniform(0.1, 0.9, (6, 6, 3)))
    check("estimator",
          lambda *_: T.mean(T.mul(light_up(img, est), est.forward(img))),
          est.parameters())

    eca = _randomize(EcaResidual(rng, 4), rng)
    x = rand_tensor(rng, (6, 6, 4))
    check("eca_residual", lambda *_: sum_all(eca.forward(x)),
          [x] + eca.parameters())

    mask = (rng.uniform(size=(6, 6)) < 0.5).astype(np.float64)
    for name, invert in (("irfs", False), ("erfs", True)):
        sel = _randomize(RegionalSelect(rng, 4, invert=invert), rng)
        x = rand_tensor(rng, (6, 6, 4))
        check(name, lambda *_, s=sel, x=x: sum_all(s.forward(x, mask)),
              [x] + sel.parameters())

    hfe = _randomize(Hfe(rng, 4, heads=2), rng)
    hfe.attn.alpha.data = np.array([1.0, 1.3])  # temperatures away from 0
    x = rand_tensor(rng, (4, 4, 4))
    check("hfe", lambda *_: sum_all(hfe.forward(x)), [x] + hfe.parameters())

    hrf = _randomize(Hrf(rng, 2), rng)
    xs = [rand_tensor(rng, (4, 4, 2)) for _ in range(3)]
    check("hrf", lambda *_: sum_all(hrf.forward(*xs)), xs + hrf.parameters())

    gt = rng.uniform(0.1, 0.9, (8, 8, 3))
    en = T.Tensor(gt + rng.normal(0.0, 0.1, gt.shape), requires_grad=True)
    check("charbonnier", lambda *_: charbonnier(en, gt), [en])
    phi = RandomConvFeatures(seed=1234)
    check("perceptual", lambda *_: perceptual(en, gt, phi), [en])
    check("total_loss", lambda *_: total_loss(en, gt, 0.1, phi)[0], [en])

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    worst = max(err for _, err in checked)
    print(f"criterion 1: PASS - {len(checked)} blocks, max rel err "
          f"{worst:.2e} < 1e-5, {elapsed:.1f}s < 60s")


def test_criterion_02_voxel_conservation():
    rng = np.random.default_rng(7)
    n = 10_000
    stream = EventStream(32, 24, np.sort(rng.integers(0, 1_000_000, n)),
                         rng.integers(0, 32, n), rng.integers(0, 24, n),
                         rng.choice([-1, 1], n))
    grid = voxelize(stream)
    assert grid.data.shape[0] == 32  # default bin count
    drift = abs(grid.total_mass() - float(stream.p.sum()))
    assert drift < 1e-4

    # t* = 5.5 at t = 5500 over [0, 31000]: the polarity splits in half
    one = EventStream(8, 8, np.array([5500]), np.array([3]), np.array([2]),
                      np.array([1]))
    g = voxelize(one, bins=32, t0=0, t1=31000)
    assert g.data[5, 2, 3] == 0.5
    assert g.data[6, 2, 3] == 0.5
    assert g.total_mass() == 1.0
    print(f"criterion 2: PASS - mass drift {drift:.2e} < 1e-4 over {n} "
          "events, bilinear split exactly 0.5/0.5, default bins 32")


def test_criterion_03_masking_partition():
    rng = np.random.default_rng(3)
    irfs = _randomize(RegionalSelect(rng, 4), rng)
    erfs = RegionalSelect.__new__(RegionalSelect)
    erfs.res1 = irfs.res1  # tied weights: same refinement, opposite mask
    erfs.res2 = irfs.res2
    erfs.invert = True

    f = rand_tensor(rng, (8, 8, 4), requires_grad=False)
    m = (rng.uniform(size=(8, 8)) < 0.5).astype(np.float64)
    assert 0.0 in m and 1.0 in m
    kept = irfs.forward(f, m).data
    dropped = erfs.forward(f, m).data
    assert np.all(kept[m == 0.0] == 0.0)
    assert np.all(dropped[m == 1.0] == 0.0)
    assert np.array_equal(kept + dropped, irfs.refined(f).data)
    print("criterion 3: PASS - irfs bit-zero off-mask, erfs bit-zero "
          "on-mask, tied sum reconstructs the refined features exactly")


def test_criterion_04_event_invariance_under_all_ones_snr():
    rng = np.random.default_rng(5)
    # every normalised SNR value is >= 0, so tau 0 trusts every pixel
    model = _randomize(EvLightModel(rng, base_channels=4, heads=2, bins=4,
                                    tau=0.0), rng, scale=0.2)
    img = rng.uniform(0.02, 0.3, (16, 16, 3))

    quiet = np.zeros((16, 16, 4))
    busy = rng.standard_normal((16, 16, 4)) * 7.0
    a = model.forward(img, quiet)
    b = model.forward(img, busy)
    diff = float(np.max(np.abs(a.data - b.data)))
    assert diff == 0.0
    print("criterion 4: PASS - fully trusted SNR map gates events out "
          "end to end (max abs diff 0.0 across two voxel grids)")


def test_criterion_05_identity_initialization():
    rng = np.random.default_rng(11)
    model = EvLightModel(rng, base_channels=4, heads=2, bins=4)
    for name, p in model.named_parameters():
        if not name.startswith("head."):
            p.data = rng.standard_normal(p.data.shape) * 0.3
    img = rng.uniform(0.05, 0.6, (16, 16, 3))
    grid = rng.standard_normal((16, 16, 4))
    i_en = model.forward(img, grid)
    i_lu = light_up(T.Tensor(img), model.estimator)
    assert np.array_equal(i_en.data, i_lu.data)
    print("criterion 5: PASS - zero head makes the enhanced output equal "
          "the light-up result exactly")


def _gray_oracle(img):
    h, w = img.shape[:2]
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            r, g, b = img[i, j]
            out[i, j] = 0.299 * r + 0.587 * g + 0.114 * b
    return out


def _psnr_oracle(a, b):
    total, n = 0.0, 0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(a.shape[2]):
                d = a[i, j, k] - b[i, j, k]
                total += d * d
                n += 1
    mse = total / n
    if mse < 1e-10:
        return 100.0
    return min(10.0 * math.log10(1.0 / mse), 100.0)


def _ssim_oracle(a, b):
    size, sigma, half = 11, 1.5, 5
    win = np.zeros((size, size))
    for u in range(size):
        for v in range(size):
            win[u, v] = math.exp(-((u - half) ** 2 + (v - half) ** 2)
                                 / (2.0 * sigma * sigma))
    win /= win.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for c in range(a.shape[2]):
        for i in range(a.shape[0] - size + 1):
            for j in range(a.shape[1] - size + 1):
                sa = sb = saa = sbb = sab = 0.0
                for u in range(size):
                    for v in range(size):
                        x = a[i + u, j + v, c]
                        y = b[i + u, j + v, c]
                        w = win[u, v]
                        sa += w * x
                        sb += w * y
                        saa += w * x * x
                        sbb += w * y * y
                        sab += w * x * y
                va, vb, cov = saa - sa * sa, sbb - sb * sb, sab - sa * sb
                vals.append(((2 * sa * sb + c1) * (2 * cov + c2))
                            / ((sa * sa + sb * sb + c1) * (va + vb + c2)))
    return sum(vals) / len(vals)


def _psnr_star_oracle(en, gt):
    r = _gray_oracle(gt).mean() / _gray_oracle(en).mean()
    scaled = np.clip(en * r, 0.0, 1.0)
    return _psnr_oracle(scaled, gt)


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(13)
    gt = rng.uniform(0.1, 0.9, (14, 14, 3))
    en = np.clip(gt + rng.normal(0.0, 0.08, gt.shape), 0.0, 1.0)

    d_psnr = abs(psnr(en, gt) - _psnr_oracle(en, gt))
    d_ssim = abs(ssim(en, gt) - _ssim_oracle(en, gt))
    d_star = abs(psnr_star(0.5 * en, gt) - _psnr_star_oracle(0.5 * en, gt))
    assert d_psnr < 1e-6
    assert d_ssim < 1e-6
    assert d_star < 1e-6

    # brightness rescaling cancels a pure exposure change completely
    for c in (0.25, 0.5, 1.0):
        assert psnr_star(c * gt, gt) == 100.0
    print(f"criterion 6: PASS - scalar-loop deltas psnr {d_psnr:.1e}, "
          f"ssim {d_ssim:.1e}, psnr* {d_star:.1e} (all < 1e-6); "
          "psnr* caps at 100 dB for c in {0.25, 0.5, 1.0}")


def test_criterion_07_overfit_harness(tmp_path):
    start = time.monotonic()
    man = fixtures(str(tmp_path / "data"), seed=7, count=2, size=64)
    config = TrainConfig(lr=1e-4, steps=200, crop=64, batch=2,
                         hflip=False, rotate=False, seed=7, lam=0.1)
    _, csv_path = train(man, config, str(tmp_path / "run"))
    rows = open(csv_path).read().strip().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    elapsed = time.monotonic() - start
    assert len(losses) == 200
    # batch 2 covers the whole corpus, so every row is the full-corpus
    # loss and first vs last is a like-for-like comparison
    ratio = losses[-1] / losses[0]
    assert ratio <= 0.2
    assert elapsed < 600.0
    print(f"criterion 7: PASS - loss {losses[0]:.4f} -> {losses[-1]:.4f} "
          f"(ratio {ratio:.3f} <= 0.2) in 200 steps, {elapsed:.0f}s < 600s")


def test_criterion_08_alignment():
    lows = [SequenceMeta(f"low{i}", "low", 0, t)
            for i, t in enumerate((5000, 12000, 20000))]
    normals = [SequenceMeta(f"norm{i}", "normal", 0, t)
               for i, t in enumerate((6000, 11000, 19000))]
    res = match(lows, normals)
    assert res.max_error == 1000  # 1 ms

    # brute force: minimize max error, then mean error
    best = None
    for perm in itertools.permutations(range(3)):
        errs = [abs(interval(lows[i]) - interval(normals[perm[i]]))
                for i in range(3)]
        key = (max(errs), sum(errs) / 3.0)
        best = min(best, key) if best else key
    assert (res.max_error, res.mean_error) == best

    shuffler = np.random.default_rng(0)
    for _ in range(100):
        ls, ns = list(lows), list(normals)
        shuffler.shuffle(ls)
        shuffler.shuffle(ns)
        assert match(ls, ns) == res
    print(f"criterion 8: PASS - brute-force-optimal assignment, max error "
          f"{res.max_error}us <= 1ms, invariant over 100 shuffles")


def test_criterion_09_serialization(tmp_path):
    rng = np.random.default_rng(2)
    model = EvLightModel(rng, base_channels=4, heads=2, bins=4)
    a = str(tmp_path / "a.evlt")
    b = str(tmp_path / "b.evlt")
    save_checkpoint(model.state_arrays(), a)
    state = load_checkpoint(a)
    for name, arr in model.state_arrays().items():
        assert np.array_equal(state[name], arr)
        assert state[name].dtype == arr.dtype
    save_checkpoint(state, b)
    assert filecmp.cmp(a, b, shallow=False)

    n = 500
    stream = EventStream(32, 24, np.sort(rng.integers(0, 100_000, n)),
                         rng.integers(0, 32, n), rng.integers(0, 24, n),
                         rng.choice([-1, 1], n))
    ev_path = str(tmp_path / "s.evst")
    write_events(stream, ev_path)
    back = read_events(ev_path)
    assert (back.width, back.height) == (stream.width, stream.height)
    for got, want in ((back.t, stream.t), (back.x, stream.x),
                      (back.y, stream.y), (back.p, stream.p)):
        assert np.array_equal(got, want)

    img = rng.uniform(0.0, 1.0, (9, 7, 3))
    img_path = str(tmp_path / "i.ppm")
    write_image(img_path, img)
    # half a quantization step; the epsilon absorbs float rounding
    err = float(np.max(np.abs(read_image(img_path) - img)))
    assert err <= 1.0 / 510.0 + 1e-12
    print(f"criterion 9: PASS - checkpoint and event round-trips bit-exact, "
          f"P6 round-trip error {err:.2e} <= 1/510")


def test_criterion_10_determinism(tmp_path):
    data = str(tmp_path / "data")
    assert main(["fixtures", "--out-dir", data, "--seed", "5",
                 "--count", "1", "--size", "32"]) == 0
    man = os.path.join(data, "manifest.txt")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("base_channels = 4\nbins = 4\ncrop = 16\nsteps = 3\n"
                   "lambda = 0.1\nseed = 9\nlr = 1e-3\n")

    runs = []
    for tag in ("one", "two"):
        out_dir = str(tmp_path / tag)
        assert main(["train", "--manifest", man, "--out-dir", out_dir,
                     "--config", str(cfg)]) == 0
        scores = str(tmp_path / f"scores_{tag}.csv")
        assert main(["eval", "--manifest", man,
                     "--ckpt", os.path.join(out_dir, "final.evlt"),
                     "--out", scores]) == 0
        runs.append((out_dir, scores))

    (dir1, sc1), (dir2, sc2) = runs
    assert filecmp.cmp(os.path.join(dir1, "loss.csv"),
                       os.path.join(dir2, "loss.csv"), shallow=False)
    assert filecmp.cmp(os.path.join(dir1, "final.evlt"),
                       os.path.join(dir2, "final.evlt"), shallow=False)
    assert filecmp.cmp(sc1, sc2, shallow=False)
    print("criterion 10: PASS - train and eval CSVs (and the checkpoint) "
          "are bit-identical across two seeded invocations")
