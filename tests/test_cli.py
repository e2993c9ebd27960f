"""CLI behavior through main(argv): files written, exit codes, messages."""
import filecmp
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import evlight
from evlight import cli
from evlight.cli import DEFAULT_SEED, main
from evlight.events import (EventStream, read_events, simulate_events, voxelize,
                            write_events)
from evlight.image import read_image, write_image
from evlight.lightup import light_up
from evlight.model import EvLightModel
from evlight.module import save_checkpoint
from evlight.tensor import Tensor

from helpers import use_cores


def _write_scene(tmp_path, rng, size=32):
    low = rng.uniform(0.02, 0.25, (size, size, 3))
    low_path = str(tmp_path / "low.ppm")
    write_image(low_path, low)
    t = np.sort(rng.integers(0, 1000, 80))
    stream_args = (size, size, t, rng.integers(0, size, 80),
                   rng.integers(0, size, 80), rng.choice([-1, 1], 80))
    from evlight.events import EventStream
    ev_path = str(tmp_path / "ev.evst")
    write_events(EventStream(*stream_args), ev_path)
    return low_path, ev_path


def _checkpoint(path, seed=0, fill=None):
    """Write a small untrained model's checkpoint to ``path``; ``fill``, when
    given, replaces every parameter value."""
    state = EvLightModel(np.random.default_rng(seed), base_channels=4,
                         bins=4).state_arrays()
    if fill is not None:
        state = {name: np.full_like(arr, fill) for name, arr in state.items()}
    save_checkpoint(state, path)


def _write_nan_pfm(path):
    """A dim 32x32 RGB PFM with one NaN pixel value."""
    img = np.full((32, 32, 3), 0.1)
    img[3, 5, 1] = np.nan
    write_image(path, img)


class TestVoxelize:
    def test_writes_npy_and_reports_mass(self, tmp_path, rng, capsys):
        _, ev_path = _write_scene(tmp_path, rng)
        out = str(tmp_path / "grid.npy")
        assert main(["voxelize", "--events", ev_path, "--out", out,
                     "--bins", "4"]) == 0
        grid = voxelize(read_events(ev_path), 4)
        assert np.array_equal(np.load(out), grid.data)
        captured = capsys.readouterr().out
        assert "resolved config:" in captured
        assert f"mass={grid.total_mass():.6f}" in captured

    def test_csv_rejected_for_want_of_a_sensor_extent(self, tmp_path, capsys):
        # events of a 32x32 scene whose largest x and y are 25 and 22: a size
        # taken from them would be a (4, 23, 26) grid
        ev = tmp_path / "ev.csv"
        ev.write_text("t,x,y,p\n0,3,22,1\n5,25,4,-1\n9,0,0,1\n")
        out = tmp_path / "grid.npy"
        rc = main(["voxelize", "--events", str(ev), "--out", str(out),
                   "--bins", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "CSV event file carries no sensor extent" in err and ".evst" in err
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = main(["voxelize", "--events", str(tmp_path / "nope.evst"),
                   "--out", str(tmp_path / "g.npy")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_bins_rejected_not_replaced(self, tmp_path, rng, capsys):
        _, ev_path = _write_scene(tmp_path, rng)
        out = tmp_path / "grid.npy"
        rc = main(["voxelize", "--events", ev_path, "--out", str(out),
                   "--bins", "0"])
        assert rc == 1
        assert "bins must be >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateEvents:
    def test_round_trip_matches_library(self, tmp_path, rng):
        a = rng.uniform(0.1, 0.9, (16, 16, 3))
        b = np.clip(a * rng.uniform(0.5, 2.0, (16, 16, 3)), 0.0, 1.0)
        pa, pb = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
        write_image(pa, a)
        write_image(pb, b)
        out = str(tmp_path / "sim.evst")
        assert main(["simulate-events", "--frame-a", pa, "--frame-b", pb,
                     "--out", out, "--theta", "0.2"]) == 0
        direct = simulate_events(read_image(pa), read_image(pb), 0, 100_000, 0.2)
        got = read_events(out)
        assert len(got) == len(direct)
        assert np.array_equal(got.t, direct.t)

    @pytest.mark.parametrize("theta,refusal", [
        ("nan", "theta must be a finite number > 0, got nan"),
        ("1e-300", "theta=1e-300 gives a pixel more events than int64 holds"),
    ])
    def test_theta_refused_naming_theta(self, tmp_path, rng, capsys, theta, refusal):
        pa, pb = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
        write_image(pa, np.full((8, 8, 3), 0.1))
        write_image(pb, np.full((8, 8, 3), 0.2))
        out = tmp_path / "sim.evst"
        assert main(["simulate-events", "--frame-a", pa, "--frame-b", pb,
                     "--out", str(out), "--theta", theta]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {refusal}"]
        assert not out.exists()


    def test_theta_whose_events_cannot_fit_is_refused_before_allocating(
            self, tmp_path, capsys):
        # 16 pixels of about 1.4e18 events each: each count fits int64, but
        # their sum passes 2**63, where an int64 sum would wrap
        pa, pb = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
        write_image(pa, np.full((4, 4, 3), 0.2))
        write_image(pb, np.full((4, 4, 3), 0.8))
        out = tmp_path / "sim.evst"
        assert main(["simulate-events", "--frame-a", pa, "--frame-b", pb,
                     "--out", str(out), "--theta", "1e-18"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        got = re.fullmatch(r"error: theta=1e-18 gives (\d+) events, which need at "
                           r"least (\d+) bytes; this machine has \d+", err[0])
        assert got, err[0]
        assert int(got[1]) > 2 ** 63 and int(got[2]) == 48 * int(got[1])
        assert not out.exists()


class TestLightupAndSnr:
    def test_lightup_writes_image(self, tmp_path, rng, capsys):
        low_path, _ = _write_scene(tmp_path, rng)
        out = str(tmp_path / "lu.pfm")
        assert main(["lightup", "--image", low_path, "--out", out]) == 0
        lu = read_image(out)
        assert lu.shape == (32, 32, 3)
        assert "wrote" in capsys.readouterr().out

    def test_lightup_with_checkpoint_infers_width(self, tmp_path, rng):
        low_path, _ = _write_scene(tmp_path, rng)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt, seed=1)
        out = str(tmp_path / "lu.pfm")
        assert main(["lightup", "--image", low_path, "--ckpt", ckpt,
                     "--out", out]) == 0
        assert read_image(out).shape == (32, 32, 3)

    def test_lightup_matches_model_estimator(self, tmp_path, rng):
        low_path, _ = _write_scene(tmp_path, rng)
        model = EvLightModel(np.random.default_rng(1), base_channels=4, bins=4)
        for p in model.estimator.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.1
        ckpt = str(tmp_path / "m.evlt")
        save_checkpoint(model.state_arrays(), ckpt)
        out = str(tmp_path / "lu.pfm")
        assert main(["lightup", "--image", low_path, "--ckpt", ckpt,
                     "--out", out]) == 0
        i_lu = light_up(Tensor(read_image(low_path)), model.estimator)
        want = np.clip(i_lu.data, 0.0, 1.0).astype(np.float32)
        assert np.array_equal(read_image(out), want.astype(np.float64))

    def test_lightup_seed_with_checkpoint_rejected(self, tmp_path, rng, capsys):
        low_path, _ = _write_scene(tmp_path, rng)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt, seed=1)
        out = tmp_path / "lu.pfm"
        with pytest.raises(SystemExit) as exc:
            main(["lightup", "--image", low_path, "--ckpt", ckpt, "--out", str(out),
                  "--seed", "9"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "--seed" in err and "--ckpt" in err
        assert not out.exists()

    @pytest.mark.parametrize("with_ckpt", [False, True])
    def test_lightup_of_grayscale_equals_rgb_repeat(self, tmp_path, rng, with_ckpt):
        gray = rng.uniform(0.02, 0.25, (32, 32, 1))
        gray_path, rgb_path = str(tmp_path / "low.pgm"), str(tmp_path / "low.ppm")
        write_image(gray_path, gray)
        write_image(rgb_path, np.repeat(read_image(gray_path), 3, axis=2))
        extra = []
        if with_ckpt:
            extra = ["--ckpt", str(tmp_path / "m.evlt")]
            _checkpoint(extra[1], seed=1)
        outs = []
        for src in (gray_path, rgb_path):
            outs.append(str(tmp_path / f"lu_{os.path.basename(src)}.pfm"))
            assert main(["lightup", "--image", src, "--out", outs[-1]] + extra) == 0
        assert filecmp.cmp(*outs, shallow=False)

    def test_snr_map_outputs(self, tmp_path, rng, capsys):
        low_path, _ = _write_scene(tmp_path, rng)
        out_n = str(tmp_path / "norm.pfm")
        out_b = str(tmp_path / "mask.pgm")
        assert main(["snr-map", "--image", low_path, "--out-norm", out_n,
                     "--out-binary", out_b]) == 0
        norm = read_image(out_n)
        mask = read_image(out_b)
        assert norm.min() >= 0.0 and norm.max() <= 1.0 + 1e-7
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert "trusted fraction" in capsys.readouterr().out


class TestEnhance:
    def test_enhance_writes_output(self, tmp_path, rng):
        low_path, ev_path = _write_scene(tmp_path, rng)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out = str(tmp_path / "en.pfm")
        assert main(["enhance", "--image", low_path, "--events", ev_path,
                     "--ckpt", ckpt, "--out", out]) == 0
        en = read_image(out)
        assert en.shape == (32, 32, 3)
        assert en.min() >= 0.0 and en.max() <= 1.0

    @pytest.mark.parametrize("tau", ["2", "-0.5", "nan"])
    @pytest.mark.parametrize("command", ["enhance", "eval"])
    def test_tau_out_of_range_exits_one_before_any_work(self, tmp_path, rng, capsys,
                                                        command, tau):
        low_path, ev_path = _write_scene(tmp_path, rng)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{low_path}\t{ev_path}\t{low_path}\t0\t1000\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out = tmp_path / ("scores.csv" if command == "eval" else "en.pfm")
        inputs = (["--manifest", str(manifest)] if command == "eval" else
                  ["--image", low_path, "--events", ev_path])
        assert main([command, *inputs, "--ckpt", ckpt, "--out", str(out),
                     "--tau", tau]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: tau must lie in [0, 1], got {float(tau)}"]
        assert not out.exists()

    def test_csv_value_past_int64_exits_one_naming_file_and_line(
            self, tmp_path, rng, capsys):
        low_path, _ = _write_scene(tmp_path, rng)
        ev_path = tmp_path / "ev.csv"
        ev_path.write_text("t,x,y,p\n1,0,0,1\n99999999999999999999,1,1,1\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        assert main(["enhance", "--image", low_path, "--events", str(ev_path),
                     "--ckpt", ckpt, "--out", str(tmp_path / "en.pfm")]) == 1
        err = capsys.readouterr().err
        assert f"error: {ev_path}: line 3: t=99999999999999999999 does not fit int64" in err

    def test_non_finite_checkpoint_exits_one_naming_the_parameter(
            self, tmp_path, rng, capsys):
        low_path, ev_path = _write_scene(tmp_path, rng)
        state = EvLightModel(np.random.default_rng(0), base_channels=4,
                             bins=4).state_arrays()
        state["head.weight"][1, 1, 0, 0] = np.nan
        ckpt = str(tmp_path / "m.evlt")
        save_checkpoint(state, ckpt)
        out = tmp_path / "en.pfm"
        assert main(["enhance", "--image", low_path, "--events", ev_path,
                     "--ckpt", ckpt, "--out", str(out)]) == 1
        assert "parameter head.weight holds non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_pixel_exits_one_naming_the_file(self, tmp_path, rng, capsys):
        _, ev_path = _write_scene(tmp_path, rng)
        low_path = str(tmp_path / "nan.pfm")
        _write_nan_pfm(low_path)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out = tmp_path / "en.pfm"
        assert main(["enhance", "--image", low_path, "--events", ev_path,
                     "--ckpt", ckpt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{low_path}: non-finite pixel value (byte offset" in err
        assert not out.exists()

    def test_overflow_exits_one_naming_the_op(self, tmp_path, rng, capsys):
        low_path, ev_path = _write_scene(tmp_path, rng)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt, fill=1e200)
        out = tmp_path / "en.pfm"
        assert main(["enhance", "--image", low_path, "--events", ev_path,
                     "--ckpt", ckpt, "--out", str(out)]) == 1
        assert re.search(r"error: \w+ produced non-finite values",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_overflow_writes_one_stderr_line(self, tmp_path, rng):
        # in a child process: in-process, pytest's own logging handler and
        # warning capture would hide a second line
        low_path, ev_path = _write_scene(tmp_path, rng)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt, fill=1e200)
        env = {k: v for k, v in os.environ.items() if k != "EVLIGHT_LOG"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(evlight.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "evlight.cli", "enhance", "--image", low_path,
             "--events", ev_path, "--ckpt", ckpt,
             "--out", str(tmp_path / "en.pfm")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "error: dwconv2d produced non-finite values\n"

    def test_csv_events_equal_evst_events(self, tmp_path, rng):
        # a CSV file has no sensor header, and these events stop short of
        # the right and bottom edges: a sensor inferred from them would be
        # smaller than the image
        low_path = str(tmp_path / "low.ppm")
        write_image(low_path, rng.uniform(0.02, 0.25, (32, 32, 3)))
        stream = EventStream(32, 32, np.sort(rng.integers(0, 1000, 80)),
                             rng.integers(0, 26, 80), rng.integers(0, 23, 80),
                             rng.choice([-1, 1], 80))
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        outs = []
        for ext in ("evst", "csv"):
            ev_path = str(tmp_path / f"ev.{ext}")
            write_events(stream, ev_path)
            outs.append(str(tmp_path / f"en_{ext}.pfm"))
            assert main(["enhance", "--image", low_path, "--events", ev_path,
                         "--ckpt", ckpt, "--out", outs[-1]]) == 0
        assert filecmp.cmp(*outs, shallow=False)

    def test_csv_event_outside_the_image_rejected(self, tmp_path, rng, capsys):
        low_path, _ = _write_scene(tmp_path, rng)
        ev_path = tmp_path / "ev.csv"
        ev_path.write_text("t,x,y,p\n1,3,3,1\n2,32,3,-1\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        assert main(["enhance", "--image", low_path, "--events", str(ev_path),
                     "--ckpt", ckpt, "--out", str(tmp_path / "en.pfm")]) == 1
        assert "line 3: x=32 out of bounds (sensor 32x32)" in capsys.readouterr().err


class TestTrainEval:
    def _config_file(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("base_channels = 4\nbins = 4\ncrop = 16\n"
                       "steps = 2\nlambda = 0\nseed = 3\nlr = 1e-3\n")
        return str(cfg)

    def test_train_then_eval(self, tmp_path, capsys):
        assert main(["fixtures", "--out-dir", str(tmp_path / "data"),
                     "--seed", "4", "--count", "1", "--size", "32"]) == 0
        man = str(tmp_path / "data" / "manifest.txt")
        out_dir = str(tmp_path / "run")
        assert main(["train", "--manifest", man, "--out-dir", out_dir,
                     "--config", self._config_file(tmp_path),
                     "--lambda", "0"]) == 0
        ckpt = os.path.join(out_dir, "final.evlt")
        assert os.path.exists(ckpt)
        assert os.path.exists(os.path.join(out_dir, "loss.csv"))

        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", man, "--ckpt", ckpt,
                     "--out", out_csv]) == 0
        lines = open(out_csv).read().strip().splitlines()
        assert lines[0] == "path,psnr,psnr_star,ssim"
        assert len(lines) == 3 and lines[-1].startswith("mean,")
        psnr_v, psnr_star_v, ssim_v = map(float, lines[1].split(",")[1:])
        assert psnr_v > 0 and -1 <= ssim_v <= 1
        assert "1/1 rows ok" in capsys.readouterr().out

    def test_eval_reports_row_errors(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        man_path = tmp_path / "data" / "manifest.txt"
        man_path.write_text(man_path.read_text() +
                            "missing.ppm\tscene_0/events.evst\t"
                            "scene_0/gt.ppm\t0\t100000\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 1
        lines = open(out_csv).read().strip().splitlines()
        assert len(lines) == 4  # header, ok row, error row, mean
        assert ",error,error," in lines[2]
        assert "1/2 rows ok" in capsys.readouterr().out

    def test_eval_scores_the_rows_beside_a_non_finite_image(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "2", "--size", "32"])
        data = tmp_path / "data"
        _write_nan_pfm(str(data / "scene_1" / "low.pfm"))
        man_path = data / "manifest.txt"
        rows = man_path.read_text().splitlines()
        man_path.write_text("\n".join(
            r.replace("scene_1/low.ppm", "scene_1/low.pfm") for r in rows) + "\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 1
        lines = open(out_csv).read().strip().splitlines()
        assert len(lines) == 4  # header, ok row, error row, mean
        assert lines[1].split(",")[0].endswith("low.ppm")
        assert ",error,error," in lines[2] and "non-finite pixel value" in lines[2]
        assert lines[3].startswith("mean,")
        assert "1/2 rows ok" in capsys.readouterr().out

    def test_eval_scores_the_rows_beside_a_csv_value_past_int64(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "2", "--size", "32"])
        data = tmp_path / "data"
        (data / "scene_1" / "events.csv").write_text("t,x,y,p\n1,0,99999999999999999999,1\n")
        man_path = data / "manifest.txt"
        man_path.write_text(man_path.read_text().replace("scene_1/events.evst",
                                                         "scene_1/events.csv"))
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 1
        lines = open(out_csv).read().strip().splitlines()
        assert len(lines) == 4  # header, ok row, error row, mean
        assert ",error,error," in lines[2]
        assert "events.csv: line 2: y=99999999999999999999 does not fit int64" in lines[2]
        assert "1/2 rows ok" in capsys.readouterr().out

    def test_eval_on_two_cores_scores_rows_side_by_side_with_the_same_csv(
            self, tmp_path, monkeypatch, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "3", "--size", "32"])
        man_path = tmp_path / "data" / "manifest.txt"
        first, *rest = man_path.read_text().splitlines()
        man_path.write_text("\n".join([first, "missing.ppm\tscene_0/events.evst\t"
                                        "scene_0/gt.ppm\t0\t100000", *rest]) + "\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        predict = cli.predict
        threads = set()

        def spy(*args):
            threads.add(threading.get_ident())
            return predict(*args)

        monkeypatch.setattr(cli, "predict", spy)
        runs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            threads.clear()
            out_csv = tmp_path / f"scores_{cores}.csv"
            status = main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                           "--out", str(out_csv)])
            runs.append((status, out_csv.read_bytes()))
            assert len(threads) == cores
            assert "3/4 rows ok" in capsys.readouterr().out
        assert runs[0] == runs[1] and runs[0][0] == 1
        assert runs[0][1].decode().splitlines()[2].startswith(
            str(tmp_path / "data" / "missing.ppm") + ",error,error,")

    def test_eval_overflow_is_a_row_error(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt, fill=1e200)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(tmp_path / "data" / "manifest.txt"),
                     "--ckpt", ckpt, "--out", out_csv]) == 1
        row = open(out_csv).read().splitlines()[1]
        assert ",error,error," in row and "produced non-finite values" in row
        assert "0/1 rows ok" in capsys.readouterr().out

    def test_eval_accepts_grayscale_low(self, tmp_path, capsys):
        # enhance repeats a one-channel low to RGB; eval must do the same
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        data = tmp_path / "data"
        low = read_image(str(data / "scene_0" / "low.ppm"))
        write_image(str(data / "scene_0" / "low.pgm"), low.mean(axis=2))
        man_path = data / "manifest.txt"
        man_path.write_text(man_path.read_text().replace("low.ppm", "low.pgm"))
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 0
        lines = open(out_csv).read().strip().splitlines()
        assert lines[1].split(",")[0].endswith("low.pgm")
        psnr_v, psnr_star_v, ssim_v = map(float, lines[1].split(",")[1:])
        assert psnr_v > 0 and -1 <= ssim_v <= 1
        assert "1/1 rows ok" in capsys.readouterr().out

    def test_train_accepts_grayscale_low(self, tmp_path):
        # the forward repeats a one-channel low to RGB, for train as for
        # eval: a PGM low trains as the PPM holding its gray in each channel
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        scene = tmp_path / "data" / "scene_0"
        gray = read_image(str(scene / "low.ppm")).mean(axis=2)
        write_image(str(scene / "low.pgm"), gray)
        write_image(str(scene / "low.ppm"), read_image(str(scene / "low.pgm")))
        man_path = tmp_path / "data" / "manifest.txt"
        runs = []
        for name in ("low.ppm", "low.pgm"):
            man_path.write_text(man_path.read_text().replace("low.ppm", name))
            runs.append(tmp_path / name)
            assert main(["train", "--manifest", str(man_path), "--out-dir",
                         str(runs[-1]), "--config", self._config_file(tmp_path)]) == 0
        for name in ("loss.csv", "final.evlt"):
            assert filecmp.cmp(runs[0] / name, runs[1] / name, shallow=False)

    def _sensor_mismatch_manifest(self, tmp_path):
        # the low image is 32x32; its events come from a 40x40 sensor
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        rng = np.random.default_rng(5)
        t = np.sort(rng.integers(0, 100_000, 50))
        write_events(EventStream(40, 40, t, rng.integers(0, 40, 50),
                                 rng.integers(0, 40, 50), rng.choice([-1, 1], 50)),
                     str(tmp_path / "data" / "scene_0" / "events.evst"))
        return str(tmp_path / "data" / "manifest.txt")

    def test_eval_rejects_sensor_mismatch(self, tmp_path, capsys):
        man = self._sensor_mismatch_manifest(tmp_path)
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", man, "--ckpt", ckpt,
                     "--out", out_csv]) == 1
        row = open(out_csv).read().splitlines()[1]
        assert ",error,error," in row and "sensor 40x40" in row
        assert "0/1 rows ok" in capsys.readouterr().out

    def test_train_rejects_sensor_mismatch_while_loading(self, tmp_path, capsys):
        man = self._sensor_mismatch_manifest(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["train", "--manifest", man, "--out-dir", str(out_dir),
                     "--config", self._config_file(tmp_path)]) == 1
        assert "sensor 40x40 does not match image" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_train_rejects_a_gt_of_another_extent_before_writing(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        scene = tmp_path / "data" / "scene_0"
        write_image(str(scene / "gt.ppm"), np.full((36, 40, 3), 0.5))
        out_dir = tmp_path / "run"
        assert main(["train", "--manifest", str(tmp_path / "data" / "manifest.txt"),
                     "--out-dir", str(out_dir), "--config", self._config_file(tmp_path)]) == 1
        assert (f"{scene / 'gt.ppm'}: extent 36x40 differs from {scene / 'low.ppm'}'s 32x32"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--batch", "0"), ("--batch", "-1"), ("--epochs", "0"),
        ("--epochs", "-2"), ("--steps", "-3"), ("--crop", "0"), ("--crop", "-4"),
    ])
    def test_bad_training_count_exits_one_before_writing(self, tmp_path, capsys,
                                                         flag, value):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        capsys.readouterr()
        out_dir = tmp_path / "run"
        assert main(["train", "--manifest", str(tmp_path / "data" / "manifest.txt"),
                     "--out-dir", str(out_dir),
                     "--config", self._config_file(tmp_path), flag, value]) == 1
        assert f"{flag[2:]} must be >= " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("args,config_line,message", [
        (["--lr", "-1"], "", "lr must be > 0"),
        ([], "grad_clip = -1\n", "grad_clip must be > 0"),
        (["--tau", "1.5"], "", "tau must lie in [0, 1]"),
        ([], "heads = 3\n", "base_channels 4 must be a positive multiple of heads 3"),
        (["--lr", "inf"], "", "lr must be > 0 and finite"),
        (["--lambda", "nan"], "", "lambda must be >= 0 and finite"),
        (["--lambda", "inf"], "", "lambda must be >= 0 and finite"),
    ])
    def test_setting_the_loop_cannot_honour_exits_one_before_writing(
            self, tmp_path, capsys, args, config_line, message):
        main(["fixtures", "--out-dir", str(tmp_path / "data"),
              "--seed", "4", "--count", "1", "--size", "32"])
        capsys.readouterr()
        cfg = self._config_file(tmp_path)
        with open(cfg, "a") as f:
            f.write(config_line)
        out_dir = tmp_path / "run"
        assert main(["train", "--manifest", str(tmp_path / "data" / "manifest.txt"),
                     "--out-dir", str(out_dir), "--config", cfg, *args]) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_eval_empty_manifest_exits_one(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        man.write_text("# empty\n")
        ckpt = str(tmp_path / "m.evlt")
        _checkpoint(ckpt)
        rc = main(["eval", "--manifest", str(man), "--ckpt", ckpt,
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "no sample pairs" in capsys.readouterr().err


class TestAlignMatch:
    def _meta(self, tmp_path):
        meta = tmp_path / "meta.csv"
        meta.write_text(
            "id,condition,trajectory_start,first_frame,frame_interval\n"
            "l0,low,1000000,1005000,33000\n"
            "l1,low,2000000,2012000,33000\n"
            "l2,low,3000000,3020000,33000\n"
            "n0,normal,9000000,9006000,33000\n"
            "n1,normal,9500000,9511000,33000\n"
            "n2,normal,9900000,9919000,33000\n")
        return str(meta)

    def test_pairs_csv_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "pairs.csv")
        assert main(["align-match", "--meta", self._meta(tmp_path),
                     "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "low,normal,abs_error_us"
        assert lines[1:] == ["l0,n0,1000", "l1,n1,1000", "l2,n2,1000"]
        stdout = capsys.readouterr().out
        assert "max_error_us=1000" in stdout
        assert "fraction_below=1.000" in stdout

    def test_bad_condition_exits_one(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        "s0,bright,0,10\n")
        rc = main(["align-match", "--meta", str(meta),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("n0,normal,0,abc", "bad integer 'abc' for first_frame"),
        ("n0,normal,x1,10", "bad integer 'x1' for trajectory_start"),
        ("n0,dark,0,10", "condition must be low|normal, got 'dark'"),
        ("n0,normal,10,0", "n0: first_frame precedes trajectory_start")])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, row, message):
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        f"l0,low,0,10\n{row}\n")
        rc = main(["align-match", "--meta", str(meta),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert f"error: {meta}: line 3: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("row,message", [
        ("n0,normal,1_0,20", "bad integer '1_0' for trajectory_start"),
        ("n0,normal,0,\uff12\uff10", "bad integer '\uff12\uff10' for first_frame"),
    ])
    def test_digit_group_or_non_ascii_integer_is_refused(self, tmp_path, capsys,
                                                         row, message):
        # int() reads '1_0' as 10 and fullwidth digits as ASCII ones
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        f"l0,low,0,10\n{row}\n", encoding="utf-8")
        rc = main(["align-match", "--meta", str(meta),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert f"error: {meta}: line 3: {message}\n" in capsys.readouterr().err

    def test_repeated_id_names_file_line_and_id(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        "a,low,0,5\nn1,normal,0,5\na,low,0,100\nn2,normal,0,100\n")
        out = tmp_path / "p.csv"
        assert main(["align-match", "--meta", str(meta), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {meta}: line 4: id 'a' repeats a low row\n" in err
        assert not out.exists()

    def test_condition_with_a_no_break_space_is_refused(self, tmp_path, capsys):
        # str.strip() would drop U+00A0; the file format's blanks are ASCII
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        "l0,\u00a0low,0,10\nn0,normal,0,10\n", encoding="utf-8")
        rc = main(["align-match", "--meta", str(meta), "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert (f"error: {meta}: line 2: condition must be low|normal, got '\\xa0low'"
                in capsys.readouterr().err)

    def test_missing_column_exits_one(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("id,trajectory_start\ns0,0\n")
        rc = main(["align-match", "--meta", str(meta),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {meta}: missing column(s) condition, first_frame" in err

    def test_short_row_exits_one(self, tmp_path, capsys):
        meta = tmp_path / "meta.csv"
        meta.write_text("id,condition,trajectory_start,first_frame\n"
                        "l0,low,0,10\nn0,normal\n")
        rc = main(["align-match", "--meta", str(meta),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert f"error: {meta}: line 3 has too few fields" in capsys.readouterr().err


class TestFixturesCommand:
    def test_seeded_fixtures_are_bit_identical(self, tmp_path):
        for d in ("a", "b"):
            assert main(["fixtures", "--out-dir", str(tmp_path / d),
                         "--seed", "7", "--count", "2", "--size", "32"]) == 0
        names = ["manifest.txt"] + [f"scene_{k}/{f}" for k in range(2)
                                    for f in ("low.ppm", "gt.ppm", "events.evst")]
        match, mismatch, errors = filecmp.cmpfiles(
            str(tmp_path / "a"), str(tmp_path / "b"), names, shallow=False)
        assert sorted(match) == sorted(names)
        assert not mismatch and not errors

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_one(self, tmp_path, capsys, count):
        out_dir = tmp_path / "d"
        rc = main(["fixtures", "--out-dir", str(out_dir), "--count", count])
        assert rc == 1
        assert f"count must be >= 1, got {count}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_size_below_two_exits_one(self, tmp_path, capsys, size):
        out_dir = tmp_path / "d"
        rc = main(["fixtures", "--out-dir", str(out_dir), "--size", size])
        assert rc == 1
        assert f"size must be >= 2, got {size}" in capsys.readouterr().err
        assert not out_dir.exists()


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_missing_required_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["voxelize", "--out", "x.npy"])

    @pytest.mark.parametrize("argv", [
        ["enhance", "--image", "i.ppm", "--events", "e.evst", "--ckpt", "m.evlt",
         "--out", "o.ppm", "--crop", "64"],
        ["enhance", "--image", "i.ppm", "--events", "e.evst", "--ckpt", "m.evlt",
         "--out", "o.ppm", "--config", "f"],
        ["eval", "--manifest", "m.txt", "--ckpt", "m.evlt", "--out", "s.csv",
         "--lambda", "3"],
        ["snr-map", "--image", "i.ppm", "--out-norm", "n.pfm",
         "--out-binary", "b.pgm", "--seed", "9"],
        ["enhance", "--image", "i.ppm", "--events", "e.evst", "--ckpt", "m.evlt",
         "--out", "o.ppm", "--bins", "4"],
        ["eval", "--manifest", "m.txt", "--ckpt", "m.evlt", "--out", "s.csv",
         "--bins", "4"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,refused", [
        (["voxelize", "--events", "e.evst", "--out", "v.npy", "--t0", "1_000"],
         "argument --t0: invalid int value: '1_000'"),
        (["voxelize", "--events", "e.evst", "--out", "v.npy", "--t1", "\uff19\uff19"],
         "argument --t1: invalid int value: '\uff19\uff19'"),
        (["simulate-events", "--frame-a", "a.ppm", "--frame-b", "b.ppm",
          "--out", "e.evst", "--theta", "0.1_5"],
         "argument --theta: invalid float value: '0.1_5'"),
        (["train", "--manifest", "m.txt", "--out-dir", "d", "--lr", "\uff11e-3"],
         "argument --lr: invalid float value: '\uff11e-3'"),
    ])
    def test_number_flag_refused_as_the_file_readers_refuse_it(self, argv, refused,
                                                                 capsys):
        # int() and float() read a digit group and fullwidth digits
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert refused in capsys.readouterr().err

    def test_tau_from_config_file_is_honoured(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("tau = 0.3\nlr = 2e-3\n")
        missing = str(tmp_path / "missing.txt")
        # the echo comes first; the absent manifest then fails the run
        assert main(["train", "--manifest", missing, "--out-dir",
                     str(tmp_path / "run"), "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "  tau = 0.3\n" in out and "  lr = 0.002\n" in out
        assert main(["train", "--manifest", missing, "--out-dir",
                     str(tmp_path / "run"), "--config", str(cfg),
                     "--tau", "0.7"]) == 1
        assert "  tau = 0.7\n" in capsys.readouterr().out
        assert main(["eval", "--manifest", missing, "--ckpt", "m.evlt",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "  tau = 0.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,out", [
        (["fixtures", "--out-dir", "d", "--count", "1", "--size", "8"],
         "d/scene_0/low.ppm"),
        (["lightup", "--image", "low.ppm", "--out", "lu.ppm"], "lu.ppm"),
    ])
    def test_default_seed_is_echoed_as_used(self, tmp_path, capsys, monkeypatch,
                                            argv, out):
        monkeypatch.chdir(tmp_path)
        write_image("low.ppm", np.full((8, 8, 3), 0.2))
        assert main(argv) == 0
        assert f"  seed = {DEFAULT_SEED}\n" in capsys.readouterr().out
        # the echoed seed is the one used: passing it explicitly writes the same file
        first = (tmp_path / out).read_bytes()
        assert main(argv + ["--seed", str(DEFAULT_SEED)]) == 0
        assert (tmp_path / out).read_bytes() == first

    def test_config_echo_is_sorted(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "d"), "--count", "1",
              "--size", "32"])
        out = capsys.readouterr().out
        body = out.split("resolved config:\n")[1]
        keys = [line.split("=")[0].strip() for line in body.splitlines()
                if line.startswith("  ")]
        assert keys == sorted(keys)
        assert "count" in keys and "seed" in keys
