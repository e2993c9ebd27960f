"""CLI behavior through main(argv): files written, exit codes, messages."""
import filecmp
import os

import numpy as np
import pytest

from evlight.cli import main
from evlight.events import read_events, simulate_events, voxelize, write_events
from evlight.image import read_image, write_image
from evlight.lightup import light_up
from evlight.model import EvLightModel
from evlight.tensor import Tensor


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
        EvLightModel(np.random.default_rng(1), base_channels=4, bins=4).save(ckpt)
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
        model.save(ckpt)
        out = str(tmp_path / "lu.pfm")
        assert main(["lightup", "--image", low_path, "--ckpt", ckpt,
                     "--out", out]) == 0
        i_lu, _ = light_up(Tensor(read_image(low_path)), model.estimator)
        want = np.clip(i_lu.data, 0.0, 1.0).astype(np.float32)
        assert np.array_equal(read_image(out), want.astype(np.float64))

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
        EvLightModel(np.random.default_rng(0), base_channels=4, bins=4).save(ckpt)
        out = str(tmp_path / "en.pfm")
        assert main(["enhance", "--image", low_path, "--events", ev_path,
                     "--ckpt", ckpt, "--out", out]) == 0
        en = read_image(out)
        assert en.shape == (32, 32, 3)
        assert en.min() >= 0.0 and en.max() <= 1.0


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
        EvLightModel(np.random.default_rng(0), base_channels=4, bins=4).save(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 1
        lines = open(out_csv).read().strip().splitlines()
        assert len(lines) == 4  # header, ok row, error row, mean
        assert ",error,error," in lines[2]
        assert "1/2 rows ok" in capsys.readouterr().out

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
        EvLightModel(np.random.default_rng(0), base_channels=4, bins=4).save(ckpt)
        out_csv = str(tmp_path / "scores.csv")
        assert main(["eval", "--manifest", str(man_path), "--ckpt", ckpt,
                     "--out", out_csv]) == 0
        lines = open(out_csv).read().strip().splitlines()
        assert lines[1].split(",")[0].endswith("low.pgm")
        psnr_v, psnr_star_v, ssim_v = map(float, lines[1].split(",")[1:])
        assert psnr_v > 0 and -1 <= ssim_v <= 1
        assert "1/1 rows ok" in capsys.readouterr().out

    def test_eval_empty_manifest_exits_one(self, tmp_path, capsys):
        man = tmp_path / "m.txt"
        man.write_text("# empty\n")
        ckpt = str(tmp_path / "m.evlt")
        EvLightModel(np.random.default_rng(0), base_channels=4, bins=4).save(ckpt)
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
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_config_echo_is_sorted(self, tmp_path, capsys):
        main(["fixtures", "--out-dir", str(tmp_path / "d"), "--count", "1",
              "--size", "32"])
        out = capsys.readouterr().out
        body = out.split("resolved config:\n")[1]
        keys = [line.split("=")[0].strip() for line in body.splitlines()
                if line.startswith("  ")]
        assert keys == sorted(keys)
        assert "count" in keys and "seed" in keys
