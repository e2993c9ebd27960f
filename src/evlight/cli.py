"""Command-line interface for the enhancement pipeline.

One executable with subcommands: voxelize, simulate-events, lightup,
snr-map, enhance, train, eval, align-match, fixtures. Every run prints
the resolved configuration; the EVLIGHT_LOG environment variable
(error|info|debug, any other value refused) controls verbosity; exit
status is zero only when no row-level errors occurred.
"""
from __future__ import annotations

import argparse
import csv
import logging
import os
import string
import sys
from dataclasses import asdict, replace

import numpy as np

from . import alignment
from .fixtures import fixtures as make_fixtures
from . import tensor as T
from .events import read_events, simulate_events, voxelize, write_events
from .image import as_rgb, psnr, psnr_star, read_image, ssim, write_image
from .lightup import LightUpEstimator, light_up, snr_map, snr_pyramid
from .model import enhance_file, load_model, load_sample, predict
from .training import (TrainConfig, _parse_field, parse_config, parse_manifest,
                       train)

log = logging.getLogger("evlight")

# seed of lightup and fixtures when --seed is not given; train takes its seed
# from --seed, then --config, then TrainConfig
DEFAULT_SEED = 0


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("EVLIGHT_LOG", "error")
    if name not in levels:
        raise ValueError(f"EVLIGHT_LOG must be error, info or debug, got {name!r}")
    logging.basicConfig(level=levels[name], format="%(levelname)s %(name)s: %(message)s")


def _print_config(args: argparse.Namespace, resolved: dict | None = None) -> None:
    # overlay the post-merge values so file-config keys do not echo as None
    skip = {"func", "command"}
    merged = {k: v for k, v in vars(args).items() if k not in skip}
    if resolved:
        merged.update(resolved)
    print("resolved config:")
    for key in sorted(merged):
        print(f"  {key} = {merged[key]}")


def _train_config(args: argparse.Namespace) -> TrainConfig:
    cfg = parse_config(args.config) if args.config else TrainConfig()
    flags = ("lr", "epochs", "steps", "batch", "crop", "lam", "seed", "bins", "tau")
    return replace(cfg, **{key: getattr(args, key) for key in flags
                           if getattr(args, key) is not None})


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_voxelize(args) -> int:
    stream = read_events(args.events)
    bins = 32 if args.bins is None else args.bins
    grid = voxelize(stream, bins, args.t0, args.t1)
    np.save(args.out, grid.data)
    log.info("voxelized %d events into %d bins, mass %.6f",
             len(stream), bins, grid.total_mass())
    print(f"wrote {args.out} mass={grid.total_mass():.6f}")
    return 0


def _cmd_simulate_events(args) -> int:
    a = read_image(args.frame_a)
    b = read_image(args.frame_b)
    stream = simulate_events(a, b, args.t_a, args.t_b, args.theta)
    write_events(stream, args.out)
    print(f"wrote {args.out} events={len(stream)}")
    return 0


def _cmd_lightup(args) -> int:
    img = as_rgb(read_image(args.image))
    estimator = load_model(args.ckpt).estimator if args.ckpt else \
        LightUpEstimator(np.random.default_rng(args.seed))
    with T.no_grad():
        i_lu = light_up(T.Tensor(img), estimator)
    write_image(args.out, np.clip(i_lu.data, 0.0, 1.0))
    print(f"wrote {args.out} mean {img.mean():.4f} -> {i_lu.data.mean():.4f}")
    return 0


def _cmd_snr_map(args) -> int:
    img = read_image(args.image)
    norm = snr_map(img, args.kernel)
    (binary,) = snr_pyramid(norm, args.tau, levels=1)
    write_image(args.out_norm, norm[:, :, None])
    write_image(args.out_binary, binary[:, :, None])
    frac = float(binary.mean())
    print(f"wrote {args.out_norm}, {args.out_binary}; trusted fraction {frac:.4f}")
    return 0


def _cmd_enhance(args) -> int:
    enhance_file(args.image, args.events, args.ckpt, args.out, tau=args.tau)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    _print_config(args, asdict(cfg))
    ckpt, curve = train(args.manifest, cfg, args.out_dir,
                        log=log.info if log.isEnabledFor(logging.INFO) else None)
    print(f"wrote {ckpt} and {curve}")
    return 0


def _cmd_eval(args) -> int:
    pairs = parse_manifest(args.manifest)
    model = load_model(args.ckpt, args.tau)

    def score(pair):
        """The row's (psnr, psnr_star, ssim), or the message of its error."""
        try:
            low, grid = load_sample(pair.low, pair.events, model.bins,
                                    pair.t0, pair.t1)
            gt = read_image(pair.gt)
            en = predict(model, low, grid)
            return psnr(en, gt), psnr_star(en, gt), ssim(en, gt)
        except (OSError, ValueError, T.NonFiniteError) as exc:
            return str(exc)

    rows = []
    sums = np.zeros(3)
    n_ok = 0
    # rows are scored side by side, then summed and written in manifest order
    for pair, vals in zip(pairs, T.each(score, pairs)):
        if isinstance(vals, str):
            rows.append([pair.low, "error", "error", vals])
            log.error("eval failed for %s: %s", pair.low, vals)
        else:
            sums += np.asarray(vals)
            n_ok += 1
            rows.append([pair.low, *(f"{v:.6f}" for v in vals)])
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "psnr", "psnr_star", "ssim"])
        writer.writerows(rows)
        if n_ok:
            writer.writerow(["mean", *(f"{v:.6f}" for v in sums / n_ok)])
    print(f"wrote {args.out} ({n_ok}/{len(pairs)} rows ok)")
    return 0 if n_ok == len(pairs) else 1


def _cmd_align_match(args) -> int:
    lows, normals = [], []
    with open(args.meta, "r", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        need = ("id", "condition", "trajectory_start", "first_frame")
        missing = sorted(set(need) - set(reader.fieldnames or ()))
        if missing:
            raise ValueError(f"{args.meta}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{args.meta}: line {reader.line_num}"
            if any(row[key] is None for key in need):
                raise ValueError(f"{where} has too few fields")
            times = [_parse_field(where, key, row[key], "int") for key in need[2:]]
            try:
                meta = alignment.SequenceMeta(
                    row["id"], row["condition"].strip(string.whitespace), *times)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            side = lows if meta.condition == "low" else normals
            if any(m.id == meta.id for m in side):
                raise ValueError(f"{where}: id {meta.id!r} repeats a {meta.condition} row")
            side.append(meta)
    result = alignment.match(lows, normals)
    below = alignment.align_report(result, args.threshold)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["low", "normal", "abs_error_us"])
        for low_id, normal_id, err in result.pairs:
            writer.writerow([low_id, normal_id, err])
    print(f"wrote {args.out} max_error_us={result.max_error} "
          f"fraction_below={below:.3f}")
    return 0


def _cmd_fixtures(args) -> int:
    manifest = make_fixtures(args.out_dir, args.seed,
                             count=args.count, size=args.size)
    print(f"wrote {manifest}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _number(kind: str):
    """An argparse ``type`` that reads a flag as the file readers read a
    field (``_parse_field``): argparse names the flag it refuses."""
    def parse(text: str):
        return _parse_field("", "", text, kind)
    parse.__name__ = kind
    return parse


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared flag."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(*names, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared flags its body reads
    config = _flag("--config", default=None, help="flat key = value file")
    seed = _flag("--seed", type=_number("int"), default=None)
    bins = _flag("--bins", type=_number("int"), default=None)
    tau = _flag("--tau", type=_number("float"), default=0.5, help="SNR-mask threshold")
    crop = _flag("--crop", type=_number("int"), default=None)
    lam = _flag("--lambda", dest="lam", type=_number("float"), default=None)

    parser = argparse.ArgumentParser(
        prog="evlight",
        description="Event-guided low-light image enhancement pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", parents=[bins],
                       help="accumulate an event file into a voxel grid (.npy)")
    p.add_argument("--events", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=_number("int"), default=None)
    p.add_argument("--t1", type=_number("int"), default=None)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("simulate-events",
                       help="emit events from a frame pair's log changes")
    p.add_argument("--frame-a", required=True)
    p.add_argument("--frame-b", required=True)
    p.add_argument("--t-a", type=_number("int"), default=0)
    p.add_argument("--t-b", type=_number("int"), default=100_000)
    p.add_argument("--theta", type=_number("float"), default=0.15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate_events)

    p = sub.add_parser("lightup", parents=[seed],
                       help="write the light-up image for an input")
    p.add_argument("--image", required=True)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lightup)

    p = sub.add_parser("snr-map", parents=[tau],
                       help="write SNR norm (PFM) and binary mask (PGM)")
    p.add_argument("--image", required=True)
    p.add_argument("--kernel", type=_number("int"), default=5)
    p.add_argument("--out-norm", required=True)
    p.add_argument("--out-binary", required=True)
    p.set_defaults(func=_cmd_snr_map)

    p = sub.add_parser("enhance", parents=[tau],
                       help="enhance one image with its event file")
    p.add_argument("--image", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("train", parents=[config, seed, bins, crop, lam],
                       help="run the training loop")
    p.add_argument("--tau", type=_number("float"), default=None,
                   help="SNR-mask threshold")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--lr", type=_number("float"), default=None)
    p.add_argument("--epochs", type=_number("int"), default=None)
    p.add_argument("--steps", type=_number("int"), default=None)
    p.add_argument("--batch", type=_number("int"), default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[tau],
                       help="score a checkpoint over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("align-match",
                       help="pair low/normal sequences by interval error")
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=_number("int"), default=10_000)
    p.set_defaults(func=_cmd_align_match)

    p = sub.add_parser("fixtures", parents=[seed],
                       help="generate a synthetic paired corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=_number("int"), default=2)
    p.add_argument("--size", type=_number("int"), default=64)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lightup" and args.ckpt:
        # every estimator weight comes from the checkpoint: no seed is used
        if args.seed is not None:
            parser.error("lightup: --seed has no effect with --ckpt; give one or the other")
    elif args.command != "train" and "seed" in args and args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        _setup_logging()
        if args.command != "train":  # train echoes the config it resolves
            _print_config(args)
        return args.func(args)
    except (OSError, ValueError, T.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
