"""Write the stored outputs that the benchmark checks operations against.

    python3 perfbench/make_reference.py --size full
    python3 perfbench/make_reference.py --size tiny

Run from the root of a checkout. It runs every input a seed can pick through
the same entry points as the benchmark (``evlight.cli.main`` for enhance,
``training.train`` for the training curves) and saves
``perfbench/reference/<size>.npz``:

- ``enhance_rows`` [pool, H, 3], ``enhance_cols`` [pool, W, 3]: per-channel
  row and column sums of each enhanced pool frame;
- ``train_curves`` [variants, steps, 3]: loss, charbonnier and perceptual of
  every step of each training variant.

Regenerate only when a change to the program's output is intended, and say
so in the change that does it.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import BLAS_THREADS, BLAS_VARS  # noqa: E402

os.environ.update({v: str(BLAS_THREADS) for v in BLAS_VARS})

import numpy as np

import workloads as wl
from evlight import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    args = ap.parse_args()
    os.makedirs(os.path.join(wl.ROOT, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(wl.ROOT, ".perfbench"))
    try:
        enhance = wl.Enhance(args.size, 0)
        enhance.prepare(work)
        rows, cols = [], []
        out = os.path.join(work, "out.pfm")
        for k in range(enhance.p["pool"]):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(enhance.argv(work, k, out)):
                    raise SystemExit(f"enhance failed on frame {k}")
            r, c = wl.image_sums(wl.read_pfm(out))
            rows.append(r)
            cols.append(c)
            print(f"enhance frame {k}: mean {r.sum() / (r.shape[0] * c.shape[0] * 3):.6f}")
        curves = []
        train = wl.Train(args.size, 0)
        train.prepare(work)
        for variant in range(wl.TRAIN_VARIANTS):
            run_dir = os.path.join(work, f"train_{variant}")
            wl.training.train(train.manifest(work, variant), train.config(variant), run_dir)
            rows_csv = train.read_curve(os.path.join(run_dir, "loss.csv"))
            curves.append(np.array([r[1:4] for r in rows_csv], dtype=np.float64))
            print(f"train variant {variant}: loss {curves[-1][0, 0]:.6f} -> "
                  f"{curves[-1][-1, 0]:.6f} over {len(rows_csv)} steps")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(wl.HERE, "reference", f"{args.size}.npz")
    np.savez(path, enhance_rows=np.array(rows), enhance_cols=np.array(cols),
             train_curves=np.array(curves))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
