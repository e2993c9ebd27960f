"""Print a SHA-256 digest of every seeded output of an evlight checkout.

Usage: python tools/digest_outputs.py CHECKOUT WORKDIR
       python tools/digest_outputs.py --compare OLD_WORKDIR NEW_WORKDIR

Imports evlight from ``CHECKOUT/src``, writes every output under WORKDIR
(which must not exist yet) through ``evlight.cli.main``, and prints one
``name sha256`` line per output:

* seeded ``train`` runs (``loss.csv`` and ``final.evlt``) at batch 1, 2
  and 3, with the crop equal to and smaller than the 40x40 samples;
* ``enhance`` at 48x48, 45x38 and 33x47 (divisible by 4 and not), each at
  tau 0.5 and 0.3, with a perturbed trained checkpoint;
* ``simulate-events`` written as CSV, and ``enhance`` reading that CSV and a
  shuffled copy of it (which the reader sorts back by t);
* ``simulate-events`` written as EVST from a pair designed to give each
  pixel 0 to 300 events: over a span shorter than the counts (timestamps
  repeat) and over one long enough for about 27,000 distinct timestamps,
  whose sort key needs 16 bits; and ``voxelize`` of each with a ``--t0``
  and ``--t1`` cutting inside the stream at timestamps it holds;
* the pairs CSV of ``align-match``;
* ``lightup`` seeded and with ``--ckpt``, both ``snr-map`` outputs at two
  kernel/tau settings, and ``voxelize`` at the default and at 6 bins;
* the score columns and exit status of ``eval`` (its first column holds
  absolute paths), with one error row: a ``gt`` of another extent, which
  ``psnr`` refuses with a path-free ``shape mismatch`` message.

A refactor that must not change any output is checked by diffing the
digests of two checkouts, e.g. at ``OPENBLAS_NUM_THREADS=1`` and unset:

    python tools/digest_outputs.py old/ /tmp/d_old > old.txt
    python tools/digest_outputs.py .    /tmp/d_new > new.txt
    diff old.txt new.txt

Where a change is meant to move some outputs by a rounding, the compare
mode reads the two work dirs (each lists its outputs in ``outputs.tsv``)
and prints, for each output whose digest differs, the largest relative
difference max|new - old| / max|old|: per array for a ``.evlt`` checkpoint
(read by ``load_checkpoint``), for the whole image or ``.npy`` grid (read by
``read_image`` or ``np.load``), and ``differs`` for any other file. It reads
them with the evlight beside this tool:

    python tools/digest_outputs.py --compare /tmp/d_old /tmp/d_new
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys

import numpy as np

EXTENTS = ((48, 48), (45, 38), (33, 47))
# the work dir's list of outputs: one "name<TAB>path under the work dir" line each
INDEX = "outputs.tsv"
TAUS = (0.5, 0.3)


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run(cli, *argv: str, expect: int = 0) -> int:
    """``evlight <argv>`` in this process, its echo swallowed; fails loudly
    unless it exits ``expect``. Returns the exit status."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    if status != expect:
        raise SystemExit(f"evlight {' '.join(argv)} exited {status}:\n{out.getvalue()}")
    return status


def scene(write_image, cli, work: str, h: int, w: int,
          ext: str = "evst") -> tuple[str, str, str]:
    """A seeded low/gt frame pair of extent h x w and its simulated events,
    written as ``.evst`` or ``.csv``."""
    rng = np.random.default_rng(h * 1000 + w)
    yy, xx = np.mgrid[0:h, 0:w] / max(h, w)
    base = np.stack([yy, xx, 0.5 * (yy + xx)], axis=2)
    frame_a = np.clip(0.2 + 0.6 * base + 0.05 * rng.standard_normal(base.shape), 0, 1)
    frame_b = np.roll(frame_a, (2, 3), axis=(0, 1))
    low = np.clip(frame_b * 0.125 + rng.normal(0.0, 0.02, base.shape), 0, 1)
    paths = [os.path.join(work, f"{name}_{h}x{w}.ppm") for name in ("a", "gt", "low")]
    for path, img in zip(paths, (frame_a, frame_b, low)):
        write_image(path, img)
    events = os.path.join(work, f"events_{h}x{w}.{ext}")
    run(cli, "simulate-events", "--frame-a", paths[0], "--frame-b", paths[1],
        "--out", events)
    return paths[2], events, paths[1]


def digests(checkout: str, work: str) -> list[tuple[str, str]]:
    """Every output's (name, path), written under ``work`` with its index."""
    src = os.path.abspath(os.path.join(checkout, "src"))
    sys.path.insert(0, src)
    import evlight
    from evlight import cli, module
    from evlight.image import write_image
    if not os.path.abspath(evlight.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported evlight from {evlight.__file__}, not {src}")

    work = os.path.abspath(work)
    os.makedirs(work)
    out: list[tuple[str, str]] = []
    data = os.path.join(work, "data")
    manifest = os.path.join(data, "manifest.txt")
    run(cli, "fixtures", "--out-dir", data, "--seed", "7", "--count", "3", "--size", "40")
    for k in range(3):
        for name in ("low.ppm", "gt.ppm", "events.evst"):
            out.append((f"fixtures/scene_{k}/{name}",
                        os.path.join(data, f"scene_{k}", name)))

    config = os.path.join(work, "train.cfg")
    with open(config, "w", encoding="utf-8") as f:
        f.write("steps = 3\nlambda = 0.1\nlr = 1e-3\n")
    for batch in (1, 2, 3):
        for crop in (40, 32):
            run_dir = os.path.join(work, f"train_b{batch}_c{crop}")
            run(cli, "train", "--manifest", manifest, "--out-dir", run_dir,
                "--config", config, "--seed", "3", "--batch", str(batch),
                "--crop", str(crop))
            for name in ("loss.csv", "final.evlt"):
                out.append((f"train_b{batch}_c{crop}/{name}",
                            os.path.join(run_dir, name)))

    # a trained checkpoint's head is near zero; perturb every weight so the
    # event branch shapes the enhanced image
    rng = np.random.default_rng(11)
    state = module.load_checkpoint(os.path.join(work, "train_b2_c32", "final.evlt"))
    ckpt = os.path.join(work, "perturbed.evlt")
    module.save_checkpoint({k: v + 0.01 * rng.standard_normal(v.shape)
                            for k, v in state.items()}, ckpt)

    # eval rows: the fixture scenes, then the enhance scenes; after the first,
    # an error row: scene 0 against the 48x48 scene's gt
    lines = ["\t".join([os.path.join(data, f"scene_{k}", name)
                        for name in ("low.ppm", "events.evst", "gt.ppm")] + ["0", "100000"])
             for k in range(3)]
    lines.insert(1, lines[0].replace(os.path.join(data, "scene_0", "gt.ppm"),
                                     os.path.join(work, "gt_48x48.ppm")))
    for h, w in EXTENTS:
        low, events, gt = scene(write_image, cli, work, h, w)
        lines.append("\t".join([low, events, gt, "0", "100000"]))
        for tau in TAUS:
            path = os.path.join(work, f"enhance_{h}x{w}_tau{tau}.pfm")
            run(cli, "enhance", "--image", low, "--events", events, "--ckpt", ckpt,
                "--out", path, "--tau", str(tau))
            out.append((os.path.basename(path), path))

    # the CSV event path: as written, and with its rows shuffled
    low, events, _ = scene(write_image, cli, work, 45, 38, "csv")
    out.append((os.path.basename(events), events))
    with open(events, encoding="ascii") as f:
        header, *rows = f.readlines()
    shuffled = os.path.join(work, "events_45x38_shuffled.csv")
    with open(shuffled, "w", encoding="ascii") as f:
        order = np.random.default_rng(5).permutation(len(rows))
        f.writelines([header] + [rows[i] for i in order])
    for name, path in (("csv", events), ("csv_shuffled", shuffled)):
        dest = os.path.join(work, f"enhance_45x38_{name}.pfm")
        run(cli, "enhance", "--image", low, "--events", path, "--ckpt", ckpt,
            "--out", dest)
        out.append((os.path.basename(dest), dest))

    # every count 0..300 at three or four pixels; theta 0.01 turns the
    # designed log steps (count + 1/2) * theta back into the counts
    rng = np.random.default_rng(17)
    counts = rng.permutation(np.arange(40 * 30) % 301).reshape(40, 30, 1)
    signs = rng.choice([-1, 1], counts.shape)
    frame_a = np.where(signs > 0, 0.005, 0.9)
    pair = [os.path.join(work, f"dense_{name}.pfm") for name in "ab"]
    write_image(pair[0], frame_a)
    write_image(pair[1], frame_a * np.exp(signs * (counts + 0.5) * 0.01))
    for name, t_a, t_b, t0, t1 in (("short", "10", "13", "11", "12"),
                                   ("long", "0", "1000000", "250000", "750000")):
        events = os.path.join(work, f"dense_{name}.evst")
        run(cli, "simulate-events", "--frame-a", pair[0], "--frame-b", pair[1],
            "--t-a", t_a, "--t-b", t_b, "--theta", "0.01", "--out", events)
        grid = os.path.join(work, f"voxelize_dense_{name}.npy")
        run(cli, "voxelize", "--events", events, "--out", grid, "--bins", "8",
            "--t0", t0, "--t1", t1)
        out += [(os.path.basename(events), events),
                (os.path.basename(grid), grid)]

    meta = os.path.join(work, "meta.csv")
    rng = np.random.default_rng(13)
    with open(meta, "w", encoding="utf-8") as f:
        f.write("id,condition,trajectory_start,first_frame\n")
        for k, cond in enumerate(["low"] * 5 + ["normal"] * 4):
            start = int(rng.integers(0, 10**7))
            f.write(f"s{k},{cond},{start},{start + int(rng.integers(0, 40_000))}\n")
    pairs = os.path.join(work, "align_pairs.csv")
    run(cli, "align-match", "--meta", meta, "--out", pairs)
    out.append((os.path.basename(pairs), pairs))

    low = os.path.join(data, "scene_0", "low.ppm")
    for name, extra in (("lightup_seed5.pfm", ("--seed", "5")),
                        ("lightup_ckpt.pfm", ("--ckpt", ckpt))):
        path = os.path.join(work, name)
        run(cli, "lightup", "--image", low, "--out", path, *extra)
        out.append((name, path))
    for kernel, tau in (("5", "0.5"), ("3", "0.3")):
        norm = os.path.join(work, f"snr_k{kernel}_tau{tau}.pfm")
        binary = os.path.join(work, f"snr_k{kernel}_tau{tau}.pgm")
        run(cli, "snr-map", "--image", low, "--kernel", kernel, "--tau", tau,
            "--out-norm", norm, "--out-binary", binary)
        out += [(os.path.basename(norm), norm),
                (os.path.basename(binary), binary)]
    events = os.path.join(data, "scene_0", "events.evst")
    for bins in (None, "6"):
        path = os.path.join(work, f"voxelize_{bins or 'default'}.npy")
        run(cli, "voxelize", "--events", events, "--out", path,
            *(("--bins", bins) if bins else ()))
        out.append((os.path.basename(path), path))

    eval_manifest = os.path.join(work, "eval_manifest.txt")
    with open(eval_manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    scores = os.path.join(work, "scores.csv")
    status = run(cli, "eval", "--manifest", eval_manifest, "--ckpt", ckpt,
                 "--out", scores, expect=1)
    with open(scores, newline="", encoding="utf-8") as f:
        columns = "\n".join(",".join(row[1:]) for row in csv.reader(f))
    score_columns = os.path.join(work, "score_columns.txt")
    with open(score_columns, "w", encoding="utf-8", newline="") as f:
        f.write(columns + f"\nexit {status}")
    out.append(("eval/score_columns", score_columns))
    with open(os.path.join(work, INDEX), "w", encoding="utf-8") as f:
        f.writelines(f"{name}\t{os.path.relpath(path, work)}\n" for name, path in out)
    return out


def _max_rel(a: np.ndarray, b: np.ndarray) -> str:
    """max|b - a| / max|a| (over max|b| when a is all zero), or the shapes."""
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    scale = np.max(np.abs(a)) or np.max(np.abs(b)) or 1.0
    return f"{np.max(np.abs(b - a)) / scale:.3e}"


def compare(old: str, new: str) -> list[str]:
    """One line per output of two work dirs whose digests differ, with the
    largest relative difference of its values: per array for a checkpoint,
    else for the image or grid; other files are named only."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    from evlight.image import read_image
    from evlight.module import load_checkpoint
    readers = {".evlt": load_checkpoint, ".npy": np.load, ".pfm": read_image,
               ".ppm": read_image, ".pgm": read_image}
    paths = []
    for work in (old, new):
        with open(os.path.join(work, INDEX), encoding="utf-8") as f:
            paths.append({name: os.path.join(work, rel) for name, rel in
                          (line.rstrip("\n").split("\t") for line in f)})
    lines = []
    for name, path in paths[0].items():
        other = paths[1].get(name)
        if other is None:
            lines.append(f"{name} missing from {new}")
            continue
        if sha256(path) == sha256(other):
            continue
        read = readers.get(os.path.splitext(name)[1])
        if read is None:
            lines.append(f"{name} differs")
            continue
        a, b = read(path), read(other)
        if not isinstance(a, dict):
            lines.append(f"{name} {_max_rel(a, b)}")
            continue
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                lines.append(f"{name} {key} only in {old if key in a else new}")
            elif a[key].tobytes() != b[key].tobytes():
                lines.append(f"{name} {key} {_max_rel(a[key], b[key])}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        print("\n".join(compare(*argv[1:])))
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name, path in digests(*argv):
        print(f"{name} {sha256(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
