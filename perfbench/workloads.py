"""The benchmark's three workloads; ``run.py`` starts this file once per run.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --size full|tiny --result PATH [--as-cap BYTES]

Each workload is a closed loop with one client: an operation starts when the
previous one has finished, and its output is checked after its time is taken.
A failed check, an exception or a nonzero exit status counts the operation as
failed. ``--trace 1`` wraps the package's public functions (``tracer.py``) on
every other operation and reports per-layer metrics instead of end-to-end
ones; the operations in between run unwrapped to measure the overhead.

Inputs come from fixed generators. The seed picks which frames, which
training corpus or which event frames a run sees; stored references
(``reference/<size>.npz``, written by ``make_reference.py``) cover every input
a seed can pick.
"""
from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np
import scipy

import evlight
from evlight import cli, events, module, training
from evlight.model import EvLightModel

import tracer
from run import BLAS_VARS

IMPORT_S = time.perf_counter() - _T_IMPORT
fixtures = importlib.import_module("evlight.fixtures")  # the package re-exports a function of that name
# train() is called unwrapped: its span would straddle operations (steps)
_TRAIN = training.train

SIZES = {
    "full": {"enhance_hw": (192, 256), "pool": 16, "scenes": 4, "scene_size": 96,
             "crop": 64, "call_steps": 8, "ingest_hw": (260, 348)},
    "tiny": {"enhance_hw": (32, 48), "pool": 2, "scenes": 2, "scene_size": 32,
             "crop": 16, "call_steps": 4, "ingest_hw": (32, 48)},
}
BATCH = 2
LAM = 0.1
BINS = 32
THETA = 0.15
WINDOW_US = 100_000
CKPT_SEED = 7
POOL_SEED = 11
FIXTURE_SEED = 100
TRAIN_VARIANTS = 4
INGEST_PAIRS = 4
COUNT_LEVELS = 9  # per-pixel event counts 0..8: about 4 events per pixel
SETUP_REPS = 3
# Tolerances admit rewrites that change float64 results by <= 1e-12
# relative (and a different BLAS summation order); a real change does not
# fit. Enhance output is float32 (PFM): one flipped rounding moves a row
# sum by ~6e-8.
ENHANCE_ATOL = 1e-6
# Training amplifies a perturbation about tenfold every two steps: a 1e-12
# relative change in im2col reached 1e-6 in the loss after 14 steps in the
# worst variant tried. So each train() call stops after call_steps steps.
TRAIN_RTOL = 1e-6
MASS_ATOL = 1e-6


@dataclasses.dataclass
class Op:
    t0: float
    t1: float
    error: str | None  # None when the output passed its check


def now() -> float:
    return time.perf_counter()


def describe(exc: BaseException, cap: int | None = None) -> str:
    if isinstance(exc, MemoryError) and cap:
        return f"MemoryError: out of memory under the {cap // 2**20} MiB address-space cap"
    return f"{type(exc).__name__}: {exc}"


def load_reference(size: str) -> dict[str, np.ndarray]:
    with np.load(os.path.join(HERE, "reference", f"{size}.npz")) as ref:
        return {k: ref[k] for k in ref.files}


def read_pfm(path: str) -> np.ndarray:
    """Parse a PFM file independently of evlight.image."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        w, h = (int(v) for v in f.readline().split())
        scale = float(f.readline())
        data = np.frombuffer(f.read(), dtype="<f4" if scale < 0 else ">f4")
    c = {b"PF": 3, b"Pf": 1}[magic]
    return data.reshape(h, w, c)[::-1].astype(np.float64)


def image_sums(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel row and column sums: any pixel change shows in two of them."""
    return img.sum(axis=1), img.sum(axis=0)


# ---------------------------------------------------------------------------
# probes: what happens at operation boundaries
# ---------------------------------------------------------------------------

class NullProbe:
    def begin(self, i: int) -> None:
        pass

    def end(self, i: int) -> None:
        pass


class TraceProbe:
    """Traces even-numbered operations; odd ones run unwrapped."""

    def __init__(self):
        self.tracer = tracer.Tracer()

    def begin(self, i: int) -> None:
        self.tracer.op = i
        if i % 2 == 0:
            self.tracer.install()

    def end(self, i: int) -> None:
        if self.tracer.installed:
            self.tracer.uninstall()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Sizes, seed and memory cap shared by the three workloads."""

    name = ""

    def __init__(self, size: str, seed: int, cap: int | None = None):
        self.size, self.seed, self.cap = size, seed, cap
        self.p = SIZES[size]


class Enhance(Workload):
    """One ``evlight enhance`` call per operation on a distinct frame of a pool."""

    name = "enhance_192x256"

    def work_unit(self) -> tuple[str, str, float]:
        h, w = self.p["enhance_hw"]
        return "mpix_per_s", "Mpix/s", h * w / 1e6

    @staticmethod
    def make_checkpoint(path: str) -> None:
        """Seeded weights; zero-initialised weights (the head, every residual
        branch's last conv, the ECA kernels) get small values, so the output
        depends on the whole fusion network and not only on the light-up image."""
        state = EvLightModel(np.random.default_rng(CKPT_SEED), bins=BINS).state_arrays()
        rng = np.random.default_rng(CKPT_SEED + 1)
        for name in sorted(state):
            if name.endswith("weight") and not state[name].any():
                state[name] = rng.normal(0.0, 0.02, state[name].shape)
        module.save_checkpoint(state, path)

    def prepare(self, work: str) -> None:
        h, w = self.p["enhance_hw"]
        self.make_checkpoint(os.path.join(work, "model.evlt"))
        for k in range(self.p["pool"]):
            rng = np.random.default_rng([POOL_SEED, k])
            frame_a, frame_b = fixtures.make_scene(rng, max(h, w))
            frame_a, frame_b = frame_a[:h, :w], frame_b[:h, :w]
            stream = events.simulate_events(frame_a, frame_b, 0, WINDOW_US, THETA)
            evlight.write_image(os.path.join(work, f"frame_{k}.ppm"),
                                fixtures.lowlight_of(frame_b, rng))
            events.write_events(stream, os.path.join(work, f"frame_{k}.evst"))

    @staticmethod
    def argv(work: str, k: int, out: str) -> list[str]:
        return ["enhance", "--image", os.path.join(work, f"frame_{k}.ppm"),
                "--events", os.path.join(work, f"frame_{k}.evst"),
                "--ckpt", os.path.join(work, "model.evlt"), "--out", out]

    def check(self, out: str, ref: dict, k: int) -> str | None:
        try:
            rows, cols = image_sums(read_pfm(out))
        except (OSError, ValueError, KeyError) as exc:
            return f"frame {k}: unreadable output: {describe(exc)}"
        if rows.shape != ref["enhance_rows"][k].shape or cols.shape != ref["enhance_cols"][k].shape:
            return f"frame {k}: output shape {rows.shape[0]}x{cols.shape[0]} differs from the reference"
        err = max(np.abs(rows - ref["enhance_rows"][k]).max(),
                  np.abs(cols - ref["enhance_cols"][k]).max())
        if not err <= ENHANCE_ATOL:
            return f"frame {k}: row/column sums differ from the reference by {err:.3g} > {ENHANCE_ATOL}"
        return None

    def run(self, work: str, seconds: float, probe) -> list[Op]:
        ref = load_reference(self.size)
        order = np.random.default_rng(self.seed).permutation(self.p["pool"])
        out = os.path.join(work, "out.pfm")
        ops: list[Op] = []
        deadline = now() + seconds
        while now() < deadline:
            i = len(ops)
            k = int(order[i % len(order)])
            if os.path.exists(out):
                os.remove(out)
            error = None
            probe.begin(i)
            t0 = now()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(self.argv(work, k, out))
            except Exception as exc:  # counted as a failed operation
                status, error = None, describe(exc, self.cap)
            t1 = now()
            probe.end(i)
            if error is None:
                error = f"frame {k}: exit status {status}" if status else self.check(out, ref, k)
            ops.append(Op(t0, t1, error))
        return ops


class _TimeUp(Exception):
    pass


class Train(Workload):
    """One optimizer step of ``train()`` per operation; steps end at ``log``.

    Successive train() calls of a run cycle through the corpus variants,
    starting at ``seed % TRAIN_VARIANTS``; the first step of a call also
    loads the corpus and builds the model.
    """

    name = "train_crop64"

    def work_unit(self) -> tuple[str, str, float]:
        return "crops_per_s", "crops/s", float(BATCH)

    def config(self, variant: int) -> training.TrainConfig:
        return training.TrainConfig(crop=self.p["crop"], batch=BATCH, lam=LAM,
                                    steps=self.p["call_steps"], seed=variant, bins=BINS)

    @staticmethod
    def manifest(work: str, variant: int) -> str:
        return os.path.join(work, f"corpus_{variant}", "manifest.txt")

    def prepare(self, work: str) -> None:
        for variant in range(TRAIN_VARIANTS):
            evlight.fixtures(os.path.dirname(self.manifest(work, variant)),
                             FIXTURE_SEED + variant, count=self.p["scenes"],
                             size=self.p["scene_size"])

    @staticmethod
    def read_curve(path: str) -> list[list[str]]:
        if not os.path.exists(path):
            return []
        with open(path, newline="", encoding="utf-8") as f:
            return list(csv.reader(f))[1:]

    @staticmethod
    def check_row(rows: list[list[str]], s: int, ref: np.ndarray) -> str | None:
        if s >= len(rows):
            return f"step {s + 1}: no loss.csv row"
        try:
            step, vals = int(rows[s][0]), np.array(rows[s][1:4], dtype=np.float64)
        except (ValueError, IndexError) as exc:
            return f"step {s + 1}: bad loss.csv row {rows[s]!r}: {exc}"
        if step != s + 1 or vals.shape != (3,):
            return f"step {s + 1}: bad loss.csv row {rows[s]!r}"
        err = np.abs(vals - ref[s]) / np.abs(ref[s])
        if not err.max() <= TRAIN_RTOL:
            return (f"step {s + 1}: loss/charbonnier/perceptual {vals.tolist()} differ "
                    f"from the reference curve by {err.max():.3g} > {TRAIN_RTOL} relative")
        return None

    def run(self, work: str, seconds: float, probe) -> list[Op]:
        curves = load_reference(self.size)["train_curves"]
        ops: list[Op] = []
        deadline = now() + seconds
        call = 0
        while now() < deadline:
            variant = (self.seed + call) % TRAIN_VARIANTS
            call += 1
            cfg = self.config(variant)
            out_dir = os.path.join(work, f"run_{len(ops)}")
            first = len(ops)
            marks: list[float] = []

            def log(_msg, first=first, marks=marks, cfg=cfg):
                marks.append(now())
                i = first + len(marks) - 2
                probe.end(i)
                if marks[-1] >= deadline:
                    raise _TimeUp
                if len(marks) - 1 < cfg.steps:
                    probe.begin(i + 1)

            error = None
            probe.begin(first)
            marks.append(now())
            try:
                _TRAIN(self.manifest(work, variant), cfg, out_dir, log=log)
            except _TimeUp:
                pass
            except Exception as exc:  # counted as a failed operation
                error = describe(exc, self.cap)
            steps = len(marks) - 1
            rows = self.read_curve(os.path.join(out_dir, "loss.csv"))
            for s in range(steps):
                ops.append(Op(marks[s], marks[s + 1],
                              self.check_row(rows, s, curves[variant])))
            shutil.rmtree(out_dir, ignore_errors=True)
            if error is not None:
                probe.end(first + steps)
                ops.append(Op(marks[-1], now(), f"step {steps + 1}: {error}"))
                break
        return ops


class Ingest(Workload):
    """simulate -> write -> read -> voxelize for one dense frame pair per operation."""

    name = "events_ingest"


    def work_unit(self) -> tuple[str, str, float]:
        return "mevents_per_s", "Mevents/s", self.events_per_pair() / 1e6

    def events_per_pair(self) -> int:
        h, w = self.p["ingest_hw"]
        return int((np.arange(h * w) % COUNT_LEVELS).sum())

    def prepare(self, work: str) -> None:
        """Frame pairs whose log-brightness step at each pixel is (c + 1/2)
        theta with c drawn from a fixed multiset, so every pair yields the
        same number of events at seed-dependent places."""
        h, w = self.p["ingest_hw"]
        rng = np.random.default_rng(self.seed)
        self.pairs = []
        for _ in range(INGEST_PAIRS):
            counts = rng.permutation(np.arange(h * w) % COUNT_LEVELS).reshape(h, w)
            signs = rng.choice(np.array([-1, 1]), size=(h, w))
            base = rng.uniform(0.03, 0.25, size=(h, w))
            step = np.exp(signs * (counts + 0.5) * THETA)
            frame_a = np.repeat(base[:, :, None], 3, axis=2)
            frame_b = np.repeat((base * step)[:, :, None], 3, axis=2)
            self.pairs.append((frame_a, frame_b, counts, signs))

    @staticmethod
    def check(stream, back, grid, counts, signs) -> str | None:
        h, w = counts.shape
        if len(stream) != int(counts.sum()):
            return f"simulate_events emitted {len(stream)} events, expected {int(counts.sum())}"
        per_pixel = np.bincount(stream.y * w + stream.x, minlength=h * w)
        if not np.array_equal(per_pixel, counts.ravel()):
            return "simulate_events: per-pixel event counts differ from the designed steps"
        if not np.array_equal(stream.p, signs[stream.y, stream.x]):
            return "simulate_events: polarities differ from the designed signs"
        if (back.width, back.height) != (stream.width, stream.height) or not all(
                np.array_equal(getattr(back, f), getattr(stream, f)) for f in "txyp"):
            return "read_events did not return the stream write_events wrote"
        if grid.data.shape != (BINS, h, w):
            return f"voxel grid shape {grid.data.shape} is not {(BINS, h, w)}"
        keep = (back.t >= 0) & (back.t <= WINDOW_US)
        mass, target = grid.total_mass(), float(back.p[keep].sum())
        if not abs(mass - target) <= MASS_ATOL:
            return f"voxel mass {mass!r} differs from the in-window polarity sum {target!r}"
        return None

    def operation(self, i: int, path: str, probe) -> Op:
        frame_a, frame_b, counts, signs = self.pairs[i % len(self.pairs)]
        error = None
        probe.begin(i)
        t0 = now()
        try:
            stream = events.simulate_events(frame_a, frame_b, 0, WINDOW_US, THETA)
            events.write_events(stream, path)
            back = events.read_events(path)
            grid = events.voxelize(back, BINS, 0, WINDOW_US)
        except Exception as exc:  # counted as a failed operation
            error = describe(exc, self.cap)
        t1 = now()
        probe.end(i)
        if error is None:
            error = self.check(stream, back, grid, counts, signs)
        return Op(t0, t1, error)

    def run(self, work: str, seconds: float, probe) -> list[Op]:
        # one operation per call, so its arrays are freed before the next starts
        path = os.path.join(work, "pair.evst")
        ops: list[Op] = []
        deadline = now() + seconds
        while now() < deadline:
            ops.append(self.operation(len(ops), path, probe))
        return ops


WORKLOADS = {cls.name: cls for cls in (Enhance, Train, Ingest)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"latency_s_p50": "s", "ops_per_s": "1/s",
                    "peak_rss_mib": "MiB", "setup_s": "s"}

FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "mib": "MiB"}
PER_FUNCTION = (
    # inference path: enhance_192x256 (and a smaller share of train_crop64)
    ("kernels.im2col", ("calls", "self_s", "mib")),
    ("tensor.conv2d", ("calls", "self_s")),
    ("model.EvLightModel.forward", ("total_s",)),
    # backward path: train_crop64 only
    ("kernels.col2im", ("calls", "self_s", "mib")),
    ("kernels.dwconv_grad_weight", ("self_s",)),
    ("kernels.dwconv_grad_input", ("self_s",)),
    ("tensor.backward", ("total_s",)),
    ("training.total_loss", ("total_s",)),
    ("training.perceptual", ("total_s",)),
    ("training.augment", ("self_s",)),
    ("training.clip_grad_norm", ("self_s",)),
    ("training.Adam.step", ("self_s",)),
    # module-path breakdown of both network workloads
    *((f"tensor.{op}", ("self_s",))
      for op in ("dwconv2d", "deconv2d", "matmul", "layer_norm", "softmax", "gelu")),
    *((f"blocks.{cls}.forward", ("total_s",))
      for cls in ("Hfe", "Hrf", "RegionalSelect", "ChannelAttention", "FeedForward",
                  "EcaResidual")),
    # per-call overhead of enhance_192x256
    *((f"lightup.{fn}", ("total_s",)) for fn in ("light_up", "snr_map", "snr_pyramid")),
    ("kernels.box_filter", ("self_s",)),
    ("module.load_checkpoint", ("self_s",)),
    ("model.EvLightModel.init", ("self_s",)),
    *((f"image.{fn}", ("self_s",)) for fn in ("read_image", "write_image", "pad_reflect")),
    # event path: events_ingest
    *((f"events.{fn}", ("self_s",))
      for fn in ("simulate_events", "write_events", "read_events", "voxelize")),
    ("kernels.voxel_deposit", ("self_s",)),
)
LAYER_LABELS = tuple(tracer.layer_label(f"evlight.{m}") for m in tracer.LAYERS)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{f}": FIELD_UNITS[f] for name, fields in PER_FUNCTION for f in fields}
    units["model.EvLightModel.forward.alloc_peak_mib"] = "MiB"
    units["events.count"] = "count"
    for lab in LAYER_LABELS:
        units[f"{lab}.calls"] = "count"
        units[f"{lab}.self_s"] = "s"
    units.update({"events.share": "ratio", "trace.top_share": "ratio",
                  "trace.overhead_s": "s", "trace.ops": "count"})
    return units


def end_to_end_metrics(ops: list[Op], setup_s: float) -> dict[str, float]:
    lat = [op.t1 - op.t0 for op in ops]
    return {"latency_s_p50": statistics.median(lat),
            "ops_per_s": len(lat) / sum(lat),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s}


def per_layer_metrics(ops: list[Op], probe: TraceProbe) -> dict[str, float]:
    traced = {i: (op.t0, op.t1) for i, op in enumerate(ops) if i % 2 == 0}
    summary = probe.tracer.summarize(traced)
    walls = [op.t1 - op.t0 for op in ops]
    traced_walls, plain_walls = walls[0::2], walls[1::2]
    out = {}
    for name, fields in PER_FUNCTION:
        rec = summary["fn"].get(name, {})
        for f in fields:
            out[f"{name}.{f}"] = rec.get(f, 0.0)
    out["model.EvLightModel.forward.alloc_peak_mib"] = summary["alloc_peak_mib"]
    out["events.count"] = summary["fn"].get("events.voxelize", {}).get("count", 0.0)
    for lab in LAYER_LABELS:
        rec = summary["layer"].get(lab, {})
        out[f"{lab}.calls"] = rec.get("calls", 0.0)
        out[f"{lab}.self_s"] = rec.get("self_s", 0.0)
    mean_wall = statistics.fmean(traced_walls)
    out["events.share"] = summary["layer"].get("events", {}).get("total_s", 0.0) / mean_wall
    out["trace.top_share"] = summary["top_share"]
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls)
                               if plain_walls else 0.0)
    out["trace.ops"] = float(len(traced_walls))
    return out


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, cap: int | None) -> dict:
    return {
        "blas_threads": blas_threads(),
        "blas_pinning": f"run.py sets {', '.join(BLAS_VARS)} in the workload "
                        "process environment before numpy loads",
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "evlight_backend": evlight.BACKEND,
        "nproc": os.cpu_count(), "seed": seed,
        "as_cap_mib": cap // 2**20 if cap else None,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 cap: int | None = None, trace_path: str | None = None) -> dict:
    """Set up, run the closed loop and return the result record."""
    wl = WORKLOADS[name](size, seed, cap)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"work-{name}-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        reps = []
        for r in range(SETUP_REPS):
            work = os.path.join(work_root, f"setup_{r}")
            os.makedirs(work)
            t0 = now()
            wl.prepare(work)
            reps.append(now() - t0)
        setup_s = IMPORT_S + statistics.median(reps)
        probe = TraceProbe() if trace else NullProbe()
        ops = wl.run(work, seconds, probe)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if trace:
        metrics = per_layer_metrics(ops, probe)
        units = per_layer_units()
        if trace_path:
            probe.tracer.write(trace_path)
    else:
        metrics = end_to_end_metrics(ops, setup_s)
        units = END_TO_END_UNITS
    failed = [op.error for op in ops if op.error is not None]
    tp_name, tp_unit, per_op = wl.work_unit()
    walls = sum(op.t1 - op.t0 for op in ops)
    return {
        "workload": name, "size": size, "trace": int(trace),
        "attempted": len(ops), "failed": len(failed), "errors": failed[:5],
        "latencies_s": [op.t1 - op.t0 for op in ops],
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "extra": {
            tp_name: {"value": len(ops) * per_op / walls, "unit": tp_unit},
            "error_rate": {"value": len(failed) / len(ops), "unit": "ratio"},
            "samples": {"value": len(ops), "unit": "count"},
            "setup_reps_s": {"value": reps, "unit": "s"},
            "import_s": {"value": IMPORT_S, "unit": "s"},
        },
        "env": environment(seed, cap),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--result", required=True)
    ap.add_argument("--as-cap", type=int, default=None,
                    help="address-space limit of this process in bytes")
    args = ap.parse_args(argv)
    src = os.path.realpath(os.path.join(ROOT, "src", "evlight"))
    if os.path.dirname(os.path.realpath(evlight.__file__)) != src:
        print(f"perfbench: imported evlight from {evlight.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.as_cap:
        resource.setrlimit(resource.RLIMIT_AS, (args.as_cap, args.as_cap))
    trace_path = os.path.join(ROOT, ".perfbench",
                              f"trace-{args.workload}-{args.size}-seed{args.seed}.csv")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size, args.as_cap, trace_path)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
