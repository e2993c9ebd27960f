"""Losses, optimizer, augmentation, and the desk-scale training loop.

The perceptual term uses a frozen, seeded random-convolution pyramid in
place of a pretrained classifier: random features keep the property that
different images produce different losses while adding no external
weights. This substitution is deliberate and documented; swap in a real
extractor by passing any object whose ``features(x)`` returns a list of
feature tensors.
"""
from __future__ import annotations

import csv
import math
import os
import string
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .image import read_image
from .model import EvLightModel, load_sample
from .module import save_checkpoint
from .tensor import Parameter, Tensor

CHARBONNIER_EPS = 1e-4


def charbonnier(en: Tensor, gt: np.ndarray) -> Tensor:
    """sqrt(mean((en-gt)^2) + eps^2), eps = 1e-4; equals eps at en = gt."""
    diff = T.sub(en, Tensor(gt))
    return T.sqrt(T.add(T.mean(T.mul(diff, diff)),
                        CHARBONNIER_EPS * CHARBONNIER_EPS))


class RandomConvFeatures:
    """Frozen 3-stage random-conv feature pyramid (the perceptual phi).

    Each stage is a 3x3 stride-2 conv, ReLU between stages.
    """

    WIDTHS = (8, 16, 32)

    def __init__(self, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.stages: list[tuple[Tensor, Tensor]] = []
        cin = 3
        for cout in self.WIDTHS:
            scale = math.sqrt(2.0 / (9 * cin))
            w = Tensor(rng.normal(0.0, scale, size=(3, 3, cin, cout)))
            self.stages.append((w, Tensor(np.zeros(cout))))
            cin = cout

    def features(self, x: Tensor) -> list[Tensor]:
        outs = []
        for i, (w, b) in enumerate(self.stages):
            x = T.conv2d(x, w, b, stride=2)
            if i + 1 < len(self.stages):
                x = T.relu(x)
            outs.append(x)
        return outs


def perceptual(en: Tensor, gt: np.ndarray, phi: RandomConvFeatures) -> Tensor:
    """Sum over stages of mean |phi(en) - phi(gt)|."""
    fe = phi.features(en)
    fg = phi.features(Tensor(gt))
    total = None
    for a, b in zip(fe, fg):
        term = T.mean(T.absolute(T.sub(a, b)))
        total = term if total is None else T.add(total, term)
    return total


def total_loss(en: Tensor, gt: np.ndarray, lam: float,
               phi: RandomConvFeatures | None) -> tuple[Tensor, float, float]:
    """charbonnier + lam*perceptual; returns (loss, charb value, perc value)."""
    ch = charbonnier(en, gt)
    if lam == 0.0:
        return ch, ch.item(), 0.0
    pe = perceptual(en, gt, phi)
    return T.add(ch, T.mul(pe, lam)), ch.item(), pe.item()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale the gradients in place so their joint L2 norm is at most max_norm;
    returns the norm before scaling."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015) over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """Update each parameter in place from its gradient (same order)."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplePair:
    low: str
    events: str
    gt: str
    t0: int
    t1: int


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 1
    steps: int = 0  # when > 0, overrides epochs with an exact step count
    batch: int = 1
    crop: int = 64
    lam: float = 0.1
    seed: int = 0
    hflip: bool = True
    rotate: bool = True
    bins: int = 32
    tau: float = 0.5
    base_channels: int = 16
    heads: int = 2
    grad_clip: float = 10.0

    def __post_init__(self):
        for key, low in (("batch", 1), ("epochs", 1), ("steps", 0), ("crop", 4)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if self.crop % 4:
            raise ValueError("crop must divide by 4")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if self.heads < 1 or self.base_channels < 1 or self.base_channels % self.heads:
            raise ValueError(f"base_channels {self.base_channels} must be a "
                             f"positive multiple of heads {self.heads}")


def parse_manifest(path: str) -> list[SamplePair]:
    """Read tab-separated rows: low, events, gt, t0, t1 (paths relative);
    a manifest with no rows is rejected."""
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.strip(string.whitespace)
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}: line {ln}: expected 5 tab-separated "
                                 f"fields, got {len(parts)}")
            low, events, gt = (p if os.path.isabs(p) else os.path.join(base, p)
                               for p in parts[:3])
            times = [_parse_field(f"{path}: line {ln}", key, val, "int")
                     for key, val in zip(("t0", "t1"), parts[3:])]
            pairs.append(SamplePair(low, events, gt, *times))
    if not pairs:
        raise ValueError(f"{path}: manifest lists no sample pairs")
    return pairs


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}
# per TrainConfig field type: the word an error names it by, and its parser
_PARSE = {"bool": ("boolean", lambda v: _BOOL[v.lower()]),
          "int": ("integer", int), "float": ("number", float)}


def _parse_field(where: str, key: str, text: str, kind: str):
    """``text`` as a ``kind`` ("bool", "int" or "float"), else refused as
    ``<where>: bad <word> '<text>' for <key>``. A digit-group ``_`` or a
    non-ASCII character is refused, though ``int()`` and ``float()`` take
    them."""
    what, parse = _PARSE[kind]
    if "_" not in text and text.isascii():
        try:
            return parse(text)
        except (KeyError, ValueError):
            pass
    raise ValueError(f"{where}: bad {what} {text!r} for {key}")


def parse_config(path: str) -> TrainConfig:
    """Parse flat ``key = value`` lines into a TrainConfig."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#")[0].strip(string.whitespace)
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln}: expected 'key = value'")
            key, val = (s.strip(string.whitespace) for s in line.split("=", 1))
            if key == "lambda":
                key = "lam"
            if key not in types:
                raise ValueError(f"{path}: line {ln}: unknown key {key!r}")
            updates[key] = _parse_field(f"{path}: line {ln}", key, val, types[key])
    return TrainConfig(**updates)


def augment(img: np.ndarray, grid: np.ndarray, gt: np.ndarray,
            rng: np.random.Generator, crop: int,
            hflip: bool = False, rotate: bool = False
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut one random crop×crop window, then apply one random flip and
    rotation, identically to the [H,W,3] image, its [H,W,bins] grid and the
    [H,W,3] target; returns C-contiguous copies."""
    h, w = img.shape[:2]
    arrays = (img, grid, gt)
    if any(a.shape[:2] != (h, w) for a in arrays):
        raise ValueError("image, grid, and target extents must agree")
    if crop > h or crop > w:
        raise ValueError(f"crop {crop} exceeds extents {h}x{w}")
    i = int(rng.integers(0, h - crop + 1))
    j = int(rng.integers(0, w - crop + 1))
    arrays = [a[i:i + crop, j:j + crop] for a in arrays]
    if hflip and rng.integers(0, 2):
        arrays = [a[:, ::-1] for a in arrays]
    if rotate:
        k = int(rng.integers(0, 4))
        arrays = [np.rot90(a, k) for a in arrays]
    return tuple(np.ascontiguousarray(a) for a in arrays)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _load_pairs(pairs: list[SamplePair], bins: int, crop: int):
    data = []
    for pair in pairs:
        low, grid = load_sample(pair.low, pair.events, bins, pair.t0, pair.t1)
        if crop > min(low.shape[:2]):
            raise ValueError(f"{pair.low}: crop {crop} exceeds its extent "
                             f"{low.shape[0]}x{low.shape[1]}")
        gt = read_image(pair.gt)
        if gt.shape[:2] != low.shape[:2]:
            raise ValueError(f"{pair.gt}: extent {gt.shape[0]}x{gt.shape[1]} differs "
                             f"from {pair.low}'s {low.shape[0]}x{low.shape[1]}")
        data.append((low, grid, gt))
    return data


def train(manifest_path: str, config: TrainConfig, out_dir: str,
          log=None) -> tuple[str, str]:
    """Run the loop; returns (final checkpoint path, loss CSV path).

    One CSV row per optimizer step: step, loss, charbonnier, perceptual.
    A checkpoint is written after each epoch and at the end; an exact step
    count (config.steps > 0) writes only the final checkpoint. ``log``, when
    given, gets one line per step with the loss, the gradient norm before
    clipping, whether it was clipped, and the step's wall time.

    The samples of a batch run side by side through ``T.each``, at most one
    per core that BLAS leaves free (``T.cores()``), each with its own graph;
    a sample that has two cores to itself also runs its forward pass on both
    (``EvLightModel.forward``). Gradients are summed in sample order, each
    group's before the next runs, so outputs do not depend on the core count.
    """
    data = _load_pairs(parse_manifest(manifest_path), config.bins, config.crop)
    os.makedirs(out_dir, exist_ok=True)

    rng = np.random.default_rng(config.seed)
    model = EvLightModel(rng, base_channels=config.base_channels,
                         heads=config.heads, bins=config.bins, tau=config.tau)
    params = model.parameters()
    opt = Adam(params, config.lr)
    phi = RandomConvFeatures(seed=config.seed + 1) if config.lam > 0 else None
    aug_rng = np.random.default_rng(config.seed + 2)

    def sample_grads(sample):
        """One sample's leaf gradients and (loss, charbonnier, perceptual)."""
        low_a, grid_a, gt_a = sample
        i_en = model.forward(low_a, grid_a)
        loss, ch, pe = total_loss(i_en, gt_a, config.lam, phi)
        return T.backward(loss), (loss.item(), ch, pe)

    def update(samples):
        """One optimizer step on the samples' mean loss; returns the gradient
        norm before clipping and each sample's (loss, charbonnier, perceptual).
        The gradients are locals, so they are freed before the next forward."""
        summed: dict = {}
        vals = []
        width = T.cores()
        # gradients add in sample order, one group of at most width at a time
        for start in range(0, len(samples), width):
            for grads, v in T.each(sample_grads, samples[start:start + width]):
                vals.append(v)
                for p, g in grads.items():
                    if p in summed:
                        summed[p] += g
                    else:
                        summed[p] = g
            grads = g = None  # the group's last dict goes before the next runs
        grads = [summed[p] if p in summed else np.zeros_like(p.data) for p in params]
        inv = 1.0 / len(samples)
        for g in grads:
            g *= inv
        norm = clip_grad_norm(grads, config.grad_clip)
        opt.step(grads)
        return norm, vals

    steps_per_epoch = max(1, math.ceil(len(data) / config.batch))
    total_steps = config.steps if config.steps > 0 else \
        config.epochs * steps_per_epoch

    csv_path = os.path.join(out_dir, "loss.csv")
    ckpt_path = os.path.join(out_dir, "final.evlt")
    step = 0
    order: list[int] = []
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "charbonnier", "perceptual"])
        while step < total_steps:
            t0 = time.perf_counter()
            samples = []
            for _ in range(config.batch):
                if not order:
                    order = list(aug_rng.permutation(len(data)))
                low, grid, gt = data[order.pop(0)]
                samples.append(augment(low, grid, gt, aug_rng, config.crop,
                                       hflip=config.hflip, rotate=config.rotate))
            norm, batch_vals = update(samples)
            step += 1
            lv = float(np.mean([v[0] for v in batch_vals]))
            cv = float(np.mean([v[1] for v in batch_vals]))
            pv = float(np.mean([v[2] for v in batch_vals]))
            writer.writerow([step, f"{lv:.12e}", f"{cv:.12e}", f"{pv:.12e}"])
            if log:
                log(f"step {step}/{total_steps} loss {lv:.6f} grad_norm {norm:.6g} "
                    f"clipped {int(norm > config.grad_clip)} "
                    f"time {time.perf_counter() - t0:.3f}s")
            if config.steps == 0 and step % steps_per_epoch == 0:
                epoch = step // steps_per_epoch
                save_checkpoint(model.state_arrays(),
                                os.path.join(out_dir, f"epoch_{epoch:03d}.evlt"))
    save_checkpoint(model.state_arrays(), ckpt_path)
    return ckpt_path, csv_path
