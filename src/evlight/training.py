"""Losses, optimizer, augmentation, and the desk-scale training loop.

The perceptual term uses a frozen, seeded random-convolution pyramid in
place of a pretrained classifier: random features keep the property that
different images produce different losses while adding no external
weights. This substitution is deliberate and documented; swap in a real
extractor by passing any object with the same ``stages`` interface.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import tensor as T
from .events import VoxelGrid, read_events, voxelize
from .image import read_image
from .model import EvLightModel
from .module import save_checkpoint
from .tensor import Parameter, Tensor

CHARBONNIER_EPS = 1e-4


def charbonnier(en: Tensor, gt) -> Tensor:
    """sqrt(mean((en-gt)^2) + eps^2), eps = 1e-4; equals eps at en = gt."""
    gt_t = gt if isinstance(gt, Tensor) else Tensor(np.asarray(gt, dtype=np.float64))
    diff = T.sub(en, gt_t)
    return T.sqrt(T.add(T.mean(T.mul(diff, diff)),
                        CHARBONNIER_EPS * CHARBONNIER_EPS))


class RandomConvFeatures:
    """Frozen 3-stage random-conv feature pyramid (the perceptual phi)."""

    def __init__(self, seed: int = 1234, widths: tuple[int, ...] = (8, 16, 32)):
        rng = np.random.default_rng(seed)
        self.stages: list[tuple[Tensor, Tensor, int]] = []
        cin = 3
        for cout in widths:
            scale = math.sqrt(2.0 / (9 * cin))
            w = Tensor(rng.normal(0.0, scale, size=(3, 3, cin, cout)))
            b = Tensor(np.zeros(cout))
            self.stages.append((w, b, 2))
            cin = cout

    @staticmethod
    def identity() -> "RandomConvFeatures":
        phi = RandomConvFeatures.__new__(RandomConvFeatures)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = np.eye(3)
        phi.stages = [(Tensor(w), Tensor(np.zeros(3)), 1)]
        return phi

    def features(self, x: Tensor) -> list[Tensor]:
        outs = []
        for i, (w, b, stride) in enumerate(self.stages):
            x = T.conv2d(x, w, b, stride=stride, padding=1 if w.shape[0] == 3 else 0)
            if i + 1 < len(self.stages):
                x = T.relu(x)
            outs.append(x)
        return outs


def perceptual(en: Tensor, gt, phi: RandomConvFeatures) -> Tensor:
    """Sum over stages of mean |phi(en) - phi(gt)|."""
    gt_t = gt if isinstance(gt, Tensor) else Tensor(np.asarray(gt, dtype=np.float64))
    fe = phi.features(en)
    fg = phi.features(gt_t.detach())
    total = None
    for a, b in zip(fe, fg):
        term = T.mean(T.absolute(T.sub(a, b.detach())))
        total = term if total is None else T.add(total, term)
    return total


def total_loss(en: Tensor, gt, lam: float,
               phi: RandomConvFeatures | None) -> tuple[Tensor, float, float]:
    """charbonnier + lam*perceptual; returns (loss, charb value, perc value)."""
    ch = charbonnier(en, gt)
    if lam == 0.0 or phi is None:
        return ch, ch.item(), 0.0
    pe = perceptual(en, gt, phi)
    return T.add(ch, T.mul(pe, lam)), ch.item(), pe.item()


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: dict, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place Adam update with bias correction; state holds m/v/t."""
    if "t" not in state:
        state["t"] = 0
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Adam:
    def __init__(self, params: list[Parameter], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict = {}

    def step(self) -> None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        adam_step([p.data for p in self.params], grads, self.state,
                  self.lr, self.beta1, self.beta2, self.eps)


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
        if self.crop % 4:
            raise ValueError("crop must divide by 4")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")


def parse_manifest(path: str) -> list[SamplePair]:
    """Read tab-separated rows: low, events, gt, t0, t1 (paths relative)."""
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}: line {ln}: expected 5 tab-separated "
                                 f"fields, got {len(parts)}")
            low, events, gt = (p if os.path.isabs(p) else os.path.join(base, p)
                               for p in parts[:3])
            pairs.append(SamplePair(low, events, gt, int(parts[3]), int(parts[4])))
    return pairs


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def parse_config(path: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse flat ``key = value`` lines into a TrainConfig."""
    cfg = base if base is not None else TrainConfig()
    types = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "lambda":
                key = "lam"
            if key not in types:
                raise ValueError(f"{path}: line {ln}: unknown key {key!r}")
            t = types[key]
            if t == "bool":
                if val.lower() not in _BOOL:
                    raise ValueError(f"{path}: line {ln}: bad boolean {val!r}")
                updates[key] = _BOOL[val.lower()]
            elif t == "int":
                updates[key] = int(val)
            else:
                updates[key] = float(val)
    return replace(cfg, **updates)


def augment(img: np.ndarray, grid: VoxelGrid, gt: np.ndarray,
            rng: np.random.Generator, crop: int | None = None,
            hflip: bool = False, rotate: bool = False
            ) -> tuple[np.ndarray, VoxelGrid, np.ndarray]:
    """Apply one random crop/flip/rotation identically to all three."""
    h, w = img.shape[:2]
    if gt.shape[:2] != (h, w) or (grid.height, grid.width) != (h, w):
        raise ValueError("image, grid, and target extents must agree")
    gdata = grid.data
    if crop is not None:
        if crop > h or crop > w:
            raise ValueError(f"crop {crop} exceeds extents {h}x{w}")
        i = int(rng.integers(0, h - crop + 1))
        j = int(rng.integers(0, w - crop + 1))
        img = img[i:i + crop, j:j + crop]
        gt = gt[i:i + crop, j:j + crop]
        gdata = gdata[:, i:i + crop, j:j + crop]
        h = w = crop
    if hflip and rng.integers(0, 2):
        img = img[:, ::-1]
        gt = gt[:, ::-1]
        gdata = gdata[:, :, ::-1]
    if rotate and h == w:
        k = int(rng.integers(0, 4))
        if k:
            img = np.rot90(img, k, axes=(0, 1))
            gt = np.rot90(gt, k, axes=(0, 1))
            gdata = np.rot90(gdata, k, axes=(1, 2))
    out_grid = VoxelGrid(np.ascontiguousarray(gdata), grid.bins, w, h)
    return np.ascontiguousarray(img), out_grid, np.ascontiguousarray(gt)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _load_pairs(pairs: list[SamplePair], bins: int):
    loaded = []
    for pair in pairs:
        low = read_image(pair.low)
        gt = read_image(pair.gt)
        stream = read_events(pair.events)
        grid = voxelize(stream, bins, pair.t0, pair.t1)
        loaded.append((low, grid, gt))
    return loaded


def train(manifest_path: str, config: TrainConfig, out_dir: str,
          log=None) -> tuple[str, str]:
    """Run the loop; returns (final checkpoint path, loss CSV path).

    One CSV row per optimizer step: step, loss, charbonnier, perceptual.
    A checkpoint is written after each epoch and at the end; an exact step
    count (config.steps > 0) writes only the final checkpoint.
    """
    pairs = parse_manifest(manifest_path)
    if not pairs:
        raise ValueError(f"{manifest_path}: manifest lists no sample pairs")
    os.makedirs(out_dir, exist_ok=True)
    data = _load_pairs(pairs, config.bins)

    rng = np.random.default_rng(config.seed)
    model = EvLightModel(rng, base_channels=config.base_channels,
                         heads=config.heads, bins=config.bins, tau=config.tau)
    params = model.parameters()
    opt = Adam(params, config.lr)
    phi = RandomConvFeatures(seed=config.seed + 1) if config.lam > 0 else None
    aug_rng = np.random.default_rng(config.seed + 2)

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
            if not order:
                order = list(aug_rng.permutation(len(data)))
            model.zero_grad()
            batch_vals = []
            for _ in range(config.batch):
                if not order:
                    order = list(aug_rng.permutation(len(data)))
                low, grid, gt = data[order.pop(0)]
                crop = config.crop if config.crop < min(low.shape[:2]) else None
                low_a, grid_a, gt_a = augment(
                    low, grid, gt, aug_rng, crop,
                    hflip=config.hflip, rotate=config.rotate)
                i_en, _, _ = model.forward(low_a, grid_a)
                loss, ch, pe = total_loss(i_en, gt_a, config.lam, phi)
                T.backward(loss)
                batch_vals.append((loss.item(), ch, pe))
            if config.batch > 1:
                inv = 1.0 / config.batch
                for p in params:
                    if p.grad is not None:
                        p.grad *= inv
            clip_grad_norm(params, config.grad_clip)
            opt.step()
            step += 1
            lv = float(np.mean([v[0] for v in batch_vals]))
            cv = float(np.mean([v[1] for v in batch_vals]))
            pv = float(np.mean([v[2] for v in batch_vals]))
            writer.writerow([step, f"{lv:.12e}", f"{cv:.12e}", f"{pv:.12e}"])
            if log:
                log(f"step {step}/{total_steps} loss {lv:.6f}")
            if config.steps == 0 and step % steps_per_epoch == 0:
                epoch = step // steps_per_epoch
                save_checkpoint(model.state_arrays(),
                                os.path.join(out_dir, f"epoch_{epoch:03d}.evlt"))
    save_checkpoint(model.state_arrays(), ckpt_path)
    return ckpt_path, csv_path
