"""The event-guided enhancement network.

Layout (scale s has channels C*2^s at extent H/2^s x W/2^s):

* light-up estimator produces I_lu and the SNR map comes from I_lu;
* image and event stems lift I_lu and the normalized voxel grid to C
  channels; the event stem is gated by the complement of the binary SNR
  mask before entering the holistic path, so event evidence only feeds
  regions the image cannot be trusted in;
* a selection pyramid (strided conv4x4 downsamples) feeds image/event
  regional selectors at s = 0, 1, 2;
* a UNet-like trunk: HFE + down, HFE + down, bottleneck HFE, then per
  decoder scale a holistic-regional fusion followed by HFE + deconv2x2,
  ending in a full-resolution fusion;
* a zero-initialized head conv3x3 predicts a residual on top of I_lu.

The regional selectors and the holistic trunk meet only in the decoder's
fusions, so the two branches run side by side (``tensor.each``) when the
calling thread has two cores: a worker thread runs the selection pyramid
and the selectors while the calling thread runs the stems' fusion, encoder
and bottleneck; the decoder starts once both are done. With one core both
run in turn on the calling thread. Threads change no arithmetic, so the
outputs are bit-identical either way.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import Hfe, Hrf, RegionalSelect
from .events import read_events, voxelize
from .image import as_rgb, pad_reflect, read_image, write_image
from .lightup import LightUpEstimator, light_up, snr_map, snr_pyramid
from .module import (CheckpointError, Conv2d, Deconv2d, Module,
                     load_checkpoint)


class EvLightModel(Module):
    def __init__(self, rng: np.random.Generator, base_channels: int = 16,
                 heads: int = 2, bins: int = 32, tau: float = 0.5):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {tau}")
        c = base_channels
        self.bins = bins
        self.tau = tau

        self.estimator = LightUpEstimator(rng)
        self.img_stem = Conv2d(rng, 3, 3, c)
        self.ev_stem = Conv2d(rng, 3, bins, c)
        self.fuse = Conv2d(rng, 3, 2 * c, c)

        self.sel_img_down = [Conv2d(rng, 4, c, 2 * c, stride=2),
                             Conv2d(rng, 4, 2 * c, 4 * c, stride=2)]
        self.sel_ev_down = [Conv2d(rng, 4, c, 2 * c, stride=2),
                            Conv2d(rng, 4, 2 * c, 4 * c, stride=2)]
        self.irfs = [RegionalSelect(rng, c * 2 ** s) for s in range(3)]
        self.erfs = [RegionalSelect(rng, c * 2 ** s, invert=True)
                     for s in range(3)]

        self.enc_hfe = [Hfe(rng, c, heads), Hfe(rng, 2 * c, heads)]
        self.enc_down = [Conv2d(rng, 4, c, 2 * c, stride=2),
                         Conv2d(rng, 4, 2 * c, 4 * c, stride=2)]
        self.bottleneck = Hfe(rng, 4 * c, heads)

        self.hrf = [Hrf(rng, c), Hrf(rng, 2 * c), Hrf(rng, 4 * c)]
        self.dec_hfe = [Hfe(rng, 4 * c, heads), Hfe(rng, 2 * c, heads)]
        self.up = [Deconv2d(rng, 4 * c, 2 * c), Deconv2d(rng, 2 * c, c)]
        self.head = Conv2d(rng, 3, c, 3, zero_init=True)

    def normalize_grid(self, grid: np.ndarray) -> np.ndarray:
        """An [H,W,bins] grid scaled by its 98th-percentile magnitude."""
        q = float(np.percentile(np.abs(grid), 98.0))
        return grid / (q if q > 1e-8 else 1.0)

    def forward(self, img: np.ndarray, grid: np.ndarray) -> T.Tensor:
        """I_en for an [H,W,3] or [H,W,1] (repeated to RGB) image and its
        [H,W,bins] voxel grid, extents divisible by 4 (``predict`` pads them).

        The holistic trunk (on this thread) and the regional (IRFS, ERFS)
        pairs run side by side through ``T.each``, then the decoder fuses
        each scale's pair, deepest first. Each activation is dropped after
        its last use, so under ``no_grad`` it is freed there. numpy's
        floating-point warnings are off throughout, since each op's result,
        the SNR map and the normalized grid are checked for NaN/Inf instead.
        """
        img = as_rgb(np.asarray(img, dtype=np.float64))
        if img.ndim != 3 or img.shape[2] != 3:
            raise ValueError(f"expected [H,W,3] image, got {img.shape}")
        h, w = img.shape[:2]
        if h % 4 or w % 4:
            raise ValueError(
                f"extents {h}x{w} must divide by 4; pad reflectively first "
                "(the enhance command does this automatically)")
        if grid.shape != (h, w, self.bins):
            raise ValueError(f"grid shape {grid.shape} does not match [H,W,bins] "
                             f"= image {h}x{w} by the model's {self.bins} bins")

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            i_lu = light_up(T.Tensor(img), self.estimator)
            masks = snr_pyramid(snr_map(i_lu.data), self.tau)

            f_img = self.img_stem.forward(i_lu)
            f_ev = self.ev_stem.forward(T.Tensor(self.normalize_grid(grid)))
            x, pairs = T.each(lambda branch: branch(f_img, f_ev, masks),
                              (self._holistic, self._regional))
            del f_img, f_ev
            for s in (2, 1, 0):
                x = self.hrf[s].forward(*pairs.pop(0), x)
                if s:
                    x = self.up[2 - s].forward(self.dec_hfe[2 - s].forward(x))
            return T.add(self.head.forward(x), i_lu)

    def _holistic(self, f_img: T.Tensor, f_ev: T.Tensor, masks: list[np.ndarray]
                  ) -> T.Tensor:
        """The bottleneck's features; events enter only where the image is
        untrusted."""
        ev_gated = T.mul(f_ev, T.Tensor(1.0 - masks[0][:, :, None]))
        x = self.fuse.forward(T.concat([f_img, ev_gated]))
        del ev_gated
        x = self.enc_hfe[0].forward(x)
        x = self.enc_hfe[1].forward(self.enc_down[0].forward(x))
        return self.bottleneck.forward(self.enc_down[1].forward(x))

    def _regional(self, f_img: T.Tensor, f_ev: T.Tensor, masks: list[np.ndarray]
                  ) -> list[tuple[T.Tensor, T.Tensor]]:
        """Each scale's (IRFS, ERFS) pair, deepest scale first.

        Takes the stems' features as arguments, and drops each scale's
        selection features once its pair is made.
        """
        sel_img, sel_ev = [f_img], [f_ev]
        for s in range(2):
            sel_img.append(self.sel_img_down[s].forward(sel_img[-1]))
            sel_ev.append(self.sel_ev_down[s].forward(sel_ev[-1]))
        return [(self.irfs[s].forward(sel_img.pop(), masks[s]),
                 self.erfs[s].forward(sel_ev.pop(), masks[s])) for s in (2, 1, 0)]


def infer_architecture(state: dict[str, np.ndarray]) -> tuple[int, int, int]:
    """(base_channels, heads, bins) from a checkpoint's stem/alpha shapes."""
    for name in ("img_stem.weight", "ev_stem.weight", "enc_hfe.0.attn.alpha"):
        if name not in state:
            raise CheckpointError(f"checkpoint lacks {name}; cannot infer "
                                  "the architecture")
    return (int(state["img_stem.weight"].shape[-1]),
            int(state["enc_hfe.0.attn.alpha"].shape[0]),
            int(state["ev_stem.weight"].shape[-2]))


def predict(model: EvLightModel, img: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Enhanced [H,W,3] image in [0,1]; the one inference path.

    Pads the image and its [H,W,bins] grid reflectively to extents divisible
    by 4, runs the forward pass under ``no_grad``, crops back and clips.
    """
    padded, h, w = pad_reflect(img, 4)
    with T.no_grad():
        i_en = model.forward(padded, pad_reflect(grid, 4)[0])
    return np.clip(i_en.data[:h, :w, :], 0.0, 1.0)


def load_model(ckpt_path: str, tau: float = 0.5) -> EvLightModel:
    """The model a checkpoint holds; width, heads and bins come from its shapes,
    so the checkpoint alone fixes the event grid's bin count."""
    state = load_checkpoint(ckpt_path)
    base_channels, heads, bins = infer_architecture(state)
    model = EvLightModel(np.random.default_rng(0), base_channels=base_channels,
                         heads=heads, bins=bins, tau=tau)
    model.load_state(state)
    return model


def load_sample(img_path: str, event_path: str, bins: int,
                t0: int | None = None, t1: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """An image and its events voxelized over [t0, t1] into a C-contiguous
    [H,W,bins] grid, aligned pixel for pixel with the image; the sensor must
    match. A CSV event file takes the image's extent as its sensor.
    """
    img = read_image(img_path)
    h, w = img.shape[:2]
    stream = read_events(event_path, w, h)
    if (stream.height, stream.width) != (h, w):
        raise ValueError(f"{event_path}: sensor {stream.height}x{stream.width} "
                         f"does not match image {img_path} {h}x{w}")
    grid = voxelize(stream, bins, t0, t1).data
    return img, np.ascontiguousarray(grid.transpose(1, 2, 0))


def enhance_file(img_path: str, event_path: str, ckpt_path: str,
                 out_path: str, tau: float = 0.5) -> np.ndarray:
    """Enhance one image file with its whole event file; writes ``out_path``."""
    model = load_model(ckpt_path, tau)
    out = predict(model, *load_sample(img_path, event_path, model.bins))
    write_image(out_path, out)
    return out
