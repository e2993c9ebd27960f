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
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .blocks import Hfe, Hrf, RegionalSelect
from .events import VoxelGrid, read_events, voxelize
from .image import pad_reflect, read_image, write_image
from .lightup import LightUpEstimator, SnrMap, light_up, snr_map, snr_pyramid
from .module import (CheckpointError, Conv2d, Deconv2d, Module,
                     load_checkpoint)


class EvLightModel(Module):
    def __init__(self, rng: np.random.Generator, base_channels: int = 16,
                 heads: int = 2, bins: int = 32, snr_kernel: int = 5,
                 tau: float = 0.5):
        c = base_channels
        self.base_channels = c
        self.heads = heads
        self.bins = bins
        self.snr_kernel = snr_kernel
        self.tau = tau

        self.estimator = LightUpEstimator(rng)
        self.img_stem = Conv2d(rng, 3, 3, c)
        self.ev_stem = Conv2d(rng, 3, bins, c)
        self.fuse = Conv2d(rng, 3, 2 * c, c)

        self.sel_img_down = [Conv2d(rng, 4, c, 2 * c, stride=2, padding=1),
                             Conv2d(rng, 4, 2 * c, 4 * c, stride=2, padding=1)]
        self.sel_ev_down = [Conv2d(rng, 4, c, 2 * c, stride=2, padding=1),
                            Conv2d(rng, 4, 2 * c, 4 * c, stride=2, padding=1)]
        self.irfs = [RegionalSelect(rng, c * 2 ** s) for s in range(3)]
        self.erfs = [RegionalSelect(rng, c * 2 ** s, invert=True)
                     for s in range(3)]

        self.enc_hfe = [Hfe(rng, c, heads), Hfe(rng, 2 * c, heads)]
        self.enc_down = [Conv2d(rng, 4, c, 2 * c, stride=2, padding=1),
                         Conv2d(rng, 4, 2 * c, 4 * c, stride=2, padding=1)]
        self.bottleneck = Hfe(rng, 4 * c, heads)

        self.hrf = [Hrf(rng, c), Hrf(rng, 2 * c), Hrf(rng, 4 * c)]
        self.dec_hfe = [Hfe(rng, 4 * c, heads), Hfe(rng, 2 * c, heads)]
        self.up = [Deconv2d(rng, 4 * c, 2 * c), Deconv2d(rng, 2 * c, c)]
        self.head = Conv2d(rng, 3, c, 3, zero_init=True)

    def normalize_grid(self, grid: VoxelGrid) -> np.ndarray:
        """Scale by the 98th-percentile magnitude; returns [H,W,B]."""
        mag = np.abs(grid.data)
        q = float(np.percentile(mag, 98.0)) if mag.size else 0.0
        denom = q if q > 1e-8 else 1.0
        return np.ascontiguousarray(grid.data.transpose(1, 2, 0)) / denom

    def forward(self, img: np.ndarray, grid: VoxelGrid,
                snr_override: SnrMap | None = None
                ) -> tuple[T.Tensor, T.Tensor, SnrMap]:
        img = np.asarray(img, dtype=np.float64)
        if img.ndim != 3 or img.shape[2] != 3:
            raise ValueError(f"expected [H,W,3] image, got {img.shape}")
        h, w = img.shape[:2]
        if h % 4 or w % 4:
            raise ValueError(
                f"extents {h}x{w} must divide by 4; pad reflectively first "
                "(the enhance command does this automatically)")
        if grid.bins != self.bins:
            raise ValueError(f"grid has {grid.bins} bins, model expects {self.bins}")
        if (grid.height, grid.width) != (h, w):
            raise ValueError(f"grid extent {grid.height}x{grid.width} does not "
                             f"match image {h}x{w}")

        i_lu, _ell = light_up(T.Tensor(img), self.estimator)
        smap = snr_override if snr_override is not None else \
            snr_map(i_lu.data, self.snr_kernel, self.tau)
        if smap.shape != (h, w):
            raise ValueError(f"SNR map {smap.shape} does not match image {h}x{w}")
        pyr = snr_pyramid(smap, 3)

        f_img = self.img_stem.forward(i_lu)
        f_ev = self.ev_stem.forward(T.Tensor(self.normalize_grid(grid)))

        # regional branches per scale
        sel_img = [f_img]
        sel_ev = [f_ev]
        for s in range(2):
            sel_img.append(self.sel_img_down[s].forward(sel_img[-1]))
            sel_ev.append(self.sel_ev_down[s].forward(sel_ev[-1]))
        reg_img = [self.irfs[s].forward(sel_img[s], pyr[s].binary) for s in range(3)]
        reg_ev = [self.erfs[s].forward(sel_ev[s], pyr[s].binary) for s in range(3)]

        # holistic trunk; events enter only where the image is untrusted
        ev_gated = T.mul_spatial(f_ev, T.Tensor(1.0 - pyr[0].binary))
        x = self.fuse.forward(T.concat([f_img, ev_gated], axis=2))
        e0 = self.enc_hfe[0].forward(x)
        e1 = self.enc_hfe[1].forward(self.enc_down[0].forward(e0))
        b = self.bottleneck.forward(self.enc_down[1].forward(e1))

        h2 = self.hrf[2].forward(reg_img[2], reg_ev[2], b)
        u1 = self.up[0].forward(self.dec_hfe[0].forward(h2))
        h1 = self.hrf[1].forward(reg_img[1], reg_ev[1], u1)
        u0 = self.up[1].forward(self.dec_hfe[1].forward(h1))
        h0 = self.hrf[0].forward(reg_img[0], reg_ev[0], u0)

        i_en = T.add(self.head.forward(h0), i_lu)
        return i_en, i_lu, smap


def infer_architecture(state: dict[str, np.ndarray]) -> tuple[int, int, int]:
    """(base_channels, heads, bins) from a checkpoint's stem/alpha shapes."""
    for name in ("img_stem.weight", "ev_stem.weight", "enc_hfe.0.attn.alpha"):
        if name not in state:
            raise CheckpointError(f"checkpoint lacks {name}; cannot infer "
                                  "the architecture")
    return (int(state["img_stem.weight"].shape[-1]),
            int(state["enc_hfe.0.attn.alpha"].shape[0]),
            int(state["ev_stem.weight"].shape[-2]))


def predict(model: EvLightModel, img: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Enhanced [H,W,3] image in [0,1]; the one inference path.

    Pads the image and grid reflectively to extents divisible by 4, runs
    the forward pass under ``no_grad``, crops back and clips.
    """
    padded, h, w = pad_reflect(img, 4)
    gdata = grid.data
    ph, pw = padded.shape[0] - h, padded.shape[1] - w
    if ph or pw:
        gdata = np.pad(gdata, ((0, 0), (0, ph), (0, pw)), mode="reflect")
    pgrid = VoxelGrid(gdata, grid.bins, padded.shape[1], padded.shape[0])
    with T.no_grad():
        i_en, _, _ = model.forward(padded, pgrid)
    return np.clip(i_en.data[:h, :w, :], 0.0, 1.0)


def enhance_file(img_path: str, event_path: str, ckpt_path: str,
                 out_path: str, bins: int | None = None, tau: float = 0.5,
                 t0: int | None = None, t1: int | None = None) -> np.ndarray:
    """Enhance one image file; pads to divisible-by-4 and crops back.

    The network width and bin count come from the checkpoint itself;
    ``bins`` is only a cross-check against it.
    """
    img = read_image(img_path)
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    stream = read_events(event_path)
    if (stream.height, stream.width) != img.shape[:2]:
        raise ValueError(f"sensor {stream.height}x{stream.width} does not match "
                         f"image {img.shape[0]}x{img.shape[1]}")
    state = load_checkpoint(ckpt_path)
    base_channels, heads, ck_bins = infer_architecture(state)
    if bins is not None and bins != ck_bins:
        raise ValueError(f"checkpoint was trained with {ck_bins} bins, not {bins}")
    model = EvLightModel(np.random.default_rng(0), base_channels=base_channels,
                         heads=heads, bins=ck_bins, tau=tau)
    model.load_state(state)
    out = predict(model, img, voxelize(stream, ck_bins, t0, t1))
    write_image(out_path, out)
    return out
