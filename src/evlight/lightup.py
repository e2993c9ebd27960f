"""Light-up preprocessing: illumination prior, estimator, and SNR maps.

The light-up stage brightens the input multiplicatively, I_lu = I * L,
where L comes from a small learned estimator conditioned on the image and
its per-pixel channel-max prior. The SNR map then scores each pixel's
trust in image evidence versus event evidence; it is built outside the
autodiff graph and acts as a constant during training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from . import tensor as T
from .image import to_gray
from .module import Conv2d, DwConv2d, Module


def illumination_prior(img: np.ndarray) -> np.ndarray:
    """Per-pixel max over color channels; returns [H,W,1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"illumination prior expects [H,W,3], got {img.shape}")
    return img.max(axis=2, keepdims=True)


class LightUpEstimator(Module):
    """Maps concat(I, prior) (4 channels) to a 3-channel illumination L.

    A linear pointwise/depthwise/pointwise stack; the output bias starts
    at one so an untrained estimator leaves the image unchanged.
    """

    def __init__(self, rng: np.random.Generator, hidden: int = 16):
        self.conv_in = Conv2d(rng, 1, 4, hidden, gain=0.5)
        self.dw = DwConv2d(rng, 5, hidden)
        self.conv_out = Conv2d(rng, 1, hidden, 3, gain=0.1)
        self.conv_out.bias.data = np.ones(3)

    def forward(self, img: T.Tensor) -> T.Tensor:
        prior = T.Tensor(illumination_prior(img.data))
        cat = T.concat([img, prior], axis=2)
        return self.conv_out.forward(self.dw.forward(self.conv_in.forward(cat)))


def light_up(img: T.Tensor, estimator: LightUpEstimator) -> tuple[T.Tensor, T.Tensor]:
    """Return (I_lu, L) with I_lu = I * L, unclamped, gradient through L."""
    ell = estimator.forward(img)
    return T.mul(img, ell), ell


@dataclass(frozen=True)
class SnrMap:
    """Per-pixel signal-to-noise scores plus the binarized trust mask."""

    raw: np.ndarray
    norm: np.ndarray
    binary: np.ndarray
    tau: float

    def __post_init__(self):
        raw = np.ascontiguousarray(self.raw, dtype=np.float64)
        if raw.ndim != 2:
            raise ValueError(f"raw must be [H,W], got {raw.shape}")
        object.__setattr__(self, "raw", raw)
        for name in ("norm", "binary"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != raw.shape:
                raise ValueError(f"{name} shape {arr.shape} != raw {raw.shape}")
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape


def snr_map(i_lu, kernel: int = 5, tau: float = 0.5) -> SnrMap:
    """Score pixels by denoised signal over residual noise magnitude.

    raw = mean_filter(I_g) / max(|I_g - mean_filter(I_g)|, 1e-4), then
    norm = raw / max(raw) (all-ones when the map is flat zero) and
    binary = (norm >= tau). Operates on plain arrays: the map is a
    constant downstream, never a gradient path.
    """
    if kernel < 3 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 3")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    data = i_lu.data if isinstance(i_lu, T.Tensor) else np.asarray(i_lu)
    gray = np.maximum(to_gray(data), 0.0)
    smooth = _k.box_filter(np.ascontiguousarray(gray), kernel)
    raw = smooth / np.maximum(np.abs(gray - smooth), 1e-4)
    mx = raw.max() if raw.size else 0.0
    norm = raw / mx if mx > 0 else np.ones_like(raw)
    binary = (norm >= tau).astype(np.float64)
    return SnrMap(raw, norm, binary, tau)


def _pool2(a: np.ndarray) -> np.ndarray:
    h, w = a.shape
    return a.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def snr_pyramid(m: SnrMap, levels: int = 3) -> list[SnrMap]:
    """Halve the map per level by 2x2 mean pooling, re-binarizing at tau.

    Pooled levels keep the pooled norm as-is (no renormalization), so a
    0/1 checkerboard pools to 0.5 and binarizes to one under tau = 0.5.
    """
    h, w = m.shape
    step = 2 ** (levels - 1)
    if h % step or w % step:
        raise ValueError(f"extents {h}x{w} not divisible by {step}; pad first")
    out = [m]
    for _ in range(1, levels):
        prev = out[-1]
        raw = _pool2(prev.raw)
        norm = _pool2(prev.norm)
        out.append(SnrMap(raw, norm, (norm >= m.tau).astype(np.float64), m.tau))
    return out
