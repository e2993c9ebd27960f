"""Light-up preprocessing: illumination prior, estimator, and SNR maps.

The light-up stage brightens the input multiplicatively, I_lu = I * L,
where L comes from a small learned estimator conditioned on the image and
its per-pixel channel-max prior. The SNR map then scores each pixel's
trust in image evidence versus event evidence, and its pyramid thresholds
it into binary trust masks at each scale. The map and the masks are plain
arrays, built outside the autodiff graph: constants during training.
"""
from __future__ import annotations

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

    def __init__(self, rng: np.random.Generator):
        self.conv_in = Conv2d(rng, 1, 4, 16, gain=0.5)
        self.dw = DwConv2d(rng, 5, 16)
        self.conv_out = Conv2d(rng, 1, 16, 3, gain=0.1)
        self.conv_out.bias.data = np.ones(3)

    def forward(self, img: T.Tensor) -> T.Tensor:
        prior = T.Tensor(illumination_prior(img.data))
        cat = T.concat([img, prior])
        return self.conv_out.forward(self.dw.forward(self.conv_in.forward(cat)))


def light_up(img: T.Tensor, estimator: LightUpEstimator) -> T.Tensor:
    """I_lu = I * L with L = ``estimator.forward(img)``; unclamped, gradient
    through L."""
    return T.mul(img, estimator.forward(img))


def snr_map(i_lu: np.ndarray, kernel: int = 5) -> np.ndarray:
    """Score pixels by denoised signal over residual noise magnitude; [H,W].

    raw = mean_filter(I_g) / max(|I_g - mean_filter(I_g)|, 1e-4), and the
    map is norm = raw / max(raw), all ones when raw is flat zero; raises
    NonFiniteError when an overflow leaves NaN/Inf in it. Operates on plain
    arrays: the map is a constant downstream, never a gradient path.
    """
    if kernel < 3 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 3")
    gray = np.maximum(to_gray(i_lu), 0.0)
    smooth = _k.box_filter(np.ascontiguousarray(gray), kernel)
    raw = smooth / np.maximum(np.abs(gray - smooth), 1e-4)
    mx = raw.max() if raw.size else 0.0
    norm = raw / mx if mx > 0 else np.ones_like(raw)
    if not np.isfinite(norm).all():
        raise T.NonFiniteError("snr_map produced non-finite values")
    return norm


def _pool2(a: np.ndarray) -> np.ndarray:
    h, w = a.shape
    return a.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def snr_pyramid(norm: np.ndarray, tau: float, levels: int = 3) -> list[np.ndarray]:
    """The binary trust masks (norm >= tau) at ``levels`` scales, full first.

    Each level halves the norm map by 2x2 mean pooling, without
    renormalizing, so a 0/1 checkerboard pools to 0.5 and binarizes to one
    under tau = 0.5.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    h, w = norm.shape
    step = 2 ** (levels - 1)
    if h % step or w % step:
        raise ValueError(f"extents {h}x{w} not divisible by {step}; pad first")
    masks = [(norm >= tau).astype(np.float64)]
    for _ in range(1, levels):
        norm = _pool2(norm)
        masks.append((norm >= tau).astype(np.float64))
    return masks
