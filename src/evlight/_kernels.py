"""Hot kernels of the convolutions, the voxel deposit and the box filter.

Each kernel is plain numpy and deterministic run to run. Callers reach them
through the module (``_k.col2im(...)``) so a test can substitute one.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# the kernels are numpy only; kept because run metadata records it
BACKEND = "numpy"


def im2col(xp: np.ndarray, k: int, stride: int, hout: int, wout: int) -> np.ndarray:
    sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(hout, wout, k, k, xp.shape[2]),
        strides=(sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(hout * wout, k * k * xp.shape[2])


def col2im(colsg: np.ndarray, k: int, stride: int, hp: int, wp: int,
           c: int, hout: int, wout: int) -> np.ndarray:
    g5 = colsg.reshape(hout, wout, k, k, c)
    gp = np.zeros((hp, wp, c), dtype=np.float64)
    for ki in range(k):
        for kj in range(k):
            gp[ki:ki + hout * stride:stride, kj:kj + wout * stride:stride, :] += g5[:, :, ki, kj, :]
    return gp


def dwconv_forward(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid depthwise correlation of a padded [Hp,Wp,C] input with a
    [kh,kw,C] kernel, over its [H,W,C,kh,kw] windows in (ki, kj) tap order."""
    return np.einsum("hwckl,klc->hwc", sliding_window_view(xp, w.shape[:2], (0, 1)), w)


def dwconv_grad_weight(xp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The [kh,kw,C] kernel gradient of ``dwconv_forward(xp, w)``."""
    k = (xp.shape[0] - g.shape[0] + 1, xp.shape[1] - g.shape[1] + 1)
    return np.einsum("hwckl,hwc->klc", sliding_window_view(xp, k, (0, 1)), g)


def dwconv_grad_input(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of a same-size depthwise conv, on x's extent: g's windows
    read back to front add the taps in (ki, kj) order, as a scatter would."""
    kh, kw = w.shape[:2]
    gp = np.pad(g, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    windows = sliding_window_view(gp, (kh, kw), (0, 1))[:, :, :, ::-1, ::-1]
    return np.einsum("hwckl,klc->hwc", windows, w)


def voxel_deposit(flat: np.ndarray, tstar: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray, ps: np.ndarray, bins: int,
                  height: int, width: int) -> None:
    """Split each event's polarity between bins floor(t*) and floor(t*)+1 of
    the flat [bins,H,W] grid; needs 0 <= t* <= bins-1. The second deposit,
    clamped to the last bin, adds ±0.0 where t* is whole, which moves no cell."""
    b0 = tstar.astype(np.int64)
    frac = tstar - b0
    base = ys * width + xs
    np.add.at(flat, b0 * (height * width) + base, ps * (1.0 - frac))
    np.add.at(flat, np.minimum(b0 + 1, bins - 1) * (height * width) + base, ps * frac)


def box_filter(img: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    xp = np.pad(img, r, mode="edge")
    windows = sliding_window_view(xp, (k, k))
    return windows.mean(axis=(2, 3))
