"""Hot inner loops of the convolutions, the voxel deposit and the box filter.

Each kernel is plain numpy and deterministic run to run. Callers reach them
through the module (``_k.col2im(...)``) so a test can substitute one.
"""
from __future__ import annotations

import numpy as np

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
    kh, kw = w.shape[:2]
    h = xp.shape[0] - kh + 1
    wd = xp.shape[1] - kw + 1
    out = np.zeros((h, wd, xp.shape[2]), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            out += xp[ki:ki + h, kj:kj + wd, :] * w[ki, kj, :]
    return out


def dwconv_grad_weight(xp: np.ndarray, g: np.ndarray) -> np.ndarray:
    h, wd, c = g.shape
    kh, kw = xp.shape[0] - h + 1, xp.shape[1] - wd + 1
    gw = np.zeros((kh, kw, c), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            gw[ki, kj, :] = np.sum(xp[ki:ki + h, kj:kj + wd, :] * g, axis=(0, 1))
    return gw


def dwconv_grad_input(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    kh, kw = w.shape[:2]
    h, wd, c = g.shape
    gp = np.zeros((h + kh - 1, wd + kw - 1, c), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            gp[ki:ki + h, kj:kj + wd, :] += g * w[ki, kj, :]
    return gp


def voxel_deposit(flat: np.ndarray, tstar: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray, ps: np.ndarray, bins: int,
                  height: int, width: int) -> None:
    b0 = np.floor(tstar).astype(np.int64)
    frac = tstar - b0
    base = ys * width + xs
    left = (b0 >= 0) & (b0 < bins)
    np.add.at(flat, b0[left] * height * width + base[left], ps[left] * (1.0 - frac[left]))
    b1 = b0 + 1
    right = (b1 < bins) & (frac > 0.0)
    np.add.at(flat, b1[right] * height * width + base[right], ps[right] * frac[right])


def box_filter(img: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    xp = np.pad(img, r, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k))
    return windows.mean(axis=(2, 3))
