"""Hot kernels of the convolutions, the voxel deposit and the box filter.

Each kernel is plain numpy and deterministic run to run. Callers reach them
through the module (``_k.col2im(...)``) so a test can substitute one.
``im2col``/``col2im`` are the stride-2 conv's 2x2 space-to-depth and its
inverse; the benchmark reports them under these names.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# the kernels are numpy only; kept because run metadata records it
BACKEND = "numpy"


def im2col(xp: np.ndarray) -> np.ndarray:
    """2x2 space-to-depth, [2H,2W,C] -> [H,W,4C]: channel (di, dj, c) of
    pixel (y, x) is xp[2y+di, 2x+dj, c], the 2x2 stride-2 unfold."""
    h, w, c = xp.shape
    return np.ascontiguousarray(
        xp.reshape(h // 2, 2, w // 2, 2, c).swapaxes(1, 2)).reshape(h // 2, w // 2, 4 * c)


def col2im(cols: np.ndarray) -> np.ndarray:
    """Depth-to-space: ``im2col``'s inverse and, as it only moves values, its adjoint."""
    h, w, c = cols.shape
    return np.ascontiguousarray(
        cols.reshape(h, w, 2, 2, c // 4).swapaxes(1, 2)).reshape(2 * h, 2 * w, c // 4)


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


# events per chunk of the passes over a stream. A chunk's temporaries take
# about 40 bytes per event, 640 KiB here whatever the stream's length, which
# stays in a core's L2 cache; 2**14 was the fastest of 2**11..2**18 on a
# 316,680-event voxelize, and numpy's fixed cost per call does not show at it
CHUNK = 1 << 14


def voxel_deposit(flat: np.ndarray, tstar: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray, ps: np.ndarray, bins: int,
                  height: int, width: int) -> None:
    """Split each event's polarity between bins floor(t*) and floor(t*)+1 of
    the flat [bins,H,W] grid; needs 0 <= t* <= bins-1. The second deposit,
    clamped to the last bin, adds ±0.0 where t* is whole, which moves no cell.
    Every chunk's first deposits go in before any second one, so each cell
    adds its terms in the order of one pass over the whole stream."""
    for second in (False, True):
        for s in range(0, tstar.shape[0], CHUNK):
            c = slice(s, s + CHUNK)
            b0 = tstar[c].astype(np.int64)
            w = tstar[c] - b0
            # widened first: a uint16 y times the width stays uint16 and wraps
            at = np.multiply(ys[c], width, dtype=np.int64)
            np.add(at, xs[c], out=at, dtype=np.int64)
            if second:
                np.minimum(b0 + 1, bins - 1, out=b0)
            else:
                np.subtract(1.0, w, out=w)
            b0 *= height * width
            at += b0
            w *= ps[c]
            np.add.at(flat, at, w)


def box_filter(img: np.ndarray, k: int) -> np.ndarray:
    r = k // 2
    xp = np.pad(img, r, mode="edge")
    windows = sliding_window_view(xp, (k, k))
    return windows.mean(axis=(2, 3))
