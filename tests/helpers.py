"""Shared test utilities: the central finite-difference gradient oracle, the
hand-written convolution ops the engine now composes from others, an
im2col convolution that needs none of the engine's kernels, and an einsum
oracle for channel attention."""
from __future__ import annotations

import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from evlight import tensor as T


def use_cores(monkeypatch, n: int) -> None:
    """n usable cores and one BLAS thread, so the calling thread's share of
    the cores (``T.cores()``) is n whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    for var in T._BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def fd_gradcheck(build, leaves, h: float = 1e-5, tol: float = 1e-5,
                 floor: float = 1e-6) -> float:
    """Compare analytic gradients against central finite differences.

    ``build(*leaves)`` must rebuild the graph from the given leaf tensors
    and return a scalar Tensor. Every leaf with requires_grad is checked;
    the reported error is max over leaves of
    max|analytic - numeric| / max(max|analytic|, max|numeric|, floor).
    """
    grads = T.backward(build(*leaves))
    worst = 0.0
    for leaf in leaves:
        if not leaf.requires_grad:
            continue
        assert leaf in grads, "leaf got no gradient"
        analytic = grads[leaf]
        numeric = np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build(*leaves).item()
            flat[i] = orig - h
            dn = build(*leaves).item()
            flat[i] = orig
            nflat[i] = (up - dn) / (2.0 * h)
        denom = max(float(np.max(np.abs(analytic))),
                    float(np.max(np.abs(numeric))), floor)
        err = float(np.max(np.abs(analytic - numeric))) / denom
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} (tol {tol:.1e})"
    return worst


def sum_all(x: T.Tensor) -> T.Tensor:
    """Sum of every element, from public ops: the mean times the count."""
    return T.mul(T.mean(x), x.data.size)


def rand_tensor(rng: np.random.Generator, shape, scale: float = 0.5,
                requires_grad: bool = True) -> T.Tensor:
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| / max|b| (0 when both are zero)."""
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale else float(np.max(np.abs(a)))


# Reference ops with their own hand-derived backward, as the engine had them
# before deconv2d became conv2d + depth-to-space and ECA's 1-D conv a 1x3
# dwconv2d. The compositions must match them: forward bit-exact, gradients
# to 1e-12 relative.

def deconv2d(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Transposed 2x2 stride-2 convolution as one GEMM and a 2x2 scatter."""
    h, wd, cin = x.shape
    cout = w.shape[3]
    xmat = x.data.reshape(h * wd, cin)
    wmat = w.data.transpose(2, 0, 1, 3).reshape(cin, 4 * cout)
    out = (xmat @ wmat).reshape(h, wd, 2, 2, cout).transpose(0, 2, 1, 3, 4)
    out = np.ascontiguousarray(out).reshape(2 * h, 2 * wd, cout) + b.data

    need = (x.requires_grad, w.requires_grad, b.requires_grad)

    def back(g):
        g5 = g.reshape(h, 2, wd, 2, cout).transpose(0, 2, 1, 3, 4)
        gmat = np.ascontiguousarray(g5).reshape(h * wd, 4 * cout)
        gw = (xmat.T @ gmat).reshape(cin, 2, 2, cout).transpose(1, 2, 0, 3)
        grads = ((gmat @ wmat.T).reshape(h, wd, cin), np.ascontiguousarray(gw),
                 g.sum(axis=(0, 1)))
        return tuple(gi if n else None for gi, n in zip(grads, need))

    return T._result(out, "deconv2d", (x, w, b), back)


def conv1d_same(x: T.Tensor, w: T.Tensor) -> T.Tensor:
    """1-D same-size correlation of a [C] vector with an odd kernel (zero padded)."""
    k = w.shape[0]
    r = k // 2
    c = x.shape[0]
    xp = np.pad(x.data, r)
    out = np.zeros(c)
    for j in range(k):
        out += w.data[j] * xp[j:j + c]

    need, wd = (x.requires_grad, w.requires_grad), w.data

    def back(g):
        gw = np.array([float(np.dot(g, xp[j:j + c])) for j in range(k)])
        gp = np.zeros(c + 2 * r)
        for j in range(k):
            gp[j:j + c] += wd[j] * g
        return tuple(gi if n else None for gi, n in zip((gp[r:r + c], gw), need))

    return T._result(out, "conv1d_same", (x, w), back)


def im2col_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, padding: int,
                gy: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stride-1 conv of x zero-padded by ``padding`` as one GEMM over its
    unfolded [Hout·Wout, k·k·Cin] windows; the input gradient scatters the
    column gradients back over the k·k taps.

    Returns (output, x-grad, w-grad, b-grad) for the loss sum(output * gy).
    """
    k, _, cin, cout = w.shape
    h, wd = x.shape[:2]
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    hout, wout = xp.shape[0] - k + 1, xp.shape[1] - k + 1
    cols = sliding_window_view(xp, (k, k), (0, 1)).transpose(0, 1, 3, 4, 2)
    cols = cols.reshape(hout * wout, k * k * cin)
    wmat = w.reshape(k * k * cin, cout)
    gmat = gy.reshape(-1, cout)
    gcols = (gmat @ wmat.T).reshape(hout, wout, k, k, cin)
    gxp = np.zeros(xp.shape)
    for ki in range(k):
        for kj in range(k):
            gxp[ki:ki + hout, kj:kj + wout] += gcols[:, :, ki, kj]
    return ((cols @ wmat + b).reshape(hout, wout, cout),
            gxp[padding:padding + h, padding:padding + wd],
            (cols.T @ gmat).reshape(w.shape), gmat.sum(axis=0))


# The depthwise and voxel kernels as ``_kernels`` had them before each became
# one contraction over a window view or two mask-free deposits: one
# full-size pass per tap, and masks around both deposits. The kernels must
# match them bit for bit with two or more channels.

def dwconv_forward_loop(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    kh, kw = w.shape[:2]
    h = xp.shape[0] - kh + 1
    wd = xp.shape[1] - kw + 1
    out = np.zeros((h, wd, xp.shape[2]), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            out += xp[ki:ki + h, kj:kj + wd, :] * w[ki, kj, :]
    return out


def dwconv_grad_weight_loop(xp: np.ndarray, g: np.ndarray) -> np.ndarray:
    h, wd, c = g.shape
    kh, kw = xp.shape[0] - h + 1, xp.shape[1] - wd + 1
    gw = np.zeros((kh, kw, c), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            gw[ki, kj, :] = np.sum(xp[ki:ki + h, kj:kj + wd, :] * g, axis=(0, 1))
    return gw


def dwconv_grad_input_loop(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g scattered over the taps onto the padded extent, cropped to x's."""
    kh, kw = w.shape[:2]
    h, wd, c = g.shape
    gp = np.zeros((h + kh - 1, wd + kw - 1, c), dtype=np.float64)
    for ki in range(kh):
        for kj in range(kw):
            gp[ki:ki + h, kj:kj + wd, :] += g * w[ki, kj, :]
    rh, rw = kh // 2, kw // 2
    return gp[rh:gp.shape[0] - rh, rw:gp.shape[1] - rw, :]


def voxel_deposit_masked(flat: np.ndarray, tstar: np.ndarray, xs: np.ndarray,
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


def channel_attention(qkv: np.ndarray, alpha: np.ndarray, heads: int) -> np.ndarray:
    """``T.channel_attention`` as einsums over [heads, HW, d] copies of Q, K, V."""
    h, w, c3 = qkv.shape
    c = c3 // 3
    q, k, v = (np.ascontiguousarray(qkv.reshape(h * w, 3, heads, c // heads)[:, j]
                                    .transpose(1, 0, 2)) for j in range(3))
    s = np.einsum("npi,npj->nij", q, k) / alpha[:, None, None]
    a = np.exp(s - s.max(axis=-1, keepdims=True))
    a /= a.sum(axis=-1, keepdims=True)
    return np.einsum("npj,nij->pni", v, a).reshape(h, w, c)
