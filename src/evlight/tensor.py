"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation the enhancement model needs lives here: convolutions,
the 2x2 transposed convolution, pooling, layer norm, softmax, pointwise
activations, and a handful of strict broadcast ops (bias add, per-channel
and per-pixel scaling). Broadcasting beyond those cases is rejected so the
substrate stays auditable.

Values are float64 throughout and must stay finite; any op that produces
NaN/Inf raises :class:`NonFiniteError`. Inside a :func:`no_grad` scope ops
record no graph, so inference keeps no backward buffers alive.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf

from . import _kernels as _k


class ShapeError(ValueError):
    """Dimension mismatch; names the op and the offending axis."""

    def __init__(self, op: str, axis: int | str, expected, got):
        self.op = op
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(f"{op}: axis {axis} expected {expected}, got {got}")


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Immutable-by-convention float64 array node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if any(n < 1 for n in arr.shape):
            raise ShapeError("tensor", "all", "positive extents", arr.shape)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


class Parameter(Tensor):
    """Trainable tensor; ``name`` is the dotted checkpoint path."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Scope in which op results keep neither parents nor backward closures."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable node that requires it.

    Traversal order is a deterministic function of graph structure, so two
    runs over identical graphs produce bit-identical gradients.
    """
    if loss.data.size != 1:
        raise ShapeError("backward", "all", "scalar loss", loss.data.shape)
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            stack.append((p, False))
    _accum(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and strict-broadcast arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)

        def back_s(g, a=a):
            _accum(a, g)

        return _result(a.data + s, "add", (a,), back_s)
    if a.shape == b.shape:

        def back(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g)

        return _result(a.data + b.data, "add", (a, b), back)
    if b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        # bias add: the one sanctioned broadcast
        def back_bias(g, a=a, b=b):
            _accum(a, g)
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

        return _result(a.data + b.data, "add", (a, b), back_bias)
    raise ShapeError("add", "all", a.shape, b.shape)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    if a.shape != b.shape:
        raise ShapeError("sub", "all", a.shape, b.shape)

    def back(g, a=a, b=b):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)

        def back_s(g, a=a, s=s):
            _accum(a, g * s)

        return _result(a.data * s, "mul", (a,), back_s)
    if a.shape != b.shape:
        raise ShapeError("mul", "all", a.shape, b.shape)

    def back(g, a=a, b=b):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, "mul", (a, b), back)


def neg(a: Tensor) -> Tensor:
    def back(g, a=a):
        _accum(a, -g)

    return _result(-a.data, "neg", (a,), back)


def mul_spatial(x: Tensor, m: Tensor) -> Tensor:
    """Scale a [H,W,C] map by a per-pixel [H,W] (or [H,W,1]) factor."""
    if x.ndim != 3:
        raise ShapeError("mul_spatial", "all", "[H,W,C]", x.shape)
    md = m.data[..., 0] if m.ndim == 3 and m.shape[2] == 1 else m.data
    if md.shape != x.shape[:2]:
        raise ShapeError("mul_spatial", "0,1", x.shape[:2], m.shape)

    def back(g, x=x, m=m, md=md):
        _accum(x, g * md[:, :, None])
        if m.requires_grad:
            gm = (g * x.data).sum(axis=2)
            _accum(m, gm.reshape(m.shape))

    return _result(x.data * md[:, :, None], "mul_spatial", (x, m), back)


def mul_channel(x: Tensor, a: Tensor) -> Tensor:
    """Scale a [H,W,C] map by a per-channel [C] factor."""
    if x.ndim != 3 or a.ndim != 1 or a.shape[0] != x.shape[2]:
        raise ShapeError("mul_channel", 2, x.shape, a.shape)

    def back(g, x=x, a=a):
        _accum(x, g * a.data)
        if a.requires_grad:
            _accum(a, (g * x.data).sum(axis=(0, 1)))

    return _result(x.data * a.data, "mul_channel", (x, a), back)


def div_per_head(x: Tensor, alpha: Tensor) -> Tensor:
    """Divide a [heads, m, n] stack by a positive per-head scalar [heads]."""
    if x.ndim != 3 or alpha.ndim != 1 or alpha.shape[0] != x.shape[0]:
        raise ShapeError("div_per_head", 0, x.shape, alpha.shape)
    a = alpha.data[:, None, None]

    def back(g, x=x, alpha=alpha, a=a):
        _accum(x, g / a)
        if alpha.requires_grad:
            ga = -(g * x.data).sum(axis=(1, 2)) / (alpha.data ** 2)
            _accum(alpha, ga)

    return _result(x.data / a, "div_per_head", (x, alpha), back)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat", "all", "non-empty input list", ())
    nd = tensors[0].ndim
    if axis < -nd or axis >= nd:
        raise ShapeError("concat", axis, f"axis in [-{nd},{nd})", axis)
    ax = axis % nd
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        got = list(t.shape)
        if len(got) != nd or any(r != g for i, (r, g) in enumerate(zip(ref, got)) if i != ax):
            raise ShapeError("concat", ax, ref, got)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g, tensors=tuple(tensors), ax=ax, offsets=offsets):
        for i, t in enumerate(tensors):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(offsets[i], offsets[i + 1])
            _accum(t, g[tuple(sl)])

    return _result(np.concatenate([t.data for t in tensors], axis=ax),
                   "concat", tensors, back)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def back(g, x=x):
        _accum(x, g * (x.data > 0))

    return _result(np.maximum(x.data, 0.0), "relu", (x,), back)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    def back(g, x=x, slope=slope):
        _accum(x, g * np.where(x.data > 0, 1.0, slope))

    return _result(np.where(x.data > 0, x.data, slope * x.data),
                   "leaky_relu", (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    # split by sign so exp never overflows
    xd = x.data
    s = np.empty_like(xd)
    pos = xd >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    s[~pos] = e / (1.0 + e)

    def back(g, x=x, s=s):
        _accum(x, g * s * (1.0 - s))

    return _result(s, "sigmoid", (x,), back)


def gelu(x: Tensor) -> Tensor:
    inner = _erf(x.data / math.sqrt(2.0))
    out = 0.5 * x.data * (1.0 + inner)

    def back(g, x=x, inner=inner):
        pdf = np.exp(-0.5 * x.data ** 2) / math.sqrt(2.0 * math.pi)
        _accum(x, g * (0.5 * (1.0 + inner) + x.data * pdf))

    return _result(out, "gelu", (x,), back)


def softmax(x: Tensor, axis: int) -> Tensor:
    if axis < -x.ndim or axis >= x.ndim:
        raise ShapeError("softmax", axis, f"axis in [-{x.ndim},{x.ndim})", axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def back(g, x=x, s=s, axis=axis):
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accum(x, s * (g - dot))

    return _result(s, "softmax", (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last (channel) axis per instance."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("layer_norm", -1, (c,), (gamma.shape, beta.shape))
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def back(g, x=x, gamma=gamma, beta=beta, inv=inv, xhat=xhat):
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (gg - m1 - xhat * m2))
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            _accum(beta, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _result(xhat * gamma.data + beta.data, "layer_norm",
                   (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# reductions, shaping, linear algebra
# ---------------------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    def back(g, x=x):
        _accum(x, np.broadcast_to(g, x.shape).copy())

    return _result(np.asarray(x.data.sum()), "sum", (x,), back)


def mean(x: Tensor) -> Tensor:
    n = x.data.size

    def back(g, x=x, n=n):
        _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _result(np.asarray(x.data.mean()), "mean", (x,), back)


def absolute(x: Tensor) -> Tensor:
    def back(g, x=x):
        _accum(x, g * np.sign(x.data))

    return _result(np.abs(x.data), "abs", (x,), back)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise NonFiniteError("sqrt of negative value")
    r = np.sqrt(x.data)

    def back(g, x=x, r=r):
        _accum(x, g * 0.5 / r)

    return _result(r, "sqrt", (x,), back)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError("reshape", "all", x.data.size, shape)

    def back(g, x=x):
        _accum(x, g.reshape(x.shape))

    return _result(np.ascontiguousarray(x.data.reshape(shape)), "reshape", (x,), back)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError("transpose", "all", f"permutation of {x.ndim} axes", axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def back(g, x=x, inv=inv):
        _accum(x, np.ascontiguousarray(g.transpose(inv)))

    return _result(np.ascontiguousarray(x.data.transpose(axes)), "transpose", (x,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim not in (2, 3) or b.ndim != a.ndim:
        raise ShapeError("matmul", "all", "2D@2D or batched 3D@3D", (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2] or (a.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError("matmul", -1, a.shape, b.shape)

    def back(g, a=a, b=b):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _result(a.data @ b.data, "matmul", (a, b), back)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

def _mec(xp: np.ndarray, wrows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 correlation of [Hp,Wp,Cin] with [k, k*Cin, Cout] kernel rows.

    MEC lowering: unfold along the width only, into u = [Hp*Wout, k*Cin]
    (row h*Wout + wo holds xp[h, wo:wo+k]; for k = 1 a reshape, not a copy).
    Kernel row ki reads the Hout*Wout rows of u that start at ki*Wout, so
    the output is a sum of k row-shifted GEMMs. Returns (out, u).
    """
    k = wrows.shape[0]
    hp, wp, c = xp.shape
    wout = wp - k + 1
    n = (hp - k + 1) * wout
    sh, sw, sc = xp.strides
    strips = np.lib.stride_tricks.as_strided(
        xp, shape=(hp, wout, k, c), strides=(sh, sw, sw, sc), writeable=False)
    u = np.ascontiguousarray(strips).reshape(hp * wout, k * c)
    out = u[:n] @ wrows[0]
    for ki in range(1, k):
        out += u[ki * wout:ki * wout + n] @ wrows[ki]
    return out, u


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D correlation on [H,W,Cin] with a [k,k,Cin,Cout] kernel.

    Stride 1 is lowered MEC-style (width-only unfold, k row-shifted GEMMs;
    the input gradient is the same lowering of the gradient with the
    flipped kernel). Stride 2 uses im2col + GEMM and a col2im scatter.
    """
    if x.ndim != 3:
        raise ShapeError("conv2d", "all", "[H,W,Cin] input", x.shape)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError("conv2d", "all", "[k,k,Cin,Cout] weight", w.shape)
    k = w.shape[0]
    cin, cout = w.shape[2], w.shape[3]
    if x.shape[2] != cin:
        raise ShapeError("conv2d", 2, cin, x.shape[2])
    if b.shape != (cout,):
        raise ShapeError("conv2d", "bias", (cout,), b.shape)
    if stride not in (1, 2):
        raise ShapeError("conv2d", "stride", "1 or 2", stride)
    h, wd = x.shape[0], x.shape[1]
    if h + 2 * padding < k or wd + 2 * padding < k:
        raise ShapeError("conv2d", 0, f">= kernel {k} after padding", (h, wd))
    hout = (h + 2 * padding - k) // stride + 1
    wout = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x.data, ((padding, padding), (padding, padding), (0, 0))) \
        if padding else x.data
    if stride == 1:
        return _conv2d_mec(x, w, b, xp, padding, hout, wout)
    cols = _k.im2col(xp, k, stride, hout, wout)
    wmat = w.data.reshape(k * k * cin, cout)
    out = (cols @ wmat + b.data).reshape(hout, wout, cout)

    def back(g, x=x, w=w, b=b, cols=cols, wmat=wmat):
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            _accum(w, (cols.T @ gmat).reshape(w.shape))
        if b.requires_grad:
            _accum(b, gmat.sum(axis=0))
        if x.requires_grad:
            gcols = np.ascontiguousarray(gmat @ wmat.T)
            gp = _k.col2im(gcols, k, stride, h + 2 * padding, wd + 2 * padding,
                           cin, hout, wout)
            if padding:
                gp = gp[padding:padding + h, padding:padding + wd, :]
            _accum(x, gp)

    return _result(out, "conv2d", (x, w, b), back)


def _conv2d_mec(x: Tensor, w: Tensor, b: Tensor, xp: np.ndarray, padding: int,
                hout: int, wout: int) -> Tensor:
    k, _, cin, cout = w.shape
    out, u = _mec(xp, w.data.reshape(k, k * cin, cout))
    out += b.data

    def back(g, x=x, w=w, b=b, u=u):
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            n = hout * wout
            gw = np.stack([u[ki * wout:ki * wout + n].T @ gmat for ki in range(k)])
            _accum(w, gw.reshape(w.shape))
        if b.requires_grad:
            _accum(b, gmat.sum(axis=0))
        if x.requires_grad:
            # full correlation with the flipped kernel; padding g by k-1-p
            # (cropping when negative) lands it on x's extent directly
            q = k - 1 - padding
            gq = np.pad(g, ((q, q), (q, q), (0, 0))) if q > 0 else \
                g[-q:g.shape[0] + q, -q:g.shape[1] + q]
            wf = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k, k * cout, cin)
            _accum(x, _mec(gq, wf)[0].reshape(x.shape))

    return _result(out.reshape(hout, wout, cout), "conv2d", (x, w, b), back)


def dwconv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise odd-kernel, stride-1, shape-preserving convolution."""
    if x.ndim != 3 or w.ndim != 3 or w.shape[0] != w.shape[1]:
        raise ShapeError("dwconv2d", "all", "[H,W,C] and [k,k,C]", (x.shape, w.shape))
    k = w.shape[0]
    if k % 2 == 0:
        raise ShapeError("dwconv2d", "kernel", "odd size", k)
    c = x.shape[2]
    if w.shape[2] != c or b.shape != (c,):
        raise ShapeError("dwconv2d", 2, c, (w.shape[2], b.shape))
    r = k // 2
    xp = np.pad(x.data, ((r, r), (r, r), (0, 0)))
    out = _k.dwconv_forward(xp, w.data) + b.data

    def back(g, x=x, w=w, b=b, xp=xp, k=k, r=r):
        gc = np.ascontiguousarray(g)
        if w.requires_grad:
            _accum(w, _k.dwconv_grad_weight(xp, gc, k))
        if b.requires_grad:
            _accum(b, gc.sum(axis=(0, 1)))
        if x.requires_grad:
            gp = _k.dwconv_grad_input(gc, w.data)
            _accum(x, gp[r:gp.shape[0] - r, r:gp.shape[1] - r, :])

    return _result(out, "dwconv2d", (x, w, b), back)


def deconv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2) -> Tensor:
    """Transposed 2x2 stride-2 convolution; doubles the spatial extent."""
    if stride != 2 or w.ndim != 4 or w.shape[0] != 2 or w.shape[1] != 2:
        raise ShapeError("deconv2d", "kernel", "2x2 kernel, stride 2",
                         (getattr(w, "shape", None), stride))
    if x.ndim != 3 or x.shape[2] != w.shape[2]:
        raise ShapeError("deconv2d", 2, w.shape[2], x.shape)
    cout = w.shape[3]
    if b.shape != (cout,):
        raise ShapeError("deconv2d", "bias", (cout,), b.shape)
    h, wd, cin = x.shape
    xmat = x.data.reshape(h * wd, cin)
    wmat = w.data.transpose(2, 0, 1, 3).reshape(cin, 4 * cout)
    out = (xmat @ wmat).reshape(h, wd, 2, 2, cout).transpose(0, 2, 1, 3, 4)
    out = np.ascontiguousarray(out).reshape(2 * h, 2 * wd, cout) + b.data

    def back(g, x=x, w=w, b=b, xmat=xmat, wmat=wmat):
        g5 = g.reshape(h, 2, wd, 2, cout).transpose(0, 2, 1, 3, 4)
        gmat = np.ascontiguousarray(g5).reshape(h * wd, 4 * cout)
        if x.requires_grad:
            _accum(x, (gmat @ wmat.T).reshape(x.shape))
        if w.requires_grad:
            gw = (xmat.T @ gmat).reshape(cin, 2, 2, cout).transpose(1, 2, 0, 3)
            _accum(w, np.ascontiguousarray(gw))
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 1)))

    return _result(out, "deconv2d", (x, w, b), back)


def avg_pool2(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise ShapeError("avg_pool2", "all", "[H,W,C]", x.shape)
    h, wd, c = x.shape
    if h % 2 or wd % 2:
        raise ShapeError("avg_pool2", 0 if h % 2 else 1, "even extent", (h, wd))
    out = x.data.reshape(h // 2, 2, wd // 2, 2, c).mean(axis=(1, 3))

    def back(g, x=x):
        gx = np.broadcast_to(g[:, None, :, None, :] * 0.25,
                             (h // 2, 2, wd // 2, 2, c))
        _accum(x, gx.reshape(x.shape).copy())

    return _result(out, "avg_pool2", (x,), back)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise ShapeError("global_avg_pool", "all", "[H,W,C]", x.shape)
    n = x.shape[0] * x.shape[1]

    def back(g, x=x, n=n):
        _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _result(x.data.mean(axis=(0, 1)), "global_avg_pool", (x,), back)


def conv1d_same(x: Tensor, w: Tensor) -> Tensor:
    """1-D same-size correlation over a channel vector (zero padded)."""
    if x.ndim != 1 or w.ndim != 1 or w.shape[0] % 2 == 0:
        raise ShapeError("conv1d_same", "all", "1-D input, odd 1-D kernel",
                         (x.shape, w.shape))
    k = w.shape[0]
    r = k // 2
    c = x.shape[0]
    xp = np.pad(x.data, r)
    out = np.zeros(c, dtype=np.float64)
    for j in range(k):
        out += w.data[j] * xp[j:j + c]

    def back(g, x=x, w=w, xp=xp, k=k, r=r, c=c):
        if w.requires_grad:
            gw = np.array([float(np.dot(g, xp[j:j + c])) for j in range(k)])
            _accum(w, gw)
        if x.requires_grad:
            gp = np.zeros(c + 2 * r, dtype=np.float64)
            for j in range(k):
                gp[j:j + c] += w.data[j] * g
            _accum(x, gp[r:r + c])

    return _result(out, "conv1d_same", (x, w), back)
