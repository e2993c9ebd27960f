"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation the enhancement model needs lives here, each with its own
gradient: convolutions, pooling, layer norm, softmax, pointwise activations,
slicing and elementwise arithmetic. The one exception is the 2x2 transposed
convolution ``deconv2d``, composed from ``conv2d``, ``reshape``, ``transpose``
and ``add``. A k×k ``conv2d`` zero-pads by (k-1)//2, the one padding the
network uses. ``add``, ``sub``, ``mul`` and ``div`` share one broadcast rule:
``b`` broadcasts into ``a`` when the two are aligned on their trailing axes
and each extent of ``b`` equals ``a``'s or is 1, so the result always has
``a``'s shape (a per-pixel mask is [H,W,1], a per-channel gate [C]).
Anything else is rejected.

Values are float64 throughout and must stay finite; any op that produces
NaN/Inf raises :class:`NonFiniteError`. Inside a :func:`no_grad` scope ops
record no graph, so inference keeps no backward buffers alive; the scope is
per thread, so one thread can infer while another records a graph.

:func:`beside` is the one way the package starts threads: it runs calls on
threads of their own beside the calling thread, splits the caller's
:func:`cores` between them and carries the caller's ``no_grad`` scope and
numpy ``errstate`` into each. numpy releases the GIL in its GEMMs, so the threads run side by side.

:func:`backward` returns the leaf gradients as a dict and keeps them nowhere
else, so threads can run backward over graphs that share parameters. It
frees the tape as it goes: once a node's closure has run, the node drops its
gradient, closure and parents, so activations are freed during the pass.
"""
from __future__ import annotations

import contextlib
import math
import os
import threading
from typing import Callable, Iterator, Sequence

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

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64, order="C")
        if any(n < 1 for n in arr.shape):
            raise ShapeError("tensor", "all", "positive extents", arr.shape)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """Trainable tensor; its checkpoint name is its path in the owning Module."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class _ThreadState(threading.local):
    """Per-thread engine state; the class attributes are each thread's defaults."""

    grad_enabled = True
    grads: dict | None = None  # the gradients of the running backward, by node
    cores = 0  # this thread's share of the cores from beside(); 0: not in one


_state = _ThreadState()


@contextlib.contextmanager
def no_grad():
    """Scope in which this thread's op results keep neither parents nor
    backward closures. :func:`beside` carries the scope into the threads it
    starts, so their ops record no graph either."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


# the variables by which a user sets the BLAS thread count, in precedence order
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def cores() -> int:
    """How many threads this thread may keep busy: its share from
    :func:`beside`, else one per core that BLAS leaves free.

    The cores are the process's CPU affinity; the BLAS thread count is the
    user's (its usual variables), else the BLAS default of every core, so
    with no variable set this is 1. It is read, never changed: on 2 cores,
    two training samples side by side over 2-thread BLAS ran a crop-64 step
    1.3x slower than one sample at a time.
    """
    if _state.cores:
        return _state.cores
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        n = os.cpu_count() or 1
    blas = n
    for var in _BLAS_VARS:
        val = os.environ.get(var, "").strip()
        if val.isdigit() and int(val) > 0:
            blas = int(val)
            break
    return max(1, n // blas)


@contextlib.contextmanager
def beside(fn: Callable, items: Sequence) -> Iterator[list]:
    """Run ``fn(item)`` for each item on a thread of its own while the body
    runs in the calling thread; yields the list that holds their results, in
    item order, once the scope has closed.

    The body and the threads split this thread's :func:`cores` evenly (at
    least one each), and each thread runs in this thread's ``no_grad``
    state and numpy ``errstate``. Every thread is joined on exit, also when
    the body raises; a failure is re-raised here with its own type, the
    body's first, then the threads' in item order.
    """
    share = max(1, cores() // (len(items) + 1))
    grad_enabled, fp_errors = _state.grad_enabled, np.geterr()
    results: list = [None] * len(items)
    errors: list = [None] * len(items)

    def run(i, item):
        _state.cores, _state.grad_enabled = share, grad_enabled
        try:
            with np.errstate(**fp_errors):
                results[i] = fn(item)
        except BaseException as exc:  # re-raised below, in the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i, item))
               for i, item in enumerate(items)]
    for t in threads:
        t.start()
    prev, _state.cores = _state.cores, share
    try:
        yield results
    finally:
        _state.cores = prev
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _result(data: np.ndarray, op: str, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    grads = _state.grads
    prev = grads.get(t)
    if prev is None:
        grads[t] = g.copy()
    else:
        prev += g


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """The gradient of ``loss`` with respect to every leaf it reaches, by leaf.

    A leaf is a node that requires grad and has no backward closure. Each
    interior node drops its gradient, closure and parents once its closure
    has run, so the graph is spent afterwards. Traversal order is a
    deterministic function of graph structure, so two runs over identical
    graphs produce bit-identical gradients.
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
    grads: dict[Tensor, np.ndarray] = {}
    _state.grads = grads
    try:
        _accum(loss, np.ones_like(loss.data))
        # pop, so a node's data is freed once its consumers are done with it
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            g = grads.pop(node, None)
            if g is not None:
                node._backward(g)
            node._backward, node._parents = None, ()
    finally:
        _state.grads = None
    return grads


# ---------------------------------------------------------------------------
# elementwise arithmetic under one broadcast rule
# ---------------------------------------------------------------------------

def _operand(op: str, a: Tensor, b) -> Tensor:
    """``b`` as a Tensor that broadcasts into ``a``; a number becomes a constant.

    The rule: aligned on trailing axes, each extent of ``b`` equals ``a``'s
    or is 1, so the result always has ``a``'s shape.
    """
    if not isinstance(b, Tensor):
        return Tensor(float(b))
    lead = a.ndim - b.ndim
    if lead < 0 or any(m not in (n, 1) for n, m in zip(a.shape[lead:], b.shape)):
        raise ShapeError(op, "all", f"a shape broadcastable into {a.shape}", b.shape)
    return b


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    lead = g.ndim - len(shape)
    axes = tuple(i for i in range(g.ndim) if i < lead or shape[i - lead] < g.shape[i])
    return g.sum(axis=axes).reshape(shape) if axes else g


def add(a: Tensor, b) -> Tensor:
    b = _operand("add", a, b)

    def back(g, a=a, b=b):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _result(a.data + b.data, "add", (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    b = _operand("sub", a, b)

    def back(g, a=a, b=b):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, -_unbroadcast(g, b.shape))

    return _result(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    b = _operand("mul", a, b)

    def back(g, a=a, b=b):
        _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _result(a.data * b.data, "mul", (a, b), back)


def div(a: Tensor, b) -> Tensor:
    b = _operand("div", a, b)

    def back(g, a=a, b=b):
        _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -_unbroadcast(g * a.data, b.shape) / b.data ** 2)

    return _result(a.data / b.data, "div", (a, b), back)


def slice_rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of x along axis 0."""
    if not 0 <= lo < hi <= x.shape[0]:
        raise ShapeError("slice_rows", 0, f"0 <= lo < hi <= {x.shape[0]}", (lo, hi))

    def back(g, x=x, lo=lo, hi=hi):
        full = np.zeros(x.shape)
        full[lo:hi] = g
        _accum(x, full)

    return _result(np.ascontiguousarray(x.data[lo:hi]), "slice_rows", (x,), back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join [H,W,C] tensors of one extent along the channel axis."""
    if not tensors:
        raise ShapeError("concat", "all", "non-empty input list", ())
    hw = tensors[0].shape[:2]
    for t in tensors:
        if t.ndim != 3 or t.shape[:2] != hw:
            raise ShapeError("concat", "all", f"[H,W,C] of extent {hw}", t.shape)
    offsets = np.cumsum([0] + [t.shape[2] for t in tensors])

    def back(g, tensors=tuple(tensors), offsets=offsets):
        for i, t in enumerate(tensors):
            _accum(t, g[:, :, offsets[i]:offsets[i + 1]])

    return _result(np.concatenate([t.data for t in tensors], axis=2),
                   "concat", tensors, back)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def back(g, x=x):
        _accum(x, g * (x.data > 0))

    return _result(np.maximum(x.data, 0.0), "relu", (x,), back)


def leaky_relu(x: Tensor) -> Tensor:
    """Slope 0.2 below zero."""
    def back(g, x=x):
        _accum(x, g * np.where(x.data > 0, 1.0, 0.2))

    return _result(np.where(x.data > 0, x.data, 0.2 * x.data),
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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g, x=x, s=s):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accum(x, s * (g - dot))

    return _result(s, "softmax", (x,), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (channel) axis per instance; eps 1e-6."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("layer_norm", -1, (c,), (gamma.shape, beta.shape))
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
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
    """Batched [N,m,k] @ [N,k,n]."""
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeError("matmul", "all", "batched 3D@3D", (a.shape, b.shape))
    if a.shape[2] != b.shape[1] or a.shape[0] != b.shape[0]:
        raise ShapeError("matmul", -1, a.shape, b.shape)

    def back(g, a=a, b=b):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _result(a.data @ b.data, "matmul", (a, b), back)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

# Stride-1 k×k convs unfold and multiply one band of rows at a time, the
# unfold no larger than this (the 2 MiB per-core L2 of the Xeon it was tuned
# on), so the GEMMs read it from cache instead of from memory.
_BAND_BYTES = 2 << 20


def _bands(xp: np.ndarray, k: int):
    """Yield (h0, r, u) per band of r output rows of a stride-1 k×k window.

    u = [(r+k-1)*Wout, k*C] is the width-only (MEC) unfold of input rows
    h0 .. h0+r+k-2: row i*Wout + wo holds xp[h0+i, wo:wo+k]. Kernel row ki
    reads the r*Wout rows of u that start at ki*Wout. One buffer of at most
    ``_BAND_BYTES`` (or one band of k rows) is reused, so u is valid only
    until the next band; for k = 1 the one band is a reshape, not a copy.
    """
    hp, wp, c = xp.shape
    hout, wout = hp - k + 1, wp - k + 1
    if k == 1:
        yield 0, hout, xp.reshape(hp * wp, c)
        return
    band = max(1, _BAND_BYTES // (wout * k * c * xp.itemsize) - (k - 1))
    band = min(band, hout)
    sh, sw, sc = xp.strides
    strips = np.lib.stride_tricks.as_strided(
        xp, shape=(hp, wout, k, c), strides=(sh, sw, sw, sc), writeable=False)
    buf = np.empty(((band + k - 1) * wout, k * c), dtype=xp.dtype)
    for h0 in range(0, hout, band):
        r = min(band, hout - h0)
        u = buf[:(r + k - 1) * wout]
        u.reshape(r + k - 1, wout, k, c)[...] = strips[h0:h0 + r + k - 1]
        yield h0, r, u


def _mec(xp: np.ndarray, wrows: np.ndarray) -> np.ndarray:
    """Stride-1 correlation of [Hp,Wp,Cin] with [k, k*Cin, Cout] kernel rows.

    MEC lowering (width-only unfold, then a sum of k row-shifted GEMMs),
    band by band; returns [Hout*Wout, Cout].
    """
    k = wrows.shape[0]
    wout = xp.shape[1] - k + 1
    out = np.empty(((xp.shape[0] - k + 1) * wout, wrows.shape[2]))
    for h0, r, u in _bands(xp, k):
        o = out[h0 * wout:(h0 + r) * wout]
        np.matmul(u[:r * wout], wrows[0], out=o)
        for ki in range(1, k):
            o += u[ki * wout:(ki + r) * wout] @ wrows[ki]
    return out


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """Zero-pad the two spatial axes of [H,W,C] by p; a no-op for p = 0."""
    return np.pad(a, ((p, p), (p, p), (0, 0))) if p else a


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """2-D correlation on [H,W,Cin] with a [k,k,Cin,Cout] kernel, zero-padded
    by (k-1)//2: stride 1 keeps the extent for odd k, stride 2 halves an even one.

    Stride 1 is lowered MEC-style, one cache-sized band of rows at a time
    (width-only unfold, k row-shifted GEMMs; the input gradient is the same
    lowering of the gradient with the flipped kernel). Stride 2 uses
    im2col + GEMM and a col2im scatter.
    """
    if x.ndim != 3:
        raise ShapeError("conv2d", "all", "[H,W,Cin] input", x.shape)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError("conv2d", "all", "[k,k,Cin,Cout] weight", w.shape)
    k = w.shape[0]
    padding = (k - 1) // 2
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
    if stride == 1:
        return _conv2d_mec(x, w, b, padding, hout, wout)
    out = (_k.im2col(_pad(x.data, padding), k, stride, hout, wout)
           @ w.data.reshape(k * k * cin, cout) + b.data).reshape(hout, wout, cout)

    def back(g, x=x, w=w, b=b):
        # the unfold is 2.25-4x the input: redo it rather than keep it alive
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            cols = _k.im2col(_pad(x.data, padding), k, stride, hout, wout)
            _accum(w, (cols.T @ gmat).reshape(w.shape))
        if b.requires_grad:
            _accum(b, gmat.sum(axis=0))
        if x.requires_grad:
            gcols = np.ascontiguousarray(gmat @ w.data.reshape(k * k * cin, cout).T)
            gp = _k.col2im(gcols, k, stride, h + 2 * padding, wd + 2 * padding,
                           cin, hout, wout)
            if padding:
                gp = gp[padding:padding + h, padding:padding + wd, :]
            _accum(x, gp)

    return _result(out, "conv2d", (x, w, b), back)


def _conv2d_mec(x: Tensor, w: Tensor, b: Tensor, padding: int,
                hout: int, wout: int) -> Tensor:
    k, _, cin, cout = w.shape
    out = _mec(_pad(x.data, padding), w.data.reshape(k, k * cin, cout))
    out += b.data

    def back(g, x=x, w=w, b=b):
        gmat = g.reshape(-1, cout)
        if w.requires_grad:
            # re-pad and re-unfold band by band rather than keep either alive
            gw = np.zeros((k, k * cin, cout))
            for h0, r, u in _bands(_pad(x.data, padding), k):
                gb = gmat[h0 * wout:(h0 + r) * wout]
                for ki in range(k):
                    gw[ki] += u[ki * wout:(ki + r) * wout].T @ gb
            _accum(w, gw.reshape(w.shape))
        if b.requires_grad:
            _accum(b, gmat.sum(axis=0))
        if x.requires_grad:
            # full correlation with the flipped kernel; padding g by k-1-p
            # lands it on x's extent directly
            wf = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k, k * cout, cin)
            _accum(x, _mec(_pad(g, k - 1 - padding), wf).reshape(x.shape))

    return _result(out.reshape(hout, wout, cout), "conv2d", (x, w, b), back)


def dwconv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Depthwise stride-1, shape-preserving convolution with an odd kh×kw kernel."""
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError("dwconv2d", "all", "[H,W,C] and [kh,kw,C]", (x.shape, w.shape))
    kh, kw = w.shape[:2]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("dwconv2d", "kernel", "odd extents", (kh, kw))
    c = x.shape[2]
    if w.shape[2] != c or b.shape != (c,):
        raise ShapeError("dwconv2d", 2, c, (w.shape[2], b.shape))
    rh, rw = kh // 2, kw // 2
    pads = ((rh, rh), (rw, rw), (0, 0))
    out = _k.dwconv_forward(np.pad(x.data, pads), w.data) + b.data

    def back(g, x=x, w=w, b=b):
        if w.requires_grad:
            _accum(w, _k.dwconv_grad_weight(np.pad(x.data, pads), g))
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 1)))
        if x.requires_grad:
            gp = _k.dwconv_grad_input(g, w.data)
            _accum(x, gp[rh:gp.shape[0] - rh, rw:gp.shape[1] - rw, :])

    return _result(out, "dwconv2d", (x, w, b), back)


def deconv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Transposed 2x2 stride-2 convolution; doubles the spatial extent.

    A 1x1 conv to 4*Cout channels, then depth-to-space (the sub-pixel identity).
    """
    if w.ndim != 4 or w.shape[:2] != (2, 2):
        raise ShapeError("deconv2d", "kernel", "[2,2,Cin,Cout]", w.shape)
    if x.ndim != 3 or x.shape[2] != w.shape[2]:
        raise ShapeError("deconv2d", 2, w.shape[2], x.shape)
    cout = w.shape[3]
    if b.shape != (cout,):
        raise ShapeError("deconv2d", "bias", (cout,), b.shape)
    h, wd, cin = x.shape
    wk = reshape(transpose(w, (2, 0, 1, 3)), (1, 1, cin, 4 * cout))
    y = conv2d(x, wk, Tensor(np.zeros(4 * cout)))
    y = transpose(reshape(y, (h, wd, 2, 2, cout)), (0, 2, 1, 3, 4))
    return add(reshape(y, (2 * h, 2 * wd, cout)), b)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise ShapeError("global_avg_pool", "all", "[H,W,C]", x.shape)
    n = x.shape[0] * x.shape[1]

    def back(g, x=x, n=n):
        _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _result(x.data.mean(axis=(0, 1)), "global_avg_pool", (x,), back)
