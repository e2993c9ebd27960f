"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation the enhancement model needs lives here, each with its own
gradient: convolutions, pooling, layer norm, channel attention, pointwise
activations and elementwise arithmetic. The one exception is the 2x2
transposed convolution ``deconv2d``, composed from ``conv2d``, ``reshape``,
``transpose`` and ``add``. A k×k ``conv2d`` zero-pads by (k-1)//2, the one
padding the network uses, with one lowering for both strides. ``add``,
``sub``, ``mul`` and the gated residual ``gated_add(a, b, s)`` = a·b + s
(s of a's shape) share one broadcast rule: ``b`` broadcasts into ``a``
when the two are aligned on their trailing axes and each extent of ``b``
equals ``a``'s or is 1, so the result always has ``a``'s shape (a
per-pixel mask is [H,W,1], a per-channel gate [C]). Anything else is rejected.

Values are float64 throughout and must stay finite; any op that produces
NaN/Inf raises :class:`NonFiniteError`. Inside a :func:`no_grad` scope ops
record no graph, so inference keeps no backward buffers alive; the scope is
per thread, so one thread can infer while another records a graph.

:func:`each` is the one way the package starts threads: it maps a function
over independent items, at most :func:`cores` at a time, splits the caller's
cores between them and carries the caller's ``no_grad`` scope and numpy
``errstate`` into each. numpy releases the GIL in its GEMMs, so the threads
run side by side.

:func:`backward` returns the leaf gradients as a dict and keeps them nowhere
else, so threads can run backward over graphs that share parameters.

The graph is kept apart from the data. A recorded op result gets a private
``_Node``: the keys of its parents that need a gradient and a closure from
its gradient to theirs. A tensor's key is its node, and a leaf (a
:class:`Parameter` or a tensor made with ``requires_grad=True``) is its own
key and has no node. A closure keeps only the arrays its gradient formula
reads (a saved array), and only for inputs that need a gradient: a
convolution keeps its input for the weight gradient and its weight for the
input gradient, ``mul`` the other operand, ``gelu`` its derivative, ``relu``
a boolean mask, and ``add`` or ``reshape`` no array at all. No node refers
to an op result's Tensor, so an activation no formula reads is freed as soon
as Python drops it, and since leaves have no node the graph holds no
reference cycle: a model and its graphs are freed by reference counting.
:func:`backward` frees the tape as it goes: once a node's closure has run,
the node drops its closure and parents, so saved arrays are freed during
the pass.
"""
from __future__ import annotations

import contextlib
import math
import os
import threading
from typing import Callable, Sequence

import numpy as np

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
    """Immutable-by-convention float64 array; an op result that is recorded
    in the graph holds its node (``_node``), a leaf or constant holds None."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64, order="C")
        if any(n < 1 for n in arr.shape):
            raise ShapeError("tensor", "all", "positive extents", arr.shape)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = requires_grad
        self._node: _Node | None = None

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


class _Node:
    """A recorded op result's place in the graph.

    ``parents`` are the keys (a node, or a leaf Tensor) of the op's inputs
    that need a gradient, in input order. ``backward(g)`` returns one entry
    per input of the op: that input's gradient, or None for an input that
    needs none.
    """

    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple, backward: Callable[[np.ndarray], tuple]):
        self.parents = parents
        self.backward = backward


class _ThreadState(threading.local):
    """Per-thread engine state; the class attributes are each thread's defaults."""

    grad_enabled = True
    cores = 0  # this thread's share of the cores from each(); 0: not in one


_state = _ThreadState()


@contextlib.contextmanager
def no_grad():
    """Scope in which this thread's op results get no node, so they keep
    neither parents nor saved arrays. :func:`each` carries the scope into
    the threads it starts, so their ops record no graph either."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


# the variables the loaded OpenBLAS reads for its thread count, in its order
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cores() -> int:
    """How many threads this thread may keep busy: its share from
    :func:`each`, else one per core that BLAS leaves free.

    The cores are the process's CPU affinity; the BLAS thread count is the
    user's (the variables OpenBLAS reads), else its default of every core,
    so with no variable set this is 1. It is read, never changed: on 2 cores,
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


def each(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, in item order, run side by side in
    groups of at most :func:`cores` items.

    A group's first item runs on the calling thread and the others on
    threads of their own; each gets an even share of this thread's cores (at
    least one) and runs in this thread's ``no_grad`` state and numpy
    ``errstate``. A group's threads are all joined before the next group
    starts, and the first failure in item order is re-raised here with its
    own type. With one core no thread is started.
    """
    width = cores()
    grad_enabled, fp_errors = _state.grad_enabled, np.geterr()
    results: list = [None] * len(items)
    errors: list = [None] * len(items)

    def run(i, share):
        _state.cores, _state.grad_enabled = share, grad_enabled
        try:
            with np.errstate(**fp_errors):
                results[i] = fn(items[i])
        except BaseException as exc:  # re-raised below, in the calling thread
            errors[i] = exc

    prev = _state.cores
    for start in range(0, len(items), width):
        group = range(start, min(start + width, len(items)))
        share = max(1, width // len(group))
        threads = [threading.Thread(target=run, args=(i, share)) for i in group[1:]]
        for t in threads:
            t.start()
        run(start, share)
        _state.cores = prev
        for t in threads:
            t.join()
        for exc in errors[start:group.stop]:
            if exc is not None:
                raise exc
    return results


def _recording(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` gets a node: an op computes arrays that
    only its backward reads only when this holds."""
    return _state.grad_enabled and any(t.requires_grad for t in inputs)


def _result(data: np.ndarray, op: str, inputs: Sequence[Tensor],
            backward: Callable[[np.ndarray], tuple]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _recording(*inputs):
        out._node = _Node(tuple(t if t._node is None else t._node
                                for t in inputs if t.requires_grad), backward)
    out.requires_grad = out._node is not None
    return out


def _cross(a: Tensor, b: Tensor) -> tuple:
    """What a product op's closure keeps: a's array if b needs a gradient
    and b's if a needs one (None otherwise), since each operand's gradient
    reads only the other."""
    return (a.data if b.requires_grad else None,
            b.data if a.requires_grad else None)


def _accum(grads: dict, key, g: np.ndarray) -> None:
    prev = grads.get(key)
    if prev is None:
        grads[key] = g.copy()
    else:
        prev += g


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """The gradient of ``loss`` with respect to every leaf it reaches, by leaf.

    Each node drops its closure and parents once its closure has run, so
    the graph is spent afterwards. Traversal order is a deterministic
    function of graph structure, so two runs over identical graphs produce
    bit-identical gradients.
    """
    if loss.data.size != 1:
        raise ShapeError("backward", "all", "scalar loss", loss.data.shape)
    if not loss.requires_grad:
        return {}
    root = loss if loss._node is None else loss._node
    topo: list[_Node] = []
    seen: set = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        key, processed = stack.pop()
        if processed:
            topo.append(key)
            continue
        if key in seen or isinstance(key, Tensor):  # a leaf has no parents
            continue
        seen.add(key)
        stack.append((key, True))
        for p in reversed(key.parents):
            stack.append((p, False))
    grads: dict = {root: np.ones_like(loss.data)}
    # pop, so a node's saved arrays are freed once its consumers are done
    while topo:
        node = topo.pop()
        g = grads.pop(node, None)
        if g is not None and node.backward is not None:
            given = [gi for gi in node.backward(g) if gi is not None]
            for key, gi in zip(node.parents, given, strict=True):
                _accum(grads, key, gi)
        node.backward, node.parents = None, ()
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
    na, nb, shape = a.requires_grad, b.requires_grad, b.shape

    def back(g):
        return (g if na else None), (_unbroadcast(g, shape) if nb else None)

    return _result(a.data + b.data, "add", (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    b = _operand("sub", a, b)
    na, nb, shape = a.requires_grad, b.requires_grad, b.shape

    def back(g):
        return (g if na else None), (-_unbroadcast(g, shape) if nb else None)

    return _result(a.data - b.data, "sub", (a, b), back)


def mul(a: Tensor, b) -> Tensor:
    b = _operand("mul", a, b)
    ad, bd = _cross(a, b)
    shape = b.shape

    def back(g):
        return (None if bd is None else g * bd,
                None if ad is None else _unbroadcast(g * ad, shape))

    return _result(a.data * b.data, "mul", (a, b), back)


def gated_add(y: Tensor, g, s: Tensor) -> Tensor:
    """y * g + s in one buffer; ``g`` broadcasts into ``y`` as in ``mul``."""
    g = _operand("gated_add", y, g)
    if s.shape != y.shape:
        raise ShapeError("gated_add", "all", y.shape, s.shape)
    yd, gd = _cross(y, g)
    shape, ns = g.shape, s.requires_grad

    def back(G):
        return (None if gd is None else G * gd,
                None if yd is None else _unbroadcast(G * yd, shape),
                G if ns else None)

    out = y.data * g.data
    out += s.data
    return _result(out, "gated_add", (y, g, s), back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join [H,W,C] tensors of one extent along the channel axis."""
    if not tensors:
        raise ShapeError("concat", "all", "non-empty input list", ())
    hw = tensors[0].shape[:2]
    for t in tensors:
        if t.ndim != 3 or t.shape[:2] != hw:
            raise ShapeError("concat", "all", f"[H,W,C] of extent {hw}", t.shape)
    offsets = np.cumsum([0] + [t.shape[2] for t in tensors])
    need = [t.requires_grad for t in tensors]

    def back(g):
        return tuple(g[:, :, offsets[i]:offsets[i + 1]] if n else None
                     for i, n in enumerate(need))

    return _result(np.concatenate([t.data for t in tensors], axis=2),
                   "concat", tensors, back)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    pos = x.data > 0 if _recording(x) else None
    return _result(np.maximum(x.data, 0.0), "relu", (x,), lambda g: (g * pos,))


def leaky_relu(x: Tensor) -> Tensor:
    """Slope 0.2 below zero."""
    pos = x.data > 0 if _recording(x) else None
    return _result(np.maximum(x.data, 0.2 * x.data), "leaky_relu", (x,),
                   lambda g: (g * np.where(pos, 1.0, 0.2),))


def sigmoid(x: Tensor) -> Tensor:
    # split by sign so exp never overflows
    xd = x.data
    s = np.empty_like(xd)
    pos = xd >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    s[~pos] = e / (1.0 + e)
    return _result(s, "sigmoid", (x,), lambda g: (g * s * (1.0 - s),))


def gelu(x: Tensor) -> Tensor:
    # not at import: the event, image and alignment commands never need scipy
    from scipy.special import erf

    xd = x.data
    out = xd / math.sqrt(2.0)
    erf(out, out=out)
    d = None  # the derivative, kept in place of x
    if _recording(x):
        pdf = np.exp(-0.5 * xd ** 2) / math.sqrt(2.0 * math.pi)
        d = 0.5 * (1.0 + out) + xd * pdf
    out += 1.0  # 0.5 * x * (1 + erf(x / sqrt 2)) in the one buffer; halving
    out *= 0.5  # before x is exact here, and x * 2 cannot overflow
    out *= xd
    return _result(out, "gelu", (x,), lambda g: (g * d,))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (channel) axis per instance; eps 1e-6."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("layer_norm", -1, (c,), (gamma.shape, beta.shape))
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = (x.data - mu) * inv
    nx, ng, nb = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gd = gamma.data

    def back(g):
        gx = None
        if nx:
            gg = g * gd
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (gg - m1 - xhat * m2)
        return (gx,
                (g * xhat).reshape(-1, c).sum(axis=0) if ng else None,
                g.reshape(-1, c).sum(axis=0) if nb else None)

    return _result(xhat * gamma.data + beta.data, "layer_norm",
                   (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# reductions, shaping, linear algebra
# ---------------------------------------------------------------------------

def mean(x: Tensor) -> Tensor:
    n, shape = x.data.size, x.shape
    return _result(np.asarray(x.data.mean()), "mean", (x,),
                   lambda g: (np.broadcast_to(g / n, shape).copy(),))


def absolute(x: Tensor) -> Tensor:
    xd = x.data
    return _result(np.abs(xd), "abs", (x,), lambda g: (g * np.sign(xd),))


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise NonFiniteError("sqrt of negative value")
    r = np.sqrt(x.data)
    return _result(r, "sqrt", (x,), lambda g: (g * 0.5 / r,))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError("reshape", "all", x.data.size, shape)
    old = x.shape
    return _result(np.ascontiguousarray(x.data.reshape(shape)), "reshape", (x,),
                   lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError("transpose", "all", f"permutation of {x.ndim} axes", axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    return _result(np.ascontiguousarray(x.data.transpose(axes)), "transpose", (x,),
                   lambda g: (np.ascontiguousarray(g.transpose(inv)),))


def channel_attention(qkv: Tensor, alpha: Tensor, heads: int) -> Tensor:
    """Transposed multi-head attention over the channels of [H,W,3C] ``qkv``.

    Q, K and V are strided views of qkv's three [HW, C] column blocks, and a
    head owns d = C/heads columns of each. Per head, S = QᵀK / alpha[head],
    A = row-softmax(S) (d×d), and the head's output channels are V·Aᵀ.
    """
    h, w, c3 = qkv.shape
    if c3 % 3 or c3 // 3 % heads or alpha.shape != (heads,):
        raise ShapeError("channel_attention", -1, f"3C channels, C divisible by "
                         f"{heads} heads, {heads} alphas", (c3, alpha.shape))
    x, ad = qkv.data.reshape(h * w, 3, heads, c3 // 3 // heads), alpha.data
    out = np.empty((h * w, heads, x.shape[3]))
    saved = []  # per head: its Q, K and V views, QᵀK and A
    for i in range(heads):
        q, k, v = x[:, :, i].swapaxes(0, 1)
        qk = q.T @ k
        s = qk / ad[i]
        a = np.exp(s - s.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        np.matmul(v, a.T, out=out[:, i])
        saved.append((q, k, v, qk, a))
    nx, na = qkv.requires_grad, alpha.requires_grad

    def back(g):
        g = g.reshape(h * w, heads, -1)
        gx, ga = np.empty(x.shape), np.empty(heads)
        for i, (q, k, v, qk, a) in enumerate(saved):
            da = g[:, i].T @ v
            ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
            ga[i] = -(ds * qk).sum() / ad[i] ** 2
            np.matmul(g[:, i], a, out=gx[:, 2, i])
            ds /= ad[i]
            np.matmul(k, ds.T, out=gx[:, 0, i])
            np.matmul(q, ds, out=gx[:, 1, i])
        return (gx.reshape(h, w, c3) if nx else None), (ga if na else None)

    return _result(out.reshape(h, w, c3 // 3), "channel_attention", (qkv, alpha), back)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

# Every conv unfolds and multiplies one band of rows at a time, the
# unfold no larger than this, so the GEMMs read it from cache instead of from
# memory. 2 MiB is one core's L2 on the 2-vCPU Xeon it was measured on (4 MiB
# in all); the size is not tuned: bands of 256 KiB to 4 MiB timed alike there,
# and one band for the whole input was 1.4x slower at 192x256.
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


def _window(a: np.ndarray, p: int, h: int, w: int) -> np.ndarray:
    """[H,W,C] ``a`` moved p rows and columns down-right, zero-filled, cut to [h,w,C]."""
    pads = [(max(p, 0), max(n - m - p, 0)) for n, m in ((h, a.shape[0]), (w, a.shape[1]))]
    a = np.pad(a, pads + [(0, 0)]) if any(map(any, pads)) else a
    return a[max(-p, 0):max(-p, 0) + h, max(-p, 0):max(-p, 0) + w]


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """2-D correlation on [H,W,Cin] with a [k,k,Cin,Cout] kernel, zero-padded
    by (k-1)//2: stride 1 keeps the extent for odd k, stride 2 halves an even one.

    Lowered MEC-style, one cache-sized band of rows at a time (width-only
    unfold, k row-shifted GEMMs; the input gradient is the same lowering of
    the gradient with the flipped kernel). Stride 2 is the sub-pixel identity:
    a ceil(k/2)-tap stride-1 conv on the 2x2 space-to-depth of the padded
    input, the kernel zero-padded to even taps and laid out alike.
    """
    if x.ndim != 3:
        raise ShapeError("conv2d", "all", "[H,W,Cin] input", x.shape)
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError("conv2d", "all", "[k,k,Cin,Cout] weight", w.shape)
    k = w.shape[0]
    p = (k - 1) // 2
    cin, cout = w.shape[2], w.shape[3]
    if x.shape[2] != cin:
        raise ShapeError("conv2d", 2, cin, x.shape[2])
    if b.shape != (cout,):
        raise ShapeError("conv2d", "bias", (cout,), b.shape)
    if stride not in (1, 2):
        raise ShapeError("conv2d", "stride", "1 or 2", stride)
    h, wd = x.shape[0], x.shape[1]
    if h + 2 * p < k or wd + 2 * p < k:
        raise ShapeError("conv2d", 0, f">= kernel {k} after padding", (h, wd))
    hout, wout = ((n + 2 * p - k) // stride + 1 for n in (h, wd))
    j = k if stride == 1 else (k + 1) // 2  # the lowered stride-1 conv's taps
    hl, wl, cl = hout + j - 1, wout + j - 1, cin * stride * stride  # and its input's shape

    def lower(a):
        a = _window(a, p, stride * hl, stride * wl)
        return a if stride == 1 else _k.im2col(a)

    def kernel(a):
        if stride == 1:
            return a
        even = np.zeros((2 * j, 2 * j, cin * cout))  # np.pad takes 10x as long
        even[:k, :k] = a.reshape(k, k, -1)
        return _k.im2col(even).reshape(j, j, cl, cout)

    out = _mec(lower(x.data), kernel(w.data).reshape(j, j * cl, cout))
    out += b.data

    xs, ws = _cross(x, w)
    nb, shape = b.requires_grad, x.shape

    def back(g):
        gmat = g.reshape(-1, cout)
        gx = gw = None
        if xs is not None:
            # re-lay and re-unfold band by band rather than keep either alive
            gw = np.zeros((j, j * cl, cout))
            for h0, r, u in _bands(lower(xs), j):
                gb = gmat[h0 * wout:(h0 + r) * wout]
                for ki in range(j):
                    gw[ki] += u[ki * wout:(ki + r) * wout].T @ gb
            if stride == 2:
                gw = _k.col2im(gw.reshape(j, j, -1))[:k, :k]
            gw = gw.reshape(k, k, cin, cout)
        if ws is not None:
            # full correlation with the flipped kernel
            wf = kernel(ws)[::-1, ::-1].transpose(0, 1, 3, 2).reshape(j, j * cout, cl)
            if stride == 1:  # g padded by k-1-p lands on x's extent directly
                gx = _mec(_window(g, k - 1 - p, h + k - 1, wd + k - 1), wf).reshape(shape)
            else:  # on the lowered input, then back to x's place in it
                gl = _mec(_window(g, j - 1, hl + j - 1, wl + j - 1), wf)
                gx = _window(_k.col2im(gl.reshape(hl, wl, cl)), -p, h, wd)
        return gx, gw, (gmat.sum(axis=0) if nb else None)

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
    pads = ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0))
    out = _k.dwconv_forward(np.pad(x.data, pads), w.data) + b.data

    xs, ws = _cross(x, w)
    nb = b.requires_grad

    def back(g):
        return (None if ws is None else _k.dwconv_grad_input(g, ws),
                None if xs is None else _k.dwconv_grad_weight(np.pad(xs, pads), g),
                g.sum(axis=(0, 1)) if nb else None)

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
    n, shape = x.shape[0] * x.shape[1], x.shape
    return _result(x.data.mean(axis=(0, 1)), "global_avg_pool", (x,),
                   lambda g: (np.broadcast_to(g / n, shape).copy(),))
