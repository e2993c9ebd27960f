"""Neural building blocks for the fusion network.

EcaResidual: residual conv pair gated by efficient channel attention.
RegionalSelect: the image/event regional feature selectors; both run two
EcaResidual blocks and then multiply by the binary SNR mask (image side)
or its complement (event side).
Hfe: holistic feature extraction via transposed (channel-wise) multi-head
self-attention plus a gated feed-forward refinement.
Hrf: holistic-regional fusion driven by a single-channel spatial
attention map over the concatenated features.

Every residual branch ends in a zero-initialized conv, so each block is
the identity at init: feature scale cannot compound through the skips,
and the network's zero-initialized output head sees input-scale features
it can grow against instead of accumulated residual noise.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .module import Conv2d, DwConv2d, LayerNorm, Module
from .tensor import Parameter, ShapeError


class EcaResidual(Module):
    """x + ECA(conv3x3(leaky_relu(conv3x3(x)))) with a per-channel gate."""

    def __init__(self, rng: np.random.Generator, c: int):
        self.conv1 = Conv2d(rng, 3, c, c)
        self.conv2 = Conv2d(rng, 3, c, c, zero_init=True)
        self.eca_weight = Parameter(np.zeros(3))  # ECA's 1-D kernel over channels
        self.eca_bias = Parameter(np.zeros(c))

    def forward(self, x: T.Tensor) -> T.Tensor:
        h = self.conv2.forward(T.leaky_relu(self.conv1.forward(x)))
        # ECA's 1-D conv over the pooled channels, as a 1x3 depthwise conv
        # on the [1,C,1] view
        c = h.shape[2]
        pooled = T.reshape(T.global_avg_pool(h), (1, c, 1))
        mixed = T.dwconv2d(pooled, T.reshape(self.eca_weight, (1, 3, 1)),
                           T.Tensor(np.zeros(1)))
        gate = T.sigmoid(T.add(T.reshape(mixed, (c,)), self.eca_bias))
        return T.add(x, T.mul(h, gate))


class RegionalSelect(Module):
    """Two ECA residual blocks, then a hard spatial mask.

    ``invert=False`` keeps high-SNR regions (image features); ``invert=True``
    keeps the complement (event features).
    """

    def __init__(self, rng: np.random.Generator, c: int, invert: bool = False):
        self.res1 = EcaResidual(rng, c)
        self.res2 = EcaResidual(rng, c)
        self.invert = invert

    def refined(self, f: T.Tensor) -> T.Tensor:
        return self.res2.forward(self.res1.forward(f))

    def forward(self, f: T.Tensor, m_binary: np.ndarray) -> T.Tensor:
        mask = 1.0 - m_binary if self.invert else m_binary
        return T.mul(self.refined(f), T.Tensor(mask[:, :, None]))


class ChannelAttention(Module):
    """Transposed multi-head self-attention over the channel axis.

    Q, K, V come from a pointwise conv followed by a depthwise conv3x3;
    each head forms a (c/heads)^2 attention matrix softmax(Q K^T / alpha)
    with a learnable positive temperature per head.
    """

    def __init__(self, rng: np.random.Generator, c: int, heads: int):
        if c % heads:
            raise ShapeError("channel_attention", "channels",
                             f"divisible by {heads} heads", c)
        self.heads = heads
        self.qkv = Conv2d(rng, 1, c, 3 * c)
        self.qkv_dw = DwConv2d(rng, 3, 3 * c)
        self.alpha = Parameter(np.ones(heads))
        self.proj = Conv2d(rng, 1, c, c, zero_init=True)

    def forward(self, x: T.Tensor) -> T.Tensor:
        h, w, c = x.shape
        d = c // self.heads
        qkv = self.qkv_dw.forward(self.qkv.forward(x))
        flat = T.transpose(T.reshape(qkv, (h * w, 3 * c)), (1, 0))
        q = T.reshape(T.slice_rows(flat, 0, c), (self.heads, d, h * w))
        k = T.reshape(T.slice_rows(flat, c, 2 * c), (self.heads, d, h * w))
        v = T.reshape(T.slice_rows(flat, 2 * c, 3 * c), (self.heads, d, h * w))
        att = T.matmul(q, T.transpose(k, (0, 2, 1)))
        temp = T.reshape(self.alpha, (self.heads, 1, 1))
        att = T.softmax(T.div(att, temp))
        out = T.matmul(att, v)
        out = T.reshape(T.transpose(T.reshape(out, (c, h * w)), (1, 0)), (h, w, c))
        return self.proj.forward(out)


class FeedForward(Module):
    """Pointwise expand-by-2, gelu, pointwise project back."""

    def __init__(self, rng: np.random.Generator, c: int):
        # gelu's scipy.special (~17 MiB) loads here, not in the first forward
        # where it would land among the activations and raise the peak
        import scipy.special  # noqa: F401

        self.expand = Conv2d(rng, 1, c, 2 * c)
        self.project = Conv2d(rng, 1, 2 * c, c, zero_init=True)

    def forward(self, x: T.Tensor) -> T.Tensor:
        return self.project.forward(T.gelu(self.expand.forward(x)))


class Hfe(Module):
    """mid = Attention(f) + f; out = FFN(LN(mid)) + mid."""

    def __init__(self, rng: np.random.Generator, c: int, heads: int = 2):
        self.attn = ChannelAttention(rng, c, heads)
        self.norm = LayerNorm(c)
        self.ffn = FeedForward(rng, c)

    def forward(self, x: T.Tensor) -> T.Tensor:
        mid = T.add(self.attn.forward(x), x)
        return T.add(self.ffn.forward(self.norm.forward(mid)), mid)


class Hrf(Module):
    """F3(sigmoid(F1(cat)) * F2(cat) + cat) over the concatenated inputs."""

    def __init__(self, rng: np.random.Generator, c: int):
        self.f1 = Conv2d(rng, 3, 3 * c, 1)
        self.f2 = Conv2d(rng, 3, 3 * c, 3 * c)
        self.f3 = Conv2d(rng, 3, 3 * c, c)

    def forward(self, sel_img: T.Tensor, sel_ev: T.Tensor,
                holistic: T.Tensor) -> T.Tensor:
        cat = T.concat([sel_img, sel_ev, holistic])
        gate = T.sigmoid(self.f1.forward(cat))
        gated = T.mul(self.f2.forward(cat), gate)
        return self.f3.forward(T.add(gated, cat))
