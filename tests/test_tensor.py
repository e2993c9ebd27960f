"""Autodiff substrate: op semantics, gradients vs finite differences."""
import contextvars
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from evlight import tensor as T
from evlight.tensor import NonFiniteError, Parameter, ShapeError, Tensor

import helpers
from helpers import fd_gradcheck, max_rel_err, rand_tensor, sum_all, use_cores

_CALLER = contextvars.ContextVar("caller", default="unset")


class TestTensorBasics:
    def test_float64_contiguous(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.nan]))

    def test_parameter_requires_grad(self):
        p = Parameter(np.ones(3))
        assert p.requires_grad


class TestBackwardContract:
    def test_sum_grad_ones(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        assert np.array_equal(T.backward(sum_all(x))[x], np.ones((3, 4)))

    def test_square_grad_2x(self):
        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        assert np.allclose(T.backward(sum_all(T.mul(x, x)))[x], 2 * x.data)

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(T.mul(x, x))

    def test_backward_bit_deterministic(self, rng):
        def run():
            x = Tensor(rng0.standard_normal((6, 6, 4)), requires_grad=True)
            w = Tensor(rng0.standard_normal((3, 3, 4, 4)) * 0.2, requires_grad=True)
            b = Tensor(np.zeros(4), requires_grad=True)
            y = T.conv2d(x, w, b)
            y = T.gelu(y)
            grads = T.backward(T.mean(T.mul(y, y)))
            return grads[x], grads[w]

        rng0 = np.random.default_rng(7)
        g1 = run()
        rng0 = np.random.default_rng(7)
        g2 = run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.full(4, 3.0), requires_grad=True)
        assert np.array_equal(T.backward(sum_all(T.add(x, x)))[x], np.full(4, 2.0))

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self, rng):
        x = Tensor(rng.standard_normal((6, 6, 2)))  # a constant: no gradient
        s = Tensor(rng.standard_normal((6, 6, 1)), requires_grad=True)
        w = Parameter(rng.standard_normal((3, 3, 2, 3)) * 0.3)
        b = Parameter(np.zeros(3))
        y = T.conv2d(T.mul(x, s), w, b)
        z = T.gelu(y)
        loss = T.mean(T.mul(z, z))
        grads = T.backward(loss)
        # exactly the leaves that require grad, each with its own shape
        assert len(grads) == 3 and all(t in grads for t in (s, w, b))
        assert all(g.shape == t.shape for t, g in grads.items())
        for t in (y, z, loss):
            assert t._node.parents == () and t._node.backward is None

    def test_activation_no_gradient_reads_is_freed_while_the_graph_lives(self, rng):
        # add's gradient reads no array, so a conv output that feeds only an
        # add goes as soon as Python drops it, before backward runs
        x = rand_tensor(rng, (8, 10, 2))
        w, b = rand_tensor(rng, (3, 3, 2, 3)), rand_tensor(rng, (3,))
        c = rand_tensor(rng, (8, 10, 3))

        def build():
            y = T.conv2d(x, w, b)
            z = T.add(y, c)
            return y, T.mean(T.mul(z, z))

        want = T.backward(build()[1])
        y, loss = build()
        refs = [weakref.ref(a) for a in (y.data, y.data.base) if a is not None]
        del y
        assert loss.requires_grad and all(r() is None for r in refs)
        got = T.backward(loss)
        assert set(got) == {x, w, b, c}
        assert all(np.array_equal(got[t], want[t]) for t in want)

    def test_no_closure_holds_a_tensor_or_a_node(self, rng):
        # a graph over every op: each node refers to its parents by key
        # only, and each closure holds arrays and shapes, never the graph
        x = rand_tensor(rng, (8, 8, 4))
        w, b = rand_tensor(rng, (3, 3, 4, 4)), rand_tensor(rng, (4,))
        wd, w4 = rand_tensor(rng, (3, 3, 4)), rand_tensor(rng, (4, 4, 4, 4))
        wu, bu = rand_tensor(rng, (2, 2, 4, 2)), rand_tensor(rng, (2,))
        g, be = rand_tensor(rng, (6,)), rand_tensor(rng, (6,))
        w3, b6 = rand_tensor(rng, (3,)), rand_tensor(rng, (6,))
        y = T.dwconv2d(T.conv2d(x, w, b), wd, b)
        y = T.concat([y, T.deconv2d(T.conv2d(y, w4, b, 2), wu, bu)])
        al = Tensor(rng.uniform(0.5, 2.0, 2), requires_grad=True)
        y = T.layer_norm(T.gelu(T.leaky_relu(T.relu(y))), g, be)
        y = T.gated_add(y, T.sigmoid(T.eca_conv(y, w3, b6)), y)
        m = T.channel_attention(y, al, 2)
        loss = T.sqrt(T.add(T.mean(T.absolute(T.sub(T.mul(m, 0.5), 0.3))), 1.0))
        nodes, stack = set(), [loss._node]
        while stack:
            node = stack.pop()
            if node not in nodes:
                nodes.add(node)
                stack.extend(p for p in node.parents if isinstance(p, T._Node))
        assert len(nodes) >= 19
        for node in nodes:
            held = helpers.held_by(node.backward)
            assert not any(isinstance(v, (Tensor, T._Node)) for v in held)
        assert set(T.backward(loss)) == {x, w, b, wd, w4, wu, bu, g, be, w3, b6, al}

    def test_threads_sharing_parameters_get_their_own_gradients(self):
        # more threads than cores, switching often: gradients or a no_grad
        # flag leaking across threads would change a gradient or drop a graph
        rng = np.random.default_rng(5)
        w = Parameter(rng.standard_normal((3, 3, 2, 3)) * 0.3)
        b = Parameter(np.zeros(3))
        xs = [Tensor(rng.standard_normal((8, 8, 2))) for _ in range(6)]

        def loss_of(x):
            return T.mean(T.gelu(T.conv2d(x, w, b)))

        want = [T.backward(loss_of(x)) for x in xs]
        got = [None] * len(xs)

        def work(i):
            for _ in range(5):
                with T.no_grad():
                    assert not loss_of(xs[i]).requires_grad
                got[i] = T.backward(loss_of(xs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, ref in zip(got, want):
            assert g is not None and set(g) == {w, b}
            assert all(np.array_equal(g[p], ref[p]) for p in (w, b))


class TestElementwiseOps:
    def test_add_bias_broadcast(self, rng):
        x = rand_tensor(rng, (5, 4, 3))
        b = rand_tensor(rng, (3,))
        fd_gradcheck(lambda x, b: T.mean(T.mul(T.add(x, b), T.add(x, b))), [x, b])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_sub_mul_neg_grads(self, rng):
        a = rand_tensor(rng, (4, 4))
        b = rand_tensor(rng, (4, 4))
        fd_gradcheck(lambda a, b: T.mean(T.mul(T.sub(a, b), T.mul(b, -1.0))), [a, b])

    def test_scalar_ops(self, rng):
        x = rand_tensor(rng, (3, 3))
        fd_gradcheck(lambda x: T.mean(T.mul(T.add(x, 2.5), 0.7)), [x])

    def test_abs_sqrt(self, rng):
        x = rand_tensor(rng, (4, 5))
        fd_gradcheck(lambda x: T.mean(T.absolute(x)), [x])
        y = Tensor(rng.uniform(0.5, 2.0, (4, 4)), requires_grad=True)
        fd_gradcheck(lambda y: T.mean(T.sqrt(y)), [y])

    def test_sqrt_negative_rejected(self):
        with pytest.raises(NonFiniteError):
            T.sqrt(Tensor(np.array([-1.0])))

    def test_mul_spatial_both_grads(self, rng):
        x = rand_tensor(rng, (4, 5, 3))
        m = rand_tensor(rng, (4, 5, 1))
        fd_gradcheck(lambda x, m: T.mean(T.mul(T.mul(x, m), x)), [x, m])

    def test_mul_spatial_keepdim_mask(self, rng):
        x = rand_tensor(rng, (4, 5, 3))
        m = rand_tensor(rng, (4, 5, 1))
        y = T.mul(x, m)
        assert np.array_equal(y.data, x.data * m.data[:, :, 0][:, :, None])
        gm = T.backward(sum_all(y))[m]
        assert gm.shape == (4, 5, 1)
        assert np.array_equal(gm, x.data.sum(axis=2, keepdims=True))

    def test_mul_channel(self, rng):
        x = rand_tensor(rng, (4, 4, 6))
        a = rand_tensor(rng, (6,))
        fd_gradcheck(lambda x, a: T.mean(T.mul(T.mul(x, a), x)), [x, a])

    def test_div_per_head(self, rng):
        # channel_attention divides each head's QᵀK by that head's alpha
        qkv = rand_tensor(rng, (3, 4, 12), requires_grad=False)
        w = rand_tensor(rng, (3, 4, 4), requires_grad=False)
        for heads in (1, 2):
            alpha = Tensor(rng.uniform(0.5, 2.0, heads), requires_grad=True)
            fd_gradcheck(lambda a, heads=heads: T.mean(T.mul(
                T.channel_attention(qkv, a, heads), w)), [alpha])

    def test_a_heads_gradient_stays_in_its_own_columns(self, rng):
        # a loss on head 0's output channels reaches only head 0's columns
        # of Q, K and V: columns 0:2, 6:8 and 12:14 of [Q | K | V]
        qkv = rand_tensor(rng, (3, 4, 18))
        alpha = Tensor(np.array([0.8, 1.1, 1.5]), requires_grad=True)
        w = np.zeros((3, 4, 6))
        w[:, :, :2] = rng.standard_normal((3, 4, 2))
        grads = T.backward(sum_all(T.mul(T.channel_attention(qkv, alpha, 3), Tensor(w))))
        own = np.zeros(18, dtype=bool)
        own[[0, 1, 6, 7, 12, 13]] = True
        assert np.all(grads[qkv][:, :, ~own] == 0.0)
        assert np.all(np.abs(grads[qkv][:, :, own]).sum(axis=(0, 1)) > 0.0)
        assert grads[alpha][0] != 0.0 and np.all(grads[alpha][1:] == 0.0)

    @pytest.mark.parametrize("gate_shape", [(4, 5, 1), (3,)], ids=["spatial", "channel"])
    def test_gated_add_grads(self, rng, gate_shape):
        y, s = rand_tensor(rng, (4, 5, 3)), rand_tensor(rng, (4, 5, 3))
        g = rand_tensor(rng, gate_shape)
        fd_gradcheck(lambda y, g, s: T.mean(T.mul(T.gated_add(y, g, s), y)), [y, g, s])
        # the same multiply, then the same add
        want = T.add(T.mul(y, g), s).data
        assert T.gated_add(y, g, s).data.tobytes() == want.tobytes()

    def test_gated_add_refuses_a_residual_of_another_shape(self):
        with pytest.raises(ShapeError):
            T.gated_add(Tensor(np.ones((4, 5, 3))), Tensor(np.ones(3)),
                        Tensor(np.ones((4, 5, 1))))

    @pytest.mark.parametrize("op", [
        T.add, T.sub, T.mul,
        pytest.param(lambda a, b: T.gated_add(a, b, a), id="gated_add")])
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((4, 3), (2, 4, 3)),       # b of higher rank
        ((4, 5, 3), (4, 5, 2)),    # an extent neither equal nor 1
        ((4, 5, 3), (4, 5)),       # a [H,W] mask against [H,W,C]: misaligned
        ((4, 1, 3), (4, 5, 3)),    # b wider than a's extent 1
    ])
    def test_broadcast_rule_rejects(self, op, a_shape, b_shape):
        with pytest.raises(ShapeError):
            op(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


class TestActivations:
    def test_relu_leaky_sigmoid_gelu(self, rng):
        for op in (T.relu, T.leaky_relu, T.sigmoid, T.gelu):
            x = rand_tensor(rng, (5, 5))
            # keep points away from relu kinks
            x.data[np.abs(x.data) < 1e-3] = 0.1
            fd_gradcheck(lambda x, op=op: T.mean(T.mul(op(x), op(x))), [x])

    @pytest.mark.parametrize("recording", [False, True])
    def test_leaky_relu_is_bit_identical_to_the_where_formula(self, rng, recording):
        # signed zeros, large magnitudes and subnormals included
        extremes = [0.0, -0.0, 700.0, -700.0, 1e-310, -1e-310]
        data = np.concatenate([rng.standard_normal(1000), extremes])
        x = Tensor(data.copy(), requires_grad=recording)
        want = np.where(data > 0, data, 0.2 * data)
        assert T.leaky_relu(x).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("recording", [False, True])
    def test_gelu_is_bit_identical_to_the_erf_formula(self, rng, recording):
        # computed in one buffer, it halves 1 + erf before multiplying by x
        from scipy.special import erf

        extremes = [0.0, -0.0, 700.0, -700.0, 1e-310, -1e-310, 5e-324, -5e-324,
                    2.2250738585072014e-308, -2.2250738585072014e-308,
                    1.5e308, -1.5e308]
        data = np.concatenate([rng.standard_normal(100_000), extremes])
        want = 0.5 * data * (1.0 + erf(data / np.sqrt(2.0)))
        with np.errstate(over="ignore"):  # the derivative squares 1.5e308
            got = T.gelu(Tensor(data.copy(), requires_grad=recording))
        assert got.requires_grad == recording
        assert got.data.tobytes() == want.tobytes()

    # the attention's row softmax, seen through channel_attention's output
    # (helpers.channel_attention is its einsum oracle)

    def test_softmax_rows_sum_to_one(self, rng):
        # with V all ones, each output channel is a row sum of A
        qkv = rng.standard_normal((4, 7, 12)) * 3.0
        qkv[:, :, 8:] = 1.0
        out = T.channel_attention(Tensor(qkv), Tensor(np.array([0.7, 1.3])), 2)
        assert np.allclose(out.data, 1.0, atol=1e-12)

    def test_softmax_of_zeros_uniform(self, rng):
        # Q = 0 makes S = 0, so A is uniform: each output channel is the
        # mean of its head's V channels
        qkv = rng.standard_normal((2, 5, 12))
        qkv[:, :, :4] = 0.0
        out = T.channel_attention(Tensor(qkv), Tensor(np.ones(2)), 2).data
        v = qkv[:, :, 8:].reshape(2, 5, 2, 2)
        want = np.repeat(v.mean(axis=-1), 2, axis=-1)
        assert np.allclose(out, want, atol=1e-14)

    def test_softmax_grad(self, rng):
        # through the softmax into Q, K and V (test_div_per_head: into alpha)
        w = rand_tensor(rng, (3, 4, 4), requires_grad=False)
        for heads in (1, 2):
            qkv = rand_tensor(rng, (3, 4, 12))
            alpha = Tensor(rng.uniform(0.5, 2.0, heads))
            fd_gradcheck(lambda q, heads=heads, alpha=alpha: T.mean(T.mul(
                T.channel_attention(q, alpha, heads), w)), [qkv])

    def test_attention_nonfinite_result_rejected(self):
        # QᵀK overflows to inf, and its softmax to NaN
        qkv = Tensor(np.full((2, 2, 6), 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            T.channel_attention(qkv, Tensor(np.ones(1)), 1)


class TestLayerNorm:
    def test_normalizes_last_axis(self, rng):
        x = rand_tensor(rng, (6, 5, 8), scale=2.0)
        g = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = T.layer_norm(x, g, b).data
        assert np.all(np.abs(y.mean(axis=-1)) < 1e-10)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_grad_all_inputs(self, rng):
        x = rand_tensor(rng, (3, 4, 6))
        g = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = rand_tensor(rng, (6,))
        w = rand_tensor(rng, (3, 4, 6))
        fd_gradcheck(lambda x, g, b, w: T.mean(T.mul(T.layer_norm(x, g, b), w)),
                     [x, g, b, w])


class TestMatmulAndShaping:
    def test_matmul_batched(self, rng):
        # every head's products against the einsum oracle
        for heads in (1, 2, 4):
            qkv = rng.standard_normal((5, 6, 24))
            alpha = rng.uniform(0.5, 2.0, heads)
            got = T.channel_attention(Tensor(qkv), Tensor(alpha), heads).data
            want = helpers.channel_attention(qkv, alpha, heads)
            assert got.shape == (5, 6, 8)
            assert max_rel_err(got, want) < 1e-13

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):  # 3C channels, C not divisible by heads
            T.channel_attention(Tensor(np.ones((2, 2, 9))), Tensor(np.ones(2)), 2)
        with pytest.raises(ShapeError):  # not 3C channels
            T.channel_attention(Tensor(np.ones((2, 2, 8))), Tensor(np.ones(2)), 2)
        with pytest.raises(ShapeError):  # one temperature per head
            T.channel_attention(Tensor(np.ones((2, 2, 12))), Tensor(np.ones(3)), 2)

    def test_concat_grad(self, rng):
        # [x | y] against [y | x]: each part's gradient comes from its own columns
        x = rand_tensor(rng, (2, 4, 3))
        y = rand_tensor(rng, (2, 4, 2))
        fd_gradcheck(lambda x, y: T.mean(T.mul(T.concat([x, y]), T.concat([y, x]))), [x, y])

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3, 1))), Tensor(np.ones((3, 3, 1)))])
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3, 1))), Tensor(np.ones((2, 3)))])


def _conv_padded_by(x, w, b, padding, rng):
    """conv2d as if it zero-padded x by ``padding`` rather than (k-1)//2.

    x is zero-padded by the excess into a new leaf first, or the output is
    cropped by the shortfall after. Returns the output and the x, w and b
    gradients of sum(output * gy) for a random gy, and gy.
    """
    k = w.shape[0]
    e = max(padding - (k - 1) // 2, 0)
    c = max((k - 1) // 2 - padding, 0)
    xp = Tensor(np.pad(x.data, ((e, e), (e, e), (0, 0))), requires_grad=True)
    y = T.conv2d(xp, w, b)
    hout, wout = y.shape[0] - 2 * c, y.shape[1] - 2 * c
    gy = rng.standard_normal((hout, wout, y.shape[2]))
    g = np.zeros(y.shape)
    g[c:c + hout, c:c + wout] = gy
    grads = T.backward(sum_all(T.mul(y, Tensor(g))))
    h, wd = x.shape[:2]
    return (y.data[c:c + hout, c:c + wout], grads[xp][e:e + h, e:e + wd],
            grads[w], grads[b]), gy


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.array([[[2.0]]]))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        assert T.conv2d(x, w, b).data[0, 0, 0] == 2.0

    def test_ones_count_overlap(self):
        x = Tensor(np.ones((4, 4, 1)))
        w = Tensor(np.ones((3, 3, 1, 1)))
        b = Tensor(np.zeros(1))
        y = T.conv2d(x, w, b)
        assert y.shape == (4, 4, 1)
        assert y.data[1, 1, 0] == 9.0
        assert y.data[0, 0, 0] == 4.0

    def test_same_shape_odd_kernel(self, rng):
        for k in (1, 3, 5):
            x = rand_tensor(rng, (8, 8, 2), requires_grad=False)
            w = rand_tensor(rng, (k, k, 2, 3), requires_grad=False)
            y = T.conv2d(x, w, Tensor(np.zeros(3)))
            assert y.shape == (8, 8, 3)

    def test_grad_vs_fd(self, rng):
        for k in (3, 1, 5):
            x = rand_tensor(rng, (8, 7, 2))
            w = rand_tensor(rng, (k, k, 2, 3), scale=0.3)
            b = rand_tensor(rng, (3,))
            fd_gradcheck(lambda x, w, b: T.mean(
                T.mul(T.conv2d(x, w, b), T.conv2d(x, w, b))), [x, w, b], tol=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("h,wd,cin,cout", [(7, 9, 3, 5), (5, 11, 4, 2)])
    def test_stride1_matches_im2col_reference(self, rng, k, padding, h, wd, cin, cout):
        x = rand_tensor(rng, (h, wd, cin))
        w = rand_tensor(rng, (k, k, cin, cout))
        b = rand_tensor(rng, (cout,))
        out, gy = _conv_padded_by(x, w, b, padding, rng)
        ref = helpers.im2col_conv(x.data, w.data, b.data, padding, gy)
        for got, want in zip(out, ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("h,wd", [(8, 8), (9, 9), (7, 10), (12, 5)])
    def test_stride2_matches_im2col_reference(self, rng, k, h, wd):
        # at 9x9 a 3x3 kernel gives 5x5 where its zero-padded 4x4 one would
        # give 4x4: the lowering is sized by k, not by the padded kernel
        x = rand_tensor(rng, (h, wd, 3))
        w = rand_tensor(rng, (k, k, 3, 4))
        b = rand_tensor(rng, (4,))
        y = T.conv2d(x, w, b, stride=2)
        gy = rng.standard_normal(y.shape)
        grads = T.backward(sum_all(T.mul(y, Tensor(gy))))
        ref = helpers.im2col_conv(x.data, w.data, b.data, (k - 1) // 2, gy, stride=2)
        for got, want in zip((y.data, grads[x], grads[w], grads[b]), ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("band", [1, 4])
    def test_banded_matches_im2col_reference(self, rng, monkeypatch, k, padding, band):
        # odd heights give odd output heights, so 4-row bands end ragged
        h, wd, cin, cout = 13, 9, 3, 4
        # the extent of conv2d's own output, on x padded by the excess
        extra = 2 * max(padding - (k - 1) // 2, 0)
        hout, wout = h + extra, wd + extra
        # room for `band` output rows of the forward unfold, k-1 rows of halo
        monkeypatch.setattr(T, "_BAND_BYTES", (band + k - 1) * wout * k * cin * 8)
        rows = []  # the band heights of each _bands call, forward first
        bands = T._bands

        def spy(xp, kk):
            rows.append([])
            for h0, r, u in bands(xp, kk):
                rows[-1].append(r)
                yield h0, r, u

        monkeypatch.setattr(T, "_bands", spy)
        x = rand_tensor(rng, (h, wd, cin))
        w = rand_tensor(rng, (k, k, cin, cout))
        b = rand_tensor(rng, (cout,))
        out, gy = _conv_padded_by(x, w, b, padding, rng)
        assert rows[0] == [band] * (hout // band) + [hout % band] * (hout % band > 0)
        ref = helpers.im2col_conv(x.data, w.data, b.data, padding, gy)
        for got, want in zip(out, ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("k,padding", [(3, 1), (5, 2)])
    def test_backward_keeps_no_unfold(self, rng, k, padding):
        x = rand_tensor(rng, (16, 40, 8))
        y = T.conv2d(x, rand_tensor(rng, (k, k, 8, 8)), rand_tensor(rng, (8,)))
        held = helpers.held_by(y._node.backward)
        arrays = [v.data if isinstance(v, Tensor) else v for v in held]
        unfold = (16 + 2 * padding) * y.shape[1] * k * 8 * 8  # bytes
        assert max(a.nbytes for a in arrays if isinstance(a, np.ndarray)) < unfold / 2

    @pytest.mark.parametrize("op", ["padded", "stride2", "stride2_4x4", "depthwise", "deconv"])
    def test_backward_holds_only_its_inputs(self, rng, op):
        # no padded copy, space-to-depth or unfold of x, and no rearranged
        # kernel: backward redoes them from x.data and w.data
        x = rand_tensor(rng, (12, 10, 4))
        if op == "depthwise":
            w, b = rand_tensor(rng, (3, 3, 4)), rand_tensor(rng, (4,))
            y = T.dwconv2d(x, w, b)
        elif op == "deconv":
            w, b = rand_tensor(rng, (2, 2, 4, 6)), rand_tensor(rng, (6,))
            y = T.deconv2d(x, w, b)
        else:
            k = 4 if op == "stride2_4x4" else 3
            w, b = rand_tensor(rng, (k, k, 4, 6)), rand_tensor(rng, (6,))
            y = T.conv2d(x, w, b, 1 if op == "padded" else 2)
        held = helpers.held_by(y._node.backward)
        inputs = (x, w, b)
        assert not any(isinstance(v, (Tensor, T._Node)) for v in held)
        for v in held:
            if isinstance(v, np.ndarray):
                assert any(np.shares_memory(v, t.data) for t in inputs)

    def test_stride2_grad(self, rng):
        x = rand_tensor(rng, (8, 8, 2))
        w = rand_tensor(rng, (4, 4, 2, 3), scale=0.3)
        b = rand_tensor(rng, (3,))
        y = T.conv2d(x, w, b, stride=2)
        assert y.shape == (4, 4, 3)
        fd_gradcheck(lambda x, w, b: T.mean(T.conv2d(x, w, b, 2)),
                     [x, w, b], tol=1e-6)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError) as e:
            T.conv2d(Tensor(np.ones((4, 4, 2))), Tensor(np.ones((3, 3, 3, 1))),
                     Tensor(np.zeros(1)))
        assert e.value.axis == 2

    def test_bad_stride(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((3, 3, 1, 1))),
                     Tensor(np.zeros(1)), stride=3)


class TestDeconv2d:
    def test_shape_doubles(self, rng):
        x = rand_tensor(rng, (2, 2, 3), requires_grad=False)
        w = rand_tensor(rng, (2, 2, 3, 4), requires_grad=False)
        y = T.deconv2d(x, w, Tensor(np.zeros(4)))
        assert y.shape == (4, 4, 4)

    def test_exact_scatter(self):
        # kernel placing each input value at the top-left of its 2x2 cell
        x = Tensor(np.arange(4.0).reshape(2, 2, 1))
        w = Tensor(np.zeros((2, 2, 1, 1)))
        w.data[0, 0, 0, 0] = 1.0
        y = T.deconv2d(x, w, Tensor(np.zeros(1))).data[:, :, 0]
        expect = np.zeros((4, 4))
        expect[0, 0], expect[0, 2], expect[2, 0], expect[2, 2] = 0, 1, 2, 3
        assert np.array_equal(y, expect)

    def test_grad_vs_fd(self, rng):
        x = rand_tensor(rng, (3, 3, 2))
        w = rand_tensor(rng, (2, 2, 2, 3), scale=0.4)
        b = rand_tensor(rng, (3,))
        fd_gradcheck(lambda x, w, b: T.mean(
            T.mul(T.deconv2d(x, w, b), T.deconv2d(x, w, b))), [x, w, b], tol=1e-6)

    def test_matches_hand_written_oracle(self, rng):
        for hw in ((5, 7), (1, 1)):
            x = rand_tensor(rng, hw + (6,))
            w = rand_tensor(rng, (2, 2, 6, 4), scale=0.4)
            b = rand_tensor(rng, (4,))
            runs = []
            for op in (T.deconv2d, helpers.deconv2d):
                y = op(x, w, b)
                grads = T.backward(T.mean(T.mul(y, y)))
                runs.append((y.data, grads[x], grads[w], grads[b]))
            (y, *grads), (y_ref, *grads_ref) = runs
            assert np.array_equal(y, y_ref)
            for g, g_ref in zip(grads, grads_ref):
                assert max_rel_err(g, g_ref) <= 1e-12

    def test_forward_is_one_op_and_calls_no_kernel(self, rng, monkeypatch):
        ops = []
        result = T._result
        monkeypatch.setattr(T, "_result", lambda *a: ops.append(a[1]) or result(*a))
        for name in ("im2col", "col2im", "dwconv_forward"):
            monkeypatch.setattr(T._k, name, None)
        y = T.deconv2d(rand_tensor(rng, (3, 5, 2)), rand_tensor(rng, (2, 2, 2, 3)),
                       rand_tensor(rng, (3,)))
        assert ops == ["deconv2d"] and y.shape == (6, 10, 3)

    def test_non_doubling_rejected(self):
        with pytest.raises(ShapeError):
            T.deconv2d(Tensor(np.ones((2, 2, 1))), Tensor(np.ones((3, 3, 1, 1))),
                       Tensor(np.zeros(1)))


class TestPoolingAndDwConv:
    def test_eca_conv_grad(self, rng):
        # the centre tap alone is the spatial mean of each channel
        x = rand_tensor(rng, (5, 4, 3))
        mean = T.eca_conv(x, Tensor(np.array([0.0, 1.0, 0.0])), Tensor(np.zeros(3)))
        assert np.array_equal(mean.data, x.data.mean(axis=(0, 1)))
        w, b = rand_tensor(rng, (3,)), rand_tensor(rng, (3,))
        fd_gradcheck(lambda x, w, b: T.mean(T.mul(T.eca_conv(x, w, b),
                                                  T.eca_conv(x, w, b))), [x, w, b])

    def test_eca_conv_matches_dwconv2d_and_the_conv1d_oracle(self, rng):
        x, w, b = rand_tensor(rng, (5, 7, 6)), rand_tensor(rng, (3,)), rand_tensor(rng, (6,))
        gy = rng.standard_normal(6)
        y = T.eca_conv(x, w, b)
        got = T.backward(sum_all(T.mul(y, Tensor(gy))))
        # bit for bit: the 1x3 dwconv2d on the [1,C,1] view of the means
        p = Tensor(x.data.mean(axis=(0, 1)).reshape(1, 6, 1), requires_grad=True)
        w3 = Tensor(w.data.reshape(1, 3, 1), requires_grad=True)
        z = T.dwconv2d(p, w3, Tensor(np.zeros(1)))
        assert np.array_equal(y.data, z.data.ravel() + b.data)
        ref = T.backward(sum_all(T.mul(z, Tensor(gy.reshape(1, 6, 1)))))
        assert np.array_equal(got[x], np.broadcast_to(ref[p].ravel() / 35, x.shape))
        assert np.array_equal(got[w], ref[w3].ravel()) and np.array_equal(got[b], gy)
        # to rounding: the mean and a tap loop, each with its own backward
        y_ref = T.add(helpers.conv1d_same(helpers.global_avg_pool(x), w), b)
        want = T.backward(sum_all(T.mul(y_ref, Tensor(gy))))
        assert max_rel_err(y.data, y_ref.data) <= 1e-12
        for t in (x, w, b):
            assert max_rel_err(got[t], want[t]) <= 1e-12

    def test_eca_conv_keeps_only_the_padded_means_and_kernel(self, rng):
        y = T.eca_conv(rand_tensor(rng, (6, 5, 4)), rand_tensor(rng, (3,)),
                       rand_tensor(rng, (4,)))
        held = [v for v in helpers.held_by(y._node.backward) if isinstance(v, np.ndarray)]
        assert sorted(a.size for a in held) == [3, 4 + 2]

    @pytest.mark.parametrize("shape,w_shape,b_shape", [
        ((5, 4), (3,), (4,)),        # a 2-D input
        ((5, 4, 3), (5,), (3,)),     # a 5-tap kernel
        ((5, 4, 3), (3,), (4,)),     # a bias of another length
    ])
    def test_eca_conv_shape_errors(self, shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            T.eca_conv(Tensor(np.ones(shape)), Tensor(np.ones(w_shape)),
                       Tensor(np.ones(b_shape)))

    @staticmethod
    def _dwconv_loop(x, w, b):
        kh, kw, c = w.shape
        xp = np.pad(x, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
        out = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                for ch in range(c):
                    out[i, j, ch] = np.sum(
                        xp[i:i + kh, j:j + kw, ch] * w[:, :, ch]) + b[ch]
        return out

    def test_dwconv_matches_loop_oracle(self, rng):
        for kh, kw in ((3, 3), (1, 3), (3, 1)):
            x = rand_tensor(rng, (6, 7, 3), requires_grad=False)
            w = rand_tensor(rng, (kh, kw, 3), requires_grad=False)
            b = rand_tensor(rng, (3,), requires_grad=False)
            y = T.dwconv2d(x, w, b).data
            assert np.allclose(y, self._dwconv_loop(x.data, w.data, b.data),
                               atol=1e-12)

    def test_dwconv_grad(self, rng):
        for kh, kw in ((3, 3), (1, 3), (3, 1)):
            x = rand_tensor(rng, (5, 5, 2))
            w = rand_tensor(rng, (kh, kw, 2), scale=0.4)
            b = rand_tensor(rng, (2,))
            fd_gradcheck(lambda x, w, b: T.mean(
                T.mul(T.dwconv2d(x, w, b), T.dwconv2d(x, w, b))), [x, w, b],
                tol=1e-6)

    def test_dwconv_even_kernel_rejected(self, rng):
        for kh, kw in ((2, 2), (2, 3), (3, 2), (1, 2), (2, 1)):
            with pytest.raises(ShapeError):
                T.dwconv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((kh, kw, 1))),
                           Tensor(np.zeros(1)))

    def test_conv1d_same(self, rng):
        # the oracle eca_conv's taps are held to (test_blocks)
        x = rand_tensor(rng, (8,))
        w = rand_tensor(rng, (3,))
        y = helpers.conv1d_same(x, w).data
        xp = np.pad(x.data, 1)
        expect = np.array([np.dot(w.data, xp[i:i + 3]) for i in range(8)])
        assert np.allclose(y, expect, atol=1e-12)
        fd_gradcheck(lambda x, w: T.mean(T.mul(helpers.conv1d_same(x, w),
                                               helpers.conv1d_same(x, w))), [x, w])


class TestCompositeChain:
    def test_mixed_chain_grad(self, rng):
        x = rand_tensor(rng, (8, 8, 4))
        w = rand_tensor(rng, (3, 3, 4, 4), scale=0.25)
        b = rand_tensor(rng, (4,))
        g = Tensor(np.ones(4), requires_grad=True)
        be = rand_tensor(rng, (4,))
        w3 = rand_tensor(rng, (3,))

        def build(x, w, b, g, be, w3):
            y = T.conv2d(x, w, b)
            y = T.gelu(y)
            y = T.layer_norm(y, g, be)
            y = T.gated_add(y, T.sigmoid(T.eca_conv(y, w3, b)), y)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [x, w, b, g, be, w3], tol=1e-6)


class TestNoGrad:
    def test_restored_after_nesting_and_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert not T.mul(x, 2.0).requires_grad
        assert T.mul(x, 2.0).requires_grad
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        y = T.mul(x, 2.0)
        assert y.requires_grad and y._node.parents == (x,)

    def test_scope_is_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        inside, release = threading.Event(), threading.Event()
        seen = []

        def infer():
            with T.no_grad():
                inside.set()
                release.wait(10)
                seen.append(T.mul(x, 2.0).requires_grad)

        t = threading.Thread(target=infer)
        t.start()
        try:
            assert inside.wait(10)
            y = T.mul(x, 2.0)
        finally:
            release.set()
            t.join(10)
        assert not t.is_alive()
        assert y.requires_grad and y._node.parents == (x,)
        assert seen == [False]

    def test_nonfinite_still_raised(self):
        x = Tensor(np.array([1e308]), requires_grad=True)
        with T.no_grad(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                T.mul(x, 10.0)
        assert T.mul(x, 1.0).requires_grad

    def test_each_carries_no_grad_and_errstate_into_its_threads(self, monkeypatch):
        use_cores(monkeypatch, 2)
        x = Tensor(np.ones(3), requires_grad=True)

        def probe(_):
            return (T.mul(x, 2.0).requires_grad, np.geterr()["over"],
                    threading.get_ident())

        with T.no_grad(), np.errstate(over="ignore"):
            seen = T.each(probe, [0, 1])
        assert [s[:2] for s in seen] == [(False, "ignore")] * 2
        assert seen[0][2] == threading.get_ident() != seen[1][2]
        assert [s[:2] for s in T.each(probe, [0])] == [(True, np.geterr()["over"])]


class TestEach:
    def test_at_most_cores_items_run_at_once_and_results_keep_item_order(
            self, monkeypatch):
        use_cores(monkeypatch, 2)
        lock = threading.Lock()
        running, peak, shares = [0], [0], []

        def work(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                shares.append(T.cores())
            time.sleep(0.05 if i % 2 else 0.1)  # later items finish first
            with lock:
                running[0] -= 1
            return 10 * i

        assert T.each(work, range(5)) == [0, 10, 20, 30, 40]
        assert peak[0] == 2
        # two items share the two cores; the last group's lone item has both
        assert sorted(shares) == [1, 1, 1, 1, 2]

    def test_one_core_starts_no_thread(self, monkeypatch):
        use_cores(monkeypatch, 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("each started a thread on one core")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert T.each(lambda i: (i, threading.get_ident()), range(3)) == \
            [(i, threading.get_ident()) for i in range(3)]

    def test_a_failing_group_stops_the_later_groups(self, monkeypatch):
        use_cores(monkeypatch, 2)
        started = []

        def work(i):
            started.append(i)
            if i < 2:
                raise (KeyError if i == 0 else OSError)(i)
            return i

        # both items of the first group fail: item 0's failure is raised
        with pytest.raises(KeyError):
            T.each(work, range(4))
        assert sorted(started) == [0, 1]

    def test_the_callers_cores_are_restored_after_a_failing_item(self, monkeypatch):
        use_cores(monkeypatch, 2)

        def fail(i):
            assert T.cores() == 1
            raise ValueError(i)

        with pytest.raises(ValueError):
            T.each(fail, [0, 1])
        assert T.cores() == 2 and T._share.get() == 0

    def test_items_run_in_a_copy_of_the_callers_context(self, monkeypatch):
        use_cores(monkeypatch, 2)
        underflows = []

        def item(i):
            seen = _CALLER.get()
            _CALLER.set(f"item {i}")
            np.exp(-1000.0)  # underflows to 0.0: numpy calls the handler
            return seen, threading.get_ident()

        token = _CALLER.set("caller")
        try:
            with np.errstate(under="call",
                             call=lambda err, flag: underflows.append(threading.get_ident())):
                seen = T.each(item, [0, 1])
            assert _CALLER.get() == "caller"  # an item's set stays in its copy
        finally:
            _CALLER.reset(token)
        assert [s[0] for s in seen] == ["caller", "caller"]
        assert seen[0][1] == threading.get_ident() != seen[1][1]
        assert sorted(underflows) == sorted(s[1] for s in seen)


# the BLAS thread count the loaded OpenBLAS reports, through the getter the
# benchmark's blas_threads() finds, beside cores() and the affinity
_CORES_PROBE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from workloads import blas_threads
from evlight.tensor import cores
print(blas_threads(), cores(), len(os.sched_getaffinity(0)))
"""


@pytest.mark.parametrize("env", [
    {"MKL_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"},
    {},
])
def test_cores_reads_the_thread_count_openblas_reads(env):
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    clean = {k: v for k, v in os.environ.items()
             if k not in (*T._BLAS_VARS, "MKL_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", _CORES_PROBE, bench],
                         env={**clean, **env}, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    blas, cores, affinity = out
    if blas == "None":
        pytest.skip("the loaded OpenBLAS reports no thread count")
    assert int(cores) == max(1, int(affinity) // int(blas))
