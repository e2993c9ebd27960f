"""Autodiff substrate: op semantics, gradients vs finite differences."""
import numpy as np
import pytest

from evlight import _kernels as _k
from evlight import tensor as T
from evlight.tensor import NonFiniteError, Parameter, ShapeError, Tensor

from helpers import fd_gradcheck, rand_tensor


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
        p = Parameter(np.ones(3), name="w")
        assert p.requires_grad and p.name == "w"

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad


class TestBackwardContract:
    def test_sum_grad_ones(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        T.backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_square_grad_2x(self):
        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(T.mul(x, x))

    def test_backward_bit_deterministic(self, rng):
        def run():
            x = Tensor(rng0.standard_normal((6, 6, 4)), requires_grad=True)
            w = Tensor(rng0.standard_normal((3, 3, 4, 4)) * 0.2, requires_grad=True)
            b = Tensor(np.zeros(4), requires_grad=True)
            y = T.conv2d(x, w, b, 1, 1)
            y = T.gelu(y)
            T.backward(T.mean(T.mul(y, y)))
            return x.grad.copy(), w.grad.copy()

        rng0 = np.random.default_rng(7)
        g1 = run()
        rng0 = np.random.default_rng(7)
        g2 = run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.full(4, 3.0), requires_grad=True)
        T.backward(T.tsum(T.add(x, x)))
        assert np.array_equal(x.grad, np.full(4, 2.0))


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
        fd_gradcheck(lambda a, b: T.mean(T.mul(T.sub(a, b), T.neg(b))), [a, b])

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
        m = rand_tensor(rng, (4, 5))
        fd_gradcheck(lambda x, m: T.mean(T.mul_spatial(x, m)), [x, m])

    def test_mul_spatial_keepdim_mask(self, rng):
        x = rand_tensor(rng, (4, 5, 3))
        m = rand_tensor(rng, (4, 5, 1))
        fd_gradcheck(lambda x, m: T.mean(T.mul_spatial(x, m)), [x, m])

    def test_mul_channel(self, rng):
        x = rand_tensor(rng, (4, 4, 6))
        a = rand_tensor(rng, (6,))
        fd_gradcheck(lambda x, a: T.mean(T.mul_channel(x, a)), [x, a])

    def test_div_per_head(self, rng):
        x = rand_tensor(rng, (2, 3, 3))
        alpha = Tensor(rng.uniform(0.5, 2.0, 2), requires_grad=True)
        fd_gradcheck(lambda x, a: T.mean(T.div_per_head(x, a)), [x, alpha])


class TestActivations:
    def test_relu_leaky_sigmoid_gelu(self, rng):
        for op in (T.relu, lambda t: T.leaky_relu(t, 0.2), T.sigmoid, T.gelu):
            x = rand_tensor(rng, (5, 5))
            # keep points away from relu kinks
            x.data[np.abs(x.data) < 1e-3] = 0.1
            fd_gradcheck(lambda x, op=op: T.mean(T.mul(op(x), op(x))), [x])

    def test_softmax_rows_sum_to_one(self, rng):
        x = rand_tensor(rng, (4, 7))
        s = T.softmax(x, axis=1)
        assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_of_zeros_uniform(self):
        s = T.softmax(Tensor(np.zeros((2, 5))), axis=-1)
        assert np.allclose(s.data, 0.2)

    def test_softmax_grad(self, rng):
        x = rand_tensor(rng, (3, 4, 4))
        w = rand_tensor(rng, (3, 4, 4))
        fd_gradcheck(lambda x, w: T.mean(T.mul(T.softmax(x, -1), w)), [x, w])

    def test_softmax_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.ones((2, 2))), axis=2)


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
    def test_matmul_2d_3d(self, rng):
        a = rand_tensor(rng, (4, 5))
        b = rand_tensor(rng, (5, 3))
        fd_gradcheck(lambda a, b: T.mean(T.matmul(a, b)), [a, b])
        a3 = rand_tensor(rng, (2, 3, 4))
        b3 = rand_tensor(rng, (2, 4, 5))
        fd_gradcheck(lambda a, b: T.mean(T.matmul(a, b)), [a3, b3])

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_reshape_transpose_concat(self, rng):
        x = rand_tensor(rng, (4, 6))
        y = rand_tensor(rng, (4, 6))

        def build(x, y):
            c = T.concat([x, y], axis=1)
            r = T.reshape(c, (4, 3, 4))
            return T.mean(T.mul(T.transpose(r, (2, 0, 1)), T.transpose(r, (2, 0, 1))))

        fd_gradcheck(build, [x, y])

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)


def _im2col_conv_reference(x, w, b, padding, gy):
    """Stride-1 conv via im2col + GEMM; input gradient via col2im.

    Returns (output, x-grad, w-grad, b-grad) for the loss sum(output * gy).
    """
    k, _, cin, cout = w.shape
    h, wd = x.shape[:2]
    hp, wp = h + 2 * padding, wd + 2 * padding
    hout, wout = hp - k + 1, wp - k + 1
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    cols = _k.im2col(xp, k, 1, hout, wout)
    wmat = w.reshape(k * k * cin, cout)
    gmat = gy.reshape(-1, cout)
    gxp = _k.col2im(np.ascontiguousarray(gmat @ wmat.T), k, 1, hp, wp, cin,
                    hout, wout)
    return ((cols @ wmat + b).reshape(hout, wout, cout),
            gxp[padding:padding + h, padding:padding + wd],
            (cols.T @ gmat).reshape(w.shape), gmat.sum(axis=0))


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
        y = T.conv2d(x, w, b, stride=1, padding=1)
        assert y.shape == (4, 4, 1)
        assert y.data[1, 1, 0] == 9.0
        assert y.data[0, 0, 0] == 4.0

    def test_same_shape_odd_kernel(self, rng):
        for k in (1, 3, 5):
            x = rand_tensor(rng, (8, 8, 2), requires_grad=False)
            w = rand_tensor(rng, (k, k, 2, 3), requires_grad=False)
            y = T.conv2d(x, w, Tensor(np.zeros(3)), 1, (k - 1) // 2)
            assert y.shape == (8, 8, 3)

    def test_grad_vs_fd(self, rng):
        # padding 1 on a 1x1 kernel crops the gradient instead of padding it
        for k, padding in ((3, 1), (1, 0), (1, 1), (3, 0), (5, 2)):
            x = rand_tensor(rng, (8, 7, 2))
            w = rand_tensor(rng, (k, k, 2, 3), scale=0.3)
            b = rand_tensor(rng, (3,))
            fd_gradcheck(lambda x, w, b: T.mean(
                T.mul(T.conv2d(x, w, b, 1, padding), T.conv2d(x, w, b, 1, padding))),
                [x, w, b], tol=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("h,wd,cin,cout", [(7, 9, 3, 5), (5, 11, 4, 2)])
    def test_stride1_matches_im2col_reference(self, rng, k, padding, h, wd, cin, cout):
        x = rand_tensor(rng, (h, wd, cin))
        w = rand_tensor(rng, (k, k, cin, cout))
        b = rand_tensor(rng, (cout,))
        y = T.conv2d(x, w, b, 1, padding)
        gy = rng.standard_normal(y.shape)
        T.backward(T.tsum(T.mul(y, Tensor(gy))))
        ref = _im2col_conv_reference(x.data, w.data, b.data, padding, gy)
        for got, want in zip((y.data, x.grad, w.grad, b.grad), ref):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stride2_grad(self, rng):
        x = rand_tensor(rng, (8, 8, 2))
        w = rand_tensor(rng, (4, 4, 2, 3), scale=0.3)
        b = rand_tensor(rng, (3,))
        y = T.conv2d(x, w, b, stride=2, padding=1)
        assert y.shape == (4, 4, 3)
        fd_gradcheck(lambda x, w, b: T.mean(T.conv2d(x, w, b, 2, 1)),
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

    def test_non_doubling_rejected(self):
        with pytest.raises(ShapeError):
            T.deconv2d(Tensor(np.ones((2, 2, 1))), Tensor(np.ones((3, 3, 1, 1))),
                       Tensor(np.zeros(1)))


class TestPoolingAndDwConv:
    def test_avg_pool_constant(self):
        y = T.avg_pool2(Tensor(np.full((4, 6, 2), 3.5)))
        assert y.shape == (2, 3, 2)
        assert np.all(y.data == 3.5)

    def test_avg_pool_block_mean(self):
        x = np.zeros((2, 2, 1))
        x[:, :, 0] = [[0, 1], [2, 3]]
        assert T.avg_pool2(Tensor(x)).data[0, 0, 0] == 1.5

    def test_avg_pool_grad_quarter(self, rng):
        x = rand_tensor(rng, (4, 4, 2))
        T.backward(T.tsum(T.avg_pool2(x)))
        assert np.allclose(x.grad, 0.25)
        fd_gradcheck(lambda x: T.mean(T.mul(T.avg_pool2(x), T.avg_pool2(x))), [x])

    def test_avg_pool_odd_rejected(self):
        with pytest.raises(ShapeError):
            T.avg_pool2(Tensor(np.ones((3, 4, 1))))

    def test_global_avg_pool(self, rng):
        x = rand_tensor(rng, (5, 4, 3))
        assert np.allclose(T.global_avg_pool(x).data, x.data.mean(axis=(0, 1)))
        fd_gradcheck(lambda x: T.mean(T.mul(T.global_avg_pool(x),
                                            T.global_avg_pool(x))), [x])

    def test_dwconv_matches_loop_oracle(self, rng):
        x = rand_tensor(rng, (6, 7, 3), requires_grad=False)
        w = rand_tensor(rng, (3, 3, 3), requires_grad=False)
        b = rand_tensor(rng, (3,), requires_grad=False)
        y = T.dwconv2d(x, w, b).data
        xp = np.pad(x.data, ((1, 1), (1, 1), (0, 0)))
        expect = np.zeros_like(y)
        for i in range(6):
            for j in range(7):
                for c in range(3):
                    expect[i, j, c] = np.sum(
                        xp[i:i + 3, j:j + 3, c] * w.data[:, :, c]) + b.data[c]
        assert np.allclose(y, expect, atol=1e-12)

    def test_dwconv_grad(self, rng):
        x = rand_tensor(rng, (5, 5, 2))
        w = rand_tensor(rng, (3, 3, 2), scale=0.4)
        b = rand_tensor(rng, (2,))
        fd_gradcheck(lambda x, w, b: T.mean(
            T.mul(T.dwconv2d(x, w, b), T.dwconv2d(x, w, b))), [x, w, b], tol=1e-6)

    def test_dwconv_even_kernel_rejected(self, rng):
        with pytest.raises(ShapeError):
            T.dwconv2d(Tensor(np.ones((4, 4, 1))), Tensor(np.ones((2, 2, 1))),
                       Tensor(np.zeros(1)))

    def test_conv1d_same(self, rng):
        x = rand_tensor(rng, (8,))
        w = rand_tensor(rng, (3,))
        y = T.conv1d_same(x, w).data
        xp = np.pad(x.data, 1)
        expect = np.array([np.dot(w.data, xp[i:i + 3]) for i in range(8)])
        assert np.allclose(y, expect, atol=1e-12)
        fd_gradcheck(lambda x, w: T.mean(T.mul(T.conv1d_same(x, w),
                                               T.conv1d_same(x, w))), [x, w])


class TestCompositeChain:
    def test_mixed_chain_grad(self, rng):
        x = rand_tensor(rng, (8, 8, 4))
        w = rand_tensor(rng, (3, 3, 4, 4), scale=0.25)
        b = rand_tensor(rng, (4,))
        g = Tensor(np.ones(4), requires_grad=True)
        be = rand_tensor(rng, (4,))

        def build(x, w, b, g, be):
            y = T.conv2d(x, w, b, 1, 1)
            y = T.gelu(y)
            y = T.layer_norm(y, g, be)
            y = T.avg_pool2(y)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [x, w, b, g, be], tol=1e-6)


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
        assert y.requires_grad and y._parents == (x,)

    def test_nonfinite_still_raised(self):
        x = Tensor(np.array([1e308]), requires_grad=True)
        with T.no_grad(), np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                T.mul(x, 10.0)
        assert T.mul(x, 1.0).requires_grad
