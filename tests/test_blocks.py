"""Neural blocks: identities, masking partition, gradients, shapes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlight import tensor as T
from evlight.blocks import (ChannelAttention, EcaResidual, Hfe, Hrf,
                            RegionalSelect)
from evlight.tensor import ShapeError, Tensor

from helpers import conv1d_same, fd_gradcheck, max_rel_err, rand_tensor


def _randomize(module, rng, scale=0.3):
    for p in module.parameters():
        p.data = rng.standard_normal(p.data.shape) * scale
    return module


class TestEcaResidual:
    def test_zero_weights_identity(self, rng):
        blk = EcaResidual(rng, 4)
        for p in blk.parameters():
            p.data = np.zeros_like(p.data)
        x = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        y = blk.forward(x)
        assert np.array_equal(y.data, x.data)

    def test_gate_forced_to_one_plain_residual(self, rng):
        blk = _randomize(EcaResidual(rng, 4), rng)
        blk.eca_weight.data = np.zeros(3)
        blk.eca_bias.data = np.full(4, 40.0)  # sigmoid(40) rounds to 1.0
        x = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        y = blk.forward(x)
        h = blk.conv2.forward(T.leaky_relu(blk.conv1.forward(x)))
        assert np.array_equal(y.data, x.data + h.data)

    def test_gradcheck(self, rng):
        blk = _randomize(EcaResidual(rng, 4), rng)
        x = rand_tensor(rng, (8, 8, 4))

        def build(*_):
            y = blk.forward(x)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [x] + blk.parameters())

    def test_gate_matches_conv1d_same_oracle(self, rng):
        blk = _randomize(EcaResidual(rng, 6), rng)
        x = rand_tensor(rng, (5, 7, 6))

        def reference(x):
            h = blk.conv2.forward(T.leaky_relu(blk.conv1.forward(x)))
            gate = T.sigmoid(T.add(conv1d_same(T.global_avg_pool(h), blk.eca_weight),
                                   blk.eca_bias))
            return T.add(x, T.mul(h, gate))

        leaves = [x] + blk.parameters()
        runs = []
        for fwd in (blk.forward, reference):
            y = fwd(x)
            grads = T.backward(T.mean(T.mul(y, y)))
            runs.append((y.data, [grads[t] for t in leaves]))
        (y, grads), (y_ref, grads_ref) = runs
        assert np.array_equal(y, y_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert max_rel_err(g, g_ref) <= 1e-12


class TestRegionalSelect:
    def _mask(self, rng, shape):
        return (rng.uniform(0, 1, shape) > 0.5).astype(np.float64)

    def test_irfs_all_ones_passthrough(self, rng):
        blk = _randomize(RegionalSelect(rng, 4), rng)
        f = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        out = blk.forward(f, np.ones((6, 6)))
        assert np.array_equal(out.data, blk.refined(f).data)

    def test_irfs_all_zeros_blank(self, rng):
        blk = _randomize(RegionalSelect(rng, 4), rng)
        f = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        assert np.all(blk.forward(f, np.zeros((6, 6))).data == 0.0)

    def test_erfs_mask_inverted(self, rng):
        blk = _randomize(RegionalSelect(rng, 4, invert=True), rng)
        f = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        assert np.all(blk.forward(f, np.ones((6, 6))).data == 0.0)
        out = blk.forward(f, np.zeros((6, 6)))
        assert np.array_equal(out.data, blk.refined(f).data)

    def test_masking_bit_zero_partition(self, rng):
        irfs = _randomize(RegionalSelect(rng, 4), rng)
        f = rand_tensor(rng, (8, 8, 4), requires_grad=False)
        m = self._mask(rng, (8, 8))
        out = irfs.forward(f, m).data
        assert np.all(out[m == 0.0] == 0.0)
        erfs_out = RegionalSelect.forward(
            _randomize(RegionalSelect(rng, 4, invert=True), rng), f, m).data
        assert np.all(erfs_out[m == 1.0] == 0.0)

    def test_tied_weights_reconstruct_refined(self, rng):
        irfs = _randomize(RegionalSelect(rng, 4), rng)
        erfs = RegionalSelect.__new__(RegionalSelect)
        erfs.res1 = irfs.res1
        erfs.res2 = irfs.res2
        erfs.invert = True
        f = rand_tensor(rng, (8, 8, 4), requires_grad=False)
        m = self._mask(rng, (8, 8))
        total = irfs.forward(f, m).data + erfs.forward(f, m).data
        assert np.array_equal(total, irfs.refined(f).data)

    def test_extent_mismatch(self, rng):
        blk = RegionalSelect(rng, 4)
        with pytest.raises(ShapeError):
            blk.forward(rand_tensor(rng, (6, 6, 4)), np.ones((5, 6)))

    def test_gradcheck(self, rng):
        blk = _randomize(RegionalSelect(rng, 2), rng)
        f = rand_tensor(rng, (6, 6, 2))
        m = self._mask(rng, (6, 6))

        def build(*_):
            y = blk.forward(f, m)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [f] + blk.parameters())


class TestHfe:
    def test_shape_preserved(self, rng):
        blk = Hfe(rng, 4, heads=2)
        for hw in ((4, 8), (6, 6), (12, 4)):
            x = rand_tensor(rng, (*hw, 4), requires_grad=False)
            assert blk.forward(x).shape == (*hw, 4)

    def test_attention_rows_sum_to_one(self, rng, monkeypatch):
        # the block's own qkv and temperatures, with V set to ones: each
        # output channel is then a row sum of a head's attention matrix
        attn = _randomize(ChannelAttention(rng, 4, 2), rng)
        attn.alpha.data = np.abs(attn.alpha.data) + 0.5
        captured = []
        orig = T.channel_attention

        def spy(qkv, alpha, heads):
            ones_v = qkv.data.copy()
            ones_v[:, :, 8:] = 1.0
            captured.append(orig(T.Tensor(ones_v), alpha, heads).data)
            return orig(qkv, alpha, heads)

        monkeypatch.setattr(T, "channel_attention", spy)
        attn.forward(rand_tensor(rng, (5, 5, 4), requires_grad=False))
        assert len(captured) == 1
        assert captured[0].shape == (5, 5, 4)
        assert np.allclose(captured[0], 1.0, atol=1e-12)

    def test_zeroed_projections_reduce_to_identity(self, rng):
        blk = _randomize(Hfe(rng, 4, heads=2), rng)
        blk.attn.proj.weight.data = np.zeros_like(blk.attn.proj.weight.data)
        blk.attn.proj.bias.data = np.zeros(4)
        blk.ffn.project.weight.data = np.zeros_like(blk.ffn.project.weight.data)
        blk.ffn.project.bias.data = np.zeros(4)
        x = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        assert np.array_equal(blk.forward(x).data, x.data)

    def test_head_divisibility(self, rng):
        with pytest.raises(ShapeError):
            Hfe(rng, 5, heads=2)

    def test_gradcheck(self, rng):
        blk = _randomize(Hfe(rng, 4, heads=2), rng, scale=0.25)
        blk.attn.alpha.data = np.array([1.0, 1.3])  # keep temperatures away from 0
        x = rand_tensor(rng, (8, 8, 4), scale=0.4)

        def build(*_):
            y = blk.forward(x)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [x] + blk.parameters())


class TestHrf:
    def test_gate_saturation(self, rng):
        blk = _randomize(Hrf(rng, 4), rng)
        blk.f1.weight.data = np.zeros_like(blk.f1.weight.data)
        blk.f1.bias.data = np.full(1, 40.0)  # sigmoid(40) rounds to 1.0
        a = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        b = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        c = rand_tensor(rng, (6, 6, 4), requires_grad=False)
        out = blk.forward(a, b, c).data
        cat = T.concat([a, b, c])
        expect = blk.f3.forward(T.add(blk.f2.forward(cat), cat)).data
        assert np.array_equal(out, expect)

    def test_all_zero_inputs_zero_biases(self, rng):
        blk = _randomize(Hrf(rng, 4), rng)
        for conv in (blk.f1, blk.f2, blk.f3):
            conv.bias.data = np.zeros_like(conv.bias.data)
        z = Tensor(np.zeros((6, 6, 4)))
        assert np.all(blk.forward(z, z, z).data == 0.0)

    def test_extent_mismatch(self, rng):
        blk = Hrf(rng, 4)
        with pytest.raises(ShapeError):
            blk.forward(rand_tensor(rng, (6, 6, 4)), rand_tensor(rng, (6, 6, 4)),
                        rand_tensor(rng, (4, 6, 4)))

    def test_gradcheck(self, rng):
        blk = _randomize(Hrf(rng, 2), rng)
        a = rand_tensor(rng, (6, 8, 2))
        b = rand_tensor(rng, (6, 8, 2))
        c = rand_tensor(rng, (6, 8, 2))

        def build(*_):
            y = blk.forward(a, b, c)
            return T.mean(T.mul(y, y))

        fd_gradcheck(build, [a, b, c] + blk.parameters())


class TestShapeProperty:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 4]))
    def test_blocks_preserve_shape(self, hq, wq, c):
        h, w = 4 * hq, 4 * wq
        rng = np.random.default_rng(hq * 100 + wq * 10 + c)
        x = Tensor(rng.standard_normal((h, w, c)) * 0.3)
        m = (rng.uniform(0, 1, (h, w)) > 0.5).astype(float)
        assert EcaResidual(rng, c).forward(x).shape == (h, w, c)
        assert RegionalSelect(rng, c).forward(x, m).shape == (h, w, c)
        assert Hfe(rng, c, heads=2).forward(x).shape == (h, w, c)
        assert Hrf(rng, c).forward(x, x, x).shape == (h, w, c)
