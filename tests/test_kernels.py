"""The depthwise and voxel kernels against the loops and masks they replaced:
bit for bit (compared as uint64, so -0.0 differs from 0.0), except the
one-channel depthwise case, which may move by one rounding; and the 2x2
space-to-depth against its inverse and adjoint."""
import numpy as np
import pytest

from evlight import _kernels as _k
from evlight.events import EventStream, voxelize

from helpers import (dwconv_forward_loop, dwconv_grad_input_loop,
                     dwconv_grad_weight_loop, voxel_deposit_masked)

KERNELS = ((1, 3), (3, 1), (3, 3), (5, 5))
# odd and even extents, one-pixel-wide ones, and extents below the kernel's
EXTENTS = ((7, 5), (6, 9), (1, 11), (9, 1), (2, 3))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _operands(rng, h, w, c, kh, kw, zeros):
    """A padded input, a kernel and an output gradient; with ``zeros`` a
    third of each is exact zeros of either sign."""
    x, wt, g = (rng.standard_normal(s) for s in ((h, w, c), (kh, kw, c), (h, w, c)))
    if zeros:
        for a in (x, wt, g):
            hit = rng.random(a.shape) < 0.3
            a[hit] = rng.choice([0.0, -0.0], int(hit.sum()))
    xp = np.pad(x, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    return xp, wt, g


def _both(xp, wt, g):
    """(kernel, oracle) pairs for the forward and both gradients."""
    return [(_k.dwconv_forward(xp, wt), dwconv_forward_loop(xp, wt)),
            (_k.dwconv_grad_weight(xp, g), dwconv_grad_weight_loop(xp, g)),
            (_k.dwconv_grad_input(g, wt), dwconv_grad_input_loop(g, wt))]


@pytest.mark.parametrize("kh,kw", KERNELS)
@pytest.mark.parametrize("zeros", [False, True])
def test_dwconv_kernels_match_tap_loops_bitwise(rng, kh, kw, zeros):
    for h, w in EXTENTS:
        for c in (2, 3, 5):
            for got, want in _both(*_operands(rng, h, w, c, kh, kw, zeros)):
                assert got.shape == want.shape
                assert np.array_equal(_bits(got), _bits(want)), (h, w, c)


@pytest.mark.parametrize("kh,kw", KERNELS)
def test_one_channel_dwconv_within_one_rounding(rng, kh, kw):
    # the ECA gate's case; each output is held to 1e-15 of the sum of its
    # terms' magnitudes, the scale a change of summation order moves it by
    for h, w in EXTENTS + ((1, 64),):
        xp, wt, g = _operands(rng, h, w, 1, kh, kw, zeros=False)
        scales = [dwconv_forward_loop(abs(xp), abs(wt)),
                  dwconv_grad_weight_loop(abs(xp), abs(g)),
                  dwconv_grad_input_loop(abs(g), abs(wt))]
        for (got, want), scale in zip(_both(xp, wt, g), scales):
            assert np.all(np.abs(got - want) <= 1e-15 * scale), (h, w)


@pytest.mark.parametrize("h,w,c", [(2, 2, 1), (6, 4, 3), (10, 14, 5)])
def test_space_to_depth_layout_inverse_and_adjoint(rng, h, w, c):
    x = rng.standard_normal((h, w, c))
    x[rng.random(x.shape) < 0.3] = -0.0
    s = _k.im2col(x)
    assert s.shape == (h // 2, w // 2, 4 * c)
    for q, (di, dj) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        assert np.array_equal(s[:, :, q * c:(q + 1) * c], x[di::2, dj::2])
    assert np.array_equal(_bits(_k.col2im(s)), _bits(x))
    # <im2col(x), y> = <x, col2im(y)>: the scatter a gradient needs
    y = rng.standard_normal(s.shape)
    assert np.isclose(np.vdot(s, y), np.vdot(x, _k.col2im(y)), rtol=1e-14, atol=0)


def _deposits(tstar, xs, ys, ps, bins, height, width):
    """The kernel's grid and the masked oracle's, flat."""
    grids = [np.zeros(bins * height * width) for _ in range(2)]
    for deposit, grid in zip((_k.voxel_deposit, voxel_deposit_masked), grids):
        deposit(grid, tstar, xs, ys, ps, bins, height, width)
    return grids


def test_voxel_deposit_matches_masked_deposit_bitwise(rng):
    bins, height, width = 6, 5, 4
    n = 2000
    # t* at both ends of [0, bins-1], on whole bins and between them
    tstar = np.concatenate([[0.0, bins - 1.0, bins - 1.0, 0.0],
                            rng.integers(0, bins, 200).astype(np.float64),
                            rng.uniform(0, bins - 1, n - 204)])
    xs = rng.integers(0, width, n)
    ys = rng.integers(0, height, n)
    ps = rng.choice([-1, 1], n)
    got, want = _deposits(tstar, xs, ys, ps, bins, height, width)
    assert np.array_equal(_bits(got), _bits(want))
    empty = np.zeros(0, dtype=np.int64)
    got, want = _deposits(empty.astype(np.float64), empty, empty, empty,
                          bins, height, width)
    assert np.array_equal(_bits(got), _bits(want)) and not got.any()


def test_voxelize_matches_masked_deposit_bitwise(rng):
    # timestamps 0..49, none in 20..29; windows with events exactly at t0
    # and t1, reaching past the stream, and holding no events
    n = 600
    t = np.sort(rng.choice(np.r_[0:20, 30:50], n))
    s = EventStream(6, 5, t, rng.integers(0, 6, n), rng.integers(0, 5, n),
                    rng.choice([-1, 1], n))
    assert np.any(s.t == 10) and np.any(s.t == 30)
    bins = 8
    for t0, t1 in ((10, 30), (0, 49), (3, 17), (-5, 10), (40, 60), (21, 28)):
        keep = (s.t >= t0) & (s.t <= t1)
        want = np.zeros(bins * s.height * s.width)
        voxel_deposit_masked(want, (s.t[keep] - t0) / float(t1 - t0) * (bins - 1),
                             s.x[keep], s.y[keep], s.p[keep].astype(np.float64),
                             bins, s.height, s.width)
        got = voxelize(s, bins, t0, t1).data.ravel()
        assert np.array_equal(_bits(got), _bits(want)), (t0, t1)
    assert not voxelize(s, bins, 21, 28).data.any()
