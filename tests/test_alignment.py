"""Sequence pairing: brute-force oracles and order invariance."""
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlight.alignment import (MatchResult, SequenceMeta, align_report,
                               interval, match)


def _low(name, iv, start=1_000_000):
    return SequenceMeta(name, "low", start, start + iv)


def _normal(name, iv, start=9_000_000):
    return SequenceMeta(name, "normal", start, start + iv)


def _brute_force_key(lows, normals):
    """Best (max, mean) over every assignment, by explicit enumeration."""
    li = {m.id: interval(m) for m in lows}
    ni = {m.id: interval(m) for m in normals}
    swap = len(lows) > len(normals)
    small, large = (normals, lows) if swap else (lows, normals)
    best = None
    for perm in permutations([m.id for m in large], len(small)):
        errs = sorted(abs(li[a if swap else s.id] - ni[s.id if swap else a])
                      for s, a in zip(small, perm))
        key = (max(errs), sum(errs) / len(errs))
        if best is None or key < best:
            best = key
    return best


class TestSequenceMeta:
    def test_interval(self):
        assert interval(SequenceMeta("s", "low", 100, 350)) == 250

    def test_bad_condition(self):
        with pytest.raises(ValueError, match="low|normal"):
            SequenceMeta("s", "bright", 0, 10)

    def test_frame_before_start(self):
        with pytest.raises(ValueError, match="precedes"):
            SequenceMeta("s", "low", 100, 50)


class TestMatch:
    def test_three_by_three_known_assignment(self):
        lows = [_low("l0", 5_000), _low("l1", 12_000), _low("l2", 20_000)]
        normals = [_normal("n0", 6_000), _normal("n1", 11_000),
                   _normal("n2", 19_000)]
        res = match(lows, normals)
        assert res.pairs == (("l0", "n0", 1_000), ("l1", "n1", 1_000),
                             ("l2", "n2", 1_000))
        assert res.max_error == 1_000
        assert res.mean_error == 1_000.0
        assert (res.max_error, res.mean_error) == _brute_force_key(lows, normals)

    def test_identical_intervals_zero_error(self):
        lows = [_low(f"l{i}", 1_000 * i) for i in range(4)]
        normals = [_normal(f"n{i}", 1_000 * i) for i in range(4)]
        res = match(lows, normals)
        assert res.max_error == 0 and res.mean_error == 0.0

    def test_single_pair(self):
        res = match([_low("a", 500)], [_normal("b", 900)])
        assert res.pairs == (("a", "b", 400),)

    def test_crossed_intervals_untangled(self):
        # naive id-order pairing would cost 9000; optimal max is 1000
        lows = [_low("l0", 10_000), _low("l1", 1_000)]
        normals = [_normal("n0", 2_000), _normal("n1", 9_000)]
        res = match(lows, normals)
        assert dict((a, b) for a, b, _ in res.pairs) == {"l0": "n1", "l1": "n0"}
        assert res.max_error == 1_000

    def test_asymmetric_sides(self):
        lows = [_low("l0", 5_000), _low("l1", 40_000)]
        normals = [_normal("n0", 4_000), _normal("n1", 41_000),
                   _normal("n2", 90_000)]
        res = match(lows, normals)
        assert len(res.pairs) == 2
        assert dict((a, b) for a, b, _ in res.pairs) == {"l0": "n0", "l1": "n1"}

    def test_input_order_invariance(self, rng):
        lows = [_low(f"l{i}", int(v)) for i, v in
                enumerate(rng.integers(0, 50_000, 5))]
        normals = [_normal(f"n{i}", int(v)) for i, v in
                   enumerate(rng.integers(0, 50_000, 5))]
        ref = match(lows, normals)
        for seed in range(10):
            sh = np.random.default_rng(seed)
            assert match(list(np.array(lows, dtype=object)[sh.permutation(5)]),
                         list(np.array(normals, dtype=object)[sh.permutation(5)])
                         ) == ref

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            match([], [_normal("n", 0)])

    def test_repeated_id_on_one_side_rejected(self):
        # keyed by id, the second "a" would overwrite the first's interval
        lows = [_low("a", 5), _low("a", 100)]
        with pytest.raises(ValueError, match="id 'a' appears twice on the low side"):
            match(lows, [_normal("n1", 5), _normal("n2", 100)])
        with pytest.raises(ValueError, match="on the normal side"):
            match([_low("a", 5)], [_normal("n", 5), _normal("n", 9)])
        # one id on each side is no repeat
        assert match([_low("s", 5)], [_normal("s", 5)]).max_error == 0

    def test_factorial_guard(self):
        lows = [_low(f"l{i}", i) for i in range(9)]
        normals = [_normal(f"n{i}", i) for i in range(9)]
        with pytest.raises(ValueError, match="at most 8"):
            match(lows, normals)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 100_000), min_size=1, max_size=5),
           st.lists(st.integers(0, 100_000), min_size=1, max_size=5))
    def test_matches_brute_force_everywhere(self, low_ivs, normal_ivs):
        lows = [_low(f"l{i}", v) for i, v in enumerate(low_ivs)]
        normals = [_normal(f"n{i}", v) for i, v in enumerate(normal_ivs)]
        res = match(lows, normals)
        assert (res.max_error, res.mean_error) == _brute_force_key(lows, normals)
        low_ids = [a for a, _, _ in res.pairs]
        normal_ids = [b for _, b, _ in res.pairs]
        assert len(set(low_ids)) == len(low_ids)
        assert len(set(normal_ids)) == len(normal_ids)


class TestAlignReport:
    def test_fraction_strictly_below(self):
        res = MatchResult((("a", "b", 9_999), ("c", "d", 10_000),
                           ("e", "f", 30_000)), 30_000, 16_666.33)
        assert align_report(res) == pytest.approx(1 / 3)

    def test_custom_threshold(self):
        res = MatchResult((("a", "b", 500),), 500, 500.0)
        assert align_report(res, threshold=501) == 1.0
        assert align_report(res, threshold=500) == 0.0

    def test_all_below(self):
        res = match([_low("l", 1_000)], [_normal("n", 1_500)])
        assert align_report(res) == 1.0
