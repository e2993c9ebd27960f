"""Event streams: voxelization, IO round-trips, simulator."""
import gc
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evlight import _kernels as _k
from evlight.events import (EventFormatError, EventStream, read_events,
                            simulate_events, voxelize, write_events)
from evlight.fixtures import make_scene


def _stream(width, height, rows):
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return EventStream(width, height, arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def _random_stream(rng, n, width=16, height=12, tmax=100_000):
    t = np.sort(rng.integers(0, tmax + 1, n))
    return EventStream(width, height, t,
                       rng.integers(0, width, n), rng.integers(0, height, n),
                       rng.choice([-1, 1], n))


class TestStreamValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            _stream(4, 4, [[5, 0, 0, 1], [3, 1, 1, 1]])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"x=4 out of bounds \(sensor 4x4\)"):
            _stream(4, 4, [[0, 4, 0, 1]])
        with pytest.raises(ValueError, match=r"y=4 out of bounds \(sensor 4x4\)"):
            _stream(4, 4, [[0, 0, 4, 1]])

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            _stream(4, 4, [[0, 0, 0, 2]])

    def test_non_integer_arrays_refused_not_truncated(self):
        with pytest.raises(ValueError, match="event field t must hold integers, "
                                             "got float64"):
            EventStream(4, 4, [1.7, 2.2], [0.9, 1.5], [0, 1], [1.0, -1.0])
        z = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="event field p must hold integers, got bool"):
            EventStream(4, 4, z, z, z, np.ones(2, dtype=bool))

    def test_fields_keep_their_integer_dtypes_and_t_is_int64(self):
        t = np.array([1, 2**40], dtype=np.uint64)
        x = np.array([0, 3], dtype=np.uint16)
        s = EventStream(4, 4, t, x, np.array([1, 2], dtype=np.int32),
                        np.array([1, -1], dtype=np.int8))
        assert s.t.dtype == np.int64 and np.shares_memory(s.t, t)
        assert (s.x.dtype, s.y.dtype, s.p.dtype) == (np.uint16, np.int32, np.int8)
        assert s.x is x
        small = np.array([1, 2], dtype=np.uint32)
        assert EventStream(4, 4, small, x, x, s.p).t.dtype == np.int64

    def test_descent_across_a_chunk_boundary_refused(self):
        n = 2 * _k.CHUNK + 5
        t = np.arange(n)
        t[_k.CHUNK], t[_k.CHUNK - 1] = t[_k.CHUNK - 1], t[_k.CHUNK]
        z = np.zeros(n, dtype=np.int64)
        with pytest.raises(ValueError, match="non-decreasing"):
            EventStream(4, 4, t, z, z, z + 1)


class TestVoxelize:
    def test_on_bin_event(self):
        # t* = 5.0 for t = 5000 over [0, 31000] with 32 bins
        s = _stream(8, 8, [[5000, 3, 2, 1]])
        g = voxelize(s, 32, 0, 31000)
        assert g.data[5, 2, 3] == 1.0
        assert g.total_mass() == 1.0
        assert np.count_nonzero(g.data) == 1

    def test_bilinear_split_exact_halves(self):
        # t* = 5.5 at t = 5500 over [0, 31000]
        s = _stream(8, 8, [[5500, 3, 2, 1]])
        g = voxelize(s, 32, 0, 31000)
        assert g.data[5, 2, 3] == 0.5
        assert g.data[6, 2, 3] == 0.5

    def test_boundary_events_full_mass(self):
        s = _stream(4, 4, [[0, 0, 0, 1], [1000, 1, 1, -1]])
        g = voxelize(s, 32, 0, 1000)
        assert g.data[0, 0, 0] == 1.0
        assert g.data[31, 1, 1] == -1.0

    def test_mass_conservation_10k(self, rng):
        s = _random_stream(rng, 10_000)
        g = voxelize(s, 32, 0, 100_000)
        assert abs(g.total_mass() - s.p.sum()) < 1e-4

    def test_matches_direct_accumulation_oracle(self, rng):
        s = _random_stream(rng, 500, width=6, height=5, tmax=999)
        bins = 8
        g = voxelize(s, bins, 0, 999)
        expect = np.zeros((bins, 5, 6))
        for t, x, y, p in zip(s.t, s.x, s.y, s.p):
            ts = t / 999 * (bins - 1)
            b0 = int(np.floor(ts))
            frac = ts - b0
            expect[b0, y, x] += p * (1 - frac)
            if frac > 0 and b0 + 1 < bins:
                expect[b0 + 1, y, x] += p * frac
        assert np.allclose(g.data, expect, atol=1e-9)

    def test_closed_window_matches_mask_oracle(self, rng):
        # timestamps 0..49, each about ten times, but none in 20..29
        t = np.sort(rng.choice(np.r_[0:20, 30:50], 400))
        s = EventStream(6, 5, t, rng.integers(0, 6, 400), rng.integers(0, 5, 400),
                        rng.choice([-1, 1], 400))
        assert np.any(s.t == 10) and np.any(s.t == 30)
        # events at t0 and at t1 kept, before t0 and after t1 dropped, and
        # windows reaching past either end of the stream
        for t0, t1 in ((10, 30), (0, 49), (-5, 10), (40, 60), (21, 28)):
            got = voxelize(s, 8, t0, t1).data
            assert np.allclose(got, _voxelize_mask(s, 8, t0, t1), atol=1e-12), (t0, t1)
        # a window holding no events
        assert not voxelize(s, 8, 21, 28).data.any()

    def test_out_of_window_ignored(self):
        s = _stream(4, 4, [[0, 0, 0, 1], [500, 1, 1, 1], [900, 2, 2, 1]])
        g = voxelize(s, 4, 100, 600)
        assert g.total_mass() == 1.0

    def test_empty_stream_zero_grid(self):
        z = np.zeros(0, dtype=np.int64)
        g = voxelize(EventStream(4, 4, z, z, z, z), 32, 0, 100)
        assert g.data.shape == (32, 4, 4) and g.total_mass() == 0.0

    def test_bad_window_rejected(self):
        s = _stream(4, 4, [[0, 0, 0, 1]])
        with pytest.raises(ValueError):
            voxelize(s, 32, 100, 100)

    @pytest.mark.parametrize("name,window", [("t0", (-10**20, 5)), ("t0", (2**63, None)),
                                             ("t1", (0, 10**20)), ("t1", (0, 2**63))])
    def test_window_bound_outside_int64_refused(self, name, window):
        s = _stream(4, 4, [[0, 0, 0, 1]])
        bound = window[0] if name == "t0" else window[1]
        with pytest.raises(ValueError, match=f"^{name}={bound} does not fit int64$"):
            voxelize(s, 4, *window)

    def test_window_wider_than_int64_is_exact(self):
        # t - t0 passes int64 here; in int64 it would wrap negative
        s = _stream(4, 4, [[5, 0, 0, 1], [2**62, 1, 1, 1]])
        t0, t1 = -2**63, 2**63 - 1
        got = voxelize(s, 4, t0, t1).data
        want = np.zeros_like(got)
        for t, x, y, p in zip(s.t, s.x, s.y, s.p):
            ts = (int(t) - t0) / float(t1 - t0) * 3
            want[int(ts), y, x] += p * (1 - (ts - int(ts)))
            want[int(ts) + 1, y, x] += p * (ts - int(ts))
        assert np.array_equal(got, want) and got.sum() == 2.0

    def test_bins_minimum(self):
        s = _stream(4, 4, [[0, 0, 0, 1]])
        with pytest.raises(ValueError):
            voxelize(s, 1, 0, 100)

    def test_linearity_over_disjoint_sets(self, rng):
        a = _random_stream(rng, 300)
        b = _random_stream(rng, 200)
        both = np.concatenate
        t = both([a.t, b.t]); x = both([a.x, b.x])
        y = both([a.y, b.y]); p = both([a.p, b.p])
        order = np.argsort(t, kind="stable")
        merged = EventStream(16, 12, t[order], x[order], y[order], p[order])
        g = voxelize(merged, 16, 0, 100_000).data
        ga = voxelize(a, 16, 0, 100_000).data
        gb = voxelize(b, 16, 0, 100_000).data
        assert np.allclose(g, ga + gb, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 40),
           st.sampled_from([-1, 1]))
    def test_mass_conserved_single_event(self, t, bins, p):
        s = _stream(4, 4, [[t, 1, 1, p]])
        g = voxelize(s, bins, 0, 10_000)
        assert abs(g.total_mass() - p) < 1e-12


class TestEventIO:
    def test_binary_roundtrip_identical(self, rng, tmp_path):
        s = _random_stream(rng, 1000)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        r = read_events(str(p))
        assert (r.width, r.height) == (s.width, s.height)
        for a, b in ((r.t, s.t), (r.x, s.x), (r.y, s.y), (r.p, s.p)):
            assert np.array_equal(a, b)

    def test_evst_fields_are_views_of_one_buffer(self, rng, tmp_path):
        s = _random_stream(rng, 100)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        r = read_events(str(p))
        assert (r.t.dtype, r.x.dtype, r.y.dtype, r.p.dtype) == (
            np.int64, np.uint16, np.uint16, np.int8)
        roots = set()
        for f in "txyp":
            a = getattr(r, f)
            while isinstance(a, np.ndarray):
                a = a.base
            roots.add(id(a))
            assert np.shares_memory(getattr(r, f), np.frombuffer(a, np.uint8))
        assert len(roots) == 1 and len(a) == os.path.getsize(p)

    def test_out_of_order_evst_comes_back_sorted(self, rng, tmp_path):
        s = _random_stream(rng, 50)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        data = p.read_bytes()
        order = rng.permutation(50)
        records = [data[20 + 14 * i:34 + 14 * i] for i in order]
        p.write_bytes(data[:20] + b"".join(records))
        r = read_events(str(p))
        assert np.array_equal(r.t, s.t)
        # each event's fields move with its timestamp
        back = sorted(zip(*(getattr(r, f).tolist() for f in "txyp")))
        assert back == sorted(zip(*(getattr(s, f).tolist() for f in "txyp")))
        # a bad record is named at its offset in the file, not in sorted order
        bad = bytearray(p.read_bytes())
        k = int(np.argmax(order == 0))  # the file's record holding the first event
        bad[20 + 14 * k + 12] = 0
        p.write_bytes(bytes(bad))
        with pytest.raises(EventFormatError, match="polarity=0") as e:
            read_events(str(p))
        assert e.value.offset == 20 + 14 * k

    def test_round_trip_past_a_16_bit_pixel_index(self, tmp_path):
        # y*W + x = 299*300 + 299 = 89,999; at 16 bits it would wrap to 24,463
        s = EventStream(300, 300, np.array([0, 10]), np.array([299, 0]),
                        np.array([299, 0]), np.array([1, -1]))
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        g = voxelize(read_events(str(p)), 2, 0, 10).data
        assert g[0, 299, 299] == 1.0 and g[1, 0, 0] == -1.0
        assert np.count_nonzero(g) == 2

    def test_extent_past_evst_limit_refused_before_writing(self, tmp_path):
        frame = np.full((1, 70000), 0.1)
        s = simulate_events(frame, 2 * frame, 0, 1000, 0.5)
        p = tmp_path / "wide.evst"
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: sensor 70000x1 does "
                                             "not fit EVST, which holds at most 65535"):
            write_events(s, str(p))
        assert not p.exists()

    def test_empty_body_valid_header(self, tmp_path):
        z = np.zeros(0, dtype=np.int64)
        p = tmp_path / "empty.evst"
        write_events(EventStream(5, 7, z, z, z, z), str(p))
        r = read_events(str(p))
        assert len(r) == 0 and (r.width, r.height) == (5, 7)

    def test_out_of_bounds_names_offset(self, rng, tmp_path):
        s = _random_stream(rng, 3, width=16, height=12)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        data = bytearray(p.read_bytes())
        # x of record 1 sits 8 bytes into its 14-byte record
        off = 20 + 14 + 8
        data[off:off + 2] = (16).to_bytes(2, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(EventFormatError) as e:
            read_events(str(p))
        assert e.value.offset == 20 + 14

    def test_bad_polarity_offset(self, rng, tmp_path):
        s = _random_stream(rng, 2)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        data = bytearray(p.read_bytes())
        data[20 + 12] = 3
        p.write_bytes(bytes(data))
        with pytest.raises(EventFormatError) as e:
            read_events(str(p))
        assert e.value.offset == 20

    def test_truncated_record(self, rng, tmp_path):
        s = _random_stream(rng, 4)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(EventFormatError):
            read_events(str(p))

    def test_unsorted_input_resorted(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("t,x,y,p\n50,1,2,1\n10,3,0,-1\n")
        r = read_events(str(p), width=4, height=4)
        assert list(r.t) == [10, 50]
        # each event's fields move with its timestamp
        assert (list(r.x), list(r.y), list(r.p)) == ([3, 1], [0, 2], [-1, 1])

    def test_csv_roundtrip(self, rng, tmp_path):
        s = _random_stream(rng, 50)
        p = tmp_path / "e.csv"
        write_events(s, str(p))
        r = read_events(str(p), width=s.width, height=s.height)
        assert np.array_equal(r.t, s.t) and np.array_equal(r.p, s.p)

    def test_csv_bad_line_number(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("t,x,y,p\n1,2,3,1\n4,5\n")
        with pytest.raises(EventFormatError, match="line 3"):
            read_events(str(p), width=8, height=8)

    @pytest.mark.parametrize("extent", [{}, {"width": 8}, {"height": 8}])
    def test_csv_without_an_extent_rejected(self, tmp_path, extent):
        # a sensor sized from the largest x and y would be 3x4 here
        p = tmp_path / "e.csv"
        p.write_text("t,x,y,p\n1,2,3,1\n")
        with pytest.raises(EventFormatError,
                           match=f"{re.escape(str(p))}: a CSV event file carries "
                                 "no sensor extent"):
            read_events(str(p), **extent)

    @pytest.mark.parametrize("row,bad", [("9,4,1,1", "x=4"), ("9,1,-1,1", "y=-1")])
    def test_csv_event_outside_the_sensor_names_its_line(self, tmp_path, row, bad):
        p = tmp_path / "e.csv"
        p.write_text(f"t,x,y,p\n1,0,0,1\n{row}\n")
        with pytest.raises(EventFormatError,
                           match=f"line 3: {bad} out of bounds \\(sensor 4x3\\)"):
            read_events(str(p), width=4, height=3)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("bad", [b"4,5", b"4,x,1,1", b"9,4,1,1"])
    def test_csv_error_offset_is_the_bad_lines_first_byte(self, tmp_path, eol, bad):
        head = [b"t,x,y,p" + eol, b"1,2,1,1" + eol]
        p = tmp_path / "e.csv"
        p.write_bytes(b"".join(head) + bad + eol)
        with pytest.raises(EventFormatError, match="line 3") as e:
            read_events(str(p), width=4, height=3)
        assert e.value.offset == len(b"".join(head))

    @pytest.mark.parametrize("row,bad", [("9,1,1,0", r"polarity=0 not in \{-1,\+1\}"),
                                         ("-5,1,1,1", "t=-5 is negative")])
    def test_csv_record_breaking_a_rule_names_file_and_line(self, tmp_path, row, bad):
        p = tmp_path / "e.csv"
        p.write_text(f"t,x,y,p\n1,0,0,1\n{row}\n")
        with pytest.raises(EventFormatError,
                           match=f"{re.escape(str(p))}: line 3: {bad}") as e:
            read_events(str(p), width=4, height=3)
        assert e.value.offset == len("t,x,y,p\n1,0,0,1\n")

    def test_unsorted_csv_names_the_bad_records_line_in_the_file(self, tmp_path):
        # sorted by t, the bad record (line 5) would come first
        p = tmp_path / "e.csv"
        p.write_text("t,x,y,p\n50,0,0,1\n40,1,1,1\n\n5,9,1,1\n")
        with pytest.raises(EventFormatError,
                           match=r"line 5: x=9 out of bounds \(sensor 4x3\)") as e:
            read_events(str(p), width=4, height=3)
        assert e.value.offset == len("t,x,y,p\n50,0,0,1\n40,1,1,1\n\n")

    @pytest.mark.parametrize("field", range(4))
    def test_csv_value_past_int64_names_file_and_line(self, tmp_path, field):
        row = ["7", "1", "1", "1"]
        row[field] = "99999999999999999999"
        p = tmp_path / "e.csv"
        p.write_text("t,x,y,p\n1,0,0,1\n" + ",".join(row) + "\n")
        with pytest.raises(EventFormatError,
                           match=f"{re.escape(str(p))}: line 3: {'txyp'[field]}="
                                 "99999999999999999999 does not fit int64"):
            read_events(str(p), width=4, height=3)

    @pytest.mark.parametrize("row,bad", [("1_000,0,0,1", "'1_000' for t"),
                                         ("9,1,0_1,1", "'0_1' for y")])
    def test_csv_digit_group_is_refused_with_file_and_line(self, tmp_path, row, bad):
        # int() would read '1_000' as 1000
        p = tmp_path / "e.csv"
        p.write_text(f"t,x,y,p\n1,0,0,1\n{row}\n")
        with pytest.raises(EventFormatError,
                           match=f"{re.escape(str(p))}: line 3: bad integer {bad}") as e:
            read_events(str(p), width=4, height=3)
        assert e.value.offset == len("t,x,y,p\n1,0,0,1\n")

    def test_evst_timestamp_past_int64_names_its_offset(self, tmp_path):
        z = np.zeros(3, dtype=np.int64)
        p = tmp_path / "e.evst"
        write_events(EventStream(4, 4, np.arange(3), z, z, z + 1), str(p))
        data = bytearray(p.read_bytes())
        data[20 + 14:20 + 22] = (2**63).to_bytes(8, "little")  # t of record 1
        p.write_bytes(bytes(data))
        with pytest.raises(EventFormatError,
                           match=f"{re.escape(str(p))}: t=9223372036854775808 "
                                 "does not fit int64") as e:
            read_events(str(p))
        assert e.value.offset == 20 + 14

    def test_csv_write_matches_per_event_loop(self, rng, tmp_path):
        for n in (0, 1, 500):
            s = _random_stream(rng, n, tmax=2**40)
            s = EventStream(s.width, s.height, s.t, s.x, s.y, -s.p)
            p = tmp_path / f"e{n}.csv"
            write_events(s, str(p))
            assert p.read_bytes() == _write_csv_loop(s).encode("ascii")


class TestIngestMemory:
    """The bytes reading and voxelizing a stream allocate, by tracemalloc."""

    @staticmethod
    def _peak(fn, *args):
        gc.collect()
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_evst_read_allocates_the_file_and_a_constant(self, rng, tmp_path):
        # 152,733 bytes above the file at 200,000 and at 1,000,000 events;
        # copying the body and the fields into int64 took 9.4 MB more
        s = _random_stream(rng, 200_000)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        assert self._peak(read_events, str(p)) <= os.path.getsize(p) + 512 * 1024

    def test_voxelize_allocates_the_grid_tstar_and_a_constant(self, rng, tmp_path):
        # the grid, 8 bytes per event for t*, and one chunk's temporaries
        # (592,780 bytes); whole-stream temporaries took 40 MB more
        n = 1_000_000
        s = _random_stream(rng, n)
        p = tmp_path / "e.evst"
        write_events(s, str(p))
        for stream in (s, read_events(str(p))):
            grid = 4 * s.height * s.width * 8
            assert self._peak(voxelize, stream, 4, 0, 100_000) <= grid + 8 * n + 1024 * 1024


def _voxelize_mask(stream, bins, t0, t1):
    """Reference grid: the events a boolean mask keeps in [t0, t1], deposited
    one at a time."""
    keep = (stream.t >= t0) & (stream.t <= t1)
    grid = np.zeros((bins, stream.height, stream.width))
    for t, x, y, p in zip(*(getattr(stream, f)[keep] for f in "txyp")):
        ts = (t - t0) / (t1 - t0) * (bins - 1)
        b0 = int(np.floor(ts))
        grid[b0, y, x] += p * (1 - (ts - b0))
        if ts > b0:
            grid[b0 + 1, y, x] += p * (ts - b0)
    return grid


def _write_csv_loop(stream):
    """Reference CSV text: one formatted line per event."""
    out = "t,x,y,p\n"
    for i in range(len(stream)):
        out += f"{stream.t[i]},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n"
    return out


def _simulate_loop(frame_a, frame_b, t_a, t_b, theta):
    """Reference simulator: one Python-int timestamp per event, then a
    (t, y, x) lexsort."""
    def gray(f):
        f = np.asarray(f, dtype=np.float64)
        if f.ndim == 2:
            return f
        return f[:, :, 0] if f.shape[2] == 1 else f @ np.array([0.299, 0.587, 0.114])

    ga, gb = gray(frame_a), gray(frame_b)
    delta = np.log(np.maximum(gb, 1e-3)) - np.log(np.maximum(ga, 1e-3))
    counts = np.floor(np.abs(delta) / theta + 1e-9).astype(np.int64)
    signs = np.where(delta >= 0, 1, -1).astype(np.int64)
    h, w = ga.shape
    ts, xs, ys, ps = [], [], [], []
    span = t_b - t_a
    yy, xx = np.nonzero(counts)
    for yi, xi in zip(yy, xx):
        n = int(counts[yi, xi])
        for i in range(n):
            ts.append(t_a + ((i + 1) * span) // n)
            xs.append(int(xi))
            ys.append(int(yi))
            ps.append(int(signs[yi, xi]))
    if ts:
        order = np.lexsort((np.asarray(xs), np.asarray(ys), np.asarray(ts)))
        arr = np.asarray([ts, xs, ys, ps], dtype=np.int64)[:, order]
        return EventStream(w, h, arr[0], arr[1], arr[2], arr[3])
    z = np.zeros(0, dtype=np.int64)
    return EventStream(w, h, z, z, z, z)


def _assert_same_stream(got, want):
    assert (got.width, got.height) == (want.width, want.height)
    for f in "txyp":
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f


class TestSimulator:
    # the parity tests: the whole-array simulator emits _simulate_loop's
    # stream bit for bit
    @pytest.mark.parametrize("size", [64, 96, 144])
    def test_parity_fixture_scenes(self, size):
        a, b = make_scene(np.random.default_rng(size), size)
        s = simulate_events(a, b, 0, 100_000, 0.15)
        assert len(s) > 0
        _assert_same_stream(s, _simulate_loop(a, b, 0, 100_000, 0.15))

    @pytest.mark.parametrize("shape", [(7, 9), (7, 9, 1), (7, 9, 3)])
    def test_parity_frame_layouts(self, rng, shape):
        a = rng.uniform(0.02, 0.9, shape)
        b = rng.uniform(0.02, 0.9, shape)
        _assert_same_stream(simulate_events(a, b, 100, 5000, 0.1),
                            _simulate_loop(a, b, 100, 5000, 0.1))

    def test_parity_span_shorter_than_count(self, rng):
        a = rng.uniform(0.02, 0.1, (6, 8, 3))
        b = np.clip(a * 8, 0, 1)
        s = simulate_events(a, b, 10, 13, 0.2)
        assert np.any(np.diff(s.t) == 0)
        _assert_same_stream(s, _simulate_loop(a, b, 10, 13, 0.2))

    @pytest.mark.parametrize("top,span,lo,hi", [(12, 100_000, 1, 256),
                                                (60, 10**6, 257, 65_536),
                                                (480, 10**9, 65_537, None)])
    def test_parity_at_each_rank_width(self, rng, top, span, lo, hi):
        # every count 1..top at two pixels, so each timestamp (one per distinct
        # fraction k/n) comes at two or more pixels; the number of distinct
        # timestamps sets the rank's width: 8 bits, 16 bits, or more
        counts = rng.permutation(np.tile(np.arange(1, top + 1), 2)).reshape(4, -1)
        signs = rng.choice([-1, 1], counts.shape)
        a = np.where(signs > 0, 0.005, 0.9)
        b = a * np.exp(signs * (counts + 0.5) * 0.01)
        s = simulate_events(a, b, 7, 7 + span, 0.01)
        assert len(s) == 2 * top * (top + 1) // 2
        assert lo <= np.unique(s.t).size <= (hi or np.inf)
        _assert_same_stream(s, _simulate_loop(a, b, 7, 7 + span, 0.01))

    def test_parity_huge_span_does_not_overflow(self):
        # 2 events per pixel: a naive int64 (i+1)*span wraps at span 2**62
        a = np.full((3, 4), 0.1)
        a[1, 2] = 0.2
        s = simulate_events(a, a * 4, 0, 2**62, np.log(2.0))
        assert len(s) == 24 and s.t.max() == 2**62
        _assert_same_stream(s, _simulate_loop(a, a * 4, 0, 2**62, np.log(2.0)))

    def test_static_scene_empty(self):
        f = np.full((6, 6, 3), 0.4)
        s = simulate_events(f, f, 0, 1000, 0.2)
        assert len(s) == 0
        _assert_same_stream(s, _simulate_loop(f, f, 0, 1000, 0.2))

    def test_doubling_gives_one_event_per_pixel(self):
        a = np.full((5, 5, 3), 0.2)
        b = a * 2
        s = simulate_events(a, b, 0, 1000, np.log(2.0))
        assert len(s) == 25
        assert np.all(s.p == 1)

    def test_counts_match_per_pixel_oracle(self, rng):
        a = rng.uniform(0.05, 0.9, (7, 9, 3))
        b = rng.uniform(0.05, 0.9, (7, 9, 3))
        theta = 0.3
        s = simulate_events(a, b, 0, 10_000, theta)
        gray = np.array([0.299, 0.587, 0.114])
        d = np.log(np.maximum(b @ gray, 1e-3)) - np.log(np.maximum(a @ gray, 1e-3))
        for y in range(7):
            for x in range(9):
                n = int(np.floor(abs(d[y, x]) / theta + 1e-9))
                got = np.sum((s.x == x) & (s.y == y))
                assert got == n
                if n:
                    sel = s.p[(s.x == x) & (s.y == y)]
                    assert np.all(sel == np.sign(d[y, x]))

    def test_timestamps_in_half_open_window(self, rng):
        a = rng.uniform(0.05, 0.4, (6, 6, 3))
        s = simulate_events(a, np.clip(a * 3, 0, 1), 100, 5000, 0.2)
        assert len(s) > 0
        assert s.t.min() > 100 and s.t.max() <= 5000

    def test_voxelize_static_zero_grid(self):
        f = np.full((4, 4, 3), 0.3)
        s = simulate_events(f, f, 0, 1000, 0.2)
        g = voxelize(s, 8, 0, 1000)
        assert np.all(g.data == 0)

    def test_bad_theta(self):
        f = np.full((4, 4, 3), 0.1)
        for theta in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"theta must be a finite number > 0, "
                                                 f"got {theta}"):
                simulate_events(f, 2 * f, 0, 10, theta)

    @pytest.mark.parametrize("theta", [1e-300, 5e-324, np.float64(5e-324)])
    def test_theta_whose_counts_do_not_fit_int64_refused(self, theta):
        # |log 2| / theta events at every pixel, past int64 (or inf); refused
        # before anything is allocated or cast
        f = np.full((4, 4, 3), 0.1)
        with pytest.raises(ValueError, match="more events than int64 holds"):
            simulate_events(f, 2 * f, 0, 10, theta)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            simulate_events(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)), 0, 10, 0.1)
