"""Event streams, temporal-bilinear voxel grids, file IO, and a simulator.

The binary event format is ``EVST``: magic, u32 version, u16 width, u16
height, u64 count, then 14-byte little-endian records (u64 t, u16 x,
u16 y, i8 p, one pad byte). A CSV variant with ``t,x,y,p`` rows is
accepted for hand-written fixtures.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .image import to_gray

_MAGIC = b"EVST"
_VERSION = 1
_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                    ("p", "<i1"), ("pad", "<i1")])
_HEADER_SIZE = 4 + 4 + 2 + 2 + 8


class EventFormatError(ValueError):
    """Malformed event file; carries the byte offset of the bad data."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class _BadEvent(ValueError):
    """A record breaks an event rule; ``index`` is the first such record."""

    def __init__(self, name: str, vals: np.ndarray, bad: np.ndarray, rule: str):
        self.index = int(np.argmax(bad))
        super().__init__(f"{name}={vals[self.index]} {rule}")


@dataclass(frozen=True)
class EventStream:
    """Events sorted by t (``voxelize`` relies on it) on a sensor of the
    given extent; each field is given as integers and kept as int64."""

    width: int
    height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        fields = [np.asarray(getattr(self, f)) for f in "txyp"]
        for f, vals in zip("txyp", fields):
            if vals.dtype.kind not in "iu":
                raise ValueError(f"event field {f} must hold integers, got {vals.dtype}")
        t, x, y, p = (np.ascontiguousarray(vals, dtype=np.int64) for vals in fields)
        n = t.shape[0]
        if not (x.shape[0] == y.shape[0] == p.shape[0] == n):
            raise ValueError("event arrays must share one length")
        if n:
            if t.min() < 0:
                raise _BadEvent("t", t, t < 0, "is negative")
            if np.any(t[1:] < t[:-1]):
                raise ValueError("timestamps must be non-decreasing")
            sensor = f"out of bounds (sensor {self.width}x{self.height})"
            if x.min() < 0 or x.max() >= self.width:
                raise _BadEvent("x", x, (x < 0) | (x >= self.width), sensor)
            if y.min() < 0 or y.max() >= self.height:
                raise _BadEvent("y", y, (y < 0) | (y >= self.height), sensor)
            # {-1,+1} is [-1, 1] without 0; no full-size temporary when it holds
            if p.min() < -1 or p.max() > 1 or np.count_nonzero(p) < n:
                raise _BadEvent("polarity", p, np.abs(p) != 1, "not in {-1,+1}")
        for f, vals in zip("txyp", (t, x, y, p)):
            object.__setattr__(self, f, vals)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class VoxelGrid:
    """Polarity mass accumulated into temporal slices: ``data`` is a float64
    [bins,H,W] array. ``model.load_sample`` hands the network its [H,W,bins]
    transpose."""

    data: np.ndarray

    def total_mass(self) -> float:
        return float(self.data.sum())


def voxelize(stream: EventStream, bins: int = 32,
             t0: int | None = None, t1: int | None = None) -> VoxelGrid:
    """Accumulate polarities with temporal bilinear weights.

    Each in-window event lands at t* = (t-t0)/(t1-t0)*(bins-1) and splits
    its polarity between bins floor(t*) and floor(t*)+1. Events outside
    the closed window [t0, t1] are ignored; the stream is sorted by t, so
    the window is one slice of its arrays, found by binary search.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if t0 is None:
        t0 = int(stream.t[0]) if len(stream) else 0
    if t1 is None:
        t1 = int(stream.t[-1]) if len(stream) else t0 + 1
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0},{t1}]")
    grid = np.zeros(bins * stream.height * stream.width, dtype=np.float64)
    win = slice(np.searchsorted(stream.t, t0, "left"),
                np.searchsorted(stream.t, t1, "right"))
    tstar = (stream.t[win] - t0) / float(t1 - t0) * (bins - 1)
    _k.voxel_deposit(grid, tstar, stream.x[win], stream.y[win], stream.p[win],
                     bins, stream.height, stream.width)
    return VoxelGrid(grid.reshape(bins, stream.height, stream.width))


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def write_events(stream: EventStream, path: str) -> None:
    if str(path).endswith(".csv"):
        rows = np.column_stack([stream.t, stream.x, stream.y, stream.p])
        with open(path, "w", encoding="ascii") as f:
            f.write("t,x,y,p\n")
            f.write(("%d,%d,%d,%d\n" * len(stream)) % tuple(rows.ravel().tolist()))
        return
    rec = np.zeros(len(stream), dtype=_RECORD)
    rec["t"] = stream.t
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["p"] = stream.p
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IHHQ", _VERSION, stream.width, stream.height,
                            len(stream)))
        f.write(rec.data)


def _sorted_stream(width, height, t, x, y, p, refuse) -> EventStream:
    """The file's events, stably sorted by t when out of order; a record that
    breaks a rule raises ``refuse(its index in the file, message)``."""
    order = np.argsort(t, kind="stable") if np.any(t[1:] < t[:-1]) else None
    if order is not None:
        t, x, y, p = t[order], x[order], y[order], p[order]
    try:
        return EventStream(width, height, t, x, y, p)
    except _BadEvent as exc:
        i = exc.index if order is None else int(order[exc.index])
        raise refuse(i, str(exc)) from None


def _read_events_binary(buf: bytes, path: str) -> EventStream:
    if len(buf) < _HEADER_SIZE:
        raise EventFormatError(f"{path}: truncated header", len(buf))
    version, width, height, count = struct.unpack("<IHHQ", buf[4:_HEADER_SIZE])
    if version != _VERSION:
        raise EventFormatError(f"{path}: unsupported version {version}", 4)
    body = buf[_HEADER_SIZE:]
    if len(body) != count * _RECORD.itemsize:
        bad = _HEADER_SIZE + (len(body) // _RECORD.itemsize) * _RECORD.itemsize
        raise EventFormatError(
            f"{path}: expected {count} records, body holds "
            f"{len(body)} bytes", bad)
    rec = np.frombuffer(body, dtype=_RECORD)

    def refuse(i, message):
        if message.startswith("t="):  # only a u64 past int64 reads as negative
            message = f"t={rec['t'][i]} does not fit int64"
        return EventFormatError(f"{path}: {message}", _HEADER_SIZE + i * _RECORD.itemsize)
    return _sorted_stream(width, height, *(rec[f] for f in "txyp"), refuse)


def _read_events_csv(text: str, path: str, width: int, height: int) -> EventStream:
    rows = []
    lines = text.splitlines(keepends=True)
    # offsets[n-1] is where line n starts; ASCII, so characters are bytes
    offsets = [0, *itertools.accumulate(map(len, lines))]

    def refuse(ln, message):
        return EventFormatError(f"{path}: line {ln}: {message}", offsets[ln - 1])
    start = 1 if lines and lines[0].strip().replace(" ", "") == "t,x,y,p" else 0
    for ln, line in enumerate(lines[start:], start + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise refuse(ln, "expected 4 fields")
        if "_" in line:  # int() reads a digit group: '1_000' as 1000
            name, v = next((n, v) for n, v in zip("txyp", parts) if "_" in v)
            raise refuse(ln, f"bad integer {v!r} for {name}")
        try:
            rows.append((ln, *(int(v) for v in parts)))
        except ValueError as exc:
            raise refuse(ln, exc) from None
    try:
        lns, t, x, y, p = np.asarray(rows, dtype=np.int64).reshape(-1, 5).T
    except OverflowError:  # searched for only once the conversion has failed
        ln, name, v = next((r[0], name, v) for r in rows
                           for name, v in zip("txyp", r[1:]) if not -2**63 <= v < 2**63)
        raise refuse(ln, f"{name}={v} does not fit int64") from None
    return _sorted_stream(width, height, t, x, y, p, lambda i, m: refuse(lns[i], m))


def read_events(path: str, width: int | None = None,
                height: int | None = None) -> EventStream:
    """Read an ``EVST`` binary file, or CSV when the magic is absent.

    An EVST file carries its sensor extent. A CSV file does not: it takes
    ``width`` and ``height``, and is rejected without them.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] == _MAGIC:
        return _read_events_binary(buf, str(path))
    try:
        text = buf.decode("ascii")
    except UnicodeDecodeError as exc:
        raise EventFormatError(f"{path}: neither EVST magic nor ASCII CSV",
                               exc.start) from None
    if width is None or height is None:
        raise EventFormatError(f"{path}: a CSV event file carries no sensor "
                               "extent; give its width and height, or use an "
                               ".evst file, which carries one", 0)
    return _read_events_csv(text, str(path), width, height)


# ---------------------------------------------------------------------------
# frame-pair simulator
# ---------------------------------------------------------------------------

def simulate_events(frame_a: np.ndarray, frame_b: np.ndarray,
                    t_a: int, t_b: int, theta: float) -> EventStream:
    """Emit events where the log brightness ratio crosses multiples of theta.

    Per pixel, delta = log(max(gray_b, 1e-3)) - log(max(gray_a, 1e-3))
    yields floor(|delta|/theta) events of sign(delta) with timestamps
    evenly spaced in (t_a, t_b]. The brightness floor keeps the log total
    without distorting ratios, so doubling a frame with theta = ln 2
    emits exactly one event per lit pixel.

    Events come sorted by (t, y, x): stably by their rank among the distinct
    timestamps, each computed once per (n, k) present; the rank is held in
    the smallest integer type, and numpy radix-sorts keys of 16 bits or less.
    """
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be a finite number > 0, got {theta}")
    if frame_a.shape != frame_b.shape:
        raise ValueError(f"frame shapes differ: {frame_a.shape} vs {frame_b.shape}")
    if t_b <= t_a:
        raise ValueError("need t_b > t_a")
    ga, gb = to_gray(frame_a), to_gray(frame_b)
    delta = np.log(np.maximum(gb, 1e-3)) - np.log(np.maximum(ga, 1e-3))
    mag = np.abs(delta)
    # refused before the int64 cast; Python's float division does not warn
    if float(mag.max(initial=0.0)) / float(theta) + 1e-9 >= 2.0 ** 63:
        raise ValueError(f"theta={theta} gives a pixel more events than int64 holds")
    # slack absorbs rounding when a ratio lands exactly on a multiple
    counts = np.floor(mag / theta + 1e-9).astype(np.int64)
    signs = np.where(delta >= 0, 1, -1).astype(np.int64)
    h, w = ga.shape
    flat = np.flatnonzero(counts)
    n = counts.ravel()[flat]
    # the table: for each count nu[j] present, its k = 1..nu[j] timestamps
    # t_a + k*span//nu[j], split so that no int64 intermediate exceeds span or n^2
    nu, which = np.unique(n, return_inverse=True)
    start = np.cumsum(nu) - nu
    k = np.arange(1, nu.sum() + 1) - np.repeat(start, nu)
    nk = np.repeat(nu, nu)
    q, r = np.divmod(t_b - t_a, nk)
    stamps, rank = np.unique(t_a + k * q + (k * r) // nk, return_inverse=True)
    # each event's table entry, in row-major pixel order
    at = np.repeat(start[which] - np.cumsum(n) + n, n)
    at += np.arange(at.size)
    rank = rank.astype(np.min_scalar_type(stamps.size - 1))[at]
    # stable on t keeps pixel order among ties, i.e. sorted by (t, y, x)
    order = np.argsort(rank, kind="stable")
    pix = np.repeat(flat, n)[order]
    y, x = np.divmod(pix, w)
    return EventStream(w, h, stamps[rank[order]], x, y, signs.ravel()[pix])
