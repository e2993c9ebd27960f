"""Event streams, temporal-bilinear voxel grids, file IO, and a simulator.

The binary event format is ``EVST``: magic, u32 version, u16 width, u16
height, u64 count, then 14-byte little-endian records (u64 t, u16 x,
u16 y, i8 p, one pad byte). A CSV variant with ``t,x,y,p`` rows is
accepted for hand-written fixtures.
"""
from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class EventStream:
    """Time-sorted events on a sensor of the given extent."""

    width: int
    height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=np.int64)
        x = np.ascontiguousarray(self.x, dtype=np.int64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        p = np.ascontiguousarray(self.p, dtype=np.int64)
        n = t.shape[0]
        if not (x.shape[0] == y.shape[0] == p.shape[0] == n):
            raise ValueError("event arrays must share one length")
        if n:
            if t.min() < 0:
                raise ValueError("negative timestamp")
            if np.any(np.diff(t) < 0):
                raise ValueError("timestamps must be non-decreasing")
            if x.min() < 0 or x.max() >= self.width:
                raise ValueError(f"x out of range [0,{self.width})")
            if y.min() < 0 or y.max() >= self.height:
                raise ValueError(f"y out of range [0,{self.height})")
            if not np.all(np.abs(p) == 1):
                raise ValueError("polarity must be +1 or -1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class VoxelGrid:
    """Polarity mass accumulated into ``bins`` temporal slices."""

    data: np.ndarray
    bins: int
    width: int
    height: int

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.float64)
        if d.shape != (self.bins, self.height, self.width):
            raise ValueError(f"grid shape {d.shape} does not match "
                             f"({self.bins},{self.height},{self.width})")
        object.__setattr__(self, "data", d)

    def total_mass(self) -> float:
        return float(self.data.sum())


def voxelize(stream: EventStream, bins: int = 32,
             t0: int | None = None, t1: int | None = None) -> VoxelGrid:
    """Accumulate polarities with temporal bilinear weights.

    Each in-window event lands at t* = (t-t0)/(t1-t0)*(bins-1) and splits
    its polarity between bins floor(t*) and floor(t*)+1. Events outside
    the closed window [t0, t1] are ignored.
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
    if len(stream):
        keep = (stream.t >= t0) & (stream.t <= t1)
        if np.any(keep):
            tstar = (stream.t[keep] - t0) / float(t1 - t0) * (bins - 1)
            _k.voxel_deposit(grid, tstar, stream.x[keep], stream.y[keep],
                             stream.p[keep].astype(np.float64), bins,
                             stream.height, stream.width)
    return VoxelGrid(grid.reshape(bins, stream.height, stream.width),
                     bins, stream.width, stream.height)


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
        f.write(rec.tobytes())


def _finish_stream(width, height, t, x, y, p) -> EventStream:
    t = np.asarray(t, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    if t.shape[0] and np.any(np.diff(t) < 0):
        order = np.argsort(t, kind="stable")
        t, x, y, p = t[order], x[order], y[order], p[order]
    return EventStream(width, height, t, x, y, p)


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
    x = rec["x"].astype(np.int64)
    y = rec["y"].astype(np.int64)
    p = rec["p"].astype(np.int64)
    for name, vals, limit in (("x", x, width), ("y", y, height)):
        bad = np.nonzero(vals >= limit)[0]
        if bad.size:
            off = _HEADER_SIZE + int(bad[0]) * _RECORD.itemsize
            raise EventFormatError(
                f"{path}: {name}={int(vals[bad[0]])} out of bounds "
                f"(sensor {width}x{height})", off)
    badp = np.nonzero(np.abs(p) != 1)[0]
    if badp.size:
        off = _HEADER_SIZE + int(badp[0]) * _RECORD.itemsize
        raise EventFormatError(f"{path}: polarity {int(p[badp[0]])} not in "
                               "{-1,+1}", off)
    return _finish_stream(width, height, rec["t"].astype(np.int64), x, y, p)


def _read_events_csv(text: str, path: str, width: int, height: int) -> EventStream:
    rows = []
    lines = text.splitlines(keepends=True)
    # offsets[n-1] is where line n starts; ASCII, so characters are bytes
    offsets = [0, *itertools.accumulate(map(len, lines))]
    start = 1 if lines and lines[0].strip().replace(" ", "") == "t,x,y,p" else 0
    for ln, line in enumerate(lines[start:], start + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise EventFormatError(f"{path}: line {ln}: expected 4 fields",
                                   offsets[ln - 1])
        try:
            rows.append((ln, *(int(v) for v in parts)))
        except ValueError as exc:
            raise EventFormatError(f"{path}: line {ln}: {exc}", offsets[ln - 1]) from None
    arr = np.asarray(rows, dtype=np.int64).reshape(-1, 5)
    lns, t, x, y, p = arr.T
    for name, vals, limit in (("x", x, width), ("y", y, height)):
        bad = np.nonzero((vals < 0) | (vals >= limit))[0]
        if bad.size:
            ln = int(lns[bad[0]])
            raise EventFormatError(f"{path}: line {ln}: {name}={int(vals[bad[0]])} "
                                   f"out of bounds (sensor {width}x{height})",
                                   offsets[ln - 1])
    return _finish_stream(width, height, t, x, y, p)


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
    """
    if theta <= 0:
        raise ValueError("theta must be > 0")
    if frame_a.shape != frame_b.shape:
        raise ValueError(f"frame shapes differ: {frame_a.shape} vs {frame_b.shape}")
    if t_b <= t_a:
        raise ValueError("need t_b > t_a")
    ga, gb = to_gray(frame_a), to_gray(frame_b)
    delta = np.log(np.maximum(gb, 1e-3)) - np.log(np.maximum(ga, 1e-3))
    # slack absorbs rounding when a ratio lands exactly on a multiple
    counts = np.floor(np.abs(delta) / theta + 1e-9).astype(np.int64)
    signs = np.where(delta >= 0, 1, -1).astype(np.int64)
    h, w = ga.shape
    # events in row-major pixel order; k is each one's 1-based index at its pixel
    flat = np.flatnonzero(counts)
    n = counts.ravel()[flat]
    pix = np.repeat(flat, n)
    k = np.arange(1, pix.size + 1) - np.repeat(np.cumsum(n) - n, n)
    # t_a + k*span//n, split so that no int64 intermediate exceeds span or n^2
    n = np.repeat(n, n)
    q, r = np.divmod(t_b - t_a, n)
    t = t_a + k * q + (k * r) // n
    # stable on t keeps pixel order among ties, i.e. sorted by (t, y, x)
    order = np.argsort(t, kind="stable")
    pix = pix[order]
    y, x = np.divmod(pix, w)
    return EventStream(w, h, t[order], x, y, signs.ravel()[pix])
