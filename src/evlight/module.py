"""Parameter containers and binary checkpoint serialization.

Checkpoints use a small self-describing binary layout: an ``EVLT`` magic,
a format version, a parameter count, then one record per parameter
(name, rank, extents, raw float64 payload), sorted by name and encoded
little-endian so round-trips are bit-exact across platforms.
"""
from __future__ import annotations

import os
import struct
from typing import Iterator, Mapping

import numpy as np

from . import tensor as T
from .tensor import Parameter

_MAGIC = b"EVLT"
_VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file or mismatched parameter set."""


class Module:
    """Base class for layers; walks attributes to discover parameters.

    Attribute insertion order makes the walk deterministic. Lists and
    tuples of sub-modules are traversed with their index in the path.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, val in vars(self).items():
            path = f"{prefix}{key}"
            if isinstance(val, Parameter):
                yield path, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{path}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise CheckpointError(
                f"parameter set mismatch: missing {missing}, unexpected {unexpected}")
        for name, p in own.items():
            arr = np.ascontiguousarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: have {p.data.shape}, "
                    f"checkpoint has {arr.shape}")
            p.data = arr


def save_checkpoint(state: Mapping[str, np.ndarray], path: str) -> None:
    names = sorted(state)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(names)))
        for name in names:
            arr = np.asarray(state[name], dtype=np.float64)
            if not arr.flags["C_CONTIGUOUS"]:
                arr = np.ascontiguousarray(arr)
            nameb = name.encode("utf-8")
            if len(nameb) > 0xFFFF:
                raise CheckpointError(f"parameter name too long: {name!r}")
            f.write(struct.pack("<H", len(nameb)))
            f.write(nameb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8", copy=False).tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if _read_exact(f, 4, "magic") != _MAGIC:
            raise CheckpointError("bad magic: not a checkpoint file")
        version, count = struct.unpack("<II", _read_exact(f, 8, "header"))
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            name = _read_exact(f, nlen, "name").decode("utf-8")
            (rank,) = struct.unpack("<B", _read_exact(f, 1, "rank"))
            shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "extents"))
            claimed = 8 * (int(np.prod(shape)) if rank else 1)
            left = size - f.tell()
            if claimed > left:  # refused before a buffer of that size is made
                raise CheckpointError(f"{path}: truncated checkpoint: parameter {name} "
                                      f"claims {claimed} bytes of data, {left} left")
            raw = _read_exact(f, claimed, f"data for {name}")
            arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
            out[name] = arr
        if f.read(1):
            raise CheckpointError("trailing bytes after final parameter")
    return out


# ---------------------------------------------------------------------------
# parameter initialization helpers
# ---------------------------------------------------------------------------

def conv_init(rng: np.random.Generator, k: int, cin: int, cout: int,
              gain: float = 1.0) -> tuple[Parameter, Parameter]:
    """He-style uniform init for a [k,k,cin,cout] kernel and zero bias."""
    bound = gain * np.sqrt(6.0 / (k * k * cin))
    w = rng.uniform(-bound, bound, size=(k, k, cin, cout))
    return Parameter(w), Parameter(np.zeros(cout))


def dwconv_init(rng: np.random.Generator, k: int, c: int) -> tuple[Parameter, Parameter]:
    bound = np.sqrt(6.0 / (k * k))
    w = rng.uniform(-bound, bound, size=(k, k, c))
    return Parameter(w), Parameter(np.zeros(c))


# ---------------------------------------------------------------------------
# layer wrappers
# ---------------------------------------------------------------------------

class Conv2d(Module):
    def __init__(self, rng: np.random.Generator, k: int, cin: int, cout: int,
                 stride: int = 1, gain: float = 1.0, zero_init: bool = False):
        if zero_init:
            self.weight = Parameter(np.zeros((k, k, cin, cout)))
            self.bias = Parameter(np.zeros(cout))
        else:
            self.weight, self.bias = conv_init(rng, k, cin, cout, gain)
        self.stride = stride

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.conv2d(x, self.weight, self.bias, self.stride)


class DwConv2d(Module):
    def __init__(self, rng: np.random.Generator, k: int, c: int):
        self.weight, self.bias = dwconv_init(rng, k, c)

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.dwconv2d(x, self.weight, self.bias)


class Deconv2d(Module):
    def __init__(self, rng: np.random.Generator, cin: int, cout: int):
        self.weight, self.bias = conv_init(rng, 2, cin, cout)

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.deconv2d(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, c: int):
        self.gamma = Parameter(np.ones(c))
        self.beta = Parameter(np.zeros(c))

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

