"""Checkpoint format: bit-exact round-trips and mismatch diagnostics."""
import struct

import numpy as np
import pytest

from evlight.module import (CheckpointError, Conv2d, Module, load_checkpoint,
                            save_checkpoint)
from evlight.tensor import Parameter


class Small(Module):
    def __init__(self, rng):
        self.conv1 = Conv2d(rng, 3, 2, 4)
        self.gain = Parameter(np.ones(4))
        self.stack = [Conv2d(rng, 1, 4, 4), Conv2d(rng, 1, 4, 2)]


def test_named_parameters_paths(rng):
    names = [n for n, _ in Small(rng).named_parameters()]
    assert names == ["conv1.weight", "conv1.bias", "gain",
                     "stack.0.weight", "stack.0.bias",
                     "stack.1.weight", "stack.1.bias"]


def test_roundtrip_bit_exact(rng, tmp_path):
    m = Small(rng)
    state = m.state_arrays()
    path = tmp_path / "m.evlt"
    save_checkpoint(state, str(path))
    loaded = load_checkpoint(str(path))
    assert sorted(loaded) == sorted(state)
    for k in state:
        assert loaded[k].dtype == np.float64
        assert loaded[k].tobytes() == state[k].tobytes()
    # byte-identical file on re-save
    path2 = tmp_path / "m2.evlt"
    save_checkpoint(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_into_module_restores(rng, tmp_path):
    m = Small(rng)
    path = tmp_path / "m.evlt"
    save_checkpoint(m.state_arrays(), str(path))
    m2 = Small(np.random.default_rng(99))
    assert not np.array_equal(m2.conv1.weight.data, m.conv1.weight.data)
    m2.load_state(load_checkpoint(str(path)))
    for (_, a), (_, b) in zip(m.named_parameters(), m2.named_parameters()):
        assert np.array_equal(a.data, b.data)


def test_non_finite_parameter_named(rng, tmp_path):
    state = Small(rng).state_arrays()
    state["stack.0.weight"][0, 0, 1, 2] = np.nan
    p = tmp_path / "m.evlt"
    save_checkpoint(state, str(p))
    with pytest.raises(CheckpointError, match=r"stack\.0\.weight holds non-finite"):
        load_checkpoint(str(p))


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.evlt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(p))


def test_truncated_payload(rng, tmp_path):
    m = Small(rng)
    p = tmp_path / "m.evlt"
    save_checkpoint(m.state_arrays(), str(p))
    data = p.read_bytes()
    p.write_bytes(data[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(p))


def test_oversized_claim_refused_before_reading(tmp_path):
    # a 65536x65536 head.weight claims 32 GiB of a file that holds 64 bytes
    p = tmp_path / "huge.evlt"
    name = b"head.weight"
    p.write_bytes(b"EVLT" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name))
                  + name + struct.pack("<B2I", 2, 65536, 65536) + bytes(64))
    with pytest.raises(CheckpointError) as e:
        load_checkpoint(str(p))
    assert str(e.value) == (f"{p}: truncated checkpoint: parameter head.weight "
                            f"claims {8 * 65536 ** 2} bytes of data, 64 left")


def test_trailing_bytes(rng, tmp_path):
    m = Small(rng)
    p = tmp_path / "m.evlt"
    save_checkpoint(m.state_arrays(), str(p))
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(p))


def test_mismatch_lists_names(rng, tmp_path):
    m = Small(rng)
    state = m.state_arrays()
    state.pop("gain")
    state["ghost"] = np.zeros(2)
    p = tmp_path / "m.evlt"
    save_checkpoint(state, str(p))
    with pytest.raises(CheckpointError) as e:
        m.load_state(load_checkpoint(str(p)))
    assert "gain" in str(e.value) and "ghost" in str(e.value)


def test_shape_mismatch_named(rng, tmp_path):
    m = Small(rng)
    state = m.state_arrays()
    state["gain"] = np.zeros(5)
    p = tmp_path / "m.evlt"
    save_checkpoint(state, str(p))
    with pytest.raises(CheckpointError, match="gain"):
        m.load_state(load_checkpoint(str(p)))


def test_scalar_rank_zero(tmp_path):
    p = tmp_path / "s.evlt"
    save_checkpoint({"s": np.asarray(3.25)}, str(p))
    out = load_checkpoint(str(p))
    assert out["s"].shape == () and float(out["s"]) == 3.25
