"""The allocator policy set at import: freed arrays stay in the heap."""
import os
import subprocess
import sys

import pytest

import evlight
from evlight import _malloc

# Rounds of simulate + voxelize on one random 260x348 pair, in a fresh
# process; prints the minor page faults of each round after two warm-ups.
# The pair is dense (416,321 events; the benchmark's has 361,911): with
# glibc's default thresholds such a round faulted 9,263 times, while a pair
# of a third as many events faulted only in its first round, and freeing
# one array of one size again and again faults hardly at all, since the
# default mmap threshold adapts to the size freed.
_INGEST_PROBE = """
import resource
import numpy as np
from evlight.events import simulate_events, voxelize
rng = np.random.default_rng(0)
a, b = rng.uniform(0.0, 1.0, (2, 260, 348, 3))
counts = []
for _ in range(7):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    voxelize(simulate_events(a, b, 0, 100_000, 0.1), 32, 0, 100_000)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*counts[2:])
"""


def test_ingest_rounds_reuse_freed_memory():
    if _malloc._glibc_mallopt() is None:
        pytest.skip("the policy applies to glibc only")
    env = {k: v for k, v in os.environ.items()
           if k not in (*_malloc._USER_VARS, "GLIBC_TUNABLES")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(evlight.__file__))
    out = subprocess.run([sys.executable, "-c", _INGEST_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    faults = [int(n) for n in out.stdout.split()]
    assert len(faults) == 5 and max(faults) < 500, faults


class _FakeMallopt:
    """A stand-in for glibc's mallopt that records its calls."""

    def __init__(self, result=1):
        self.result, self.calls = result, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def test_sets_mmap_then_trim_threshold():
    fake = _FakeMallopt()
    _malloc.keep_freed_memory({}, lambda: fake)
    assert fake.calls == [(_malloc._M_MMAP_THRESHOLD, _malloc.MMAP_THRESHOLD),
                          (_malloc._M_TRIM_THRESHOLD, _malloc.TRIM_THRESHOLD)]


@pytest.mark.parametrize("env", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"MALLOC_MMAP_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    {"GLIBC_TUNABLES": "glibc.rtld.nns=2:glibc.malloc.mmap_threshold=4096"},
])
def test_user_setting_leaves_malloc_alone(env):
    fake = _FakeMallopt()
    _malloc.keep_freed_memory(env, lambda: fake)
    assert fake.calls == []


def test_other_tunables_do_not_count_as_a_malloc_setting():
    fake = _FakeMallopt()
    _malloc.keep_freed_memory({"GLIBC_TUNABLES": "glibc.rtld.nns=2"}, lambda: fake)
    assert len(fake.calls) == 2


def test_no_trim_threshold_when_mmap_threshold_refused():
    fake = _FakeMallopt(result=0)
    _malloc.keep_freed_memory({}, lambda: fake)
    assert fake.calls == [(_malloc._M_MMAP_THRESHOLD, _malloc.MMAP_THRESHOLD)]


def test_missing_mallopt_is_a_no_op():
    _malloc.keep_freed_memory({}, lambda: None)


def _raise_value_error(name):
    raise ValueError(f"unrecognized configuration name {name!r}")


@pytest.mark.parametrize("confstr", [lambda name: None, _raise_value_error])
def test_off_glibc_nothing_is_loaded(monkeypatch, confstr):
    loaded = []
    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(_malloc.ctypes, "CDLL", lambda *a: loaded.append(a))
    assert _malloc._glibc_mallopt() is None
    _malloc.keep_freed_memory({})
    assert loaded == []


def test_c_library_without_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(_malloc.ctypes, "CDLL", lambda *a: object())
    assert _malloc._glibc_mallopt() is None
    _malloc.keep_freed_memory({})
