"""Every seeded output of ``tools/digest_outputs.py``, byte for byte.

``output_digests.txt`` holds the digests written at one BLAS thread, with the
numpy version and OpenBLAS configuration they were written under. GEMM bits
depend on both, so under another the test skips and says which differs. A
change meant to move an output rewrites the file and names the moved digests
(``digest_outputs.py --compare``) in CHANGES.md.
"""
import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = os.path.join(ROOT, "tests", "output_digests.txt")


def _openblas_config() -> str | None:
    """The configuration string of the OpenBLAS numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_config64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def _recorded() -> tuple[dict[str, str], dict[str, str]]:
    """The file's ``# key: value`` header and its ``name sha256`` lines."""
    meta, digests = {}, {}
    with open(RECORDED, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition(": ")
                if sep:
                    meta[key] = value
            elif line.strip():
                name, sha = line.split()
                digests[name] = sha
    return meta, digests


def test_seeded_outputs_match_the_recorded_digests(tmp_path):
    meta, want = _recorded()
    for key, here in (("numpy", np.__version__), ("openblas", _openblas_config())):
        if here != meta[key]:
            pytest.skip(f"digests were written under {key} {meta[key]!r}, "
                        f"this is {here!r}")
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest_outputs.py"), ROOT,
         str(work)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (f"{len(changed)} outputs differ from {RECORDED} "
                         f"(written under {work}): {', '.join(changed)}")
