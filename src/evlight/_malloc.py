"""glibc's malloc policy for this process: freed arrays stay in the heap.

By default glibc hands a large freed block back to the kernel, by ``munmap``
(blocks above a dynamic mmap threshold) or by trimming the top of the heap,
so the next array of that size is faulted in page by page again. One
``events_ingest`` operation (simulate, write, read and voxelize 361,911
events) took 10,331 minor page faults and 62-66 ms that way, against 0
faults and 40-47 ms with both thresholds raised.
"""
from __future__ import annotations

import ctypes
import os
from typing import Callable, Mapping

# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Blocks below MMAP_THRESHOLD come from the heap, and the heap keeps up to
# TRIM_THRESHOLD of free memory at its top. Measured with glibc 2.36 on a
# 2-vCPU Xeon at one BLAS thread:
# - The trim threshold binds. predict at 260x348 took about 19,000 faults per
#   call with glibc's defaults, 17,500 with the trim threshold at 64 MiB and
#   3,800 at 256 MiB, no fewer at 1 GiB; those 3,800 come from the forward's
#   worker thread and its own malloc arena (a serial forward took 10).
# - An mmap threshold of 16 MiB or more ended the faults of predict at 192x256
#   (12,000 per call with the defaults, 17,000 at 4 MiB). One no higher than
#   the trim threshold means no single freed block can make the heap trim.
# - The cost is what the heap keeps: max RSS of predict at 260x348 was
#   334-345 MiB over 7 processes with the defaults and 337-375 MiB with these.
MMAP_THRESHOLD = 256 << 20
TRIM_THRESHOLD = 256 << 20

# glibc's own ways to set the thresholds; a user who set one keeps it
_USER_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

_Mallopt = Callable[[int, int], int]


def _glibc_mallopt() -> _Mallopt | None:
    """glibc's ``mallopt``, or None on another C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def keep_freed_memory(environ: Mapping[str, str] = os.environ,
                      mallopt: Callable[[], _Mallopt | None] = _glibc_mallopt) -> None:
    """Raise glibc's mmap and trim thresholds, unless the user set either
    (``_USER_VARS`` or a ``glibc.malloc.`` tunable). Process-wide; a no-op
    off glibc.

    The mmap threshold goes first, and the trim threshold is set only once
    that call has succeeded: setting the trim threshold also fixes the mmap
    threshold where it stands, at 128 KiB in a fresh process, so alone it
    made things worse (24,009 faults and 91 ms per ingest operation).
    """
    if (any(var in environ for var in _USER_VARS)
            or "glibc.malloc." in environ.get("GLIBC_TUNABLES", "")):
        return
    fn = mallopt()
    if fn is not None and fn(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
        fn(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
