"""Event-guided low-light image enhancement.

A numpy-based implementation of an SNR-guided fusion pipeline: events are
voxelized into temporal bins, a learned light-up stage brightens the
input, and a UNet-like network fuses image and event features under a
signal-to-noise-ratio trust map. The hot kernels are plain numpy.
"""
from . import _malloc

# the one import-time side effect: glibc keeps freed arrays in the heap
_malloc.keep_freed_memory()

# the benchmark (perfbench/workloads.py) reads these three from the package
# root; every other name is imported from the module that defines it
from ._kernels import BACKEND
from .fixtures import fixtures
from .image import write_image

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__", "fixtures", "write_image"]
