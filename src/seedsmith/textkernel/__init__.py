"""Hot text kernels: token counting and sparse cosine.

The functions live in ``_pykernel`` and are pure Python.
``IMPLEMENTATION`` names the kernel in every run's manifest.
"""

from ._pykernel import sparse_cosine, token_counts

IMPLEMENTATION = "python"

__all__ = [
    "IMPLEMENTATION",
    "token_counts",
    "sparse_cosine",
]
