"""The per-product leaf the runtime interprets plans with.

:mod:`repro.kernels.reference` holds the numpy leaf: the weighted gather,
the scatter-accumulate and :class:`NumpyProductLeaf`.  The blocked engine
swaps in its own leaf (:class:`repro.core.variants.BlisProductLeaf`).
"""

from repro.kernels.reference import (
    NUMPY_LEAF,
    NumpyProductLeaf,
    gather,
    scatter_accumulate,
)

__all__ = ["NUMPY_LEAF", "NumpyProductLeaf", "gather", "scatter_accumulate"]
