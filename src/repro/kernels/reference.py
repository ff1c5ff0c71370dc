"""The numpy leaf of the lowering runtime.

The weighted block-view gather, the dtype-matched scatter-accumulate,
and the :class:`NumpyProductLeaf` that streams one product at a time.
The runtime's bindings call through these, so the staged, fused and
tiled pipelines share one leaf implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMPY_LEAF",
    "NumpyProductLeaf",
    "gather",
    "scatter_accumulate",
]


def gather(terms, views, out) -> None:
    """Weighted sum of block views written into a recycled buffer.

    Coefficients are python floats (plan invariant), so NEP-50 weak-scalar
    promotion never upcasts float32 intermediates.
    """
    (i0, c0) = terms[0]
    v0 = views[i0]
    if c0 == 1.0:
        np.copyto(out, v0)
    elif c0 == -1.0:
        np.negative(v0, out=out)
    else:
        np.multiply(v0, c0, out=out)
    for i, c in terms[1:]:
        v = views[i]
        if c == 1.0:
            out += v
        elif c == -1.0:
            out -= v
        else:
            out += c * v


def scatter_accumulate(step, M, Ct, scratch=None) -> None:
    """Immediately accumulate one computed product into its C tiles.

    The ±1 fast paths cover the discrete catalog.  A non-unit coefficient
    (float-status entries) scales through ``scratch`` — a preallocated
    block-sized strip buffer — when the pipeline provides one, so the
    accumulate stays dtype-matched and allocation-free; without a scratch
    buffer it falls back to one block-sized ``w * M`` temporary per term
    (bounded by a single block, not by R, so the fused pipeline's
    O(group) footprint claim is unaffected either way).
    """
    for i, w in step.c_terms:
        v = Ct[i]
        if w == 1.0:
            v += M
        elif w == -1.0:
            v -= M
        elif scratch is not None:
            np.multiply(M, w, out=scratch)
            v += scratch
        else:
            v += w * M


class NumpyProductLeaf:
    """Default leaf kernel: weighted gathers + one ``matmul`` per product.

    Stateless and shared (:data:`NUMPY_LEAF`); works on 2-D and batched
    operands alike because every operation runs on the trailing two axes.
    """

    supports_batch = True    #: leading batch axes handled natively
    #: Recycled buffers this leaf's ``product`` actually reads: the
    #: ungathered pipeline allocates exactly these (a fully-fused kernel
    #: like the BLIS abc leaf needs none).
    needs_buffers = ("S", "T", "M")

    def product(self, step, Av, Bv, Ct, S, T, M) -> None:
        """Stream one product: gather combos, multiply, scatter-accumulate."""
        gather(step.a_terms, Av, S)
        gather(step.b_terms, Bv, T)
        np.matmul(S, T, out=M)
        scatter_accumulate(step, M, Ct)

    def fringe(self, f, A, B, C) -> None:
        C[..., f.c_rows, f.c_cols] += (
            A[..., f.a_rows, f.a_cols] @ B[..., f.b_rows, f.b_cols]
        )


#: The shared stateless default leaf.
NUMPY_LEAF = NumpyProductLeaf()
