"""The Naive / AB / ABC write-back variants as leaf kernels (paper §4.1).

All three variants compute the same products ``M_r`` (eq. 5); they differ
in where the linear combinations happen and what workspace they require:

* ``naive`` — classical implementation: explicit temporaries for the
  A-sum, the B-sum and the product ``M_r``; every temporary makes a DRAM
  round trip.  Structurally this is what the reference framework [1]
  does, and what the runtime's *staged* lowering materializes.
* ``ab`` — the A/B sums are fused into the packing of ``A~``/``B~`` (no
  A/B temporaries), but ``M_r`` is still materialized and then scattered
  into the destination submatrices of C.
* ``abc`` — additionally fuses the W-weighted C updates into the
  macro/micro-kernel: each computed block is added to every destination
  while cache-hot, so no ``M_r`` buffer exists at all.

Since the streaming-runtime refactor there is **no loop nest here**: the
iteration over products lives in the fused phase of
:mod:`repro.core.runtime`, and this module contributes only the
per-product *leaf kernel* for the simulated-BLIS substrate —
:class:`BlisProductLeaf` — which executes one
:class:`~repro.core.plan.ProductStep` through :func:`packed_gemm` with
the variant's fusion semantics and charges the operation counters the
performance model prices.  ``VARIANTS`` is re-exported from
:mod:`repro.core.spec`, the canonical home of variant validation.
"""

from __future__ import annotations

import numpy as np

from repro.blis.counters import OpCounters
from repro.blis.gemm import packed_gemm
from repro.blis.params import BlockingParams
from repro.core.spec import VARIANTS, normalize_variant

__all__ = ["VARIANTS", "BlisProductLeaf"]


def _scatter_temp(
    M: np.ndarray,
    targets,
    counters: OpCounters | None,
) -> None:
    """``C_p += w * M_r`` from an explicit temporary (naive / AB variants)."""
    size = float(M.size)
    for w, view in targets:
        if w == 1:
            view += M
        elif w == -1:
            view -= M
        else:
            view += w * M
    if counters is not None:
        # Each update reads M_r and C_p and writes C_p: 3 transfers/element.
        counters.temp_c_traffic += 3.0 * size * len(targets)
        counters.c_add_flops += 2.0 * size * len(targets)


def _explicit_sum(ops, out: np.ndarray, counters: OpCounters | None,
                  which: str) -> np.ndarray:
    """Naive-variant operand sum materialized into a recycled buffer."""
    out[...] = 0.0
    for c, view in ops:
        if c == 1:
            out += view
        elif c == -1:
            out -= view
        else:
            out += c * view
    if counters is not None:
        size = float(out.size)
        # Read every source once, write the temporary once.
        traffic = (len(ops) + 1.0) * size
        if which == "A":
            counters.temp_a_traffic += traffic
            counters.a_add_flops += 2.0 * max(len(ops) - 1, 0) * size
        else:
            counters.temp_b_traffic += traffic
            counters.b_add_flops += 2.0 * max(len(ops) - 1, 0) * size
    return out


class BlisProductLeaf:
    """Per-product leaf kernel for the simulated-BLIS substrate.

    Plugged into :func:`repro.core.runtime.execute_plan` by
    :class:`~repro.core.executor.BlockedEngine`: the runtime's fused
    phase walks the products and calls :meth:`product` once per
    :class:`~repro.core.plan.ProductStep`, with the variant deciding how
    much of the linear algebra is fused into the packed five-loop GEMM.
    2-D only (``supports_batch`` is false — the runtime loops batch
    elements), and staged slab phases are meaningless for a packed
    kernel, so the runtime always lowers fused for this leaf.

    ``pool`` (a ``ThreadPoolExecutor`` or None) parallelizes the packed
    GEMM's 3rd (``ic``) loop — the paper's data parallelism.  Its
    workers own disjoint row bands of C and never touch ``counters``
    (:func:`~repro.blis.gemm.packed_gemm` charges them up front), so
    every product and fringe charges the engine's counters directly.
    """

    supports_batch = False

    #: Per-variant recycled-buffer needs: abc fuses everything into the
    #: packed kernel (no buffers at all — the paper's "no M_r buffer"
    #: claim holds in the reported peak too), ab materializes only M_r,
    #: naive additionally stages the explicit A/B sums.
    _NEEDS = {"abc": (), "ab": ("M",), "naive": ("S", "T", "M")}

    def __init__(
        self,
        variant: str = "abc",
        params: BlockingParams | None = None,
        counters: OpCounters | None = None,
        mode: str = "slab",
        pool=None,
    ) -> None:
        self.variant = normalize_variant(variant)
        self.params = params or BlockingParams()
        self.counters = counters
        self.mode = mode
        self.pool = pool

    @property
    def needs_buffers(self) -> tuple[str, ...]:
        return self._NEEDS[self.variant]

    def product(self, step, Av, Bv, Ct, S, T, M) -> None:
        """One ``M_r`` through the packed substrate in the leaf's variant."""
        counters, pool = self.counters, self.pool
        a_ops = [(c, Av[i]) for i, c in step.a_terms]
        b_ops = [(c, Bv[i]) for i, c in step.b_terms]
        c_ops = [(c, Ct[i]) for i, c in step.c_terms]

        if self.variant == "abc":
            # Fully fused: sums inside packing, C updates inside the kernel.
            packed_gemm(a_ops, b_ops, c_ops, self.params, counters,
                        mode=self.mode, pool=pool)
            return

        if self.variant == "naive":
            # Explicit A/B sum temporaries (one DRAM round trip each).
            _explicit_sum(a_ops, S, counters, "A")
            _explicit_sum(b_ops, T, counters, "B")
            a_ops = [(1.0, S)]
            b_ops = [(1.0, T)]

        M[...] = 0.0
        packed_gemm(a_ops, b_ops, [(1.0, M)], self.params, counters,
                    mode=self.mode, pool=pool)
        _scatter_temp(M, c_ops, counters)

    def fringe(self, f, A, B, C) -> None:
        """Peel-fringe GEMM through the packed substrate."""
        packed_gemm(
            [(1.0, A[f.a_rows, f.a_cols])],
            [(1.0, B[f.b_rows, f.b_cols])],
            [(1.0, C[f.c_rows, f.c_cols])],
            self.params,
            self.counters,
            mode=self.mode,
            pool=self.pool,
        )
