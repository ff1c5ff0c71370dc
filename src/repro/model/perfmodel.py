"""Execution-time prediction: ``T = T_a + T_m`` and Effective GFLOPS.

The headline metric of every figure in the paper is *Effective GFLOPS* =
``2 m n k / T * 1e-9`` — classical flops over wall time, so FMM algorithms
can exceed "peak" by doing less arithmetic.  The multicore extension
divides arithmetic across cores while memory time is bounded by the shared
socket bandwidth already encoded in the machine config, which is precisely
the contention the paper observes at 10 cores (§5.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.kronecker import MultiLevelFMM
from repro.model.machines import MachineParams
from repro.model.terms import TermTable, gemm_term_table, term_table

__all__ = [
    "ModelPrediction",
    "effective_gflops",
    "predict_fmm",
    "predict_gemm",
    "predict_tile_window_bytes",
    "predict_workspace_bytes",
    "predict_fusion_savings",
    "calibrate_lambda",
]

@dataclass
class ModelPrediction:
    """Predicted time decomposition for one configuration (a value; not
    frozen for the same reason as :class:`~repro.model.terms.TermTable`)."""

    m: int
    k: int
    n: int
    label: str
    time: float
    arithmetic_time: float
    memory_time: float
    table: TermTable

    @property
    def effective_gflops(self) -> float:
        return effective_gflops(self.m, self.k, self.n, self.time)


def effective_gflops(m: int, k: int, n: int, time: float) -> float:
    """``2 m n k / time * 1e-9`` (Fig. 5, eq. 1)."""
    if time <= 0:
        raise ValueError("time must be positive")
    return 2.0 * m * n * k / time * 1e-9


def predict_fmm(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM,
    variant: str,
    machine: MachineParams,
) -> ModelPrediction:
    """Model prediction for an L-level FMM implementation."""
    tab = term_table(m, k, n, ml, variant, machine)
    ta = tab.arithmetic_time / machine.cores
    tm = tab.memory_time
    return ModelPrediction(
        m=m, k=k, n=n,
        label=f"{ml.name}/{variant}",
        time=ta + tm,
        arithmetic_time=ta,
        memory_time=tm,
        table=tab,
    )


def predict_gemm(m: int, k: int, n: int, machine: MachineParams) -> ModelPrediction:
    """Model prediction for the BLIS dgemm baseline."""
    tab = gemm_term_table(m, k, n, machine)
    ta = tab.arithmetic_time / machine.cores
    tm = tab.memory_time
    return ModelPrediction(
        m=m, k=k, n=n,
        label="gemm",
        time=ta + tm,
        arithmetic_time=ta,
        memory_time=tm,
        table=tab,
    )


def _core_blocks(m: int, k: int, n: int, ml: MultiLevelFMM):
    """Core block sizes and per-operand block counts (fringe ignored,
    like every other term in the model)."""
    Mt, Kt, Nt = ml.dims_total
    bm, bk, bn = m // Mt, k // Kt, n // Nt
    Pa = math.prod(r * c for r, c in ml.grids("A"))
    Pb = math.prod(r * c for r, c in ml.grids("B"))
    Pc = math.prod(r * c for r, c in ml.grids("C"))
    return bm, bk, bn, Pa, Pb, Pc


def predict_workspace_bytes(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM,
    fusion: str = "fused",
    threads: int = 1,
    dtype=np.float64,
) -> int:
    """Peak workspace bytes the runtime's lowering mode checks out.

    This is the model twin of the runtime's arena specs
    (``repro.core.runtime._staged_workspace_spec`` /
    ``_grouped_workspace_spec``) for a 2-D multiply whose core covers the
    problem: both pipelines stage the gathered operand slabs (O(blocks of
    A/B)), but the staged one additionally materializes all ``R`` stacked
    ``S``/``T``/``M`` intermediates plus the scatter staging (O(R) live
    product buffers), while the fused pipeline holds one *group* of
    ``S``/``T``/``M`` strips per worker, plus per-worker ``Cacc``
    accumulators when several workers share ``C`` (O(threads · group)
    live buffers).  Model and runtime agreeing on these numbers is
    asserted in ``tests/core/test_fusion.py``.
    """
    from repro.core.spec import validate_resolved_fusion

    fusion = validate_resolved_fusion(fusion)
    if fusion == "tiled":
        # The tiled lowering's RAM working set is the strip window —
        # everything slab-scale is mmap-spilled and uncharged.
        return predict_tile_window_bytes(
            m, k, n, ml, threads=threads, dtype=dtype
        )
    bm, bk, bn, Pa, Pb, Pc = _core_blocks(m, k, n, ml)
    if min(bm, bk, bn) < 1:
        return 0  # partition coarser than the problem: no core, no slabs
    R = ml.rank_total
    per_product = bm * bk + bk * bn + bm * bn
    operand_slabs = Pa * bm * bk + Pb * bk * bn
    if fusion == "staged":
        elements = operand_slabs + R * per_product + Pc * bm * bn
    else:
        from repro.core.spec import effective_fused_group

        slots = max(1, min(int(threads), R))
        group = min(effective_fused_group(), R)
        elements = operand_slabs + slots * group * per_product
        W = ml.W
        if bool(((W != 0) & (W != 1) & (W != -1)).any()):
            # Mirror of the runtime's per-slot scatter scratch strip
            # (allocated only for plans with non-±1 C coefficients).
            elements += slots * bm * bn
        if slots > 1:
            elements += slots * Pc * bm * bn
    return int(elements) * np.dtype(dtype).itemsize


def predict_tile_window_bytes(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM,
    threads: int = 1,
    dtype=np.float64,
    tile_rows: int = 0,
    batch: int = 1,
) -> int:
    """RAM bytes of the tiled lowering's strip window.

    The byte-exact model twin of the runtime's tiled arena spec
    (``repro.core.runtime._tiled_workspace_spec``'s non-``"mmap"``
    entries, like :func:`predict_workspace_bytes` is of the in-core
    specs): the per-slot group of ``M`` strip buffers — ``slots x group
    x batch x tile_rows x bn`` elements — plus one scratch strip per
    slot for plans with non-±1 scatter coefficients.  ``tile_rows=0``
    (the default) resolves the strip height exactly as the runtime does
    — explicit tunable, else the effective memory budget, else the full
    block (:func:`repro.core.tiles.resolve_tile_rows`) — so the priced
    window and the allocated window agree by construction; the measured
    ``peak_workspace_bytes`` of a tiled execution equals this figure.
    This is the quantity ``selection.auto_config`` and the serve
    admission controller price tiled jobs off (the window, not the
    slab).
    """
    from repro.core.spec import effective_fused_group
    from repro.core.tiles import clamp_tile_rows, resolve_tile_rows

    bm, bk, bn, Pa, Pb, Pc = _core_blocks(m, k, n, ml)
    if min(bm, bk, bn) < 1:
        return 0  # partition coarser than the problem: no core, no window
    R = ml.rank_total
    slots = max(1, min(int(threads), R))
    group = min(effective_fused_group(), R)
    item = np.dtype(dtype).itemsize
    L = max(int(batch), 1)
    W = ml.W
    has_scratch = bool(((W != 0) & (W != 1) & (W != -1)).any())
    if not tile_rows:
        tile_rows = resolve_tile_rows(
            bm, bk, bn, slots, group, lead_elems=L, itemsize=item,
            has_scratch=has_scratch,
        )
    tile_rows = clamp_tile_rows(bm, tile_rows)
    elements = slots * group * L * tile_rows * bn
    if has_scratch:
        elements += slots * L * tile_rows * bn
    return int(elements) * item


def predict_fusion_savings(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM,
    machine: MachineParams,
) -> float:
    """Seconds of temporary-slab DRAM traffic the fused pipeline removes.

    The staged lowering writes and re-reads every ``S_r``/``T_r``/``M_r``
    slab plus the scatter staging; the fused pipeline keeps those in
    per-worker cache-resident buffers.  Priced exactly like the Fig.-5
    temp terms (``tau_b`` seconds per element, one write + one read per
    temporary element), so the §4.4 model and the streaming runtime agree
    on *why* fused wins: the removed traffic is this term.
    """
    Mt, Kt, Nt = ml.dims_total
    if min(m // Mt, k // Kt, n // Nt) < 1:
        return 0.0  # partition coarser than the problem: nothing staged
    sm, sk, sn = m / Mt, k / Kt, n / Nt
    _, _, _, _, _, Pc = _core_blocks(m, k, n, ml)
    R = ml.rank_total
    elements = R * (sm * sk + sk * sn + sm * sn) + Pc * sm * sn
    return 2.0 * elements * machine.tau_b


def calibrate_lambda(
    machine: MachineParams,
    measured_gemm_gflops: float,
    m: int = 14400,
    k: int = 12000,
    n: int = 14400,
    tol: float = 1e-3,
) -> MachineParams:
    """Fit the prefetch-efficiency lambda to a measured GEMM rate (§4.2).

    Bisects lambda in [0.05, 1] so the modeled GEMM matches the observed
    Effective GFLOPS at a large, compute-bound size.  Returns a copy of the
    machine config with the fitted lambda; if even lambda=0.05 cannot reach
    the target (measurement above model peak), the closest endpoint is used.
    """
    lo, hi = 0.05, 1.0

    def rate(lam: float) -> float:
        return predict_gemm(m, k, n, machine.with_lam(lam)).effective_gflops

    if measured_gemm_gflops >= rate(lo):
        return machine.with_lam(lo)
    if measured_gemm_gflops <= rate(hi):
        return machine.with_lam(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rate(mid) > measured_gemm_gflops:
            lo = mid
        else:
            hi = mid
    return machine.with_lam(0.5 * (lo + hi))
