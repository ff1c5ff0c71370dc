"""Multi-level FMM composition via Kronecker products (paper §3.4–3.5).

An L-level FMM algorithm applies a (possibly different) ``<m~_l, k~_l,
n~_l>`` algorithm at every level of recursion.  With recursive-block operand
indexing, its coefficients are simply the Kronecker products of the
per-level coefficients — which turns the recursion into a flat loop over
``R_L = prod R_l`` products (eq. (5)).  :class:`MultiLevelFMM` carries the
level list and lazily materializes the composed coefficients.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.fmm import FMMAlgorithm

__all__ = ["MultiLevelFMM", "StackStats"]


class StackStats(NamedTuple):
    """What the §4.4 model prices of an algorithm: no coefficients.

    :func:`repro.model.terms.term_table` and
    :func:`repro.model.perfmodel.predict_fmm` read only these fields
    (``dims_total``, ``rank_total``, ``nnz_uvw()`` and ``name``), so a
    :class:`StackStats` prices exactly like the :class:`MultiLevelFMM` it
    describes, and ranking a schedule never needs its coefficients.
    """

    dims_total: tuple[int, int, int]
    rank_total: int
    nnz: tuple[int, int, int]
    name: str

    def nnz_uvw(self) -> tuple[int, int, int]:
        return self.nnz

    @classmethod
    def of(cls, algo: FMMAlgorithm) -> "StackStats":
        """One level: the algorithm's own dims, rank, nnz and name."""
        return cls(algo.dims, algo.rank, algo.nnz_uvw(), algo.name)

    @classmethod
    def compose(cls, levels: Sequence["StackStats"]) -> "StackStats":
        """The stats of the Kronecker composition of ``levels``.

        Partition dims, rank and each nnz multiply level by level: a
        Kronecker product's nonzeros are the products of its factors'
        nonzeros, so ``nnz(X1 (x) X2) = nnz(X1) * nnz(X2)`` exactly.
        """
        m = k = n = r = u = v = w = 1
        for s in levels:
            sm, sk, sn = s.dims_total
            su, sv, sw = s.nnz
            m, k, n, r = m * sm, k * sk, n * sn, r * s.rank_total
            u, v, w = u * su, v * sv, w * sw
        return cls((m, k, n), r, (u, v, w),
                   " (x) ".join(s.name for s in levels))


class MultiLevelFMM:
    """An L-level (possibly hybrid) FMM algorithm.

    Parameters
    ----------
    levels:
        The per-level one-level algorithms, outermost first.  A homogeneous
        L-level Strassen is ``MultiLevelFMM([strassen()] * L)``.

    Notes
    -----
    Coefficient row indices refer to *recursive-block* (Morton-like)
    ordering of the operand partitions; :func:`repro.core.morton.block_views`
    produces views in exactly that order.
    """

    def __init__(self, levels: list[FMMAlgorithm] | tuple[FMMAlgorithm, ...]):
        if not levels:
            raise ValueError("need at least one level")
        self.levels: tuple[FMMAlgorithm, ...] = tuple(levels)

    # ------------------------------------------------------------------ #
    @property
    def L(self) -> int:
        return len(self.levels)

    @cached_property
    def stats(self) -> StackStats:
        """The model's inputs, composed from the per-level algorithms."""
        return StackStats.compose([StackStats.of(a) for a in self.levels])

    @property
    def dims_total(self) -> tuple[int, int, int]:
        """``(M~_L, K~_L, N~_L)`` — the products of per-level partition dims."""
        return self.stats.dims_total

    @property
    def rank_total(self) -> int:
        """``R_L = prod_l R_l`` — number of submatrix multiplications."""
        return self.stats.rank_total

    @property
    def name(self) -> str:
        return self.stats.name

    def grids(self, operand: str) -> list[tuple[int, int]]:
        """Per-level partition grids for operand 'A', 'B' or 'C'."""
        if operand == "A":
            return [(a.m, a.k) for a in self.levels]
        if operand == "B":
            return [(a.k, a.n) for a in self.levels]
        if operand == "C":
            return [(a.m, a.n) for a in self.levels]
        raise ValueError(f"operand must be A, B or C, not {operand!r}")

    # ------------------------------------------------------------------ #
    @cached_property
    def U(self) -> np.ndarray:
        """Composed ``(prod m_l k_l) x R_L`` coefficients (recursive order)."""
        return _kron_all([a.U for a in self.levels])

    @cached_property
    def V(self) -> np.ndarray:
        return _kron_all([a.V for a in self.levels])

    @cached_property
    def W(self) -> np.ndarray:
        return _kron_all([a.W for a in self.levels])

    @cached_property
    def columns(self) -> list[tuple]:
        """Per-product sparse operand lists.

        Entry ``r`` is ``(a_idx, a_coef, b_idx, b_coef, c_idx, c_coef)``
        with the nonzero row indices and coefficients of column ``r`` of the
        composed U, V, W — the exact operand lists of eq. (5) that the
        engines and the code generator consume.
        """
        cols = []
        for r in range(self.rank_total):
            u = self.U[:, r]
            v = self.V[:, r]
            w = self.W[:, r]
            ai = np.nonzero(u)[0]
            bi = np.nonzero(v)[0]
            ci = np.nonzero(w)[0]
            cols.append((ai, u[ai], bi, v[bi], ci, w[ci]))
        return cols

    def nnz_uvw(self) -> tuple[int, int, int]:
        """``nnz`` of the composed coefficients (performance-model inputs):
        the product of the per-level counts, so no Kronecker product is
        formed to price a schedule."""
        return self.stats.nnz

    def theoretical_speedup(self) -> float:
        """Arithmetic-count speedup over classical for the full L levels."""
        m, k, n = self.dims_total
        return (m * k * n) / self.rank_total

    def __repr__(self) -> str:
        m, k, n = self.dims_total
        return (
            f"MultiLevelFMM(L={self.L}, <{m},{k},{n}>, R={self.rank_total}, "
            f"levels=[{self.name}])"
        )


def _kron_all(mats: list[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for M in mats[1:]:
        out = np.kron(out, M)
    return np.ascontiguousarray(out)
