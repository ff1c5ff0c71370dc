"""Exact rank-preserving transforms on FMM algorithms.

The Fig.-2 family of the paper is generated from a handful of base triples
using the symmetries of the matrix multiplication tensor:

* :func:`rotate` — cyclic symmetry ``<m,k,n> -> <k,n,m>`` (rank preserved);
* :func:`transpose_dual` — transpose symmetry ``<m,k,n> -> <n,k,m>``;
* :func:`direct_sum_m` / :func:`direct_sum_k` / :func:`direct_sum_n` —
  block-splitting one operand dimension, ``R = R1 + R2``;
* :func:`kron_compose` — the paper's Kronecker composition (§3.4) flattened
  back to a single-level row-major triple.

Every constructor validates its output against the Brent equations, so a
bug in the index bookkeeping cannot silently corrupt the catalog.
"""

from __future__ import annotations

import numpy as np

from repro.core.fmm import FMMAlgorithm
from repro.core.kronecker import StackStats
from repro.core.morton import recursive_to_rowmajor

__all__ = [
    "transpose_rows",
    "rotate",
    "rotations",
    "transpose_dual",
    "all_orientations",
    "orient",
    "orientation_stats",
    "direct_sum_m",
    "direct_sum_k",
    "direct_sum_n",
    "kron_compose",
]


def transpose_rows(X: np.ndarray, r: int, c: int) -> np.ndarray:
    """Permute rows of ``X`` from an ``(r, c)`` row-major grid to ``(c, r)``.

    Row ``a*c + b`` of ``X`` becomes row ``b*r + a`` of the result; this is
    the row permutation induced by transposing the block grid an operand's
    coefficient rows are indexed by.
    """
    if X.shape[0] != r * c:
        raise ValueError(f"X has {X.shape[0]} rows, expected {r}*{c}")
    return np.ascontiguousarray(
        X.reshape(r, c, *X.shape[1:]).swapaxes(0, 1).reshape(X.shape))


def rotate(algo: FMMAlgorithm) -> FMMAlgorithm:
    """Cyclic rotation: a ``<m,k,n>`` algorithm yields ``<k,n,m>``.

    Derivation: the trilinear form ``t(A, B, Cbar) = trace(A B Cbar^T)`` is
    invariant under ``(A, B, Cbar) -> (B, Cbar^T, A^T)``; tracking the
    row-major block indices through the two transposes gives

        U' = V,   V' = transpose_rows(W, m, n),   W' = transpose_rows(U, m, k)
    """
    m, k, n = algo.dims
    out = FMMAlgorithm(
        m=k,
        k=n,
        n=m,
        U=algo.V,
        V=transpose_rows(algo.W, m, n),
        W=transpose_rows(algo.U, m, k),
        name=f"<{k},{n},{m}>:{algo.rank}",
        source=f"rotate({algo.name})",
    )
    return out.validate()


def rotations(algo: FMMAlgorithm) -> list[FMMAlgorithm]:
    """The three cyclic rotations ``[algo, rotate(algo), rotate^2(algo)]``."""
    r1 = rotate(algo)
    return [algo, r1, rotate(r1)]


def transpose_dual(algo: FMMAlgorithm) -> FMMAlgorithm:
    """Transpose symmetry: a ``<m,k,n>`` algorithm yields ``<n,k,m>``.

    Derivation: apply the original algorithm to ``C'^T = B'^T A'^T``; block
    (i1, i2) of ``B'^T`` is the transpose of block (i2, i1) of ``B'``, giving

        U' = transpose_rows(V, k, n),  V' = transpose_rows(U, m, k),
        W' = transpose_rows(W, m, n)
    """
    m, k, n = algo.dims
    out = FMMAlgorithm(
        m=n,
        k=k,
        n=m,
        U=transpose_rows(algo.V, k, n),
        V=transpose_rows(algo.U, m, k),
        W=transpose_rows(algo.W, m, n),
        name=f"<{n},{k},{m}>:{algo.rank}",
        source=f"transpose_dual({algo.name})",
    )
    return out.validate()


def all_orientations(algo: FMMAlgorithm) -> dict[tuple[int, int, int], FMMAlgorithm]:
    """All distinct ``<m,k,n>`` orientations reachable by rotation/transpose.

    For a base shape with distinct dimensions this covers all six
    permutations of ``(m, k, n)``; shapes with repeated dimensions collapse
    to fewer entries (first construction wins).
    """
    seen: dict[tuple[int, int, int], FMMAlgorithm] = {}
    for a in rotations(algo):
        seen.setdefault(a.dims, a)
    for a in rotations(transpose_dual(algo)):
        seen.setdefault(a.dims, a)
    return seen


def _orientation_order(dims):
    """``(dims, transposed, turns)`` of each orientation, in
    :func:`all_orientations`' construction order: the three rotations of
    the algorithm, then the three of its transpose dual."""
    m, k, n = dims
    return (((m, k, n), False, 0), ((k, n, m), False, 1),
            ((n, m, k), False, 2), ((n, k, m), True, 0),
            ((k, m, n), True, 1), ((m, n, k), True, 2))


def orient(algo: FMMAlgorithm, dims) -> FMMAlgorithm:
    """``all_orientations(algo)[dims]``, building only that orientation.

    The same transforms in the same order, so the result is identical,
    but at most three are built and validated instead of five.  Raises
    ``KeyError`` when ``dims`` is not an orientation of ``algo``.
    """
    for d, transposed, turns in _orientation_order(algo.dims):
        if d == tuple(dims):
            out = transpose_dual(algo) if transposed else algo
            for _ in range(turns):
                out = rotate(out)
            return out
    raise KeyError(f"{tuple(dims)} is not an orientation of {algo.dims}")


def orientation_stats(
    algo: FMMAlgorithm,
) -> dict[tuple[int, int, int], StackStats]:
    """:func:`all_orientations` reduced to what the model prices.

    Both transforms only permute coefficient rows and swap matrices, so
    rank is kept and the ``(U, V, W)`` nnz triple is permuted:
    :func:`rotate` maps it to ``(V, W, U)`` and :func:`transpose_dual` to
    ``(V, U, W)``.  Following :func:`all_orientations`' order (first one
    wins) and names, each entry equals
    ``StackStats.of(all_orientations(algo)[dims])`` without building or
    validating a single orientation.
    """
    seen: dict[tuple[int, int, int], StackStats] = {}
    for d, transposed, turns in _orientation_order(algo.dims):
        if d in seen:
            continue
        u, v, w = algo.nnz_uvw()
        if transposed:
            u, v = v, u
        for _ in range(turns):
            u, v, w = v, w, u
        name = (algo.name if not (transposed or turns)
                else "<%d,%d,%d>:%d" % (*d, algo.rank))
        seen[d] = StackStats(d, algo.rank, (u, v, w), name)
    return seen


# ---------------------------------------------------------------------- #
# Direct sums (block splitting along one dimension)
# ---------------------------------------------------------------------- #
def _stack_rows_split(
    X1: np.ndarray,
    X2: np.ndarray,
    outer1: int,
    outer2: int,
    inner: int,
    R1: int,
    R2: int,
    outer_major: bool,
) -> np.ndarray:
    """Interleave coefficient rows of two summands over a split grid.

    The combined operand grid has ``outer1 + outer2`` blocks along the split
    dimension and ``inner`` along the other.  ``outer_major`` says whether
    the split dimension is the row-major-major axis of the grid.
    """
    rows = (outer1 + outer2) * inner
    Y = np.zeros((rows, R1 + R2), dtype=X1.dtype)
    for a in range(outer1 + outer2):
        for b in range(inner):
            row = a * inner + b if outer_major else b * (outer1 + outer2) + a
            if a < outer1:
                src = a * inner + b if outer_major else b * outer1 + a
                Y[row, :R1] = X1[src]
            else:
                aa = a - outer1
                src = aa * inner + b if outer_major else b * outer2 + aa
                Y[row, R1:] = X2[src]
    return Y


def direct_sum_n(a1: FMMAlgorithm, a2: FMMAlgorithm) -> FMMAlgorithm:
    """``<m,k,n1> (+) <m,k,n2> -> <m,k,n1+n2>`` with rank ``R1+R2``.

    The columns of B and C are split: A is shared (``U' = [U1 | U2]``) while
    V and W rows are routed to the summand owning each column block.
    """
    if (a1.m, a1.k) != (a2.m, a2.k):
        raise ValueError(f"n-sum needs matching m,k: {a1.dims} vs {a2.dims}")
    m, k = a1.m, a1.k
    n1, n2 = a1.n, a2.n
    R1, R2 = a1.rank, a2.rank
    U = np.concatenate([a1.U, a2.U], axis=1)
    V = _stack_rows_split(a1.V, a2.V, n1, n2, k, R1, R2, outer_major=False)
    W = _stack_rows_split(a1.W, a2.W, n1, n2, m, R1, R2, outer_major=False)
    out = FMMAlgorithm(
        m=m, k=k, n=n1 + n2, U=U, V=V, W=W,
        name=f"<{m},{k},{n1 + n2}>:{R1 + R2}",
        source=f"direct_sum_n({a1.name}, {a2.name})",
    )
    return out.validate()


def direct_sum_m(a1: FMMAlgorithm, a2: FMMAlgorithm) -> FMMAlgorithm:
    """``<m1,k,n> (+) <m2,k,n> -> <m1+m2,k,n>`` with rank ``R1+R2``.

    The rows of A and C are split: B is shared (``V' = [V1 | V2]``).
    """
    if (a1.k, a1.n) != (a2.k, a2.n):
        raise ValueError(f"m-sum needs matching k,n: {a1.dims} vs {a2.dims}")
    k, n = a1.k, a1.n
    m1, m2 = a1.m, a2.m
    R1, R2 = a1.rank, a2.rank
    V = np.concatenate([a1.V, a2.V], axis=1)
    U = _stack_rows_split(a1.U, a2.U, m1, m2, k, R1, R2, outer_major=True)
    W = _stack_rows_split(a1.W, a2.W, m1, m2, n, R1, R2, outer_major=True)
    out = FMMAlgorithm(
        m=m1 + m2, k=k, n=n, U=U, V=V, W=W,
        name=f"<{m1 + m2},{k},{n}>:{R1 + R2}",
        source=f"direct_sum_m({a1.name}, {a2.name})",
    )
    return out.validate()


def direct_sum_k(a1: FMMAlgorithm, a2: FMMAlgorithm) -> FMMAlgorithm:
    """``<m,k1,n> (+) <m,k2,n> -> <m,k1+k2,n>`` with rank ``R1+R2``.

    The inner dimension is split: ``C = A_left B_top + A_right B_bottom``,
    so C is shared (``W' = [W1 | W2]``).
    """
    if (a1.m, a1.n) != (a2.m, a2.n):
        raise ValueError(f"k-sum needs matching m,n: {a1.dims} vs {a2.dims}")
    m, n = a1.m, a1.n
    k1, k2 = a1.k, a2.k
    R1, R2 = a1.rank, a2.rank
    W = np.concatenate([a1.W, a2.W], axis=1)
    U = _stack_rows_split(a1.U, a2.U, k1, k2, m, R1, R2, outer_major=False)
    V = _stack_rows_split(a1.V, a2.V, k1, k2, n, R1, R2, outer_major=True)
    out = FMMAlgorithm(
        m=m, k=k1 + k2, n=n, U=U, V=V, W=W,
        name=f"<{m},{k1 + k2},{n}>:{R1 + R2}",
        source=f"direct_sum_k({a1.name}, {a2.name})",
    )
    return out.validate()


# ---------------------------------------------------------------------- #
# Kronecker composition, flattened to one level
# ---------------------------------------------------------------------- #
def kron_compose(outer: FMMAlgorithm, inner: FMMAlgorithm) -> FMMAlgorithm:
    """Compose two algorithms into one ``<m1*m2, k1*k2, n1*n2>`` triple.

    The paper represents the two-level algorithm by the Kronecker products
    ``U1 (x) U2`` etc., valid with *recursive-block* operand indexing
    (§3.4).  This function additionally permutes the rows back to flat
    row-major indexing so the result is a self-contained one-level
    :class:`FMMAlgorithm` usable anywhere a base triple is.
    """
    m1, k1, n1 = outer.dims
    m2, k2, n2 = inner.dims
    R = outer.rank * inner.rank

    def flat(Xk: np.ndarray, g1: tuple[int, int], g2: tuple[int, int]) -> np.ndarray:
        perm = recursive_to_rowmajor([g1, g2])
        Y = np.empty_like(Xk)
        Y[perm] = Xk
        return Y

    U = flat(np.kron(outer.U, inner.U), (m1, k1), (m2, k2))
    V = flat(np.kron(outer.V, inner.V), (k1, n1), (k2, n2))
    W = flat(np.kron(outer.W, inner.W), (m1, n1), (m2, n2))
    out = FMMAlgorithm(
        m=m1 * m2, k=k1 * k2, n=n1 * n2, U=U, V=V, W=W,
        name=f"<{m1 * m2},{k1 * k2},{n1 * n2}>:{R}",
        source=f"kron_compose({outer.name}, {inner.name})",
    )
    return out.validate()
