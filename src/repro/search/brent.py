"""Brent equations for fast matrix multiplication algorithms.

An FMM algorithm for the ``<m, k, n>`` partitioning is a triple of
coefficient matrices ``(U, V, W)`` with shapes ``(m*k, R)``, ``(k*n, R)``
and ``(m*n, R)``.  The algorithm computes ``C += A @ B`` via

    M_r = (sum_i U[i, r] * A_i) @ (sum_j V[j, r] * B_j)
    C_p += W[p, r] * M_r

where ``A_i``, ``B_j`` and ``C_p`` index the partition blocks of the three
operands in *row-major* order (paper, eq. (3)).

Such a triple is a correct matrix multiplication algorithm if and only if it
satisfies the Brent equations: the rank-R CP decomposition

    sum_r U[:, r] (x) V[:, r] (x) W[:, r]  ==  T_{m,k,n}

where ``T_{m,k,n}`` is the matrix multiplication tensor defined below.  This
module builds the tensor, evaluates residuals, and provides the exact
verification predicate that gates every algorithm admitted to the catalog.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "matmul_tensor",
    "brent_residual_tensor",
    "brent_max_residual",
    "brent_frobenius_residual",
    "verify_brent",
    "verify_brent_exact",
]


def matmul_tensor(m: int, k: int, n: int, dtype=np.float64) -> np.ndarray:
    """Return the ``<m, k, n>`` matrix multiplication tensor.

    The tensor ``T`` has shape ``(m*k, k*n, m*n)``.  With row-major block
    indices ``i = i1*k + i2`` (over A), ``j = j1*n + j2`` (over B) and
    ``p = p1*n + p2`` (over C),

        T[i, j, p] = 1  iff  i2 == j1 and i1 == p1 and j2 == p2

    i.e. exactly when ``A_{i1,i2} * B_{j1,j2}`` contributes to ``C_{p1,p2}``
    in the classical product.
    """
    if m < 1 or k < 1 or n < 1:
        raise ValueError(f"partition dims must be positive, got {(m, k, n)}")
    T = np.zeros((m * k, k * n, m * n), dtype=dtype)
    i1, i2, j2 = np.ix_(range(m), range(k), range(n))
    T[i1 * k + i2, i2 * n + j2, i1 * n + j2] = 1
    return T


@lru_cache(maxsize=None)
def _read_only_tensor(m: int, k: int, n: int) -> np.ndarray:
    """:func:`matmul_tensor` for the residual checks, built once per shape
    (catalog construction validates the same small shapes repeatedly)."""
    T = matmul_tensor(m, k, n)
    T.setflags(write=False)
    return T


def _cp_reconstruct(U: np.ndarray, V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Evaluate ``sum_r U[:,r] (x) V[:,r] (x) W[:,r]`` as a dense tensor.

    One GEMM over the row-wise products of ``U`` and ``V``: the same sum
    ``einsum("ir,jr,pr->ijp")`` forms, without its path search, which
    costs more than the product on catalog-sized triples.
    """
    R = U.shape[1]
    UV = (U[:, None, :] * V[None, :, :]).reshape(-1, R)
    return (UV @ W.T).reshape(U.shape[0], V.shape[0], W.shape[0])


def brent_residual_tensor(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, m: int, k: int, n: int
) -> np.ndarray:
    """Residual tensor ``CP(U,V,W) - T_{m,k,n}``."""
    _check_shapes(U, V, W, m, k, n)
    return _cp_reconstruct(U, V, W) - _read_only_tensor(m, k, n)


def brent_max_residual(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, m: int, k: int, n: int
) -> float:
    """Maximum absolute entry of the Brent residual."""
    return float(np.max(np.abs(brent_residual_tensor(U, V, W, m, k, n))))


def brent_frobenius_residual(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, m: int, k: int, n: int
) -> float:
    """Frobenius norm of the Brent residual."""
    return float(np.linalg.norm(brent_residual_tensor(U, V, W, m, k, n)))


def verify_brent(
    U: np.ndarray,
    V: np.ndarray,
    W: np.ndarray,
    m: int,
    k: int,
    n: int,
    tol: float = 1e-10,
) -> bool:
    """True iff ``(U, V, W)`` satisfies the Brent equations within ``tol``."""
    return brent_max_residual(U, V, W, m, k, n) <= tol


def verify_brent_exact(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, m: int, k: int, n: int
) -> bool:
    """Exact rational verification of the Brent equations.

    Entries are converted to :class:`fractions.Fraction` via
    ``Fraction(x).limit_denominator(2**16)``; the check is exact for
    coefficient triples whose entries are small rationals (every triple this
    package ships).  Irrational or high-denominator entries make the
    conversion lossy, in which case this predicate correctly reports the
    rounded triple as invalid rather than giving a false positive.
    """
    _check_shapes(U, V, W, m, k, n)
    R = U.shape[1]
    Uf = _to_fractions(U)
    Vf = _to_fractions(V)
    Wf = _to_fractions(W)
    T = matmul_tensor(m, k, n)
    for i in range(m * k):
        for j in range(k * n):
            for p in range(m * n):
                s = Fraction(0)
                for r in range(R):
                    uf = Uf[i][r]
                    if not uf:
                        continue
                    vf = Vf[j][r]
                    if not vf:
                        continue
                    s += uf * vf * Wf[p][r]
                if s != Fraction(int(T[i, j, p])):
                    return False
    return True


def _to_fractions(X: np.ndarray) -> list[list[Fraction]]:
    return [
        [Fraction(float(x)).limit_denominator(2**16) for x in row] for row in X
    ]


def _check_shapes(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, m: int, k: int, n: int
) -> None:
    if U.ndim != 2 or V.ndim != 2 or W.ndim != 2:
        raise ValueError("U, V, W must be 2-D coefficient matrices")
    R = U.shape[1]
    if V.shape[1] != R or W.shape[1] != R:
        raise ValueError(
            f"rank mismatch: U has {R} columns, V {V.shape[1]}, W {W.shape[1]}"
        )
    expect = {"U": (m * k, R), "V": (k * n, R), "W": (m * n, R)}
    got = {"U": U.shape, "V": V.shape, "W": W.shape}
    for name in ("U", "V", "W"):
        if got[name] != expect[name]:
            raise ValueError(
                f"{name} has shape {got[name]}, expected {expect[name]} "
                f"for <{m},{k},{n}>"
            )
