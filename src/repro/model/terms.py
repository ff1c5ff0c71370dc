"""The Fig.-5 term table: per-operation times and occurrence coefficients.

The model decomposes execution time into arithmetic terms (``T_a^x`` for
submatrix multiplies, ``T_a^{A+/B+/C+}`` for submatrix additions) and
memory terms (packing reads, micro-kernel C traffic, temporary-buffer
round trips), each multiplied by a variant-dependent occurrence count
``N``.  This module computes both tables exactly as printed in Fig. 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.kronecker import MultiLevelFMM
from repro.model.machines import MachineParams

__all__ = ["TermTable", "term_table", "gemm_term_table"]


@dataclass
class TermTable:
    """Unit times (seconds) and counts for one (shape, algorithm, variant).

    Not frozen: selection builds hundreds per model miss, and a frozen
    dataclass pays an ``object.__setattr__`` per field.  Treat it as a
    value.
    """

    # unit times (tau column of Fig. 5, middle table)
    t_mul: float          # T_a^x
    t_a_add: float        # T_a^{A+}
    t_b_add: float        # T_a^{B+}
    t_c_add: float        # T_a^{C+}
    t_a_pack_read: float  # T_m^{Ax}
    t_b_pack_read: float  # T_m^{Bx}
    t_c_kernel: float     # T_m^{Cx}  (includes the 2*lambda factor)
    t_a_temp: float       # T_m^{A+}
    t_b_temp: float       # T_m^{B+}
    t_c_temp: float       # T_m^{C+}
    # occurrence counts (bottom table of Fig. 5)
    n_mul: float
    n_a_add: float
    n_b_add: float
    n_c_add: float
    n_a_pack_read: float
    n_b_pack_read: float
    n_c_kernel: float
    n_a_temp: float
    n_b_temp: float
    n_c_temp: float

    @property
    def arithmetic_time(self) -> float:
        return (
            self.n_mul * self.t_mul
            + self.n_a_add * self.t_a_add
            + self.n_b_add * self.t_b_add
            + self.n_c_add * self.t_c_add
        )

    @property
    def memory_time(self) -> float:
        return (
            self.n_a_pack_read * self.t_a_pack_read
            + self.n_b_pack_read * self.t_b_pack_read
            + self.n_c_kernel * self.t_c_kernel
            + self.n_a_temp * self.t_a_temp
            + self.n_b_temp * self.t_b_temp
            + self.n_c_temp * self.t_c_temp
        )

    def breakdown(self) -> dict[str, float]:
        """Per-category times in seconds (for plots and tests)."""
        return {
            "mul": self.n_mul * self.t_mul,
            "a_add": self.n_a_add * self.t_a_add,
            "b_add": self.n_b_add * self.t_b_add,
            "c_add": self.n_c_add * self.t_c_add,
            "a_pack_read": self.n_a_pack_read * self.t_a_pack_read,
            "b_pack_read": self.n_b_pack_read * self.t_b_pack_read,
            "c_kernel": self.n_c_kernel * self.t_c_kernel,
            "a_temp": self.n_a_temp * self.t_a_temp,
            "b_temp": self.n_b_temp * self.t_b_temp,
            "c_temp": self.n_c_temp * self.t_c_temp,
        }


def term_table(
    m: int,
    k: int,
    n: int,
    ml: MultiLevelFMM,
    variant: str,
    machine: MachineParams,
) -> TermTable:
    """Fig.-5 table for an L-level FMM on an ``m x k x n`` problem.

    Submatrix sizes ``m/M~_L`` etc. are taken at real-valued precision, as
    in the paper (the model deliberately ignores fringe effects; see §4.4).
    """
    Mt, Kt, Nt = ml.dims_total
    RL = float(ml.rank_total)
    nnz_u, nnz_v, nnz_w = ml.nnz_uvw()
    sm, sk, sn = m / Mt, k / Kt, n / Nt
    ta, tb = machine.tau_a, machine.tau_b
    kc, nc = machine.blocking.kc, machine.blocking.nc
    lam = machine.lam

    # The variant-dependent counts, in field order: n_a_pack_read,
    # n_b_pack_read, n_c_kernel, n_a_temp, n_b_temp, n_c_temp.  The table
    # is built positionally because selection prices every candidate
    # schedule on each model miss, and keywords cost a third of it.
    if variant == "abc":
        counts = (float(nnz_u), float(nnz_v), float(nnz_w), 0.0, 0.0, 0.0)
    elif variant == "ab":
        counts = (float(nnz_u), float(nnz_v), RL, 0.0, 0.0, 3.0 * nnz_w)
    elif variant == "naive":
        counts = (RL, RL, RL, float(nnz_u + RL), float(nnz_v + RL),
                  3.0 * nnz_w)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return TermTable(
        2.0 * sm * sn * sk * ta,                              # t_mul
        2.0 * sm * sk * ta,                                   # t_a_add
        2.0 * sk * sn * ta,                                   # t_b_add
        2.0 * sm * sn * ta,                                   # t_c_add
        sm * sk * math.ceil(sn / nc) * tb,                    # t_a_pack_read
        sn * sk * tb,                                         # t_b_pack_read
        2.0 * lam * sm * sn * math.ceil(sk / kc) * tb,        # t_c_kernel
        sm * sk * tb,                                         # t_a_temp
        sk * sn * tb,                                         # t_b_temp
        sm * sn * tb,                                         # t_c_temp
        RL,                                                   # n_mul
        float(nnz_u - RL),                                    # n_a_add
        float(nnz_v - RL),                                    # n_b_add
        float(nnz_w),                                         # n_c_add
        *counts,
    )


def gemm_term_table(m: int, k: int, n: int, machine: MachineParams) -> TermTable:
    """Fig.-5 GEMM column: the BLIS dgemm baseline."""
    ta, tb = machine.tau_a, machine.tau_b
    kc, nc = machine.blocking.kc, machine.blocking.nc
    lam = machine.lam
    return TermTable(
        t_mul=2.0 * m * n * k * ta,
        t_a_add=0.0,
        t_b_add=0.0,
        t_c_add=0.0,
        t_a_pack_read=m * k * math.ceil(n / nc) * tb,
        t_b_pack_read=n * k * tb,
        t_c_kernel=2.0 * lam * m * n * math.ceil(k / kc) * tb,
        t_a_temp=0.0,
        t_b_temp=0.0,
        t_c_temp=0.0,
        n_mul=1.0,
        n_a_add=0.0,
        n_b_add=0.0,
        n_c_add=0.0,
        n_a_pack_read=1.0,
        n_b_pack_read=1.0,
        n_c_kernel=1.0,
        n_a_temp=0.0,
        n_b_temp=0.0,
        n_c_temp=0.0,
    )
