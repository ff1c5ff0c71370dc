"""Machine parameter configurations for the performance model (Fig. 4).

``tau_a`` is the reciprocal of peak flop rate; ``tau_b`` the amortized time
to move one 8-byte double between DRAM and cache; ``lam`` the micro-kernel
prefetch-efficiency factor (paper: lambda in [0.5, 1], adapted to match
measured GEMM).

The paper's testbed is one socket of a dual-socket Intel Xeon E5-2680 v2
(Ivy Bridge): 3.54 GHz at 1 core (28.32 GFLOPS peak), 3.10 GHz with all 10
cores busy (24.8 GFLOPS/core), 59.7 GB/s socket bandwidth.  A single core
cannot saturate the socket's four channels; the per-core sustained stream
bandwidth is modeled at 12 GB/s (a typical measured value for this part),
aggregating up to the socket limit as cores are added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.blis.params import IVY_BRIDGE_BLOCKING, BlockingParams

__all__ = ["MachineParams", "ivy_bridge_e5_2680_v2", "generic_laptop"]


@dataclass(frozen=True)
class MachineParams:
    """Architecture abstraction consumed by the performance model."""

    name: str
    peak_gflops_per_core: float
    bandwidth_gbs: float  # aggregate DRAM bandwidth available to the job
    cores: int = 1
    lam: float = 0.7
    blocking: BlockingParams = IVY_BRIDGE_BLOCKING

    def __post_init__(self) -> None:
        if self.peak_gflops_per_core <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("peak and bandwidth must be positive")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda must lie in (0, 1], got {self.lam}")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        # Hashed on every model-path engine="auto" call (the selector's
        # cache key), so compute it once.  Only the numeric fields are
        # hashed: equal params still hash equal, and a pickled copy's
        # stored value stays valid under another process's str-hash seed.
        object.__setattr__(self, "_hash", hash((
            self.peak_gflops_per_core, self.bandwidth_gbs, self.cores,
            self.lam, self.blocking)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def tau_a(self) -> float:
        """Seconds per flop on one core."""
        return 1.0 / (self.peak_gflops_per_core * 1e9)

    @property
    def tau_b(self) -> float:
        """Seconds per 8-byte element of DRAM traffic."""
        return 8.0 / (self.bandwidth_gbs * 1e9)

    @property
    def peak_gflops(self) -> float:
        return self.peak_gflops_per_core * self.cores

    def with_lam(self, lam: float) -> "MachineParams":
        return replace(self, lam=lam)


def ivy_bridge_e5_2680_v2(cores: int = 1, lam: float = 0.7) -> MachineParams:
    """The paper's testbed (§5.1), single socket.

    One core peaks at 28.32 GFLOPS (3.54 GHz x 8 flops/cycle); ten cores at
    24.8 GFLOPS/core.  Memory bandwidth aggregates from ~12 GB/s for one
    core to the 59.7 GB/s socket limit — the contention that flattens the
    10-core FMM curves in Figs. 9–10.
    """
    if cores == 1:
        peak = 28.32
    else:
        peak = 24.8
    bw = min(12.0 * cores, 59.7)
    return MachineParams(
        name=f"ivy-bridge-e5-2680v2x{cores}",
        peak_gflops_per_core=peak,
        bandwidth_gbs=bw,
        cores=cores,
        lam=lam,
        blocking=IVY_BRIDGE_BLOCKING,
    )


def generic_laptop(cores: int = 1) -> MachineParams:
    """A deliberately modest config for examples/tests on unknown hardware."""
    return MachineParams(
        name=f"generic-laptop-x{cores}",
        peak_gflops_per_core=8.0,
        bandwidth_gbs=min(10.0 * cores, 30.0),
        cores=cores,
        lam=0.7,
        blocking=IVY_BRIDGE_BLOCKING,
    )
