"""repro — reproduction of *Generating Families of Practical Fast Matrix
Multiplication Algorithms* (Huang, Rice, Matthews, van de Geijn, IPPS 2017).

Quickstart
----------
>>> import numpy as np
>>> from repro import multiply
>>> A, B = np.random.rand(128, 96), np.random.rand(96, 160)
>>> C = multiply(A, B, algorithm="strassen", levels=2)
>>> np.allclose(C, A @ B)
True

Public surface
--------------
* :func:`multiply` / :func:`multiply_batched` — one-call FMM (any catalog
  algorithm, levels, mixed per-level schedule such as
  ``"strassen@2,smirnov333@1"``; ``engine="auto"`` for model-guided
  dispatch).
* :class:`Schedule` / :func:`schedule_signature` — first-class
  heterogeneous per-level schedules and their canonical strings.
* :func:`get_algorithm` / :func:`fig2_family` — the generated family
  (rectangular ``<m,k,n>`` entries included; see ``docs/algorithms.md``).
* :class:`FMMAlgorithm` / :class:`MultiLevelFMM` — the ``[[U,V,W]]`` algebra.
* :class:`DirectEngine` / :class:`BlockedEngine` — execution engines, thin
  clients of the lowering runtime over the cached :class:`CompiledPlan`
  artifact (:mod:`repro.core.compile`; inspect the cache with
  :func:`plan_cache_info` / :func:`plan_cache_clear`).
* :func:`execute_plan` — the variant-aware runtime
  (:mod:`repro.core.runtime`): staged, streaming-fused or out-of-core
  tiled lowerings (``fusion=`` knob; tiled streams mmap-spilled slabs
  through a bounded RAM window priced by
  :func:`predict_tile_window_bytes`) over a recycling arena
  (:func:`arena_stats` / :func:`arena_clear`); each execution runs on
  one worker while BLAS threads its leaf products, and publishes an
  :class:`ExecutionReport` with measured peak workspace bytes
  (:func:`last_report`).
* :func:`measured_scaling_curve` / :func:`scaling_curve` — measured
  (BLAS data parallelism) vs modeled multicore scaling
  (:mod:`repro.core.parallel`).
* :func:`predict_fmm` / :func:`predict_gemm` — the Fig.-5 performance model.
* :func:`select` — model-guided poly-algorithm selection (Fig. 8).
* :func:`calibrate_machine` / :class:`WisdomStore` — the host's
  back-fit machine model and the file that persists it
  (:mod:`repro.tune`); ``multiply(engine="auto", tune="readonly")``
  prices the model with it, measuring the host on first use.
* :func:`set_runtime_tunables` / :func:`runtime_tunables` — in-process
  runtime knobs (fused group size, auto-fusion threshold, tiled strip
  height and memory budget).
* :class:`MultiplyService` / :class:`JobHandle` — the async serving
  layer (:mod:`repro.serve`): ``submit(A, B, **spec)`` returns a job
  handle, a scheduler thread runs the queued jobs one at a time, first
  in first out, and a byte budget provides admission control
  (:class:`ServiceOverloadedError`; policy knob ``queue`` / ``reject``
  / ``serial``).  ``repro serve`` / ``repro jobs`` drive it from the
  shell.
* :mod:`repro.obs` — the observability layer: span tracing with Chrome
  trace-event export (:mod:`repro.obs.trace`), the process-wide metrics
  registry (:func:`metrics_snapshot`), a bounded ExecutionReport history
  with per-plan aggregation (:func:`report_history` /
  :func:`report_stats`), and namespaced stdlib logging
  (``REPRO_LOG_LEVEL`` attaches a stderr handler).  ``repro trace run``
  and ``repro stats`` surface it from the shell.
* :func:`build_plan` / :func:`generate_source` — the code generator.
"""

from repro.algorithms.catalog import (
    FIG2_SHAPES,
    NAMED_ALGORITHMS,
    CatalogEntry,
    catalog_summary,
    fig2_family,
    get_algorithm,
    get_entry,
    known_algorithm_names,
)
from repro.algorithms.classical import classical
from repro.algorithms.strassen import strassen, winograd
from repro.blis.params import BlockingParams
from repro.core.codegen import compile_plan, generate_source
from repro.core.compile import (
    CompiledPlan,
    plan_cache_clear,
    plan_cache_info,
)
from repro.core.executor import (
    BlockedEngine,
    DirectEngine,
    multiply,
    multiply_batched,
    resolve_levels,
)
from repro.core.fmm import FMMAlgorithm
from repro.core.kronecker import MultiLevelFMM
from repro.core.parallel import measured_scaling_curve, scaling_curve
from repro.core.plan import build_plan
from repro.core.runtime import ExecutionReport, execute_plan, last_report
from repro.core.selection import Candidate, auto_config, hybrid_shapes_for, select
from repro.core.spec import (
    FUSION_MODES,
    VARIANTS,
    Schedule,
    normalize_fusion,
    normalize_schedule,
    normalize_spec,
    normalize_threads,
    normalize_tune,
    normalize_variant,
    runtime_tunables,
    schedule_signature,
    set_runtime_tunables,
)
from repro.core.workspace import arena_clear, arena_stats
from repro.model.machines import MachineParams, generic_laptop, ivy_bridge_e5_2680_v2
from repro.model.perfmodel import (
    calibrate_lambda,
    effective_gflops,
    predict_fmm,
    predict_fusion_savings,
    predict_gemm,
    predict_tile_window_bytes,
    predict_workspace_bytes,
)
from repro.obs import trace
from repro.obs.metrics import snapshot as metrics_snapshot
from repro.obs.reports import (
    aggregate as report_stats,
    recent as report_history,
)
from repro.serve import (
    JobCancelledError,
    JobHandle,
    MultiplyService,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.tune import (
    WisdomStore,
    calibrate_machine,
    default_store,
    set_default_store,
)

__version__ = "1.0.0"

__all__ = [
    "multiply",
    "multiply_batched",
    "CompiledPlan",
    "plan_cache_info",
    "plan_cache_clear",
    "Schedule",
    "normalize_schedule",
    "normalize_spec",
    "normalize_threads",
    "normalize_tune",
    "normalize_variant",
    "normalize_fusion",
    "VARIANTS",
    "FUSION_MODES",
    "schedule_signature",
    "hybrid_shapes_for",
    "NAMED_ALGORITHMS",
    "known_algorithm_names",
    "execute_plan",
    "last_report",
    "ExecutionReport",
    "arena_stats",
    "arena_clear",
    "scaling_curve",
    "measured_scaling_curve",
    "auto_config",
    "get_algorithm",
    "get_entry",
    "fig2_family",
    "catalog_summary",
    "FIG2_SHAPES",
    "CatalogEntry",
    "classical",
    "strassen",
    "winograd",
    "FMMAlgorithm",
    "MultiLevelFMM",
    "DirectEngine",
    "BlockedEngine",
    "BlockingParams",
    "resolve_levels",
    "MachineParams",
    "ivy_bridge_e5_2680_v2",
    "generic_laptop",
    "predict_fmm",
    "predict_gemm",
    "predict_tile_window_bytes",
    "predict_workspace_bytes",
    "predict_fusion_savings",
    "effective_gflops",
    "calibrate_lambda",
    "select",
    "Candidate",
    "WisdomStore",
    "default_store",
    "set_default_store",
    "calibrate_machine",
    "trace",
    "metrics_snapshot",
    "report_history",
    "report_stats",
    "runtime_tunables",
    "set_runtime_tunables",
    "MultiplyService",
    "JobHandle",
    "JobCancelledError",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "build_plan",
    "generate_source",
    "compile_plan",
    "__version__",
]
