"""Algorithm-spec normalization: the single parser for every spec form.

Every layer that accepts an "algorithm" argument — :func:`repro.multiply`,
the plan compiler (:mod:`repro.core.compile`), and the CLI — routes it
through :func:`normalize_spec`, so the accepted grammar is defined exactly
once:

====================================  =========================================
spec form                             meaning
====================================  =========================================
``FMMAlgorithm``                      that algorithm, replicated ``levels`` x
``"strassen"`` / ``"winograd"`` /     named catalog entry, replicated
``"classical"`` / ``"smirnov333"``    ``levels`` x
``"<m,k,n>"`` or ``"m,k,n"``          catalog shape, replicated ``levels`` x
``(m, k, n)`` (all ints)              catalog shape, replicated ``levels`` x
``"a+b+..."``                         hybrid stack, one atom per level
                                      (``levels`` is ignored)
``"a@2,b@1"``                         schedule string: each ``atom@count``
                                      contributes ``count`` levels, comma- or
                                      ``+``-separated (``levels`` is ignored)
``[a, b, ...]`` / non-int tuple       hybrid stack, one atom per level
                                      (``levels`` is ignored)
``Schedule``                          its per-level atoms, unchanged
``MultiLevelFMM``                     passed through unchanged
====================================  =========================================

:func:`normalize_spec` returns the flat per-level atom tuple;
:class:`Schedule` wraps that tuple as the first-class *schedule* object —
the heterogeneous per-level algorithm list every layer above the spec
grammar passes around (compiler keys, selection candidates, execution
reports); :func:`resolve_levels` materializes a spec as a
:class:`MultiLevelFMM`; :func:`spec_key` derives the hashable cache key
the plan cache is keyed on; :func:`check_threads` validates the
``threads`` keyword of the execution API (1 only: BLAS threads the leaf
products), :func:`normalize_threads` a positive worker count (the
simulated-BLIS engine's 3rd-loop pool), :func:`normalize_tune` the
machine-calibration knob, :func:`normalize_variant` the §4.1 write-back variant and
:func:`normalize_fusion`/:func:`resolve_fusion` the runtime's
staged-vs-fused lowering mode, so bad values fail here, up front, rather
than deep inside the runtime.

:func:`invalidate_decisions` / :func:`decision_generation` are the one
invalidation signal for memoized ``engine="auto"`` routes: every event
that can change how a call resolves (the machine record, the runtime
tunables, the default store) bumps the generation.
"""

from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.fmm import FMMAlgorithm
from repro.core.kronecker import MultiLevelFMM

__all__ = [
    "DEFAULT_FUSED_GROUP",
    "DEFAULT_MEM_BUDGET_BYTES",
    "DEFAULT_TILE_ROWS",
    "FUSION_MODES",
    "FUSED_AUTO_THRESHOLD",
    "MEM_BUDGET_ENV",
    "OVERLOAD_POLICIES",
    "TUNE_MODES",
    "VARIANTS",
    "Schedule",
    "check_backend_workers",
    "check_threads",
    "classical_depth",
    "decision_generation",
    "dtype_name",
    "effective_fused_auto_threshold",
    "effective_fused_group",
    "effective_mem_budget_bytes",
    "effective_tile_rows",
    "invalidate_decisions",
    "normalize_fusion",
    "normalize_overload_policy",
    "normalize_schedule",
    "normalize_spec",
    "normalize_threads",
    "normalize_tune",
    "normalize_variant",
    "operand_slab_bytes",
    "resolve_fusion",
    "resolve_levels",
    "runtime_tunables",
    "schedule_signature",
    "set_runtime_tunables",
    "spec_key",
    "staged_slab_elements",
    "validate_resolved_fusion",
]

#: Accepted values of the ``tune`` knob on the auto-dispatch path.
TUNE_MODES = ("off", "readonly")

#: The paper's §4.1 write-back variants (operand-sum / C-update fusion).
VARIANTS = ("naive", "ab", "abc")

#: Accepted values of the ``fusion`` lowering knob.
FUSION_MODES = ("auto", "staged", "fused", "tiled")

#: Accepted values of the serving layer's over-budget admission policy
#: (:class:`repro.serve.MultiplyService`): ``"queue"`` blocks the
#: submitter until the scheduler has claimed enough queued jobs for this
#: one to fit the budget, ``"reject"`` raises a typed
#: ``ServiceOverloadedError``, ``"serial"`` degrades the submission to a
#: synchronous multiply in the submitter's thread that never enters the
#: queue (the one case where a submitter runs a job).
OVERLOAD_POLICIES = ("queue", "reject", "serial")

#: Stacked-intermediate size (elements across all R products' S/T/M slabs)
#: above which ``fusion="auto"`` lowers ab/abc plans to the streaming fused
#: pipeline.  Below it the staged pipeline's big batched matmuls win on
#: kernel efficiency; above it the slabs outgrow the caches and the fused
#: pipeline's O(workers · group) live product buffers run at parity or
#: better while using a fraction of the memory (measured in
#: ``benchmarks/bench_fusion_runtime.py``).
FUSED_AUTO_THRESHOLD = 1 << 23

#: Products per streaming group of the fused pipeline: the coefficient-GEMM
#: strip height.  Large enough to amortize kernel dispatch, small enough
#: that a group's S/T/M buffers stay cache-resident.
DEFAULT_FUSED_GROUP = 8

#: Tile-strip height (rows of stacked products per streamed strip) of the
#: out-of-core tiled lowering.  ``0`` means "auto": the runtime solves the
#: largest strip whose RAM window fits the memory budget (see
#: :func:`repro.core.tiles.pick_tile_rows`).
DEFAULT_TILE_ROWS = 0

#: Memory budget in bytes for the tiled lowering's in-RAM working set.
#: ``0`` means "unlimited" — ``fusion="auto"`` then never picks the tiled
#: path.  The :envvar:`REPRO_MEM_BUDGET` environment variable provides a
#: process-wide fallback when no tunable override is installed.
DEFAULT_MEM_BUDGET_BYTES = 0

#: Environment variable consulted by :func:`effective_mem_budget_bytes`
#: when no ``mem_budget_bytes`` tunable override is installed.  Accepts a
#: plain byte count or a ``K``/``M``/``G`` suffixed size (``"256M"``).
MEM_BUDGET_ENV = "REPRO_MEM_BUDGET"

#: The runtime constants :func:`set_runtime_tunables` can override in
#: this process, and their shipped defaults.  Every consumer reads
#: through the ``effective_*`` accessors so an override reaches the
#: runtime, the workspace model and ``fusion="auto"`` resolution alike.
TUNABLE_DEFAULTS = {
    "fused_group": DEFAULT_FUSED_GROUP,
    "fused_auto_threshold": FUSED_AUTO_THRESHOLD,
    "tile_rows": DEFAULT_TILE_ROWS,
    "mem_budget_bytes": DEFAULT_MEM_BUDGET_BYTES,
}

_tunables = dict(TUNABLE_DEFAULTS)

_generation = 0
_generation_lock = threading.Lock()


def decision_generation() -> int:
    """How many decision-changing events this process has seen.

    A memoized ``engine="auto"`` route is served only while this count
    is the one it was resolved under (``core/executor.py``).
    """
    return _generation


def invalidate_decisions() -> None:
    """Retire every memoized ``engine="auto"`` route.

    Called after each event that can change how a call resolves: a
    machine record, a store load or clear, a runtime-tunables change,
    and a swap of the default store.  The changed
    state must be in place before the call, so a route resolved against
    the old state, even concurrently, is never served afterwards.
    """
    global _generation
    with _generation_lock:
        _generation += 1


@lru_cache(maxsize=64)
def dtype_name(dtype) -> str:
    """``np.dtype(dtype).name``, cached: numpy computes the name in
    Python at every read (several µs), which per-call paths cannot
    afford."""
    return np.dtype(dtype).name


def set_runtime_tunables(
    fused_group=None,
    fused_auto_threshold=None,
    tile_rows=None,
    mem_budget_bytes=None,
) -> dict:
    """Install in-process overrides of the runtime lowering constants.

    Each call specifies the complete override state: a ``None`` argument
    restores that constant's shipped default, so ``set_runtime_tunables()``
    resets everything.  Returns the effective tunables after the update.
    Overrides live for the process only; nothing persists them.
    """
    global _tunables
    t = dict(TUNABLE_DEFAULTS)
    if fused_group is not None:
        fg = int(fused_group)
        if fg < 1:
            raise ValueError(f"fused_group must be >= 1, got {fused_group!r}")
        t["fused_group"] = fg
    if fused_auto_threshold is not None:
        th = int(fused_auto_threshold)
        if th < 0:
            raise ValueError(
                f"fused_auto_threshold must be >= 0, got {fused_auto_threshold!r}"
            )
        t["fused_auto_threshold"] = th
    if tile_rows is not None:
        tr = int(tile_rows)
        if tr < 0:
            raise ValueError(f"tile_rows must be >= 0, got {tile_rows!r}")
        t["tile_rows"] = tr
    if mem_budget_bytes is not None:
        budget = int(mem_budget_bytes)
        if budget < 0:
            raise ValueError(
                f"mem_budget_bytes must be >= 0, got {mem_budget_bytes!r}"
            )
        t["mem_budget_bytes"] = budget
    if t != _tunables:
        _tunables = t
        invalidate_decisions()
    return dict(t)


def runtime_tunables() -> dict:
    """The effective runtime tunables (defaults merged with overrides)."""
    return dict(_tunables)


def effective_fused_group() -> int:
    """The fused pipeline's streaming-group size, tunable overrides applied."""
    return _tunables["fused_group"]


def effective_fused_auto_threshold() -> int:
    """The ``fusion="auto"`` staged-slab threshold, tunable overrides applied."""
    return _tunables["fused_auto_threshold"]


def effective_tile_rows() -> int:
    """The tiled lowering's strip height, tunable overrides applied.

    ``0`` means "auto": solve from the memory budget at lowering time.
    """
    return _tunables["tile_rows"]


def _parse_mem_budget(text: str) -> int:
    """Parse a byte count with an optional ``K``/``M``/``G`` suffix."""
    text = text.strip()
    scale = 1
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    low = text.lower().rstrip("b")
    if low and low[-1] in suffixes:
        scale = suffixes[low[-1]]
        low = low[:-1]
    try:
        value = int(low) * scale
    except ValueError:
        raise ValueError(
            f"malformed {MEM_BUDGET_ENV} value {text!r}: expected bytes "
            "or a K/M/G suffixed size (e.g. '256M')"
        ) from None
    if value < 0:
        raise ValueError(f"{MEM_BUDGET_ENV} must be >= 0, got {text!r}")
    return value


def effective_mem_budget_bytes() -> int:
    """The out-of-core memory budget in bytes (0 = unlimited).

    A ``mem_budget_bytes`` override (:func:`set_runtime_tunables`)
    wins; otherwise the
    :envvar:`REPRO_MEM_BUDGET` environment variable supplies a
    process-wide budget.
    """
    budget = _tunables["mem_budget_bytes"]
    if budget:
        return budget
    env = os.environ.get(MEM_BUDGET_ENV, "").strip()
    return _parse_mem_budget(env) if env else 0


#: Atom forms accepted inside a hybrid stack.
_ATOM_TYPES = (str, FMMAlgorithm)


def _is_shape(spec) -> bool:
    """True for a ``(m, k, n)`` tuple of plain integers."""
    return (
        isinstance(spec, tuple)
        and len(spec) == 3
        and all(isinstance(x, numbers.Integral) for x in spec)
    )


def _split_schedule_string(text: str) -> list[str]:
    """Split a schedule string into ``atom[@count]`` tokens.

    ``+`` always separates; ``,`` separates only outside ``<...>`` shape
    brackets and only when the string uses the ``@`` repeat syntax —
    otherwise bare ``"2,3,2"`` keeps meaning one shape atom.
    """
    comma_splits = "@" in text
    tokens, cur, depth = [], [], 0
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(depth - 1, 0)
        if ch == "+" or (ch == "," and depth == 0 and comma_splits):
            tokens.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tokens.append("".join(cur))
    return [t.strip() for t in tokens if t.strip()]


def _expand_token(token: str, spec: str) -> tuple:
    """Expand one ``atom[@count]`` token into its replicated atoms."""
    if "@" not in token:
        return (token,)
    atom, _, count = token.rpartition("@")
    atom = atom.strip()
    try:
        reps = int(count)
    except ValueError:
        reps = -1
    if not atom or reps < 1:
        raise ValueError(
            f"malformed schedule token {token!r} in {spec!r}: expected "
            f"'atom@count' with a positive integer count (e.g. 'strassen@2')"
        )
    return (atom,) * reps


def normalize_spec(algorithm, levels: int = 1) -> tuple:
    """Flatten any accepted spec form into the per-level atom tuple.

    Atoms are left unresolved (names, shape tuples, or
    :class:`FMMAlgorithm` objects); catalog lookup happens in
    :func:`resolve_levels`.  Raises ``TypeError`` for unrecognized forms
    and ``ValueError`` for ``levels < 1``, an empty stack, or a malformed
    ``atom@count`` schedule token.
    """
    if isinstance(algorithm, MultiLevelFMM):
        return algorithm.levels
    if isinstance(algorithm, Schedule):
        return algorithm.atoms
    if isinstance(algorithm, str) and ("+" in algorithm or "@" in algorithm):
        atoms: tuple = ()
        for token in _split_schedule_string(algorithm):
            atoms += _expand_token(token, algorithm)
        if not atoms:
            raise ValueError(f"empty hybrid spec {algorithm!r}")
        return atoms
    if _is_shape(algorithm) or isinstance(algorithm, _ATOM_TYPES):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        return (algorithm,) * int(levels)
    if isinstance(algorithm, (list, tuple)):
        atoms = tuple(algorithm)
        if not atoms:
            raise ValueError("empty algorithm stack")
        for a in atoms:
            if not (_is_shape(a) or isinstance(a, _ATOM_TYPES)):
                raise TypeError(f"cannot interpret per-level atom {a!r}")
        return atoms
    raise TypeError(f"cannot interpret algorithm spec {algorithm!r}")


def _is_classical_atom(atom) -> bool:
    """True for the classical ``<1,1,1>`` triple: the ``"classical"``
    catalog name, or an algorithm object with one unit-coefficient
    product (exactly ``C += A @ B``)."""
    if isinstance(atom, str):
        return atom.strip().lower() == "classical"
    return (
        isinstance(atom, FMMAlgorithm)
        and atom.dims == (1, 1, 1)
        and atom.rank == 1
        and atom.U.item() == atom.V.item() == atom.W.item() == 1.0
    )


def classical_depth(algorithm, levels: int = 1) -> int:
    """Depth of a spec that is the classical ``<1,1,1>`` triple at every
    level, else 0.

    Every spelling counts — ``"classical"`` with ``levels``,
    ``"classical@2"``, ``["classical"]``, or a :class:`Schedule` /
    :class:`MultiLevelFMM` of classical triples — because every one
    compiles to the same single-product plan, which the direct engine
    runs as one BLAS call.  A malformed spec returns 0, leaving the plan
    compiler to raise its usual error.
    """
    try:
        if isinstance(algorithm, str) and algorithm == "classical":
            # The spelling auto dispatch returns: skip the parse on the
            # per-call hot path.
            return int(levels) if levels >= 1 else 0
        atoms = normalize_spec(algorithm, levels)
    except (TypeError, ValueError):
        return 0
    return len(atoms) if all(_is_classical_atom(a) for a in atoms) else 0


def normalize_threads(threads) -> int | None:
    """Validate a worker count.

    Returns ``None`` unchanged (meaning "unspecified") and a positive
    int for explicit requests.  ``threads=0`` or a negative/non-integer
    count raises here with a message naming the knob — never deep inside
    an engine.  :class:`~repro.core.executor.BlockedEngine` sizes its
    3rd-loop pool with it; the execution API goes through
    :func:`check_threads`.
    """
    if threads is None:
        return None
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise TypeError(f"threads must be a positive integer, got {threads!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return int(threads)


def check_backend_workers(backend, workers) -> None:
    """Validate the ``backend`` and ``workers`` keywords.

    There is one leaf backend (``"reference"``) and one worker mode
    (``"threads"``).  The keywords stay on the execution API only because
    the perf ledger (``benchmarks/ledger/``) still passes those values;
    ``None`` or those names pass, anything else raises ``ValueError``.
    """
    if backend is not None and backend != "reference":
        raise ValueError(
            f"unknown backend {backend!r}; the only backend is 'reference'"
        )
    if workers is not None and workers != "threads":
        raise ValueError(
            f"unknown workers mode {workers!r}; the only mode is 'threads'"
        )


def check_threads(threads) -> None:
    """Validate the ``threads`` keyword of the execution API.

    Every FMM execution runs on one worker and leaves the parallelism to
    BLAS, which runs each leaf product on all of its threads
    (``OPENBLAS_NUM_THREADS`` sets how many).  The keyword stays on
    ``multiply``, ``multiply_batched`` and ``execute_plan`` only because
    the perf ledger passes ``threads=1``: ``None`` or 1 pass, a
    non-integer raises ``TypeError`` and any other count ``ValueError``.
    """
    if normalize_threads(threads) not in (None, 1):
        raise ValueError(
            f"threads must be 1, got {threads}: FMM runs on one worker and "
            "BLAS threads each leaf product (set OPENBLAS_NUM_THREADS)"
        )


def normalize_overload_policy(policy) -> str:
    """Validate the serving layer's over-budget admission policy.

    ``None`` means the default ``"reject"`` — the one policy that can
    never block a submitter or grow the arena past its budget.  See
    :data:`OVERLOAD_POLICIES` for the semantics of each value.
    """
    if policy is None:
        return "reject"
    if not isinstance(policy, str) or policy.lower() not in OVERLOAD_POLICIES:
        raise ValueError(
            f"unknown overload policy {policy!r}; expected one of "
            f"{list(OVERLOAD_POLICIES)}"
        )
    return policy.lower()


def normalize_variant(variant) -> str:
    """Validate a §4.1 write-back variant name.

    Mirrors the unknown-algorithm convention: a bad string raises
    ``ValueError`` listing every valid variant, here at spec level rather
    than deep inside a lowering pass.
    """
    if not isinstance(variant, str) or variant.lower() not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {list(VARIANTS)}"
        )
    return variant.lower()


def normalize_fusion(fusion) -> str:
    """Validate the ``fusion`` lowering knob.

    ``staged`` materializes every gather/product/scatter slab (the memory
    behavior of the reference frameworks); ``fused`` streams each product
    group through recycled buffers; ``tiled`` runs the fused
    pipeline out-of-core — slab-scale buffers spill to mmap-backed arena
    storage and the product/scatter phase streams Morton-ordered row
    strips through a bounded RAM window; ``auto`` resolves per plan — see
    :func:`resolve_fusion`.
    """
    if not isinstance(fusion, str) or fusion.lower() not in FUSION_MODES:
        raise ValueError(
            f"unknown fusion mode {fusion!r}; expected one of {list(FUSION_MODES)}"
        )
    return fusion.lower()


def staged_slab_elements(m: int, k: int, n: int, ml) -> int:
    """Elements across all R stacked ``S``/``T``/``M`` slabs of the staged
    lowering for one problem — the quantity ``fusion="auto"`` thresholds
    on.  The single source shared by the plan compiler and selection
    candidates, so their fused-vs-staged resolutions can never drift.
    Returns 0 when the partition is coarser than the problem (no core).
    """
    Mt, Kt, Nt = ml.dims_total
    bm, bk, bn = m // Mt, k // Kt, n // Nt
    if min(bm, bk, bn) < 1:
        return 0
    return ml.rank_total * (bm * bk + bk * bn + bm * bn)


def operand_slab_bytes(m: int, k: int, n: int, ml, itemsize: int = 8) -> int:
    """Bytes of the gathered operand slabs of one execution.

    The A-block slab holds every Morton-ordered ``bm x bk`` block of A
    (``M~_L x K~_L`` of them) and the B-block slab every ``bk x bn``
    block of B — the slab-scale working set the memory budget prices
    ``fusion="auto"`` against (see :func:`resolve_fusion`).  Returns 0
    when the partition is coarser than the problem (no core).
    """
    Mt, Kt, Nt = ml.dims_total
    bm, bk, bn = m // Mt, k // Kt, n // Nt
    if min(bm, bk, bn) < 1:
        return 0
    return (Mt * Kt * bm * bk + Kt * Nt * bk * bn) * int(itemsize)


def validate_resolved_fusion(fusion) -> str:
    """Validate an already-*resolved* lowering mode (``"auto"`` excluded).

    The runtime and the workspace model operate after compile-time
    resolution, where only ``"staged"``/``"fused"``/``"tiled"`` are
    meaningful; this is their shared membership check, so the accepted
    set cannot drift between layers.
    """
    if fusion not in ("staged", "fused", "tiled"):
        raise ValueError(
            f"unknown fusion mode {fusion!r}; expected one of "
            "['staged', 'fused', 'tiled']"
        )
    return fusion


def resolve_fusion(
    fusion, variant: str, staged_elements: int, slab_bytes: int = 0
) -> str:
    """Resolve ``fusion="auto"`` for one compiled plan.

    The write-back variant is the lowering mode family: ``naive`` *means*
    "materialize every temporary", so it always lowers staged; ``ab``/
    ``abc`` fuse operand sums (and C updates) into the pipeline, so they
    lower fused once the staged slabs (``staged_elements`` elements across
    the stacked S/T/M intermediates) outgrow
    :data:`FUSED_AUTO_THRESHOLD` — below that the staged pipeline's
    batched matmuls are cheaper than per-product kernel dispatch.

    When a memory budget is configured (:func:`effective_mem_budget_bytes`
    > 0) and the plan's slab-scale working set (``slab_bytes`` — the
    gathered operand slabs of one execution) exceeds it, ab/abc plans
    lower ``tiled`` instead: the fused pipeline with its slab-scale
    buffers spilled to mmap and the product phase streamed through a
    budget-sized RAM window.  Explicit ``"staged"``/``"fused"``/
    ``"tiled"`` requests pass through unchanged.
    """
    fusion = normalize_fusion(fusion)
    if fusion != "auto":
        return fusion
    if normalize_variant(variant) == "naive":
        return "staged"
    budget = effective_mem_budget_bytes()
    if budget and slab_bytes > budget:
        return "tiled"
    return "fused" if staged_elements > effective_fused_auto_threshold() else "staged"


def normalize_tune(tune) -> str:
    """Validate the ``tune`` knob of the auto-dispatch path.

    ``"readonly"`` prices the model with this host's calibrated machine
    (the wisdom store's record, measured on its first use); ``"off"``
    never touches the store and prices with the generic machine.
    ``"on"`` was the measuring tuner, which is gone: it raises with a
    pointer to ``repro tune --calibrate``, as anything else not in
    :data:`TUNE_MODES` raises, here at spec-normalization time.
    """
    mode = tune.lower() if isinstance(tune, str) else None
    if mode == "on":
        raise ValueError(
            "tune='on' was removed with the measuring tuner: engine='auto' "
            "prices the model with this host's calibrated machine under "
            "tune='readonly' (run `repro tune --calibrate` to re-measure)"
        )
    if mode not in TUNE_MODES:
        raise ValueError(
            f"tune must be one of {TUNE_MODES}, got {tune!r}"
        )
    return mode


def resolve_levels(algorithm, levels: int = 1) -> MultiLevelFMM:
    """Normalize an algorithm spec into a :class:`MultiLevelFMM`.

    Accepts every form of the grammar above; ``levels`` replicates a
    single-atom spec homogeneously and is ignored for explicit stacks.
    """
    from repro.algorithms.catalog import get_algorithm

    if isinstance(algorithm, MultiLevelFMM):
        return algorithm
    return MultiLevelFMM(
        [get_algorithm(a) for a in normalize_spec(algorithm, levels)]
    )


def _atom_key(atom):
    """Canonical hashable key for one per-level atom.

    Named shapes and shape tuples that denote the same catalog entry map to
    the same key (``"<2,3,2>"``, ``"2,3,2"`` and ``(2, 3, 2)`` coincide).
    Ad-hoc :class:`FMMAlgorithm` objects are keyed by identity; the plan
    cache holds a strong reference to the algorithm for the lifetime of the
    entry, so an id cannot be recycled while its key is live.
    """
    if isinstance(atom, FMMAlgorithm):
        return ("obj", id(atom))
    if _is_shape(atom):
        return ("shape", tuple(int(x) for x in atom))
    if isinstance(atom, str):
        low = atom.strip().lower()
        stripped = low.strip("<>").replace(" ", "")
        parts = stripped.split(",")
        if len(parts) == 3 and all(p.lstrip("-").isdigit() for p in parts):
            return ("shape", tuple(int(p) for p in parts))
        from repro.algorithms.catalog import NAMED_ALGORITHMS

        named = NAMED_ALGORITHMS.get(low)
        if isinstance(named, tuple):
            # Aliases for catalog shapes ("smirnov333") coincide with their
            # "<3,3,3>" spelling, so plan-cache keys and schedule
            # signatures agree across spellings.
            return ("shape", named)
        return ("name", low)
    raise TypeError(f"cannot key atom {atom!r}")


def spec_key(algorithm, levels: int = 1) -> tuple:
    """Hashable cache key for a spec: the tuple of per-level atom keys."""
    if isinstance(algorithm, MultiLevelFMM):
        return tuple(("obj", id(a)) for a in algorithm.levels)
    return tuple(_atom_key(a) for a in normalize_spec(algorithm, levels))


def _atom_label(atom) -> str:
    """Canonical display token for one per-level atom."""
    kind, val = _atom_key(atom)
    if kind == "shape":
        return "<%d,%d,%d>" % val
    if kind == "name":
        return val
    # Ad-hoc FMMAlgorithm objects: readable, though not round-trippable.
    return atom.name or f"<{atom.m},{atom.k},{atom.n}>:{atom.rank}"


@dataclass(frozen=True, eq=False)
class Schedule:
    """A first-class multi-level algorithm schedule.

    The heterogeneous per-level list of catalog atoms that one compiled
    plan applies, outermost level first — e.g. ``[<3,3,3>, <2,2,2>,
    <2,2,2>]`` instead of "one algorithm x ``levels``".  Schedules are
    what the plan compiler keys on, what selection candidates carry, and
    what execution reports name (via :attr:`signature`).

    Parameters
    ----------
    atoms:
        Per-level atoms in any form :func:`normalize_spec` accepts inside
        a stack (catalog names, ``(m, k, n)`` shape tuples, or
        :class:`FMMAlgorithm` objects).

    Examples
    --------
    >>> Schedule.from_spec("strassen@2,<3,3,3>@1").signature
    'strassen@2,<3,3,3>@1'
    >>> len(Schedule.from_spec("strassen", levels=3))
    3
    """

    atoms: tuple

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("a schedule needs at least one level")
        for a in atoms:
            if not (_is_shape(a) or isinstance(a, _ATOM_TYPES)):
                raise TypeError(f"cannot interpret per-level atom {a!r}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def from_spec(cls, algorithm, levels: int = 1) -> "Schedule":
        """Parse any accepted spec form (see :func:`normalize_spec`)."""
        if isinstance(algorithm, cls):
            return algorithm
        return cls(normalize_spec(algorithm, levels))

    # ------------------------------------------------------------------ #
    @property
    def levels(self) -> int:
        """Number of recursion levels (one atom per level)."""
        return len(self.atoms)

    @property
    def signature(self) -> str:
        """Canonical run-length-encoded string, e.g. ``"strassen@2,<3,3,3>@1"``.

        Equal consecutive atoms collapse into one ``atom@count`` token;
        the result re-parses to an equal schedule for catalog atoms
        (:class:`FMMAlgorithm` object atoms render their name, which may
        not round-trip).
        """
        runs: list[tuple[str, int]] = []
        for atom in self.atoms:
            label = _atom_label(atom)
            if runs and runs[-1][0] == label:
                runs[-1] = (label, runs[-1][1] + 1)
            else:
                runs.append((label, 1))
        return ",".join(f"{label}@{count}" for label, count in runs)

    @property
    def key(self) -> tuple:
        """The plan-cache key component for this schedule (see :func:`spec_key`)."""
        return tuple(_atom_key(a) for a in self.atoms)

    # ------------------------------------------------------------------ #
    def resolve(self) -> MultiLevelFMM:
        """Materialize as a :class:`MultiLevelFMM` via catalog lookup."""
        return resolve_levels(self.atoms)

    def dims_total(self) -> tuple[int, int, int]:
        """Total partition dims ``(M~_L, K~_L, N~_L)`` of the schedule."""
        return self.resolve().dims_total

    def rank_total(self) -> int:
        """Total product count ``R_L = prod_l R_l`` of the schedule."""
        return self.resolve().rank_total

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Schedule({self.signature!r})"


def normalize_schedule(algorithm, levels: int = 1) -> Schedule:
    """Normalize any accepted spec form into a :class:`Schedule`."""
    return Schedule.from_spec(algorithm, levels)


def schedule_signature(algorithm, levels: int = 1) -> str:
    """Canonical schedule string for any accepted spec form.

    ``schedule_signature("strassen", 2) == "strassen@2"``; equivalent
    spellings of the same catalog stack produce the same signature.
    """
    return Schedule.from_spec(algorithm, levels).signature
