#!/usr/bin/env python
"""Generate the derived documentation sections from the live code.

Two artifacts are *derived*, never hand-edited:

* ``docs/algorithms.md`` — every row comes from
  :func:`repro.algorithms.catalog.fig2_family` (rank, provenance,
  status), the stability model (per-level growth factor ``Q``) and the
  named-alias registry;
* the **Memory & fusion** section of ``docs/architecture.md`` (between
  the ``fusion-modes`` marker comments) — the staged/fused workspace
  table comes from :func:`repro.model.perfmodel.predict_workspace_bytes`
  (the byte-exact twin of the runtime's arena specs) and the lowering
  constants from :mod:`repro.core.spec` / :mod:`repro.core.runtime`.

CI runs ``--check``, which regenerates both in memory and fails the
build when the committed files differ.

Usage:
    python tools/gen_catalog_docs.py          # (re)write the derived docs
    python tools/gen_catalog_docs.py --check  # exit 1 on drift, 0 when clean
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.algorithms.catalog import (  # noqa: E402
    NAMED_ALGORITHMS,
    fig2_family,
)
from repro.model.stability import growth_factor  # noqa: E402

DOC_PATH = REPO / "docs" / "algorithms.md"
ARCH_PATH = REPO / "docs" / "architecture.md"

FUSION_BEGIN = "<!-- fusion-modes:begin (generated by tools/gen_catalog_docs.py) -->"
FUSION_END = "<!-- fusion-modes:end -->"

OOC_BEGIN = (
    "<!-- out-of-core:begin (generated by tools/gen_catalog_docs.py) -->"
)
OOC_END = "<!-- out-of-core:end -->"

OBS_BEGIN = (
    "<!-- observability:begin (generated by tools/gen_catalog_docs.py) -->"
)
OBS_END = "<!-- observability:end -->"

SERVE_BEGIN = (
    "<!-- serving:begin (generated by tools/gen_catalog_docs.py) -->"
)
SERVE_END = "<!-- serving:end -->"

_STATUS_NOTES = {
    "exact": "paper rank, discrete coefficients",
    "float": "paper rank, float coefficients (dense nnz until gauge "
             "refinement lands a discrete triple)",
    "fallback": "documented composition of higher rank (search has not "
                "certified the paper-rank base case yet)",
}


def _alias_rows() -> list[str]:
    rows = []
    for name in sorted(NAMED_ALGORITHMS):
        target = NAMED_ALGORITHMS[name]
        if isinstance(target, tuple):
            desc = "catalog shape `<%d,%d,%d>`" % target
        else:
            algo = target()
            desc = f"`<{algo.m},{algo.k},{algo.n}>`:{algo.rank} ({algo.name})"
        rows.append(f"| `{name}` | {desc} |")
    return rows


def render() -> str:
    """Render the full markdown document from the live catalog."""
    lines = [
        "# Algorithm catalog",
        "",
        "**Generated by `tools/gen_catalog_docs.py` — do not edit by hand.**",
        "Regenerate with `python tools/gen_catalog_docs.py`; CI fails when",
        "this file drifts from the catalog (`--check`).",
        "",
        "The Fig.-2 family of the source paper: one `<m,k,n>` fast matrix",
        "multiplication algorithm per base partition shape.  *Rank* is the",
        "number of submatrix products `R`; the per-level *speedup bound* is",
        "`m*k*n / R` (classical multiplies saved each recursion level); the",
        "*growth factor* `Q = ||U||_1 ||V||_1 ||W||_1` bounds per-level",
        "forward-error growth (Ballard et al.), so smaller is more stable —",
        "classical GEMM is the stability baseline every fast algorithm",
        "trades against.  Any entry can appear at any level of a mixed",
        "schedule (`algorithm=\"<3,2,3>@1,strassen@1\"`).",
        "",
        "## The 23 `<m,k,n>` entries",
        "",
        "| shape | paper R | ours R | speedup/level | growth Q | status | source |",
        "|-------|--------:|-------:|--------------:|---------:|--------|--------|",
    ]
    for e in fig2_family():
        m, k, n = e.dims
        q = growth_factor(e.algorithm)
        speedup = (m * k * n) / e.achieved_rank
        lines.append(
            f"| `<{m},{k},{n}>` | {e.paper_rank} | {e.achieved_rank} "
            f"| {speedup:.3f} | {q:.1f} | {e.status} "
            f"| `{e.algorithm.source}` |"
        )

    lines += [
        "",
        "## Status legend",
        "",
    ]
    for status, note in _STATUS_NOTES.items():
        lines.append(f"- **{status}** — {note}")

    lines += [
        "",
        "## Named aliases",
        "",
        "Names accepted anywhere a `<m,k,n>` spelling is "
        "(see `repro.get_algorithm`):",
        "",
        "| name | resolves to |",
        "|------|-------------|",
        *_alias_rows(),
        "",
        "## Stability notes",
        "",
        "- Growth factors compound multiplicatively across levels: an",
        "  L-level schedule's bound coefficient is the product of its",
        "  per-level `Q`s, which is why the paper caps recursion at two",
        "  levels and why `repro.model.stability.rank_by_stability` exists.",
        "- `float`-status entries are numerically *correct* (they satisfy",
        "  the Brent equations to machine precision) but carry dense",
        "  coefficients; the performance model prices their extra",
        "  additions, so selection only picks them when the rank advantage",
        "  still wins.",
        "- Rectangular entries inherit the stability of the base case they",
        "  are an orientation of (rotations/transpose-duals permute the",
        "  coefficient matrices; 1-norms are preserved).",
        "",
    ]
    return "\n".join(lines)


def render_fusion_section() -> str:
    """The generated Memory & fusion block of ``docs/architecture.md``.

    Workspace numbers come straight from the model's byte-exact twin of
    the runtime arena specs, for the reference 2-level 1024^3 Strassen
    problem the acceptance tests pin.
    """
    from repro.core.runtime import DEFAULT_FUSED_GROUP
    from repro.core.spec import FUSED_AUTO_THRESHOLD, resolve_levels
    from repro.model.perfmodel import predict_workspace_bytes

    ml = resolve_levels("strassen", 2)
    mib = 2.0**20
    staged = predict_workspace_bytes(1024, 1024, 1024, ml, "staged") / mib
    fused = predict_workspace_bytes(1024, 1024, 1024, ml, "fused") / mib
    lines = [
        FUSION_BEGIN,
        "",
        "The §4.1 write-back variants are *lowering modes* of the one",
        "runtime, not separate interpreters:",
        "",
        "| variant | lowering | live product buffers | leaf fusion (BLIS substrate) |",
        "|---------|----------|----------------------|------------------------------|",
        "| `naive` | staged | all R `S`/`T`/`M` slabs + scatter staging "
        "| explicit A/B-sum + `M_r` temporaries |",
        "| `ab` | fused (past threshold) | "
        f"one {DEFAULT_FUSED_GROUP}-product group "
        "| sums fused into packing, `M_r` materialized |",
        "| `abc` | fused (past threshold) | "
        f"one {DEFAULT_FUSED_GROUP}-product group "
        "| sums in packing **and** C-update in the macro-kernel |",
        "",
        "`fusion=\"auto\"` resolves per plan: `naive` always lowers staged;",
        "`ab`/`abc` lower fused once the staged `S`/`T`/`M` slabs exceed",
        f"`FUSED_AUTO_THRESHOLD` = 2^{FUSED_AUTO_THRESHOLD.bit_length() - 1}",
        "elements (below that, the staged pipeline's big batched matmuls",
        "win on kernel efficiency).  Explicit `fusion=\"staged\"` /",
        "`\"fused\"` pins the mode.  Every lowering runs on one worker:",
        "BLAS threads each leaf product, so there are no per-worker",
        "buffers or accumulators to price.",
        "",
        "Peak workspace on the reference 2-level 1024³ Strassen multiply",
        "(float64), as priced by `predict_workspace_bytes` and measured",
        "byte-for-byte by the arena high-water meter on the execution",
        "report:",
        "",
        "| pipeline | peak workspace |",
        "|----------|---------------:|",
        f"| staged | {staged:.1f} MiB |",
        f"| fused | {fused:.1f} MiB |",
        "",
        FUSION_END,
    ]
    return "\n".join(lines)


def render_ooc_section() -> str:
    """The generated Out-of-core block of ``docs/architecture.md``.

    All numbers come from the live tile model — ``operand_slab_bytes``
    (the auto-tiling trigger quantity) and
    ``predict_tile_window_bytes`` at *explicit* strip heights (the
    byte-exact twin of the tiled arena's RAM window).  Explicit heights
    keep ``--check`` deterministic across hosts: the resolved height
    additionally passes the ``strip_split_is_exact`` BLAS probe, whose
    outcome is a property of the installed library, not of this repo.
    """
    from repro.core.kronecker import MultiLevelFMM
    from repro.algorithms.catalog import get_algorithm
    from repro.core.spec import MEM_BUDGET_ENV, operand_slab_bytes
    from repro.core.tiles import pick_tile_rows
    from repro.model.perfmodel import (
        predict_tile_window_bytes,
        predict_workspace_bytes,
    )

    ml = MultiLevelFMM([get_algorithm((2, 2, 2))] * 2)
    mib = 2.0**20
    slab = operand_slab_bytes(1024, 1024, 1024, ml) / mib
    fused1 = predict_workspace_bytes(1024, 1024, 1024, ml, "fused") / mib
    rows = []
    for tr, label in ((256, "256 (full block)"), (32, "32"), (8, "8")):
        w = predict_tile_window_bytes(1024, 1024, 1024, ml, tile_rows=tr)
        rows.append(f"| {label} | {w / mib:.2f} MiB |")
    budget = 2**20
    picked = pick_tile_rows(budget, 256, 256, 8)
    lines = [
        OOC_BEGIN,
        "",
        "`fusion=\"tiled\"` is the third lowering mode of the same",
        "runtime: it executes the **same** `CompiledPlan` phases as the",
        "fused pipeline, but streams the",
        "product → scatter of each product group through a",
        "bounded RAM window, strip by strip, in Morton",
        "(recursive-block) order — `repro.core.tiles.TileMap` derives",
        "the windows from the same `recursive_to_rowmajor` permutation",
        "`CompiledPlan.block_views` uses, so the two layers cannot",
        "disagree on which bytes a block covers.  Operands may be",
        "`np.memmap`-backed (views read through the mapping lazily);",
        "every slab-scale temporary — operand slabs and `S`/`T` group",
        "buffers — is carved from one arena-recycled mmap block that",
        "does **not** count against the RAM meter.  What stays in RAM",
        "is only the",
        "strip window: one group of `M` strip buffers (`group × batch ×",
        "tile_rows × bn` elements), plus one scratch strip for plans",
        "with non-±1 scatter coefficients.",
        "",
        "`fusion=\"auto\"` goes out-of-core once the operand slabs alone",
        "exceed the configured memory budget (`mem_budget_bytes` tunable",
        f"or the `{MEM_BUDGET_ENV}` env var, `K`/`M`/`G` suffixes):",
        f"on the reference 2-level 1024³ Strassen multiply the slabs are",
        f"{slab:.1f} MiB (vs a {fused1:.1f} MiB fused in-core peak), so",
        f"any budget below that streams.  The strip height is solved",
        "from the budget by `pick_tile_rows` — e.g. a 1 MiB budget buys",
        f"{picked}-row strips here — or pinned with the `tile_rows`",
        "tunable; both are in-process runtime tunables",
        "(`set_runtime_tunables`).",
        "",
        "Priced RAM window (`predict_tile_window_bytes`, the byte-exact",
        "twin of the tiled arena spec) for that reference problem, by",
        "strip height — the execution report's `peak_workspace_bytes`",
        "equals the `tile_window_bytes` figure it was priced at:",
        "",
        "| `tile_rows` | RAM window |",
        "|------------:|-----------:|",
        *rows,
        "",
        "Two guarantees shape the design:",
        "",
        "- **Bitwise equality with fused.**  A tiled execution is",
        "  bit-for-bit identical to the fused pipeline — grouped",
        "  arithmetic and scatter order are unchanged; only *where*",
        "  buffers live differs.",
        "- **The BLAS row-split probe.**  Splitting a dgemm by rows can",
        "  switch the BLAS library's blocking/accumulation kernel and",
        "  change low-order bits (the PR-7 tail-kernel caveat);",
        "  which block shapes are affected is an implementation detail",
        "  of the installed BLAS.  `strip_split_is_exact` therefore",
        "  *measures* each block shape once per process (deterministic",
        "  fixed-seed probe, cached), and `resolve_tile_rows` degrades",
        "  any unsafe split to the full-block single strip — the unsplit",
        "  fused matmul call — trading window size for unconditional",
        "  reproducibility.  Strips are also never one row high",
        "  (single-row GEMMs take a GEMV-style kernel): heights are",
        "  clamped to ≥ 2 and a would-be 1-row tail borrows a row from",
        "  its predecessor.",
        "",
        "The execution report carries the spill accounting — `n_tiles`,",
        "`io_bytes` (bytes moved between the RAM window and spilled",
        "storage) and",
        "`tile_window_bytes`; `repro stats` aggregates them and the",
        "serve admission controller prices tiled jobs at the *window*,",
        "not the slab.  `benchmarks/bench_out_of_core.py`",
        "regression-tracks tiled-vs-staged peak RAM and the wall-clock",
        "bound at in-RAM sizes.",
        "",
        OOC_END,
    ]
    return "\n".join(lines)


def render_obs_section() -> str:
    """The generated Observability block of ``docs/architecture.md``.

    The metric table comes from the live registry's :func:`describe`
    rows — name, kind and description only, never this host's values,
    so ``--check`` is deterministic across hosts.  Importing the
    runtime first makes sure its counters/histograms are registered.
    """
    import repro.core.runtime  # noqa: F401  (registers runtime metrics)
    from repro.obs.logcfg import ENV_VAR
    from repro.obs.metrics import registry
    from repro.obs.reports import DEFAULT_CAPACITY as REPORT_CAPACITY
    from repro.obs.trace import DEFAULT_CAPACITY as TRACE_CAPACITY

    lines = [
        OBS_BEGIN,
        "",
        "The observability layer (`repro.obs`) has three parts, all",
        "zero-cost until asked:",
        "",
        "- **Span tracing** (`repro.obs.trace`) — `perf_counter_ns` spans",
        "  over plan compilation, every runtime phase, arena traffic and",
        "  the BLAS route, kept in a preallocated ring (default",
        f"  {TRACE_CAPACITY} records).  `repro trace run ... -o trace.json`",
        "  exports Chrome trace-event JSON (chrome://tracing, Perfetto).",
        "  Disabled, a span is one flag check + a shared no-op context",
        "  manager — `benchmarks/bench_observability.py` gates the",
        "  overhead under 2% of a hot cached multiply.",
        "- **Metrics registry** (`repro.obs.metrics`) — one process-wide",
        "  namespace of counters, live-callback gauges and histograms;",
        "  `repro stats [--json]` prints a snapshot.",
        "- **Report history** (`repro.obs.reports`) — every",
        "  `ExecutionReport` lands in a bounded ring (default",
        f"  {REPORT_CAPACITY}) aggregated per plan key (p50/p95 latency,",
        "  workspace high-water, core-path breakdowns), which",
        "  `repro stats` and `report_stats()` print.",
        "",
        f"Set `{ENV_VAR}=DEBUG` (or any stdlib level) to attach a stderr",
        "handler to the namespaced `repro.*` loggers; the library itself",
        "only ever installs a `NullHandler`.",
        "",
        "Registered metrics:",
        "",
        "| kind | metric | meaning |",
        "|------|--------|---------|",
    ]
    for kind, name, description in registry.describe():
        lines.append(f"| {kind} | `{name}` | {description} |")
    lines += [
        "",
        OBS_END,
    ]
    return "\n".join(lines)


def render_serve_section() -> str:
    """The generated Serving block of ``docs/architecture.md``.

    Statuses and policies come straight from the live constants
    (``repro.serve``, ``repro.core.spec``) — all host-independent, so
    ``--check`` is deterministic across hosts.
    """
    from repro.core.spec import OVERLOAD_POLICIES
    from repro.serve import JOB_STATUSES

    policy_notes = {
        "queue": "block the submitter until queued bytes fit the budget",
        "reject": "raise `ServiceOverloadedError` immediately (default)",
        "serial": "run the over-budget job synchronously, bypassing the "
                  "queue",
    }
    lines = [
        SERVE_BEGIN,
        "",
        "`repro.serve.MultiplyService` turns the library call into a",
        "concurrent job API: `submit(A, B, **spec)` returns a `JobHandle`",
        "immediately and a dedicated scheduler thread runs it.  The",
        "scheduler claims queued jobs one at a time, first in first out,",
        "and runs each alone; `submit` only enqueues, so a caller that",
        "submits on a schedule never waits for a job's arithmetic.",
        "",
        "A job that names no schedule (no `algorithm`, `levels` or",
        "`variant`) gets `engine=\"auto\"`'s pick: it resolves through",
        "the same memoized route as `multiply(A, B, engine=\"auto\")`",
        "and returns bitwise what that call returns.  A classical pick,",
        "which is every job on hosts where FMM does not pay off at the",
        "job's size, runs as one BLAS call (`runtime.run_blas`).",
        "Until this default, every job ran `strassen@1`; setting any of",
        "the three spec arguments still pins a schedule, with",
        "`strassen`, 1 and `abc` for the rest.  An FMM job, pinned or",
        "picked, runs as one 2-D `execute_plan` call into an array of",
        "its own, bitwise-equal to the direct `multiply` of the same",
        "spec and in the request's dtype (the property suite in",
        "`tests/serve/` holds it to that).",
        "",
        "Job lifecycle: " + " → ".join(f"`{s}`" for s in JOB_STATUSES[:3])
        + " (terminal: " + ", ".join(f"`{s}`" for s in JOB_STATUSES[2:])
        + ").  A job stays cancellable until the scheduler claims it;",
        "`JobHandle.result(timeout=...)` blocks for the result,",
        "`JobHandle.report()` returns the job's `ExecutionReport` from",
        "the report history (keyed by job id — `runtime.last_report()`",
        "is thread-local and would race across service threads).",
        "",
        "Admission control prices every submission at",
        "`predict_workspace_bytes` for its plan plus operand/result",
        "slabs (a BLAS job: operand and result bytes only), and",
        "compares the sum over the queue against",
        "`byte_budget`.  Over budget, the `policy` knob decides:",
        "",
    ]
    for policy in OVERLOAD_POLICIES:
        lines.append(f"- **{policy}** — {policy_notes[policy]}")
    lines += [
        "",
        "The service has no batching knobs: no window, no batch cap and",
        "no tunable.  Queue depth, priced bytes, executions and per-job",
        "latency all publish into the metrics registry (the `serve.*`",
        "rows in the table above) — no parallel bookkeeping.",
        "",
        "`repro serve` drives a service under concurrent submitters from",
        "the CLI and prints the lifecycle counts and the sample job's",
        "`core_path`; `repro jobs` walks a handful of mixed jobs through",
        "the whole lifecycle (including a cancellation) and tabulates",
        "per-job status and reports.",
        "",
        SERVE_END,
    ]
    return "\n".join(lines)


def render_architecture(on_disk: str) -> str:
    """``docs/architecture.md`` with the generated sections refreshed."""
    sections = [
        (FUSION_BEGIN, FUSION_END, render_fusion_section),
        (OOC_BEGIN, OOC_END, render_ooc_section),
        (OBS_BEGIN, OBS_END, render_obs_section),
        (SERVE_BEGIN, SERVE_END, render_serve_section),
    ]
    for begin_mark, end_mark, render_fn in sections:
        begin = on_disk.find(begin_mark)
        end = on_disk.find(end_mark)
        if begin == -1 or end == -1:
            raise SystemExit(
                f"{ARCH_PATH} is missing the {begin_mark!r} / {end_mark!r} "
                f"markers; restore them before regenerating"
            )
        on_disk = (
            on_disk[:begin] + render_fn() + on_disk[end + len(end_mark):]
        )
    return on_disk


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 1) when the derived docs are stale "
                         "instead of rewriting them")
    ap.add_argument("--out", type=Path, default=DOC_PATH,
                    help="algorithms-table output path "
                         "(default docs/algorithms.md; a custom path skips "
                         "the architecture.md section)")
    args = ap.parse_args(argv)

    targets = [(args.out, render())]
    if args.out == DOC_PATH:
        if not ARCH_PATH.exists():
            # The fusion section lives inside the hand-written page; a
            # missing file cannot be regenerated, only reported.
            sys.stderr.write(
                f"{ARCH_PATH} is missing: restore it (with the "
                f"fusion-modes markers) and rerun\n"
            )
            return 1
        targets.append((ARCH_PATH, render_architecture(ARCH_PATH.read_text())))

    if args.check:
        for path, text in targets:
            on_disk = path.read_text() if path.exists() else ""
            if on_disk != text:
                sys.stderr.write(
                    f"{path} is stale: regenerate with "
                    f"`python tools/gen_catalog_docs.py`\n"
                )
                return 1
            print(f"{path} is up to date")
        return 0
    for path, text in targets:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
