"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``   Print the Fig.-2 family with achieved vs. paper ranks.
``multiply``  Multiply random matrices with a chosen algorithm and verify.
``select``    Model-guided implementation selection for a problem size.
``tune``      Re-measure the machine model ``engine="auto"`` prices with.
``wisdom``    Inspect or clear the persistent machine-calibration store.
``trace``     Record a multiply under the span tracer; write a Chrome trace.
``stats``     Print the process-wide metrics snapshot and report history.
``serve``     Drive the async MultiplyService under synthetic load.
``jobs``      Submit a handful of mixed jobs; print the per-job table.
``codegen``   Emit generated Python source for an algorithm/variant.
``model``     Print modeled Effective GFLOPS for a configuration sweep.
``discover``  Run the ALS search for a (m, k, n, rank) target.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np


def _at_least(low, kind=int):
    """An argparse ``type`` for ``kind`` numbers ``>= low``: anything else
    is a usage error (exit 2), not a traceback from deep inside a
    command.  A float nan or infinity is refused too."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _add_shape(p: argparse.ArgumentParser, low: int = 0) -> None:
    """``-m/-k/-n``; commands that price a problem need ``low=1``."""
    for dim in ("-m", "-k", "-n"):
        p.add_argument(dim, type=_at_least(low), default=1024)


def _parse_algorithm(spec: str, levels: int):
    # All spec grammar (names, "<m,k,n>", "+"-joined hybrid stacks) lives in
    # repro.core.spec; the CLI just forwards.
    from repro.core.spec import resolve_levels

    return resolve_levels(spec, levels)


def cmd_catalog(args) -> int:
    from repro.algorithms.catalog import catalog_summary

    print(catalog_summary())
    return 0


def cmd_multiply(args) -> int:
    from repro.core.executor import BlockedEngine, multiply, multiply_batched

    rng = np.random.default_rng(args.seed)
    dtype = np.float32 if args.dtype == "float32" else np.float64
    shape_a, shape_b = (args.m, args.k), (args.k, args.n)
    if args.batch > 1:
        shape_a, shape_b = (args.batch,) + shape_a, (args.batch,) + shape_b
    A = rng.standard_normal(shape_a).astype(dtype)
    B = rng.standard_normal(shape_b).astype(dtype)

    if args.engine == "auto":
        ml, label = None, "auto-dispatch"
    else:
        ml = _parse_algorithm(args.algorithm, args.levels)
        label = str(ml)
    if args.batch > 1:
        C = multiply_batched(
            A, B, algorithm=ml if ml is not None else "strassen",
            variant=args.variant, engine=args.engine,
            tune=args.tune, fusion=args.fusion,
        )
    elif args.engine == "blocked":
        eng = BlockedEngine(variant=args.variant)
        C = np.zeros((args.m, args.n), dtype=dtype)
        eng.multiply(A, B, C, ml)
        print("counters:", eng.counters)
    else:
        C = multiply(
            A, B, algorithm=ml if ml is not None else "strassen",
            variant=args.variant, engine=args.engine,
            tune=args.tune, fusion=args.fusion,
        )
    from repro.core.runtime import last_report

    rep = last_report()
    if rep is not None:
        print(f"runtime: {rep.fusion} lowering, "
              f"peak workspace {rep.peak_workspace_bytes / 2**20:.2f} MiB")
        if args.report:
            print(f"report: core_path={rep.core_path} "
                  f"n_chunks={rep.n_chunks}")
            if rep.fusion == "tiled":
                print(f"tiled: n_tiles={rep.n_tiles} "
                      f"io_bytes={rep.io_bytes} "
                      f"window {rep.tile_window_bytes / 2**20:.2f} MiB")
            from repro.core.compile import plan_cache_info
            from repro.obs import reports as obs_reports

            st = obs_reports.stats_for(rep)
            ci = plan_cache_info()
            hit_rate = ci.hits / max(ci.hits + ci.misses, 1)
            if st is not None:
                print(f"history: n={st.count} "
                      f"p50={st.p50_s * 1e3:.2f}ms "
                      f"p95={st.p95_s * 1e3:.2f}ms "
                      f"peak {st.peak_bytes_hw / 2**20:.2f} MiB; "
                      f"plan-cache hit-rate {hit_rate:.0%} "
                      f"({ci.hits}/{ci.hits + ci.misses})")
    # An empty product (a zero dimension) has no entry to be wrong.
    err = float(np.abs(C - A @ B).max()) if C.size else 0.0
    scale = max(1.0, float(np.abs(C).max())) if C.size else 1.0
    tol = 1e-6 if dtype == np.float64 else 1e-2
    batch_note = f" x{args.batch} batch" if args.batch > 1 else ""
    print(f"{label} on {args.m}x{args.k}x{args.n}{batch_note} "
          f"[{C.dtype}]: max |C - AB| = {err:.3e}")
    return 0 if err / scale < tol else 1


def cmd_trace(args) -> int:
    from repro.core.executor import multiply, multiply_batched
    from repro.obs import trace

    rng = np.random.default_rng(args.seed)
    dtype = np.float32 if args.dtype == "float32" else np.float64
    shape_a, shape_b = (args.m, args.k), (args.k, args.n)
    if args.batch > 1:
        shape_a, shape_b = (args.batch,) + shape_a, (args.batch,) + shape_b
    A = rng.standard_normal(shape_a).astype(dtype)
    B = rng.standard_normal(shape_b).astype(dtype)
    if args.engine == "auto":
        ml = None
    else:
        ml = _parse_algorithm(args.algorithm, args.levels)
    call = multiply_batched if args.batch > 1 else multiply
    trace.enable(args.capacity)
    trace.clear()
    try:
        # Run at least twice by default: the cold call records the plan
        # compile, the warm one the plan-cache hit + steady-state phases.
        for _ in range(args.repeat):
            call(A, B, algorithm=ml if ml is not None else "strassen",
                 variant=args.variant, engine=args.engine, tune="off",
                 fusion=args.fusion)
        doc = trace.export_chrome(args.out)
    finally:
        trace.disable()
    events = doc["traceEvents"]
    cats: dict[str, int] = {}
    pids = set()
    for ev in events:
        cats[ev["cat"]] = cats.get(ev["cat"], 0) + 1
        pids.add(ev["pid"])
    print(f"wrote {args.out}: {len(events)} events from {len(pids)} "
          f"process(es) over {args.repeat} run(s) "
          f"(open in chrome://tracing or Perfetto)")
    for cat in sorted(cats):
        print(f"  {cat:8s} {cats[cat]:6d} events")
    return 0


def cmd_stats(args) -> int:
    # Touch the runtime so its counters/gauges exist even in a process
    # that has not executed anything yet.
    import repro.core.runtime  # noqa: F401
    from dataclasses import asdict

    from repro.obs import metrics, reports

    snap = metrics.snapshot()
    agg = reports.aggregate()
    if args.json:
        print(json.dumps(
            {"metrics": snap,
             "reports": {k: asdict(st) for k, st in sorted(agg.items())}},
            indent=2, sort_keys=True, default=str))
        return 0
    print("counters:")
    for name, val in snap["counters"].items():
        print(f"  {name:28s} {val}")
    print("gauges:")
    for name, val in snap["gauges"].items():
        print(f"  {name:28s} {val}")
    print("histograms:")
    for name, val in snap["histograms"].items():
        print(f"  {name:28s} {val}")
    if agg:
        print(f"report history ({len(reports.recent())} retained):")
        for key, st in sorted(agg.items()):
            tiled = (f" tiles={st.total_tiles} io={st.total_io_bytes}"
                     if st.total_tiles else "")
            print(f"  {key}: n={st.count} p50={st.p50_s * 1e3:.2f}ms "
                  f"p95={st.p95_s * 1e3:.2f}ms best={st.best_s * 1e3:.2f}ms "
                  f"peak {st.peak_bytes_hw / 2**20:.2f} MiB{tiled}")
    else:
        print("report history: empty (nothing executed in this process)")
    return 0


def cmd_serve(args) -> int:
    """Spin a MultiplyService, fire a burst of same-spec jobs at it from
    concurrent submitter threads, verify a sample, and print what the
    scheduler made of the load."""
    import threading

    from repro.core.executor import multiply
    from repro.obs import metrics
    from repro.serve import MultiplyService, ServiceOverloadedError

    rng = np.random.default_rng(args.seed)
    dtype = np.float32 if args.dtype == "float32" else np.float64
    A = rng.standard_normal((args.m, args.k)).astype(dtype)
    B = rng.standard_normal((args.k, args.n)).astype(dtype)

    svc = MultiplyService(
        byte_budget=(None if args.byte_budget_mb is None
                     else int(args.byte_budget_mb * 2**20)),
        policy=args.policy,
    )
    handles, errors = [], []
    lock = threading.Lock()
    pinned = not (args.algorithm is None and args.levels is None
                  and args.variant is None)

    def submitter(count):
        for _ in range(count):
            try:
                h = svc.submit(A, B, algorithm=args.algorithm,
                               levels=args.levels, variant=args.variant)
            except ServiceOverloadedError as exc:
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    handles.append(h)

    n_sub = args.submitters
    per = [args.jobs // n_sub + (1 if i < args.jobs % n_sub else 0)
           for i in range(n_sub)]
    ts = [threading.Thread(target=submitter, args=(c,)) for c in per if c]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    results = [h.result(timeout=120.0) for h in handles]
    svc.shutdown(drain=True)

    core_path = None
    if handles:
        if pinned:
            C_ref = multiply(
                A, B,
                algorithm="strassen" if args.algorithm is None else args.algorithm,
                levels=1 if args.levels is None else args.levels,
                variant="abc" if args.variant is None else args.variant)
        else:
            C_ref = multiply(A, B, engine="auto")
        if not np.array_equal(results[0], C_ref):
            print("FAIL: service result != direct multiply")
            return 1
        report = handles[0].report()
        core_path = report.core_path if report is not None else None
    st = svc.stats()
    snap = metrics.snapshot()
    lat = snap["histograms"].get("serve.job_latency_s", {})
    payload = {
        "shape": [args.m, args.k, args.n],
        "dtype": dtype.__name__ if hasattr(dtype, "__name__") else str(dtype),
        "jobs": args.jobs,
        "submitters": n_sub,
        "policy": svc.policy,
        "core_path": core_path,
        "stats": st,
        "rejected_at_submit": len(errors),
        "latency_s": {k: lat.get(k) for k in ("count", "mean", "p50", "p95")},
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(f"served {st['completed']} jobs")
    print(f"  policy={svc.policy} rejected={st['rejected']} "
          f"degraded={st['degraded_serial']} cancelled={st['cancelled']} "
          f"errors={st['errors']}")
    if lat:
        print(f"  job latency p50={1e3 * (lat.get('p50') or 0):.2f}ms "
              f"p95={1e3 * (lat.get('p95') or 0):.2f}ms")
    print(f"  sample result ({core_path}) verified against direct "
          "multiply: ok")
    return 0


def cmd_jobs(args) -> int:
    """Submit a few mixed-spec jobs (plus one cancellation) and print
    each handle's lifecycle — the job-table view of the service."""
    from repro.serve import JobCancelledError, MultiplyService
    from repro.serve.testing import FaultInjectingExecutor

    rng = np.random.default_rng(args.seed)
    specs = [
        (64, 64, 64, np.float64, "strassen", 1),
        (64, 64, 64, np.float64, "strassen", 1),
        (64, 64, 64, np.float32, "strassen", 1),
        (96, 96, 96, np.float64, "strassen", 2),
        (90, 96, 90, np.float64, "<3,2,3>", 1),
    ]
    ex = FaultInjectingExecutor()
    svc = MultiplyService(executor=ex)
    gate = ex.push_block()  # hold job #1 so the table shows a cancel
    handles = []
    for m, k, n, dt, algo, lv in specs:
        A = rng.standard_normal((m, k)).astype(dt)
        B = rng.standard_normal((k, n)).astype(dt)
        handles.append(svc.submit(A, B, algorithm=algo, levels=lv))
    victim = handles[-1]
    cancelled = victim.cancel()
    gate.set()
    for h in handles:
        if h is not victim or not cancelled:
            try:
                h.result(timeout=60.0)
            except JobCancelledError:
                pass
    svc.shutdown(drain=True)

    print(f"{'job':8s} {'shape':14s} {'dtype':8s} {'status':10s} "
          f"{'duration':>10s}  report")
    for h in handles:
        m, k, n = h.shape
        rep = h.report()
        dur = f"{rep.duration_s * 1e3:9.2f}ms" if rep else f"{'-':>11s}"
        via = rep.worker_mode if rep else "-"
        print(f"{h.id:8s} {m}x{k}x{n:<8d} {h.dtype.name:8s} {h.status:10s} "
              f"{dur}  {via}")
    st = svc.stats()
    print(f"\n{st['completed']} complete, {st['cancelled']} cancelled")
    return 0


def cmd_select(args) -> int:
    from repro.core.selection import select
    from repro.model.machines import ivy_bridge_e5_2680_v2

    mach = ivy_bridge_e5_2680_v2(args.cores)
    winner, ranked = select(args.m, args.k, args.n, mach, top=args.top)
    if args.json:
        doc = {
            "problem": [args.m, args.k, args.n],
            "machine": mach.name,
            "selected": {
                "label": winner.label,
                "schedule": winner.signature,
                "shapes": [list(s) for s in winner.shapes],
                "levels": winner.levels,
                "variant": winner.variant,
                "predicted_gflops": winner.prediction.effective_gflops,
                "predicted_time_s": winner.prediction.time,
            },
            "ranked": [
                {
                    "label": c.label,
                    "predicted_gflops": c.prediction.effective_gflops,
                    "predicted_time_s": c.prediction.time,
                }
                for c in ranked[: max(args.top, 5)]
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"problem {args.m}x{args.k}x{args.n} on {mach.name}")
    print(f"selected: {winner.label} "
          f"(predicted {winner.prediction.effective_gflops:.2f} GFLOPS)")
    print("model top-5:")
    for c in ranked[:5]:
        print(f"  {c.label:<28} {c.prediction.effective_gflops:8.2f} GF")
    return 0


def _wisdom_store(args):
    from repro.tune.wisdom import WisdomStore, default_store

    return WisdomStore(args.store) if args.store else default_store()


def cmd_tune(args) -> int:
    from repro.tune.tuner import calibrate_machine
    from repro.tune.wisdom import machine_doc

    store = _wisdom_store(args)
    mp = calibrate_machine(store=store)
    if args.json:
        print(json.dumps({"path": str(store.path),
                          "machine": machine_doc(mp)}, indent=2))
        return 0
    print(f"calibrated machine: {mp.name} "
          f"(peak {mp.peak_gflops_per_core:.1f} GF/core, "
          f"bw {mp.bandwidth_gbs:.1f} GB/s, lambda {mp.lam:.2f})")
    print(f"recorded in {store.path}")
    return 0


def cmd_wisdom(args) -> int:
    from repro.tune.wisdom import machine_doc

    store = _wisdom_store(args)
    if args.action == "path":
        print(store.path)
        return 0
    if args.action == "clear":
        store.clear()
        print(f"cleared the machine record from {store.path}")
        return 0
    mp = store.machine_params()
    if args.json:
        print(json.dumps({
            "path": str(store.path),
            "machine": None if mp is None else machine_doc(mp),
            "recovered_corrupt": store.recovered_corrupt,
            "ignored_stale": store.ignored_stale,
        }, indent=2))
        return 0
    print(f"wisdom store: {store.path}")
    if store.recovered_corrupt:
        print("  (previous file was corrupt; set aside as *.corrupt)")
    if store.ignored_stale:
        print("  (file was calibrated on a different machine; record ignored)")
    if mp is None:
        print("  (no machine record; the next engine=auto call measures "
              "the host, or run `repro tune --calibrate`)")
        return 0
    print(f"  machine: {mp.name} peak {mp.peak_gflops_per_core:.1f} GF/core"
          f" bw {mp.bandwidth_gbs:.1f} GB/s lambda {mp.lam:.2f}")
    return 0


def cmd_codegen(args) -> int:
    from repro.core.codegen import generate_source
    from repro.core.plan import build_plan

    ml = _parse_algorithm(args.algorithm, args.levels)
    plan = build_plan(args.m, args.k, args.n, ml, args.variant)
    sys.stdout.write(generate_source(plan))
    return 0


def cmd_model(args) -> int:
    from repro.core.executor import resolve_levels
    from repro.model.machines import ivy_bridge_e5_2680_v2
    from repro.model.perfmodel import predict_fmm, predict_gemm

    mach = ivy_bridge_e5_2680_v2(args.cores)
    ml = _parse_algorithm(args.algorithm, args.levels)
    gemm = predict_gemm(args.m, args.k, args.n, mach)
    print(f"machine: {mach.name}   problem: {args.m}x{args.k}x{args.n}")
    print(f"{'impl':<28} {'GFLOPS':>8} {'T_a (s)':>10} {'T_m (s)':>10}")
    print(f"{'gemm (BLIS model)':<28} {gemm.effective_gflops:8.2f} "
          f"{gemm.arithmetic_time:10.4f} {gemm.memory_time:10.4f}")
    for var in ("naive", "ab", "abc"):
        p = predict_fmm(args.m, args.k, args.n, ml, var, mach)
        print(f"{ml.name + '/' + var:<28} {p.effective_gflops:8.2f} "
              f"{p.arithmetic_time:10.4f} {p.memory_time:10.4f}")
    return 0


def cmd_discover(args) -> int:
    from repro.core.fmm import nnz
    from repro.search.discovery import discover

    algo, rep = discover(
        args.m, args.k, args.n, args.rank,
        max_restarts=args.restarts, time_budget=args.budget, seed=args.seed,
    )
    print(f"<{args.m},{args.k},{args.n}>:{args.rank} -> {rep.found} "
          f"({rep.restarts} restarts, {rep.elapsed:.1f}s, "
          f"best residual {rep.best_residual:.2e})")
    if algo is not None:
        print(f"nnz = {nnz(algo.U)}, {nnz(algo.V)}, {nnz(algo.W)}")
        if args.out:
            from repro.algorithms.loader import save_json

            print("saved to", save_json(algo, args.out))
    return 0 if algo is not None else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="print the algorithm family")

    p = sub.add_parser("multiply", help="multiply random matrices and verify")
    _add_shape(p)
    p.add_argument("--algorithm", default="strassen",
                   help='e.g. strassen, "<3,2,3>", "strassen+<3,3,3>", or a '
                        'schedule string like "strassen@2,smirnov333@1"')
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--variant", choices=("naive", "ab", "abc"), default="abc")
    p.add_argument("--engine", choices=("direct", "blocked", "auto"),
                   default="direct")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("float32", "float64"), default="float64")
    p.add_argument("--batch", type=_at_least(1), default=1,
                   help="multiply a stack of N same-shape problems "
                        "through one compiled plan (1: one 2-D multiply)")
    p.add_argument("--tune", choices=("off", "readonly"),
                   default="readonly",
                   help="machine calibration under --engine auto "
                        "(default: readonly; the first model-path call "
                        "measures the host once per store; off never "
                        "touches the store)")
    p.add_argument("--fusion", choices=("auto", "staged", "fused", "tiled"),
                   default="auto",
                   help="runtime lowering: staged slabs (O(R) product "
                        "buffers), the streaming fused pipeline (one "
                        "product group of buffers) or its out-of-core "
                        "tiled form; auto resolves per plan. "
                        "The blocked engine's packed kernel always "
                        "streams (staged requests execute fused there)")
    p.add_argument("--report", action="store_true",
                   help="print the execution report's core path, chunk "
                        "count and report-history line")

    p = sub.add_parser("select", help="model-guided selection")
    _add_shape(p, low=1)
    p.add_argument("--cores", type=int, default=1)
    p.add_argument("--top", type=int, default=2)
    p.add_argument("--json", action="store_true",
                   help="emit the selection as machine-readable JSON")

    p = sub.add_parser("tune", help="re-measure the machine model")
    p.add_argument("--calibrate", action="store_true", required=True,
                   help="measure this host and record the machine model "
                        "back-fit (the command's one mode)")
    p.add_argument("--store", default=None,
                   help="wisdom file (default: $REPRO_WISDOM or "
                        "~/.cache/repro/wisdom.json)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("wisdom", help="inspect the machine-calibration store")
    p.add_argument("action", nargs="?", choices=("show", "clear", "path"),
                   default="show")
    p.add_argument("--store", default=None,
                   help="wisdom file (default: $REPRO_WISDOM or "
                        "~/.cache/repro/wisdom.json)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("trace",
                       help="record a multiply under the span tracer")
    p.add_argument("action", nargs="?", choices=("run",), default="run")
    _add_shape(p)
    p.add_argument("--algorithm", default="strassen")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--variant", choices=("naive", "ab", "abc"), default="abc")
    p.add_argument("--engine", choices=("direct", "auto"), default="direct")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dtype", choices=("float32", "float64"),
                   default="float64")
    p.add_argument("--batch", type=_at_least(1), default=1)
    p.add_argument("--fusion", choices=("auto", "staged", "fused", "tiled"),
                   default="auto")
    p.add_argument("--repeat", type=_at_least(1), default=2,
                   help="runs to record; the first shows the plan compile, "
                        "later ones the cached steady state (default 2)")
    p.add_argument("--capacity", type=int, default=None,
                   help="span ring capacity (default 8192)")
    p.add_argument("-o", "--out", default="trace.json",
                   help="Chrome trace-event JSON output path "
                        "(default trace.json)")

    p = sub.add_parser("stats",
                       help="print the metrics snapshot and report history")
    p.add_argument("--json", action="store_true",
                   help="emit the snapshot as machine-readable JSON")

    p = sub.add_parser("serve",
                       help="drive the async MultiplyService under load")
    _add_shape(p)
    p.add_argument("--algorithm", default=None,
                   help="pin a schedule (default: the service default, "
                        "engine=\"auto\"'s pick)")
    p.add_argument("--levels", type=int, default=None,
                   help="pin the recursion depth (default 1 once any of "
                        "--algorithm/--levels/--variant is given)")
    p.add_argument("--variant", choices=("naive", "ab", "abc"), default=None,
                   help="pin the variant (default abc once pinned)")
    p.add_argument("--dtype", choices=("float32", "float64"),
                   default="float64")
    p.add_argument("--jobs", type=_at_least(1), default=64,
                   help="multiply requests to submit (default 64)")
    p.add_argument("--submitters", type=_at_least(1), default=4,
                   help="concurrent submitter threads (default 4)")
    p.add_argument("--byte-budget-mb", type=_at_least(0, float), default=None,
                   help="admission byte budget in MiB (default: unlimited)")
    p.add_argument("--policy", choices=("queue", "reject", "serial"),
                   default=None,
                   help="over-budget behavior (default reject)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit the serve summary as machine-readable JSON")

    p = sub.add_parser("jobs",
                       help="submit mixed jobs; print the per-job table")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("codegen", help="emit generated Python source")
    _add_shape(p)
    p.add_argument("--algorithm", default="strassen")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--variant", choices=("naive", "ab", "abc"), default="abc")

    p = sub.add_parser("model", help="performance-model table")
    _add_shape(p)
    p.add_argument("--algorithm", default="strassen")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--cores", type=int, default=1)

    p = sub.add_parser("discover", help="search for an algorithm")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--budget", type=float, default=120.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "catalog": cmd_catalog,
        "multiply": cmd_multiply,
        "select": cmd_select,
        "tune": cmd_tune,
        "wisdom": cmd_wisdom,
        "trace": cmd_trace,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "jobs": cmd_jobs,
        "codegen": cmd_codegen,
        "model": cmd_model,
        "discover": cmd_discover,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `python -m repro catalog | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
