"""Source-code emission: the visible output of the code generator.

The paper's generator emits C that unrolls the operand linear combinations
of eq. (3) into packing routines and micro-kernel updates.  The Python
analog, :func:`generate_source` / :func:`compile_plan`, emits a
standalone, dependency-light function (NumPy only) with the products
fully unrolled as literal expressions: readable, diffable demo output.
"""

from __future__ import annotations

import math

from repro.core.compile import CompiledPlan
from repro.core.plan import ExecutionPlan

__all__ = [
    "compile_plan",
    "generate_source",
]


def _fmt_coeff(c: float) -> str:
    if c == int(c):
        return str(int(c))
    return repr(c)


def _sum_expr(terms, views_name: str) -> str:
    parts = []
    for idx, c in terms:
        v = f"{views_name}[{idx}]"
        if c == 1:
            parts.append(f"+ {v}" if parts else v)
        elif c == -1:
            parts.append(f"- {v}")
        else:
            parts.append(f"+ {_fmt_coeff(c)} * {v}" if parts else f"{_fmt_coeff(c)} * {v}")
    return " ".join(parts)


def generate_source(
    plan: ExecutionPlan | CompiledPlan, func_name: str | None = None
) -> str:
    """Emit a standalone ``def <func_name>(A, B, C)`` implementing the plan.

    Accepts the same :class:`CompiledPlan` the engines interpret (or the
    bare :class:`ExecutionPlan` IR).  The function handles arbitrary
    operand sizes via dynamic peeling and returns ``C`` with ``A @ B``
    accumulated, exactly like the engines.
    """
    if isinstance(plan, CompiledPlan):
        plan = plan.plan
    ml = plan.ml
    Mt, Kt, Nt = ml.dims_total
    if func_name is None:
        func_name = (
            f"fmm_{Mt}x{Kt}x{Nt}_L{ml.L}_{plan.variant}_r{ml.rank_total}"
        )
    a_tab = list(plan.block_table("A"))
    b_tab = list(plan.block_table("B"))
    c_tab = list(plan.block_table("C"))

    L: list[str] = []
    emit = L.append
    emit(f"def {func_name}(A, B, C):")
    emit(f'    """Generated {ml.L}-level FMM: {ml.name} ({plan.variant} variant).')
    emit("")
    emit(f"    Partition <{Mt},{Kt},{Nt}>, {ml.rank_total} products; computes C += A @ B")
    emit("    for arbitrary sizes (dynamic peeling).  Auto-generated by")
    emit("    repro.core.codegen.generate_source — do not edit.")
    emit('    """')
    emit("    m, k = A.shape")
    emit("    n = B.shape[1]")
    emit(f"    mp = (m // {Mt}) * {Mt}")
    emit(f"    kp = (k // {Kt}) * {Kt}")
    emit(f"    np_ = (n // {Nt}) * {Nt}")
    emit("    if mp and kp and np_:")
    emit(f"        bm, bk, bn = mp // {Mt}, kp // {Kt}, np_ // {Nt}")
    emit(f"        Av = [A[r*bm:(r+1)*bm, c*bk:(c+1)*bk] for r, c in {a_tab!r}]")
    emit(f"        Bv = [B[r*bk:(r+1)*bk, c*bn:(c+1)*bn] for r, c in {b_tab!r}]")
    emit(f"        Cv = [C[r*bm:(r+1)*bm, c*bn:(c+1)*bn] for r, c in {c_tab!r}]")
    for s in plan.steps:
        a = _sum_expr(s.a_terms, "Av")
        b = _sum_expr(s.b_terms, "Bv")
        # Parenthesize multi-term sums AND single scaled terms: `X @ c * Y`
        # would otherwise parse as `(X @ c) * Y`.
        a = f"({a})" if (len(s.a_terms) > 1 or s.a_terms[0][1] != 1) else a
        b = f"({b})" if (len(s.b_terms) > 1 or s.b_terms[0][1] != 1) else b
        emit(f"        _m{s.r} = {a} @ {b}")
        for idx, w in s.c_terms:
            if w == 1:
                emit(f"        Cv[{idx}] += _m{s.r}")
            elif w == -1:
                emit(f"        Cv[{idx}] -= _m{s.r}")
            else:
                emit(f"        Cv[{idx}] += {_fmt_coeff(w)} * _m{s.r}")
    emit("    # dynamic peeling fringes (paper §4.1)")
    emit("    if mp and np_ and kp < k:")
    emit("        C[:mp, :np_] += A[:mp, kp:] @ B[kp:, :np_]")
    emit("    if mp and np_ < n:")
    emit("        C[:mp, np_:] += A[:mp, :] @ B[:, np_:]")
    emit("    if mp < m:")
    emit("        C[mp:, :] += A[mp:, :] @ B")
    emit("    return C")
    emit("")
    return "\n".join(L)


def compile_plan(plan: ExecutionPlan, func_name: str | None = None):
    """Emit and ``exec`` the generated source; returns ``(callable, source)``."""
    src = generate_source(plan, func_name)
    namespace: dict = {"math": math}
    exec(compile(src, "<repro-codegen>", "exec"), namespace)
    fn_name = src.split("(", 1)[0].split()[-1]
    return namespace[fn_name], src
