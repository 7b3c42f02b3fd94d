"""The traced run's layer map: which calls are spans, and the metrics.

Every span wraps a public entry point of one layer of ``repro``.  Spans
are reported as self time per timed operation, except the set-up layers
(:data:`SETUP_SPANS`), which are reported per set-up because the timed
loop never reaches them.
"""

from __future__ import annotations

from collections import defaultdict

from spans import SpanRecorder, Target

#: Span names reported as ``<name>_ms`` self time per timed op.
OP_SPANS = (
    "pde.assembly",
    "core.reformat",
    "core.signature",
    "mg.setup",
    "mat.to_csr",
    "mg.apply",
    "mat.multiply",
    "ksp.gmres",
    "core.spmm",
    "mat.spmm",
    "simd.replay",
    "simd.mega_replay",
    "core.measure",
)

#: Span names reported as ``<name>_ms`` self time per traced set-up.
SETUP_SPANS = ("simd.record", "simd.fuse", "core.prepare")

#: In the timed loop, a span whose parent is one of the listed layers
#: counts as that parent: the CSR->SELL conversion is what ``reformat``
#: does, and building the SciPy handle is part of the multi-vector
#: product.  Set-up spans are never folded, so ``core.prepare_ms`` is all
#: the conversion work of one set-up.
FOLD_INTO_PARENT = {
    "core.prepare": ("core.reformat", "core.spmm", "core.measure"),
    "mat.to_csr": ("mat.spmm",),
}

#: Every per-layer metric, with its unit and which direction is better.
#: A workload that does not reach a layer reports it as 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{name}_ms": ("ms", "lower") for name in OP_SPANS},
    **{f"{name}_ms": ("ms", "lower") for name in SETUP_SPANS},
    "mat.multiply_calls": ("count", "lower"),
    "snes.newton_its": ("count", "lower"),
    "ksp.krylov_its": ("count", "lower"),
    "core.registry_entries": ("count", "lower"),
    "core.registry_hit_rate": ("ratio", "higher"),
    "core.registry_hit_rate.prepare": ("ratio", "higher"),
    "core.registry_hit_rate.trace": ("ratio", "higher"),
    "core.registry_hit_rate.mega": ("ratio", "higher"),
    "serve.wait_p50_ms": ("ms", "lower"),
    "serve.wait_p90_ms": ("ms", "lower"),
    "serve.occupancy": ("req/pass", "higher"),
    "serve.open_occupancy": ("req/pass", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.errors": ("count", "lower"),
    "loadgen.late_p90_ms": ("ms", "lower"),
    "simd.mega_frac": ("ratio", "higher"),
    "simd.flops": ("count", "lower"),
    "simd.bytes": ("count", "lower"),
    "simd.py_gflops": ("Gflop/s", "higher"),
    "bench.trace_overhead": ("ratio", "lower"),
}

#: Per-layer metrics that are counts fixed by the inputs: they must repeat
#: exactly across runs of one seed, and with tracing on or off.
COUNT_METRICS = (
    "snes.newton_its",
    "ksp.krylov_its",
    "simd.flops",
    "simd.bytes",
    "serve.occupancy",
)


def _replay_layer(self, trace, *args, **kwargs) -> str:
    from repro.simd.megakernel import MegakernelTrace

    return "simd.mega_replay" if isinstance(trace, MegakernelTrace) else "simd.replay"


def _solve_rhs(self, op, b, *args, **kwargs) -> int:
    return id(b)


def _spmm_operator(self, csr, *args, **kwargs) -> int:
    return id(csr)


def _mat_classes(base) -> list[type]:
    seen: list[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def targets() -> list[Target]:
    """The entry points the traced run wraps, one layer each."""
    import repro  # noqa: F401  (registers every matrix format)
    from repro.core import traced
    from repro.core.context import ExecutionContext
    from repro.core.dispatch import KernelVariant
    from repro.core.registry import SignatureRegistry
    from repro.ksp.gmres import GMRES
    from repro.ksp.pc.mg import MGPC
    from repro.mat.base import Mat
    from repro.pde.grayscott import GrayScottProblem
    from repro.simd import megakernel

    out = [
        Target(GrayScottProblem, "jacobian", "pde.assembly"),
        Target(GrayScottProblem, "rhs", "pde.assembly"),
        Target(ExecutionContext, "reformat", "core.reformat"),
        Target(SignatureRegistry, "structure_key", "core.signature"),
        Target(SignatureRegistry, "content_key", "core.signature"),
        Target(MGPC, "setup", "mg.setup"),
        Target(MGPC, "apply", "mg.apply"),
        Target(GMRES, "solve", "ksp.gmres", meta=_solve_rhs),
        Target(ExecutionContext, "spmm", "core.spmm", meta=_spmm_operator),
        Target(ExecutionContext, "measure", "core.measure"),
        Target(KernelVariant, "replay", _replay_layer),
        Target(KernelVariant, "prepare", "core.prepare"),
        Target(traced, "record_trace", "simd.record"),
        Target(megakernel, "compile_megakernel", "simd.fuse"),
    ]
    layer_of = {
        "multiply": "mat.multiply",
        "multiply_multi": "mat.spmm",
        "to_csr": "mat.to_csr",
        "diagonal": "mat.to_csr",
    }
    for cls in _mat_classes(Mat):
        for attr, layer in layer_of.items():
            fn = vars(cls).get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                out.append(Target(cls, attr, layer))
    return out


def layer_of(recorder: SpanRecorder, fold: bool = True) -> list[str]:
    """The layer each span's self time is charged to."""
    spans = recorder.spans
    out = []
    for span in spans:
        parents = FOLD_INTO_PARENT.get(span.name, ()) if fold else ()
        if span.parent is not None and spans[span.parent].name in parents:
            out.append(out[span.parent])
        else:
            out.append(span.name)
    return out


def totals(recorder: SpanRecorder, ops, fold: bool = True) -> tuple[dict, dict]:
    """(self seconds, calls) per layer over spans belonging to ``ops``."""
    ops = set(ops)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, layer, own in zip(
        recorder.spans, layer_of(recorder, fold), recorder.self_times()
    ):
        if span.op in ops:
            seconds[layer] += own
            calls[span.name] += 1
    return seconds, calls


def span_metrics(
    recorder: SpanRecorder, op_ids, setup_op=None, per_op: int | None = None
) -> dict[str, float]:
    """Per-op and per-set-up self times, plus call-derived ratios.

    ``op_ids`` are the span op tags of the traced timed ops; ``per_op``
    overrides their count when one tag covers many ops (a serving phase).
    """
    op_ids = list(op_ids)
    n = max(per_op if per_op is not None else len(op_ids), 1)
    seconds, calls = totals(recorder, op_ids)
    out = {f"{name}_ms": seconds[name] * 1000.0 / n for name in OP_SPANS}
    out["mat.multiply_calls"] = calls["mat.multiply"] / n
    out["simd.mega_frac"] = (
        calls["simd.mega_replay"] / calls["core.measure"]
        if calls["core.measure"]
        else 0.0
    )
    setup_seconds, _ = totals(recorder, [setup_op], fold=False)
    for name in SETUP_SPANS:
        out[f"{name}_ms"] = setup_seconds[name] * 1000.0
    return out


#: ``registry.stats()`` of a registry nothing was looked up in.
NO_LOOKUPS = {"hits": {}, "misses": {}}


def registry_hit_rates(before: dict, after: dict) -> dict[str, float]:
    """Hit rates over the lookups made between two ``registry.stats()``."""

    def rate(namespace=None) -> float:
        def count(stats, kind):
            table = stats[kind]
            if namespace is None:
                return sum(table.values())
            return table.get(namespace, 0)

        hits = count(after, "hits") - count(before, "hits")
        misses = count(after, "misses") - count(before, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    out = {"core.registry_hit_rate": rate()}
    for namespace in ("prepare", "trace", "mega"):
        out[f"core.registry_hit_rate.{namespace}"] = rate(namespace)
    return out
