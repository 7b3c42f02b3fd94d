"""Static kernel verifier: trace lint, rounding certificates, mutation corpus.

The package turns the recorded trace IR (:mod:`repro.simd.trace`) into
coded diagnostics — ``VEC0xx`` for kernel traces and fused programs,
``NUM0xx`` for rounding-error certificates — without executing anything
on the machine model.  See ``docs/analysis.md`` for the code catalogue
and ``python -m repro analyze`` for the CLI entry point.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".corpus": "CASES CorpusCase run_case run_corpus",
        ".diagnostics": "CODES AnalysisReport Diagnostic",
        ".kernel": "analyze_all analyze_variant certify_variant default_structures summarize",
        ".numlint": (
            "NumericalCertificate Term certify_recorder certify_trace compare_certificates gamma"
        ),
        ".trace_lint": (
            "BufferInfo TraceSubject coverage_pass dataflow_pass isa_pass lint_megakernel "
            "lint_recorder lint_trace memory_pass"
        ),
    },
)
