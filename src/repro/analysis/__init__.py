"""Static kernel verifier: trace lint, comm-schedule checks, mutation corpus.

The package turns the recorded trace IR (:mod:`repro.simd.trace`) and the
vector-clocked communication log (:mod:`repro.comm.schedule`) into coded
diagnostics — ``VEC0xx`` for kernel traces, ``COMM0xx`` for SPMD
schedules — without executing anything on the machine model.  See
``docs/analysis.md`` for the code catalogue and ``python -m repro
analyze`` for the CLI entry point.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".comm_check": "ANY Coll Recv Send check_log check_schedule solver_iteration_schedule",
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
