"""Observability: staged event logs, metrics, Chrome traces, per-rank views.

This package is the repository's ``-log_view``: the instrument every
benchmark and solver reports through.  It subsumes the original flat
profiler and adds the three layers PETSc users rely on at scale:

* :mod:`repro.obs.eventlog` — nested event timing with PETSc *log stages*
  (:class:`LogStage`, ``push_stage``/``pop_stage``), so summaries break
  down by solver phase;
* :mod:`repro.obs.metrics` — a labeled :class:`MetricsRegistry`
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram`) that snapshots
  the SIMD counters, comm traffic, and fault events into one JSON-exportable
  namespace;
* :mod:`repro.obs.chrome_trace` — per-rank timeline export in the Chrome
  trace-event format (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.observer` — the module-level active :class:`Observer`
  the instrumented library layers record into (``with observing(): ...``),
  with thread-local rank attribution for the SPMD runtime;
* :mod:`repro.obs.parallel` — PETSc's per-rank min/max/ratio
  load-imbalance reduction over the observer's rank logs.

``python -m repro profile`` (:mod:`repro.obs.cli`) runs a named experiment
and writes the summary table, ``metrics.json``, and ``trace.json``.  See
``docs/observability.md`` for the guided tour.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".chrome_trace": "ChromeTrace validate_trace",
        ".eventlog": "MAIN_STAGE EventLog EventRecord LogStage StageRecord",
        ".metrics": "Counter Gauge Histogram MetricsRegistry",
        ".observer": (
            "Observer active_observer obs_bump obs_counter obs_event obs_gap obs_instant obs_rank "
            "obs_stage observing"
        ),
        ".parallel": "ParallelSummary RankReduction merge_rank_logs",
    },
)
