"""Async multi-tenant solve service over the shared signature registry.

``repro.serve`` turns the execution stack into a long-lived service: an
asyncio front door (:class:`~repro.serve.server.SolveService`) accepting
SpMV and linear-solve requests from many tenants, deduplicating and
batching same-operator products into single multi-vector SpMM passes,
sharding tenants across context views (and optionally simulated SPMD
worlds), and enforcing per-tenant QoS — admission control, priorities,
deadlines — with fault-framework-backed graceful degradation under
overload.  The load generator and acceptance gates live in
:mod:`repro.bench.serve_traffic` (``python -m repro serve --smoke``).

Every cache the service touches lives in one
:class:`~repro.core.registry.SignatureRegistry`, so tenants pay each
structure's preparation cost exactly once service-wide.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".batcher": "Batch SignatureBatcher",
        ".qos": "AdmissionController TenantPolicy",
        ".request": "RequestKind ResponseStatus SolveRequest SolveResponse",
        ".server": "SolveService",
    },
)
