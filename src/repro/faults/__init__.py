"""Deterministic fault injection, ABFT detection, and recovery plumbing.

The package splits cleanly along the three legs of the resilience story
(``docs/resilience.md``):

* :mod:`repro.faults.plan` — *injection*: seeded :class:`FaultPlan`
  schedules, the :class:`FaultInjector` that fires them at named sites,
  and the :func:`inject` context manager that arms one;
* :mod:`repro.faults.abft` — *detection*: row-checksum verification of
  SpMV products (:class:`AbftChecker` / :class:`AbftOperator`) raising
  :class:`SdcDetected`;
* :mod:`repro.faults.monitor` — *detection*: the shared
  :class:`HealthMonitor` residual guard for the Krylov solvers;
* :mod:`repro.faults.events` — the :class:`ResilienceLog` event stream
  every injection, detection, and recovery flows into.

:mod:`repro.faults.campaign` (the end-to-end seeded fault campaign) is
*not* imported here: it pulls in the solver and comm stacks, which
themselves import this package.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".abft": "AbftChecker AbftOperator SdcDetected",
        ".events": "ACTIONS ResilienceEvent ResilienceLog capture emit",
        ".monitor": "HealthMonitor",
        ".plan": (
            "COMM_KINDS CORRUPTION_KINDS FaultInjector FaultPlan FaultSpec active apply_corruption "
            "fire inject"
        ),
    },
)
