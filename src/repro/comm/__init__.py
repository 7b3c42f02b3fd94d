"""Simulated message passing: the repository's MPI substitute.

Ranks are threads inside one interpreter; a :class:`World` carries
mailboxes and synchronization, :class:`Comm` is the per-rank mpi4py-style
façade, :func:`run_spmd` plays the role of ``mpiexec``, and
:class:`VecScatter` implements PETSc's ghost-value exchange used by the
overlapped parallel SpMV (paper Section 2.2).
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".communicator": "ANY_TAG Comm CommunicatorError RankDeath TrafficStats World",
        ".partition": "RowLayout",
        ".request": "CompletedRequest DeferredRequest Request",
        ".scatter": "VecScatter",
        ".spmd": "SpmdError run_spmd",
    },
)
