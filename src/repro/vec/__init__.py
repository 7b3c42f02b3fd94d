"""Vectors: sequential (aligned) and distributed, PETSc Vec style."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".mpi_vec": "MPIVec",
        ".vector": "SeqVec",
    },
)
