"""Sparse matrix formats: the Mat layer of the mini-PETSc.

Sequential formats: AIJ/CSR (the baseline), AIJPERM, BAIJ, and — from
:mod:`repro.core` — SELL, the paper's contribution, with its ESB bit-array
variant.  Distributed formats (MPIAIJ, MPISELL) implement
the diag/off-diag split and the overlapped parallel SpMV of Section 2.2.
"""

from .aij import AijMat
from .aij_perm import AijPermMat
from .assembly import AssemblyStats, InsertMode, MatAssembler, PreallocationError
from .baij import BaijMat
from .base import (
    Mat,
    MatrixShapeError,
    UnknownFormatError,
    converter_for,
    register_format,
    registered_formats,
)
from .io import (
    MatrixMarketError,
    dumps,
    loads,
    read_matrix_market,
    write_matrix_market,
)
from .mpi_aij import CompressedCsr, MPIAij, split_local_rows
from .sparsity import (
    SparsityProfile,
    locality_span,
    padding_ratio,
    profile,
    signature,
    sliced_padding,
)

__all__ = [
    "AijMat",
    "AijPermMat",
    "AssemblyStats",
    "BaijMat",
    "CompressedCsr",
    "EsbMat",
    "InsertMode",
    "MPIAij",
    "MatrixMarketError",
    "MPISell",
    "Mat",
    "MatAssembler",
    "MatrixShapeError",
    "PreallocationError",
    "SparsityProfile",
    "UnknownFormatError",
    "converter_for",
    "dumps",
    "loads",
    "locality_span",
    "padding_ratio",
    "profile",
    "read_matrix_market",
    "register_format",
    "registered_formats",
    "signature",
    "sliced_padding",
    "split_local_rows",
    "write_matrix_market",
]


def __getattr__(name: str):
    """Lazy re-exports for the SELL-based classes.

    EsbMat and MPISell build on :mod:`repro.core.sell`, which itself builds
    on :mod:`repro.mat.aij`; importing them lazily keeps the package import
    graph acyclic regardless of whether ``repro.mat`` or ``repro.core`` is
    imported first.
    """
    if name == "EsbMat":
        from ..core.esb import EsbMat

        return EsbMat
    if name == "MPISell":
        from .mpi_sell import MPISell

        return MPISell
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
