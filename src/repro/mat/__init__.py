"""Sparse matrix formats: the Mat layer of the mini-PETSc.

Sequential formats: AIJ/CSR (the baseline), AIJPERM, BAIJ, and — from
:mod:`repro.core` — SELL, the paper's contribution, with its ESB bit-array
variant.  Distributed formats (MPIAIJ, MPISELL) implement
the diag/off-diag split and the overlapped parallel SpMV of Section 2.2.
"""

from . import aij, aij_perm, baij  # noqa: F401  (register formats)
from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".aij": "AijMat",
        ".aij_perm": "AijPermMat",
        ".baij": "BaijMat",
        ".base": (
            "Mat MatrixShapeError UnknownFormatError converter_for register_format "
            "registered_formats"
        ),
        ".io": "MatrixMarketError dumps loads read_matrix_market write_matrix_market",
        ".mpi_aij": "CompressedCsr MPIAij split_local_rows",
        ".sparsity": "SparsityProfile locality_span padding_ratio profile signature sliced_padding",
        "..core.esb": "EsbMat",
        ".mpi_sell": "MPISell",
    },
)
