"""Property-based tests: format equivalence over random sparse matrices.

Hypothesis generates sparsity patterns (including degenerate ones: empty
rows, empty matrices, single columns); every format must round-trip
through CSR, multiply bit-identically (one product path for every format),
and report the same diagonal; every instruction-level kernel must agree
with that path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.esb import EsbMat
from repro.core.sell import SellMat
from repro.mat.aij import AijMat
from repro.mat.aij_perm import AijPermMat
from repro.mat.base import converter_for, registered_formats


@st.composite
def sparse_matrices(draw, max_dim: int = 18):
    """A random CSR matrix via a dense mask (small, but adversarial)."""
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.standard_normal((m, n)), 0.0)
    return AijMat.from_dense(dense)


CONVERTERS = {
    "SELL": lambda csr: SellMat.from_csr(csr, slice_height=4),
    "SELL-sorted": lambda csr: SellMat.from_csr(csr, 4, sigma=8),
    "ESB": lambda csr: EsbMat.from_csr(csr, slice_height=4),
    "CSRPerm": AijPermMat.from_csr,
}


def every_format(csr):
    """(name, converted matrix) for every registered format plus the
    sliced variants above; BAIJ's 2x2 blocks need even dimensions."""
    for name in registered_formats():
        if name == "BAIJ" and (csr.shape[0] % 2 or csr.shape[1] % 2):
            continue
        yield name, converter_for(name)(csr)
    for name, convert in CONVERTERS.items():
        yield name, convert(csr)


@settings(max_examples=30, deadline=None)
@given(csr=sparse_matrices())
def test_every_format_multiplies_like_csr(csr):
    x = np.random.default_rng(7).standard_normal(csr.shape[1])
    reference = csr.multiply(x)
    xs = np.stack([x, -2.0 * x], axis=1)
    for name, mat in every_format(csr):
        assert np.array_equal(mat.multiply(x), reference), name
        assert np.array_equal(mat.multiply_multi(xs)[:, 0], reference), name


@settings(max_examples=30, deadline=None)
@given(csr=sparse_matrices())
def test_every_format_diagonal_matches_csr(csr):
    reference = np.diag(csr.to_dense())
    for name, mat in every_format(csr):
        diag = mat.diagonal()
        assert diag.shape == reference.shape, name
        assert np.array_equal(diag, reference), name


@settings(max_examples=30, deadline=None)
@given(csr=sparse_matrices())
def test_every_format_round_trips_to_csr(csr):
    for name, convert in CONVERTERS.items():
        back = convert(csr).to_csr()
        assert back.equal(csr, tol=1e-14), name


@settings(max_examples=25, deadline=None)
@given(
    csr=sparse_matrices(max_dim=12),
    c=st.sampled_from([1, 2, 4, 8]),
)
def test_sell_padding_invariants(csr, c):
    sell = SellMat.from_csr(csr, slice_height=c)
    # Slot count = nnz + padding, and is a whole number of slice columns.
    assert int(sell.sliceptr[-1]) == csr.nnz + sell.padded_entries
    assert sell.padded_entries >= 0
    for s in range(sell.nslices):
        assert (sell.sliceptr[s + 1] - sell.sliceptr[s]) % c == 0
    # Every padded slot carries value zero and an in-range column.
    if sell.val.shape[0]:
        assert sell.colidx.min() >= 0
        assert sell.colidx.max() < csr.shape[1]


@settings(max_examples=15, deadline=None)
@given(csr=sparse_matrices(max_dim=10))
def test_kernels_agree_with_the_fast_path(csr):
    """The instruction-level engine kernels are numerically real."""
    from repro.core.dispatch import CSR_AVX, CSR_AVX512, SELL_AVX512

    x = np.random.default_rng(8).standard_normal(csr.shape[1])
    reference = csr.multiply(x)
    for variant in (CSR_AVX512, CSR_AVX, SELL_AVX512):
        mat = variant.prepare(csr)
        y, counters = variant.run(mat, x)
        assert np.allclose(y, reference, atol=1e-10), variant.name
        assert counters.bytes_loaded >= 0


@settings(max_examples=20, deadline=None)
@given(csr=sparse_matrices(max_dim=14), seed=st.integers(0, 1000))
def test_distributed_spmv_matches_sequential(csr, seed):
    """Random matrix, random partition count: the 4-step parallel SpMV
    equals the sequential product."""
    from repro.comm.spmd import run_spmd
    from repro.mat.mpi_aij import MPIAij
    from repro.vec.mpi_vec import MPIVec

    m, n = csr.shape
    if m != n:
        csr = AijMat.from_dense(np.pad(csr.to_dense(), ((0, max(0, n - m)), (0, max(0, m - n)))))
    x = np.random.default_rng(seed).standard_normal(csr.shape[1])
    expected = csr.multiply(x)
    size = (seed % 3) + 1

    def prog(comm):
        a = MPIAij.from_global_csr(comm, csr)
        xv = MPIVec.from_global(comm, a.layout, x)
        return a.multiply(xv).to_global()

    for result in run_spmd(size, prog):
        assert np.allclose(result, expected, atol=1e-10)
