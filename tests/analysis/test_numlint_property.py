"""Property test: every kernel's empirical error obeys its certificate.

For random value draws over the differential panel's sparsity structures,
every registered variant's output must satisfy, per logical row,

    |y_variant - y_ref|  <=  bound(variant) + bound(reference)

where ``y_ref`` is an ``np.longdouble`` re-accumulation and both bounds
are evaluated from the certificates of :mod:`repro.analysis.numlint` —
the soundness property the entire "derived, not guessed" tolerance
discipline rests on.  Certificates are structure-derived, so the
registry-cached certificate for a structure must cover *every* value
draw; a single row exceeding its bound falsifies the analysis.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bench.diffverify import (
    _certified_bound,
    _executor_bound,
    _executor_outputs,
    _reference,
    panel,
)
from repro.core.context import ExecutionContext
from repro.core.dispatch import registered_variants
from repro.mat.aij import AijMat

PANEL = panel()
VARIANTS = registered_variants()

# One context per panel structure: the numcert cache makes every value
# draw after the first reuse the same structure-keyed certificate.
_CTX = {
    label: ExecutionContext(slice_height=c, sigma=s)
    for label, _, c, s in PANEL
}


def _with_values(csr: AijMat, seed: int) -> tuple[AijMat, np.ndarray]:
    """The same sparsity structure with fresh random values and input."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, csr.nnz)
    val = rng.standard_normal(csr.nnz) * scale
    x = rng.standard_normal(csr.shape[1]) * 10.0 ** rng.uniform(
        -2.0, 2.0, csr.shape[1]
    )
    return AijMat(csr.shape, csr.rowptr, csr.colidx, val), x


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    structure=st.integers(0, len(PANEL) - 1),
    variant=st.integers(0, len(VARIANTS) - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_empirical_error_within_certified_bound(structure, variant, seed):
    label, base, slice_height, sigma = PANEL[structure]
    var = VARIANTS[variant]
    ctx = _CTX[label]
    try:
        cert = ctx.certify_variant(var, base)
    except (ValueError, NotImplementedError):
        # Format constraint (e.g. BAIJ on odd dims): discard the draw.
        assume(False)
        return
    assert cert.ok, f"{var.name} on {label}: {cert.diagnostics}"

    csr, x = _with_values(base, seed)
    y = np.asarray(ctx.measure(var, csr, x=x).y, dtype=np.float64)
    y_ref, ref_bound = _reference(csr, x)
    bound = _certified_bound(var, csr, x, slice_height, sigma, cert)

    err = np.abs(y.astype(np.longdouble) - y_ref).astype(np.float64)
    tol = bound + ref_bound
    worst = int(np.argmax(err - tol))
    assert np.all(err <= tol), (
        f"{var.name} on {label} (seed {seed}): row {worst} error "
        f"{err[worst]:.3e} exceeds certified bound {tol[worst]:.3e}"
    )


def test_certificates_cover_all_variants_and_structures():
    """Every (variant, structure) pair the formats admit certifies clean —
    the all-16-variants acceptance sweep, structure-cached."""
    certified = 0
    for label, csr, _c, _s in PANEL:
        for var in VARIANTS:
            try:
                cert = _CTX[label].certify_variant(var, csr)
            except (ValueError, NotImplementedError):
                continue
            assert cert.ok, f"{var.name} on {label}: {cert.diagnostics}"
            assert cert.nrows == csr.shape[0]
            certified += 1
    assert len(VARIANTS) == 16
    assert certified >= 3 * len(VARIANTS)  # BAIJ may skip odd-dim panels


@settings(max_examples=25, deadline=None)
@given(structure=st.integers(0, len(PANEL) - 1), seed=st.integers(0, 2**32 - 1))
def test_executor_within_its_bound_and_format_independent(structure, seed):
    """``Mat.multiply`` — what solvers and serve return — gives the same
    bits on every format's conversion, inside gamma(nnz_row)*sum|a||x|."""
    label, base, slice_height, sigma = PANEL[structure]
    csr, x = _with_values(base, seed)
    outputs = _executor_outputs(csr, x, slice_height, sigma)
    assert len(outputs) >= 7
    y_ref, ref_bound = _reference(csr, x)
    tol = _executor_bound(csr, x) + ref_bound
    for fmt, y in outputs:
        assert np.array_equal(y, outputs[0][1]), f"{fmt} on {label}"
        err = np.abs(y.astype(np.longdouble) - y_ref).astype(np.float64)
        assert np.all(err <= tol), f"{fmt} on {label} (seed {seed})"
