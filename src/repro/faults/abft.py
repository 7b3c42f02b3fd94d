"""Algorithm-based fault tolerance (ABFT) for SpMV via row checksums.

The check is Huang–Abraham style, specialized to y = A·x.  At assembly we
precompute the column-sum vector

    w = Aᵀ·1        (so  w·x = 1ᵀ·(A·x) = Σ_i y_i  exactly, in ℝ)

and its absolute companion ``wabs = |A|ᵀ·1``.  After every product we
compare ``w·x`` against ``Σy``.  In floating point the two sides differ by
rounding; the comparison is scaled by the Cauchy–Schwarz bound

    |w·x| ≤ ‖wabs‖₂ · ‖x‖₂

with ``‖wabs‖₂`` cached at checker construction, so each verification is
three O(n) passes (``w·x``, ``Σy``, ``‖x‖``) and no temporaries — that is
what keeps the overhead under the smoke-bench gate.  An injected NaN or a
high exponent bit-flip perturbs ``Σy`` by many orders of magnitude more
than the tolerance and is always caught; a flip that lands on a
near-zero element can perturb the sum by less than the tolerance, which
makes it roundoff-scale — provably benign — and :func:`corrupt_product`
classifies it as such at injection time, so no fault is ever silent.

A detected mismatch raises :class:`SdcDetected`; recovery policy lives
with the caller (dispatch degrades down its ladder, Krylov solvers roll
back to the last verified iterate — see ``docs/resilience.md``).
"""

from __future__ import annotations

import math

import numpy as np

from .events import emit
from .plan import CORRUPTION_KINDS, apply_corruption, fire


class SdcDetected(RuntimeError):
    """An ABFT checksum mismatch: silent data corruption caught in flight."""


def checksum_vectors(csr) -> tuple[np.ndarray, np.ndarray]:
    """(w, wabs) = (Aᵀ·1, |A|ᵀ·1) for a CSR matrix, via one bincount each."""
    n = csr.shape[1]
    idx = csr.colidx
    w = np.bincount(idx, weights=csr.val, minlength=n)[:n]
    wabs = np.bincount(idx, weights=np.abs(csr.val), minlength=n)[:n]
    return w, wabs


class AbftChecker:
    """Verifies y = A·x products against a matrix's cached checksums."""

    def __init__(self, mat, rtol: float = 1.0e-9):
        self.rtol = rtol
        self.w, wabs = mat.abft_checksums()
        self._wabs_norm = float(np.linalg.norm(wabs))

    def tolerance(self, x: np.ndarray) -> float:
        """The acceptance threshold for a product with input ``x``."""
        return self.rtol * max(self._wabs_norm * math.sqrt(x @ x), 1.0)

    def verify(self, x: np.ndarray, y: np.ndarray, site: str = "spmv.output") -> None:
        """Raise :class:`SdcDetected` unless Σy matches w·x within tolerance.

        When the *input* is already non-finite the identity is undefined
        and the check abstains — a poisoned x is the solver health
        monitor's domain, not a kernel fault.
        """
        # ‖x‖ as sqrt(x·x): what np.linalg.norm computes for a 1-D
        # float64 array, without its dispatch overhead.
        scale = self._wabs_norm * math.sqrt(x @ x)
        if not math.isfinite(scale):
            return
        # A corrupted y can hold NaN/±inf: the sum then goes non-finite,
        # err is NaN or inf, and the comparison below fails — finiteness
        # is read off the result instead of guarding the reductions.
        err = abs(float(self.w @ x) - float(y.sum()))
        tol = self.rtol * max(scale, 1.0)
        if err <= tol:
            return
        detail = f"|w.x - sum(y)| = {err:.3e} exceeds {tol:.3e}"
        emit("detected", site, "abft", detail=detail)
        raise SdcDetected(f"ABFT checksum mismatch at {site}: {detail}")


def corrupt_product(
    spec,
    y: np.ndarray,
    x: np.ndarray | None = None,
    checker: AbftChecker | None = None,
    site: str | None = None,
) -> None:
    """Apply a scheduled corruption to ``y``, classifying sub-tolerance hits.

    The injection point knows the exact perturbation it lands (one element,
    old value vs new).  When that delta is finite and below the checker's
    tolerance the fault is *provably benign* — indistinguishable from the
    product's own rounding noise, e.g. a low exponent-bit flip on a
    near-zero element — and is logged as such, so the campaign's
    "detected or provably benign" accounting stays honest.  Without a
    checker (ABFT off) no classification is possible and none is logged.
    """
    if y.size == 0:
        return
    i = spec.index % y.size
    old = float(y[i])
    apply_corruption(spec, y)
    if checker is None or x is None:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        delta = abs(float(y[i]) - old)
    if np.isfinite(delta) and delta <= checker.tolerance(x):
        emit(
            "benign",
            site or spec.site,
            spec.kind,
            detail="perturbation below checksum tolerance",
        )


class AbftOperator:
    """A checksum-verifying wrapper around any :class:`Mat`-like operator.

    Every :meth:`multiply` is followed by the O(n) ABFT verification; a
    mismatch raises :class:`SdcDetected` so the solver can roll back to
    its last verified iterate.  The wrapper is also the solver-level fault
    site (``"spmv.output"``): an armed injector corrupts the product
    *before* verification, which is exactly what makes the campaign's
    "every fault detected" accounting honest.
    """

    site = "spmv.output"

    def __init__(self, inner, rtol: float = 1.0e-9):
        self.inner = inner
        self.checker = AbftChecker(inner, rtol=rtol)

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape

    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        y = self.inner.multiply(x, y)
        spec = fire(self.site)
        if spec is not None and spec.kind in CORRUPTION_KINDS:
            corrupt_product(spec, y, x, self.checker, site=self.site)
        self.checker.verify(x, y, site=self.site)
        return y

    def diagonal(self) -> np.ndarray:
        """Pass through to the wrapped operator (for Jacobi-type PCs)."""
        return self.inner.diagonal()

    def to_csr(self):
        """Pass through to the wrapped operator (for PC setup paths)."""
        return self.inner.to_csr()
