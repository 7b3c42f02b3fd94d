"""ABFT row checksums: no false positives, every scheduled corruption caught.

The detection sweep runs the full 16-variant kernel panel over the
record/replay structure panel (the same fixtures as
``tests/core/test_trace_replay.py``): the clean product of every variant
must verify, and a NaN or exponent bit-flip injected into any of those
products must raise :class:`SdcDetected`.
"""

import math

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import ALL_VARIANTS
from repro.core.sell import SellMat
from repro.faults.abft import (
    AbftChecker,
    AbftOperator,
    SdcDetected,
    corrupt_product,
)
from repro.faults.events import ResilienceLog, capture
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, apply_corruption, inject
from repro.mat.aij import AijMat
from repro.pde.problems import gray_scott_jacobian

from ..core.test_trace_replay import STRUCTURES


class TestChecksumVectors:
    def test_known_small_matrix(self):
        # [[1, -2], [0, 3]]: w = A^T.1 = (1, 1), wabs = |A|^T.1 = (1, 5)
        csr = AijMat(
            (2, 2),
            np.array([0, 2, 3]),
            np.array([0, 1, 1], dtype=np.int32),
            np.array([1.0, -2.0, 3.0]),
        )
        w, wabs = csr.abft_checksums()
        assert np.array_equal(w, [1.0, 1.0])
        assert np.array_equal(wabs, [1.0, 5.0])

    def test_sell_override_matches_the_csr_checksums(self):
        csr = gray_scott_jacobian(6)
        sell = SellMat.from_csr(csr, slice_height=8, sigma=16)
        w_csr, wabs_csr = csr.abft_checksums()
        w_sell, wabs_sell = sell.abft_checksums()
        assert np.array_equal(w_csr, w_sell)
        assert np.array_equal(wabs_csr, wabs_sell)


@pytest.mark.parametrize("variant_name", sorted(ALL_VARIANTS))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_panel_clean_products_verify_and_corrupted_ones_are_caught(
    variant_name, structure
):
    factory, c, s = STRUCTURES[structure]
    csr = factory()
    if ALL_VARIANTS[variant_name].fmt == "BAIJ" and (
        csr.shape[0] % 2 or csr.shape[1] % 2
    ):
        pytest.skip("BAIJ(bs=2) needs even dimensions")
    x = np.random.default_rng(11).standard_normal(csr.shape[1])
    # An ABFT-enabled context verifies the product inline: a clean run
    # completing without SdcDetected is the zero-false-positive half.
    ctx = ExecutionContext(abft=True)
    meas = ctx.measure(variant_name, csr, x=x, slice_height=c, sigma=s)
    checker = AbftChecker(csr)
    checker.verify(x, meas.y)
    # The detection half: poison the largest element (whose perturbation
    # is necessarily far above the rounding-scale tolerance).
    i = int(np.argmax(np.abs(meas.y)))
    for kind in ("nan", "bitflip"):
        y = meas.y.copy()
        apply_corruption(
            FaultSpec("spmv.output", 0, kind, index=i, bit=62), y
        )
        with capture(), pytest.raises(SdcDetected):
            checker.verify(x, y)


class TestVerifyEdges:
    def test_abstains_when_the_input_is_nonfinite(self):
        csr = gray_scott_jacobian(4)
        checker = AbftChecker(csr)
        x = np.full(csr.shape[1], np.inf)
        checker.verify(x, np.full(csr.shape[0], np.nan))  # must not raise

    def test_subtolerance_flip_is_classified_provably_benign(self):
        csr = gray_scott_jacobian(4)
        checker = AbftChecker(csr)
        x = np.zeros(csr.shape[1])
        y = csr.multiply(x)  # exactly zero
        spec = FaultSpec("spmv.output", 0, "bitflip", index=0, bit=52)
        log = ResilienceLog()
        with capture(log):
            corrupt_product(spec, y, x, checker, site="spmv.output")
        assert y[0] != 0.0  # the flip did land...
        assert log.counts()["benign"] == 1  # ...but is roundoff-scale
        checker.verify(x, y)  # and indeed passes the checksum test

    def test_detection_emits_a_detected_event(self):
        csr = gray_scott_jacobian(4)
        checker = AbftChecker(csr)
        x = np.ones(csr.shape[1])
        y = csr.multiply(x)
        y[3] = np.nan
        log = ResilienceLog()
        with capture(log), pytest.raises(SdcDetected):
            checker.verify(x, y)
        (event,) = log.of("detected")
        assert (event.site, event.kind) == ("spmv.output", "abft")


def full_rule_raises(csr, rtol: float, x: np.ndarray, y: np.ndarray) -> bool:
    """The verification rule with ‖x‖ always computed first: abstain on a
    non-finite tolerance scale, else raise unless |w·x − Σy| ≤ tol."""
    w, wabs = csr.abft_checksums()
    scale = float(np.linalg.norm(wabs)) * math.sqrt(x @ x)
    if not math.isfinite(scale):
        return False
    err = abs(float(w @ x) - float(y.sum()))
    return not err <= rtol * max(scale, 1.0)


def _verify_panel():
    """(x, y) cases on ``gray_scott_jacobian(4)`` covering every branch of
    :meth:`AbftChecker.verify`."""
    csr = gray_scott_jacobian(4)
    x = np.random.default_rng(5).standard_normal(csr.shape[1])
    y = csr.multiply(x)
    nan_y = y.copy()
    nan_y[3] = np.nan
    flipped = y.copy()
    apply_corruption(FaultSpec("spmv.output", 0, "bitflip", index=3, bit=62), flipped)
    # A large x lifts the tolerance far above rtol: a perturbation between
    # the two takes the ‖x‖ path and must still pass.
    big_x = 1.0e6 * x
    big_y = csr.multiply(big_x)
    checker = AbftChecker(csr)
    tol = checker.tolerance(big_x)
    assert tol > 1.0e3 * checker.rtol
    nudged = big_y.copy()
    nudged[0] += 0.25 * tol
    pushed = big_y.copy()
    pushed[0] += 4.0 * tol
    inf_x = x.copy()
    inf_x[2] = np.inf
    huge_x = np.full(csr.shape[1], 1.0e200)  # x @ x overflows
    with np.errstate(all="ignore"):
        cases = {
            "clean": (x, y),
            "nan-y": (x, nan_y),
            "exponent-flipped-y": (x, flipped),
            "sub-tolerance": (big_x, nudged),
            "above-tolerance": (big_x, pushed),
            "nonfinite-x": (inf_x, csr.multiply(inf_x)),
            "overflowing-x": (huge_x, csr.multiply(huge_x)),
        }
    return csr, cases


class TestAcceptOnTheFloorFirst:
    """Accepting ``err <= rtol`` before computing ‖x‖ changes which
    products raise on no case."""

    CSR, CASES = _verify_panel()
    EXPECTED = {
        "clean": False,
        "nan-y": True,
        "exponent-flipped-y": True,
        "sub-tolerance": False,
        "above-tolerance": True,
        "nonfinite-x": False,
        "overflowing-x": False,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_decision_matches_the_full_rule(self, case):
        x, y = self.CASES[case]
        checker = AbftChecker(self.CSR)
        with np.errstate(all="ignore"):
            want = full_rule_raises(self.CSR, checker.rtol, x, y)
            try:
                with capture():
                    checker.verify(x, y)
                raised = False
            except SdcDetected:
                raised = True
        assert raised == want == self.EXPECTED[case]


class TestAbftOperator:
    def test_clean_multiply_matches_and_passes_through(self):
        csr = gray_scott_jacobian(4)
        op = AbftOperator(csr)
        x = np.ones(csr.shape[1])
        assert np.array_equal(op.multiply(x), csr.multiply(x))
        assert np.array_equal(op.diagonal(), csr.diagonal())
        assert op.to_csr() is csr.to_csr()
        assert op.shape == csr.shape

    def test_armed_injector_corruption_is_caught_in_flight(self):
        csr = gray_scott_jacobian(4)
        op = AbftOperator(csr)
        plan = FaultPlan([FaultSpec("spmv.output", 1, "nan")])
        x = np.ones(csr.shape[1])
        with capture() as log, inject(FaultInjector(plan)):
            op.multiply(x)  # call 0: clean
            with pytest.raises(SdcDetected):
                op.multiply(x)  # call 1: poisoned, caught
        assert log.counts() == {
            "injected": 1,
            "detected": 1,
            "recovered": 0,
            "degraded": 0,
            "benign": 0,
        }


class TestUnverifiedPathsAreCounted:
    """Products ``abft=True`` cannot verify are counted, never silent."""

    def test_serving_spmm_counts_its_products_only_with_abft_on(self):
        from repro.obs import observing

        csr = gray_scott_jacobian(4)
        xs = np.random.default_rng(2).standard_normal((csr.shape[1], 3))
        with observing() as obs:
            verified = ExecutionContext(abft=True).spmm(csr, xs)
            plain = ExecutionContext().spmm(csr, xs)
        assert verified.tobytes() == plain.tobytes()
        assert obs.metrics.snapshot()["abft.unverified_products"] == 3

    def test_distributed_solve_counts_its_unverified_operators(self):
        from repro.comm.spmd import run_spmd
        from repro.ksp import GMRES, JacobiPC
        from repro.mat.mpi_aij import MPIAij
        from repro.obs import observing
        from repro.vec.mpi_vec import MPIVec

        csr = gray_scott_jacobian(4)
        b = np.ones(csr.shape[0])

        def solve(abft):
            def prog(comm):
                a = MPIAij.from_global_csr(comm, csr)
                bv = MPIVec.from_global(comm, a.layout, b)
                ksp = GMRES(pc=JacobiPC(), context=ExecutionContext(abft=abft))
                return ksp.solve(a, bv).x

            return run_spmd(2, prog)

        with observing() as obs:
            verified, plain = solve(True), solve(False)
        for x1, x2 in zip(verified, plain, strict=True):
            assert x1.tobytes() == x2.tobytes()
        key = 'abft.unverified_solves{operator="LocalView"}'
        assert obs.metrics.snapshot()[key] == 2

    def test_sequential_solve_is_verified_and_counts_nothing(self):
        from repro.ksp import GMRES, JacobiPC
        from repro.obs import observing

        csr = gray_scott_jacobian(4)
        ksp = GMRES(pc=JacobiPC(), context=ExecutionContext(abft=True))
        with observing() as obs:
            assert ksp.solve(csr, np.ones(csr.shape[0])).reason.converged
        assert not any(
            k.startswith("abft.unverified") for k in obs.metrics.snapshot()
        )
