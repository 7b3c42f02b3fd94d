"""ElasticGMRES: bit-identical recovery, and the 19-variant resize panel."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import registered_variants
from repro.elastic import ElasticEvent, ElasticGMRES, ElasticWorld
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, inject
from repro.ksp import GMRES, CheckpointStore, JacobiPC
from repro.pde.problems import gray_scott_jacobian

VARIANT_NAMES = tuple(v.name for v in registered_variants())


def _system(grid=8, seed=1):
    csr = gray_scott_jacobian(grid, seed=seed)
    b = np.random.default_rng(9).standard_normal(csr.shape[0])
    return csr, b


def _baseline(csr, b):
    return GMRES(
        restart=20, pc=JacobiPC(), rtol=1e-10, max_it=400
    ).solve(csr, b)


def _elastic(csr, b, store, size, events, **kw):
    return ElasticGMRES(restart=20, rtol=1e-10, max_it=400, cadence=2, **kw).solve(
        csr, b, store, size=size, events=events
    )


class TestBitIdenticalRecovery:
    def test_kill_mid_solve_matches_the_uninterrupted_run(self, tmp_path):
        csr, b = _system()
        base = _baseline(csr, b)
        result = _elastic(
            csr, b, CheckpointStore(tmp_path), size=4,
            events=(ElasticEvent("kill", at_iteration=4, rank=2),),
        )
        assert result.reason.converged and result.schedule_ok
        assert result.x.tobytes() == base.x.tobytes()
        assert result.residual_norms == base.residual_norms
        assert len(result.resizes) == 1
        assert result.resizes[0].kind == "shrink"

    def test_grow_mid_solve_matches_too(self, tmp_path):
        csr, b = _system()
        base = _baseline(csr, b)
        result = _elastic(
            csr, b, CheckpointStore(tmp_path), size=3,
            events=(ElasticEvent("grow", at_iteration=3, add=2),),
        )
        assert result.reason.converged and result.schedule_ok
        assert result.x.tobytes() == base.x.tobytes()
        assert result.resizes[0].kind == "grow"

    def test_chained_kill_then_grow(self, tmp_path):
        csr, b = _system(grid=10, seed=2)
        base = _baseline(csr, b)
        result = _elastic(
            csr, b, CheckpointStore(tmp_path), size=4,
            events=(
                ElasticEvent("kill", at_iteration=3, rank=1),
                ElasticEvent("grow", at_iteration=6, add=1),
            ),
        )
        assert result.reason.converged and result.schedule_ok
        assert result.x.tobytes() == base.x.tobytes()
        assert [ev.kind for ev in result.resizes] == ["shrink", "grow"]
        assert len(result.epochs) == 3

    def test_undisturbed_elastic_run_matches_sequential(self, tmp_path):
        csr, b = _system()
        base = _baseline(csr, b)
        result = _elastic(csr, b, CheckpointStore(tmp_path), size=4, events=())
        assert result.x.tobytes() == base.x.tobytes()
        assert result.residual_norms == base.residual_norms
        assert len(result.epochs) == 1

    def test_corrupted_checkpoint_falls_back_and_still_matches(self, tmp_path):
        csr, b = _system()
        base = _baseline(csr, b)
        faults = FaultInjector(
            FaultPlan([FaultSpec("ckpt.write", 1, "bitflip")])
        )
        with inject(faults):
            result = _elastic(
                csr, b, CheckpointStore(tmp_path), size=4,
                events=(ElasticEvent("kill", at_iteration=5, rank=1),),
            )
        assert faults.pending() == 0
        assert result.reason.converged
        assert result.x.tobytes() == base.x.tobytes()
        # The resumed epoch restarted from an *earlier* iteration than the
        # torn snapshot would have allowed.
        assert result.epochs[1].resumed_from is not None

    def test_recovery_is_bit_reproducible(self, tmp_path):
        csr, b = _system()
        events = (ElasticEvent("kill", at_iteration=4, rank=2),)
        a = _elastic(csr, b, CheckpointStore(tmp_path / "a"), 4, events)
        c = _elastic(csr, b, CheckpointStore(tmp_path / "b"), 4, events)
        assert a.x.tobytes() == c.x.tobytes()
        assert a.residual_norms == c.residual_norms
        assert [ev.kind for ev in a.resizes] == [ev.kind for ev in c.resizes]


class TestEventValidation:
    def test_event_fields_are_checked(self):
        with pytest.raises(ValueError):
            ElasticEvent("explode", at_iteration=1)
        with pytest.raises(ValueError):
            ElasticEvent("kill", at_iteration=0)

    def test_solver_config_is_checked(self):
        with pytest.raises(ValueError):
            ElasticGMRES(cadence=0)


class TestVariantResizePanel:
    """The 19-variant x shrink/grow recovery panel.

    Every registered kernel variant must measure bit-identically — same
    ``y``, same counter ledger — after its host world shrinks or grows
    and the cached per-rank row blocks are invalidated, compared against
    an uninterrupted sequential measurement in a fresh context.
    """

    @pytest.fixture(scope="class")
    def system(self):
        csr = gray_scott_jacobian(6, seed=1)
        x = np.random.default_rng(11).standard_normal(csr.shape[1])
        return csr, x

    @pytest.mark.parametrize("resize", ["shrink", "grow"])
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_variant_measures_identically_across_a_resize(
        self, system, variant, resize
    ):
        csr, x = system
        baseline = ExecutionContext().measure(variant, csr, x=x)

        ctx = ExecutionContext()
        world = ElasticWorld(csr.shape[0], 4, registry=ctx.registry)
        for rank in range(world.size):
            ctx.registry.get_or_compute(
                "prepare", ("rowblock", 4, rank, "sig"), lambda: object()
            )
        event = world.shrink([1]) if resize == "shrink" else world.grow(1)
        assert event.invalidated == 4 and event.report.ok

        measured = ctx.measure(variant, csr, x=x)
        assert measured.y.tobytes() == baseline.y.tobytes()
        assert measured.counters.as_dict() == baseline.counters.as_dict()


def test_the_panel_really_covers_nineteen_variants():
    assert len(VARIANT_NAMES) == 19
