"""The seeded end-to-end fault campaign: the ISSUE's acceptance sweep.

Marked ``faults`` so CI can run the three-seed sweep as its own job;
each campaign injects 51 faults across every wired site and takes a few
seconds of solver work.
"""

import pytest

from repro.faults.campaign import SITE_BUDGETS, CampaignResult, run_campaign
from repro.faults.plan import FaultPlan

SEEDS = (2018, 2019, 2020)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def campaigns():
    """One campaign per seed, shared across the acceptance assertions."""
    return {seed: run_campaign(seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
class TestAcceptance:
    def test_injects_at_least_fifty_faults(self, campaigns, seed):
        result = campaigns[seed]
        injected = result.counts["injected"]
        assert injected >= 50
        # The generated schedule plus the phase-5 rank kill, exactly.
        assert injected == sum(SITE_BUDGETS.values()) + 1

    def test_every_scheduled_fault_fired(self, campaigns, seed):
        assert campaigns[seed].pending_after == 0

    def test_success_rate_meets_the_bar(self, campaigns, seed):
        result = campaigns[seed]
        assert result.runs >= 50
        assert result.success_rate >= 0.95

    def test_every_fault_detected_recovered_or_provably_benign(
        self, campaigns, seed
    ):
        assert campaigns[seed].accounted()

    def test_campaign_is_bit_reproducible(self, campaigns, seed):
        first = campaigns[seed]
        second = run_campaign(seed)
        assert second.schedule == first.schedule
        assert second.fingerprint == first.fingerprint
        assert (second.runs, second.correct_runs) == (
            first.runs,
            first.correct_runs,
        )


def test_seeds_produce_distinct_schedules(campaigns):
    schedules = {campaigns[seed].schedule for seed in SEEDS}
    assert len(schedules) == len(SEEDS)


def test_schedule_matches_the_standalone_generator(campaigns):
    from repro.faults.campaign import MAX_CALL, SITE_KINDS

    plan = FaultPlan.generate(
        2018, SITE_BUDGETS, kinds=SITE_KINDS, max_call=MAX_CALL
    )
    assert campaigns[2018].schedule == plan.as_tuples()


def test_result_is_a_plain_comparable_record(campaigns):
    result = campaigns[2018]
    assert isinstance(result, CampaignResult)
    clone = CampaignResult(**{
        "seed": result.seed,
        "schedule": result.schedule,
        "runs": result.runs,
        "correct_runs": result.correct_runs,
        "counts": result.counts,
        "fingerprint": result.fingerprint,
        "pending_after": result.pending_after,
    })
    assert clone == result


def _synthetic(*events) -> CampaignResult:
    """A result whose only content is ``events`` (action, site, kind)."""
    return CampaignResult(
        seed=0,
        schedule=(),
        runs=1,
        correct_runs=1,
        counts={},
        fingerprint=tuple((a, site, kind, "", 0) for a, site, kind in events),
        pending_after=0,
    )


@pytest.mark.parametrize("kill_injected", [False, True])
def test_a_kill_detection_never_covers_a_corruption(kill_injected):
    """A corruption no integrity check saw stays unaccounted, whatever
    the world's kill detection covers."""
    events = [
        ("injected", "engine.output", "bitflip"),
        ("detected", "comm.world", "kill"),
    ]
    if kill_injected:
        events.append(("injected", "comm.send@0", "kill"))
    assert not _synthetic(*events).accounted()
    events.append(("detected", "trace.replay", "abft"))
    assert _synthetic(*events).accounted()


def test_an_integrity_detection_never_covers_a_kill():
    assert not _synthetic(
        ("injected", "comm.send@0", "kill"),
        ("detected", "ksp.residual", "nonfinite"),
    ).accounted()
