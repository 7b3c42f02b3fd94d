"""Seeded retry backoff: jitter determinism and the fake-clock timeline."""

import numpy as np
import pytest

from repro.comm.communicator import (
    MAX_SEND_RETRIES,
    CommunicatorError,
    World,
    retry_backoff,
)
from repro.comm.spmd import SpmdError, run_spmd
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, inject
from repro.obs.observer import Observer, observing


class TestBackoffFunction:
    def test_jitter_is_a_pure_function_of_seed_site_attempt(self):
        assert retry_backoff("comm.send@0", 3) == retry_backoff("comm.send@0", 3)
        assert retry_backoff("comm.send@0", 3, seed=1) != retry_backoff(
            "comm.send@0", 3, seed=2
        )
        assert retry_backoff("comm.send@0", 3) != retry_backoff("comm.send@1", 3)

    @pytest.mark.parametrize("attempt", range(1, 12))
    def test_attempt_lands_in_its_exponential_window(self, attempt):
        backoff = retry_backoff("comm.send@0", attempt, seed=7)
        assert (1 << (attempt - 1)) <= backoff < (1 << attempt)

    def test_ranks_spread_across_the_window(self):
        """The site string embeds the rank, so simultaneous retries of one
        attempt number do not retransmit in lockstep."""
        waits = {retry_backoff(f"comm.send@{r}", 6) for r in range(8)}
        assert len(waits) > 1

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            retry_backoff("comm.send@0", 0)


def _drops(rank, n, start=0):
    return FaultPlan(
        [FaultSpec(f"comm.send@{rank}", start + i, "drop") for i in range(n)]
    )


class TestRetryBudget:
    def _ping(self, world):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.send("ping", 1)
            else:
                return comm.recv(0)

        return run_spmd(world.size, rank_fn, world=world)

    def test_default_budget_rides_out_consecutive_drops(self):
        assert World(2).max_send_retries == MAX_SEND_RETRIES
        with inject(FaultInjector(_drops(0, MAX_SEND_RETRIES))):
            assert self._ping(World(2))[1] == "ping"

    def test_configured_budget_fails_loudly_when_exceeded(self):
        with inject(FaultInjector(_drops(0, 3))):
            with pytest.raises(SpmdError) as err:
                self._ping(World(2, max_send_retries=2))
        assert isinstance(err.value.original, CommunicatorError)
        assert "2 retransmissions" in str(err.value.original)

    def test_world_validates_the_budget(self):
        with pytest.raises(ValueError):
            World(2, max_send_retries=0)


class TestFakeClockTimeline:
    def test_retry_gaps_replay_the_modeled_backoff_sequence(self):
        """Drive a send through three consecutive drops under a frozen
        fake clock and read the retry gaps back off the trace: each is a
        closed span whose duration is exactly the modeled jittered
        backoff (in microseconds of trace time), ending at the frozen
        now, in attempt order."""
        seed = 5
        site = "comm.send@0"
        expected = [retry_backoff(site, k, seed=seed) for k in (1, 2, 3)]

        clock = lambda: 1000.0  # noqa: E731 - the frozen fake clock
        observer = Observer(clock=clock)
        with observing(observer):
            with inject(FaultInjector(_drops(0, 3))):
                world = World(2, retry_seed=seed)

                def rank_fn(comm):
                    if comm.rank == 0:
                        comm.send("payload", 1)
                    else:
                        return comm.recv(0)

                assert run_spmd(2, rank_fn, world=world)[1] == "payload"

        gaps = [
            ev
            for ev in observer.trace.events
            if ev.get("name") == "comm.retry" and ev.get("ph") == "X"
        ]
        assert [g["args"]["backoff"] for g in gaps] == expected
        assert [g["args"]["attempt"] for g in gaps] == [1, 2, 3]
        # Chrome-trace durations are microseconds; the modeled backoff is
        # emitted as backoff-microseconds of trace time.
        assert [g["dur"] for g in gaps] == pytest.approx(expected)
        # Every gap closes at the frozen now (ts 0 on the trace's own
        # clock): the span starts `duration` before it.
        for g in gaps:
            assert g["ts"] + g["dur"] == pytest.approx(0.0, abs=1e-6)

    def test_two_seeds_give_two_timelines_each_reproducible(self):
        def timeline(seed):
            observer = Observer(clock=lambda: 0.0)
            with observing(observer):
                with inject(FaultInjector(_drops(0, 2))):
                    world = World(2, retry_seed=seed)

                    def rank_fn(comm):
                        if comm.rank == 0:
                            comm.send(np.int64(1), 1)
                        else:
                            comm.recv(0)

                    run_spmd(2, rank_fn, world=world)
            return tuple(
                ev["args"]["backoff"]
                for ev in observer.trace.events
                if ev.get("name") == "comm.retry"
            )

        assert timeline(1) == timeline(1)
        assert timeline(1) != timeline(2)
