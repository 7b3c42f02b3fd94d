"""Comm-schedule checker: races, leaks, and deadlocks, static and live."""

import numpy as np

from repro.analysis import (
    ANY,
    Coll,
    Recv,
    Send,
    check_log,
    check_schedule,
    solver_iteration_schedule,
)
from repro.comm.schedule import ScheduleLog, concurrent, happens_before
from repro.comm.spmd import run_spmd
from repro.comm.communicator import World
from repro.ksp import GMRES, JacobiPC
from repro.mat.mpi_aij import MPIAij
from repro.pde.problems import gray_scott_jacobian
from repro.vec.mpi_vec import MPIVec


class TestStaticChecker:
    def test_clean_exchange_plus_collective(self):
        n = 4
        sched = [
            [Send((r + 1) % n, 5), Recv((r - 1) % n, 5), Coll()]
            for r in range(n)
        ]
        report = check_schedule(sched)
        assert report.ok, [str(d) for d in report.diagnostics]

    def test_seeded_ring_deadlock_in_solver_exchange(self):
        """The acceptance case: every rank posts its ghost receive before
        its ghost send — the classic blocking-exchange cycle."""
        n = 4
        sched = [
            [Recv((r - 1) % n, 7001), Send((r + 1) % n, 7001), Coll()]
            for r in range(n)
        ]
        report = check_schedule(sched)
        assert "COMM004" in report.codes
        (cycle,) = [d for d in report.diagnostics if d.code == "COMM004"]
        assert "deadlock" in cycle.detail

    def test_two_rank_cycle(self):
        sched = [[Recv(1), Send(1)], [Recv(0), Send(0)]]
        report = check_schedule(sched)
        assert "COMM004" in report.codes

    def test_leaked_send(self):
        report = check_schedule([[Send(1, 3)], []])
        assert report.codes == {"COMM001"}

    def test_unmatched_recv(self):
        report = check_schedule([[], [Recv(0, 3)]])
        assert report.codes == {"COMM002"}

    def test_tag_mismatch(self):
        report = check_schedule([[Send(1, 7001)], [Recv(0, 7002)]])
        assert "COMM003" in report.codes

    def test_collective_kind_mismatch(self):
        report = check_schedule(
            [[Coll("allreduce:sum")], [Coll("allreduce:max")]]
        )
        assert "COMM006" in report.codes

    def test_abandoned_collective(self):
        report = check_schedule([[Coll()], []])
        assert "COMM002" in report.codes

    def test_wildcard_race_between_concurrent_senders(self):
        sched = [
            [Send(2, 1)],
            [Send(2, 2)],
            [Recv(ANY, ANY), Recv(ANY, ANY)],
        ]
        report = check_schedule(sched)
        assert "COMM005" in report.codes

    def test_causally_ordered_sends_do_not_race(self):
        # Rank 0's message to rank 2 happens-before rank 1's: rank 1 only
        # sends after hearing from rank 0, and rank 0 messaged rank 2
        # first — the wildcard's candidates are causally ordered.
        sched = [
            [Send(2, 1), Send(1, 1)],
            [Recv(0, 1), Send(2, 2)],
            [Recv(ANY, ANY), Recv(ANY, ANY)],
        ]
        report = check_schedule(sched)
        assert "COMM005" not in report.codes

    def test_solver_iteration_schedule_is_clean(self):
        send_peers = [[1], [0, 2], [1]]
        recv_peers = [[1], [0, 2], [1]]
        sched = solver_iteration_schedule(send_peers, recv_peers)
        report = check_schedule(sched)
        assert report.ok

    def test_asymmetric_scatter_plan_is_flagged(self):
        # Rank 2 expects a ghost from rank 0 that rank 0 never sends.
        send_peers = [[1], [0, 2], [1]]
        recv_peers = [[1], [0, 2], [1, 0]]
        sched = solver_iteration_schedule(send_peers, recv_peers)
        report = check_schedule(sched)
        assert "COMM002" in report.codes


class TestVectorClocks:
    def test_happens_before_is_a_strict_partial_order(self):
        a, b = (1, 0), (1, 1)
        assert happens_before(a, b)
        assert not happens_before(b, a)
        assert not happens_before(a, a)

    def test_concurrent(self):
        assert concurrent((1, 0), (0, 1))
        assert not concurrent((1, 0), (1, 1))

    def test_send_happens_before_matching_recv(self):
        log = ScheduleLog(2)
        log.record_send(0, 1, 9)
        log.record_recv(0, 1, 9)
        send, recv = log.events
        assert happens_before(send.clock, recv.clock)


class TestLiveLogAudit:
    def test_leaked_message_and_wildcard_ambiguity(self):
        log = ScheduleLog(2)
        log.record_send(0, 1, 5)
        log.record_send(0, 1, 6)
        log.record_recv(0, 1, 5, wildcard=True)
        report = check_log(log)
        assert report.codes == {"COMM001", "COMM005"}

    def test_clean_spmd_region_audits_clean(self):
        world = World(2)
        world.schedule_log = ScheduleLog(2)

        def prog(comm):
            if comm.rank == 0:
                comm.send("ghost", dest=1, tag=7001)
                return comm.allreduce(1.0)
            payload = comm.recv(source=0, tag=7001)
            comm.allreduce(2.0)
            return payload

        results = run_spmd(2, prog, world=world)
        assert results[1] == "ghost"
        report = check_log(world.schedule_log)
        assert report.ok
        kinds = [e.kind for e in world.schedule_log.events]
        assert kinds.count("send") == 1
        assert kinds.count("recv") == 1
        assert kinds.count("collective") == 2

    def test_parallel_gmres_run_audits_clean(self):
        """The motivating subject: a full distributed GMRES solve leaves
        no leaked ghost messages and no ambiguous wildcard matches."""
        csr = gray_scott_jacobian(8)
        b = np.random.default_rng(3).standard_normal(csr.shape[0])
        world = World(3)
        world.schedule_log = ScheduleLog(3)

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            return GMRES(pc=JacobiPC(), rtol=1e-8).solve(
                a, bv
            ).iterations

        iterations = run_spmd(3, prog, world=world)
        assert min(iterations) >= 1
        log = world.schedule_log
        assert log.events, "solver traffic was not captured"
        report = check_log(log)
        assert report.ok, [str(d) for d in report.diagnostics]
        assert log.unreceived() == []
