"""VecScatter: the ghost-value exchange behind parallel SpMV.

Step 1 of the paper's parallel SpMV (Section 2.2) "sends nonblocking
requests for the nonlocal data of the vector on other processors"; PETSc
encapsulates that in a ``VecScatter`` built once per matrix from the
off-diagonal block's column set.  This is that object:

* construction is collective: ranks exchange which remote entries they
  need, and each rank derives its send plan from its peers' needs;
* :meth:`begin` posts the non-blocking sends and receives;
* :meth:`end` completes them and returns the ghost values in the order of
  the requested indices — computation on the diagonal block proceeds
  between the two calls, which is exactly the overlap the paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .communicator import Comm
from .partition import RowLayout
from .request import Request

_SCATTER_TAG = 7001


@dataclass(frozen=True)
class _SendPlan:
    peer: int
    local_offsets: np.ndarray  # offsets into the local vector to ship


@dataclass(frozen=True)
class _RecvPlan:
    peer: int
    ghost_slice: slice  # where the payload lands in the ghost buffer


class VecScatter:
    """A reusable ghost-exchange plan for one (layout, ghost set) pair."""

    def __init__(self, comm: Comm, layout: RowLayout, ghost_indices: np.ndarray):
        """Build the plan.  Collective over ``comm``.

        Parameters
        ----------
        comm:
            The communicator; every rank must call with its own ghosts.
        layout:
            Ownership of the global vector.
        ghost_indices:
            Sorted, unique global indices this rank needs but does not own.
        """
        ghosts = np.asarray(ghost_indices, dtype=np.int64)
        if ghosts.size and (
            np.any(ghosts[:-1] >= ghosts[1:]) or ghosts.min() < 0
        ):
            raise ValueError("ghost indices must be sorted, unique, non-negative")
        start, end = layout.range_of(comm.rank)
        if ghosts.size and np.any((ghosts >= start) & (ghosts < end)):
            raise ValueError("ghost indices must not include owned entries")

        self.comm = comm
        self.layout = layout
        self.ghost_indices = ghosts
        self.n_ghosts = int(ghosts.size)

        # Group my needs by owning rank (ghosts are sorted, so each owner's
        # block is contiguous and the ghost buffer fills in slices).
        needs: dict[int, np.ndarray] = {}
        if ghosts.size:
            owners = np.array([layout.owner_of(int(g)) for g in ghosts])
            for peer in np.unique(owners):
                needs[int(peer)] = ghosts[owners == peer]

        # Everyone learns everyone's needs; my sends are peers' needs of me.
        all_needs: list[dict[int, np.ndarray]] = comm.allgather(needs)
        self._recv_plans: list[_RecvPlan] = []
        offset = 0
        for peer in sorted(needs):
            count = needs[peer].size
            self._recv_plans.append(
                _RecvPlan(peer=peer, ghost_slice=slice(offset, offset + count))
            )
            offset += count

        self._send_plans: list[_SendPlan] = []
        for peer in range(comm.size):
            wanted = all_needs[peer].get(comm.rank)
            if wanted is not None and peer != comm.rank:
                self._send_plans.append(
                    _SendPlan(peer=peer, local_offsets=wanted - start)
                )

        self._pending: list[tuple[_RecvPlan, Request]] | None = None
        self._ghost_values = np.zeros(self.n_ghosts, dtype=np.float64)

    @property
    def send_peers(self) -> list[int]:
        """Ranks this rank ships values to."""
        return [p.peer for p in self._send_plans]

    @property
    def recv_peers(self) -> list[int]:
        """Ranks this rank receives ghost values from."""
        return [p.peer for p in self._recv_plans]

    def begin(self, local_values: np.ndarray) -> None:
        """Post all sends and receives (paper's SpMV step 1)."""
        if self._pending is not None:
            raise RuntimeError("scatter already in progress; call end() first")
        local = np.asarray(local_values, dtype=np.float64)
        expected = self.layout.local_size(self.comm.rank)
        if local.shape[0] != expected:
            raise ValueError(
                f"local vector has {local.shape[0]} entries, layout says {expected}"
            )
        for plan in self._send_plans:
            self.comm.isend(local[plan.local_offsets], plan.peer, tag=_SCATTER_TAG)
        self._pending = [
            (plan, self.comm.irecv(plan.peer, tag=_SCATTER_TAG))
            for plan in self._recv_plans
        ]

    def end(self) -> np.ndarray:
        """Complete the exchange (step 3) and return the ghost values.

        The returned array is aligned with ``ghost_indices`` and reused
        across calls; callers must not hold it across a second exchange.
        """
        if self._pending is None:
            raise RuntimeError("no scatter in progress; call begin() first")
        for plan, request in self._pending:
            payload = request.wait()
            self._ghost_values[plan.ghost_slice] = payload
        self._pending = None
        return self._ghost_values

    def exchange(self, local_values: np.ndarray) -> np.ndarray:
        """begin + end in one call, for callers without work to overlap."""
        self.begin(local_values)
        return self.end()
