"""Non-blocking communication requests (the model of ``MPI_Request``).

The parallel SpMV of paper Section 2.2 depends on non-blocking semantics:
step 1 posts the ghost-value transfers, step 2 computes the diagonal block,
step 3 waits.  These request objects provide exactly that interface over
the simulated transport in :mod:`repro.comm.communicator`.
"""

from __future__ import annotations

from typing import Any, Callable


class Request:
    """Handle for an in-flight non-blocking operation."""

    def test(self) -> bool:
        """Non-blocking completion check."""
        raise NotImplementedError

    def wait(self) -> Any:
        """Block until complete; return the received payload (or None)."""
        raise NotImplementedError


class CompletedRequest(Request):
    """A request that completed eagerly (sends in this transport)."""

    def __init__(self, value: Any = None):
        self._value = value

    def test(self) -> bool:
        return True

    def wait(self) -> Any:
        return self._value


class DeferredRequest(Request):
    """A request completed by an arriving message.

    ``poll`` is a callable returning ``(done, value)``; ``block`` waits on
    the transport's condition variable until ``poll`` succeeds.
    """

    def __init__(
        self,
        poll: Callable[[], tuple[bool, Any]],
        block: Callable[[Callable[[], tuple[bool, Any]]], Any],
    ):
        self._poll = poll
        self._block = block
        self._done = False
        self._value: Any = None

    def test(self) -> bool:
        if self._done:
            return True
        done, value = self._poll()
        if done:
            self._done, self._value = True, value
        return self._done

    def wait(self) -> Any:
        if not self._done:
            self._value = self._block(self._poll)
            self._done = True
        return self._value
