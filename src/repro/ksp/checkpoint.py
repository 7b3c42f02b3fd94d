"""Solver checkpoint/restart: recurrence snapshots with CRC-checked files.

Long-running Krylov solves must survive rank loss and restarts without
recomputing from scratch — the elastic-world runs (:mod:`repro.elastic`)
kill ranks mid-GMRES and resume on a reshaped world.  That only works if
the *entire* recurrence state round-trips bit-exactly: for GMRES the
Arnoldi basis, the Hessenberg column store, the accumulated Givens
rotations, and the incremental residual vector; for CG the three-term
recurrence vectors.  A :class:`SolverCheckpoint` captures exactly that
(plus the iterate, the recorded residual norms, and an opaque
``counters`` dict for caller-owned RNG/counter state), and a solver
handed the checkpoint back through ``solve(..., resume=...)`` continues
with arithmetic identical to the uninterrupted run.

Each checkpoint is one file: a JSON header line (magic, format version,
solver tag, iteration, payload length, CRC-32 of the payload) followed
by a pickled payload, written to a tempfile in the store directory and
``os.replace``-d into place so a crashed writer can never leave a
half-checkpoint under a final name.  A corrupt, truncated, or
checksum-mismatched file is rejected at load, deleted best-effort, and
never resurrected — :meth:`CheckpointStore.latest` silently falls back
to the newest checkpoint that still validates.

``CheckpointStore.save`` is a registered fault site (``ckpt.write``):
an armed injector can corrupt the payload *after* the header checksum
is computed (a torn write, caught by the CRC on load) or drop the write
entirely (the resume falls back one cadence further).
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..faults.events import emit
from ..faults.plan import CORRUPTION_KINDS
from ..faults.plan import fire as fire_fault
from ..obs.observer import obs_counter

#: First bytes of every checkpoint file; anything else is not one.
CKPT_MAGIC = "repro-ckpt"

#: Serialization layout revision.  Bump when the header or payload
#: encoding changes; old files become stale and are rejected on load.
CKPT_FORMAT_VERSION = 1

#: Filename extension of persisted checkpoints.
CKPT_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, stale, corrupt, or mismatched."""


@dataclass
class SolverCheckpoint:
    """One solver snapshot: everything a bit-identical resume needs.

    ``state`` holds the solver-specific recurrence arrays — for GMRES the
    restart length, the Arnoldi basis built so far, the Hessenberg and
    Givens stores, and the next Krylov column; for CG the residual,
    preconditioned residual, and search direction with their inner
    product.  ``counters`` is opaque caller state (RNG bit-generator
    state, fault-injector call counts, epoch accounting) restored by the
    driver, not the solver.
    """

    solver: str
    iteration: int
    x: np.ndarray
    norms: list[float] = field(default_factory=list)
    rnorm0: float | None = None
    sdc_restarts: int = 0
    state: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _header(solver: str, iteration: int, payload: bytes) -> dict:
    return {
        "magic": CKPT_MAGIC,
        "format_version": CKPT_FORMAT_VERSION,
        "solver": solver,
        "iteration": iteration,
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }


def read_checkpoint(path: str | os.PathLike) -> tuple[dict, SolverCheckpoint]:
    """Parse and validate one checkpoint file into ``(header, checkpoint)``.

    Raises :class:`CheckpointError` on any structural problem: missing
    magic, stale format version, truncated payload, CRC mismatch, or a
    payload that is not a :class:`SolverCheckpoint`.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(raw[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unparseable checkpoint header") from exc
    if not isinstance(header, dict) or header.get("magic") != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a {CKPT_MAGIC} file")
    if header.get("format_version") != CKPT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: stale checkpoint format "
            f"v{header.get('format_version')} (this build reads "
            f"v{CKPT_FORMAT_VERSION})"
        )
    payload = raw[newline + 1 :]
    if len(payload) != header.get("payload_bytes"):
        raise CheckpointError(f"{path}: truncated payload")
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise CheckpointError(f"{path}: payload CRC mismatch")
    try:
        ckpt = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"{path}: payload does not unpickle") from exc
    if not isinstance(ckpt, SolverCheckpoint):
        raise CheckpointError(f"{path}: payload is not a SolverCheckpoint")
    return header, ckpt


class CheckpointStore:
    """Directory of solver checkpoints for one job, newest-wins.

    Filenames encode the iteration (``<job>-<iteration>.ckpt``), so a
    resumed run that re-executes iterations overwrites its own files
    with bit-identical bytes.  All failure modes degrade to "fall back
    to the previous checkpoint": :meth:`latest` scans newest-first and
    discards anything that fails validation.
    """

    def __init__(self, root: str | os.PathLike, job: str = "solve"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if not job or "/" in job or os.sep in job:
            raise ValueError(f"job tag {job!r} must be a bare name")
        self.job = job
        self._lock = threading.Lock()
        self._counts = {
            "saves": 0,
            "save_errors": 0,
            "skipped": 0,
            "loads": 0,
            "corrupt": 0,
            "discards": 0,
        }

    def _count(self, what: str) -> None:
        with self._lock:
            self._counts[what] += 1
        obs_counter(f"ckpt.{what}")

    def path_for(self, iteration: int) -> Path:
        """The filename a checkpoint at ``iteration`` persists under."""
        return self.root / f"{self.job}-{iteration:08d}{CKPT_SUFFIX}"

    # -- save / load / scan --------------------------------------------
    def save(self, ckpt: SolverCheckpoint) -> bool:
        """Persist one checkpoint; best-effort (False on a sync error).

        The ``ckpt.write`` fault site fires on the actual write: the
        corruption kinds flip a payload byte *after* the header checksum
        is computed — a torn write the CRC rejects on load — and
        ``drop`` loses the write entirely (both recovered by falling
        back a cadence on resume).
        """
        path = self.path_for(ckpt.iteration)
        spec = fire_fault("ckpt.write")
        try:
            payload = pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
            header = _header(ckpt.solver, ckpt.iteration, payload)
            if spec is not None:
                if spec.kind == "drop":
                    emit(
                        "benign", "ckpt.write", "drop",
                        detail=f"{path.name}: write lost, resume falls back",
                    )
                    self._count("skipped")
                    return False
                if spec.kind in CORRUPTION_KINDS:
                    # A torn write: the header promised a checksum the
                    # payload no longer matches.  Detected on load.
                    flip = bytearray(payload)
                    flip[spec.index % len(flip)] ^= 0xFF
                    payload = bytes(flip)
                else:
                    emit(
                        "benign", "ckpt.write", spec.kind,
                        detail=f"{path.name}: delayed write (atomic rename)",
                    )
            blob = json.dumps(header).encode() + b"\n" + payload
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            self._count("save_errors")
            return False
        self._count("saves")
        return True

    def load(self, iteration: int) -> SolverCheckpoint:
        """Load and validate the checkpoint captured at ``iteration``."""
        _header_, ckpt = read_checkpoint(self.path_for(iteration))
        self._count("loads")
        return ckpt

    def latest(self, solver: str | None = None) -> SolverCheckpoint | None:
        """The newest checkpoint that validates, or ``None``.

        Invalid files — corrupt payloads, stale format versions, a
        ``solver`` tag that does not match — are rejected, deleted
        best-effort, and *never* resurrected; the scan falls back to the
        next-newest file until one validates or the store is exhausted.
        """
        for path in sorted(self.entries(), reverse=True):
            try:
                header, ckpt = read_checkpoint(path)
                if solver is not None and header.get("solver") != solver:
                    raise CheckpointError(
                        f"{path}: checkpoint is for solver "
                        f"{header.get('solver')!r}, not {solver!r}"
                    )
            except CheckpointError as exc:
                self._count("corrupt")
                emit(
                    "detected", "ckpt.write", "corrupt",
                    detail=f"{path.name} rejected: {exc.args[0].split(': ')[-1]}",
                )
                self.discard(path)
                continue
            self._count("loads")
            return ckpt
        return None

    # -- maintenance ---------------------------------------------------
    def entries(self) -> list[Path]:
        """Checkpoint files currently in the store, oldest first."""
        return sorted(self.root.glob(f"{self.job}-*{CKPT_SUFFIX}"))

    def discard(self, path: Path) -> bool:
        """Delete one checkpoint file; True when a file was removed."""
        try:
            os.unlink(path)
        except OSError:
            return False
        self._count("discards")
        return True

    def clear(self) -> int:
        """Delete every checkpoint of this job; returns the number removed."""
        return sum(1 for path in self.entries() if self.discard(path))

    def stats(self) -> dict:
        """Save/load/corrupt/discard counters plus the store location."""
        with self._lock:
            counts = dict(self._counts)
        counts["root"] = str(self.root)
        counts["files"] = len(self.entries())
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CheckpointStore(root={str(self.root)!r}, job={self.job!r}, "
            f"files={len(self.entries())})"
        )


@dataclass
class Checkpointer:
    """Capture policy a solver consults once per iteration.

    ``cadence`` is in solver iterations; iteration ``k`` is captured when
    ``k % cadence == 0``.  ``counters`` is an optional provider of
    caller-owned RNG/counter state snapshotted into every checkpoint.
    """

    store: CheckpointStore
    cadence: int = 10
    counters: Callable[[], dict] | None = None
    taken: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.cadence < 1:
            raise ValueError("checkpoint cadence must be positive")

    def due(self, iteration: int) -> bool:
        """Whether ``iteration`` is a capture point."""
        return iteration > 0 and iteration % self.cadence == 0

    def capture(self, ckpt: SolverCheckpoint) -> bool:
        """Snapshot caller counters into ``ckpt`` and persist it."""
        if self.counters is not None:
            ckpt.counters = dict(self.counters())
        saved = self.store.save(ckpt)
        self.taken += 1
        return saved
