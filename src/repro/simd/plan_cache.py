"""On-disk inspector-executor plan store.

The inspector step of the trace compiler — record, level-schedule, mine
megakernel regions (:mod:`repro.simd.replay`,
:mod:`repro.simd.megakernel`) — is a pure function of the sparsity
structure and the execution policy, which is exactly what the registry's
structural ``trace`` key captures.  :class:`PlanCache` persists the one
fused program that step produces across processes,
MKL-inspector-executor style: a cold process that has the plan file
skips record **and** compile entirely and goes straight to fused replay.

Entries are content-addressed and versioned.  The filename token hashes
the full registry key (variant + slice height + sigma + alignment +
structure signature) together with :data:`PLAN_FORMAT_VERSION` and
:data:`~repro.simd.megakernel.MEGAKERNEL_REVISION`, so a plan written by
an older serializer or an older fusion compiler is simply never *found*
— no migration logic, stale files are unreachable and eventually
reclaimed by :meth:`PlanCache.clear`.  Each file is a one-line JSON
header (magic, versions, the human-readable key, payload checksum)
followed by a pickled payload; :func:`read_plan` parses that layout for
``python -m repro analyze --plan``, which lints the fused program inside
without touching the store.

Writes are atomic (tempfile in the same directory + ``os.replace``) so a
crashed or racing writer can never leave a half-plan under the final
name; racing writers of the same key both write valid bytes and the last
rename wins.  A corrupt, truncated, or checksum-mismatched file is
treated as a miss, deleted best-effort, and rebuilt — and eviction
(:meth:`PlanCache.evict`) is wired into
:meth:`~repro.core.registry.SignatureRegistry.invalidate`, so an ABFT
audit that detects silent corruption kills the on-disk plan along with
the in-memory one (a corrupted plan must never resurrect).

Hits, misses, stores, corruption, and evictions tick ``plan_cache.*``
:mod:`repro.obs` counters and an internal snapshot
(:meth:`PlanCache.stats`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any

from .megakernel import MEGAKERNEL_REVISION
from .trace import TraceError

#: First bytes of every plan file; anything else is not a plan.
PLAN_MAGIC = "repro-plan"

#: Serialization layout revision.  Bump when the header or payload
#: encoding changes; old files become unreachable (different token).
#: Version 2: one fused program per structure, under ``trace``.
PLAN_FORMAT_VERSION = 2

#: Filename extension of persisted plans.
PLAN_SUFFIX = ".plan"


class PlanCacheError(TraceError):
    """A plan file is unreadable, corrupt, or not a plan at all."""


def plan_token(namespace: str, key: tuple) -> str:
    """Content address of a plan: versions + namespace + registry key.

    The token is a pure function of the *identity* of the compiled
    artifact — not its bytes — so a warm process and a cold process
    agree on the filename without communicating.
    """
    ident = (PLAN_FORMAT_VERSION, MEGAKERNEL_REVISION, namespace, tuple(key))
    return hashlib.sha256(repr(ident).encode()).hexdigest()[:32]


def _header(namespace: str, key: tuple, payload: bytes) -> dict:
    return {
        "magic": PLAN_MAGIC,
        "format_version": PLAN_FORMAT_VERSION,
        "megakernel_revision": MEGAKERNEL_REVISION,
        "namespace": namespace,
        "key": [repr(part) for part in key],
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }


def read_plan(path: str | os.PathLike) -> tuple[dict, Any]:
    """Parse one plan file into ``(header, payload_object)``.

    Raises :class:`PlanCacheError` on any structural problem — missing
    magic, version mismatch, truncated payload, checksum mismatch.  Used
    by ``python -m repro analyze --plan`` to lint persisted programs.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise PlanCacheError(f"cannot read plan {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise PlanCacheError(f"{path}: missing plan header")
    try:
        header = json.loads(raw[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlanCacheError(f"{path}: unparseable plan header") from exc
    if not isinstance(header, dict) or header.get("magic") != PLAN_MAGIC:
        raise PlanCacheError(f"{path}: not a {PLAN_MAGIC} file")
    if header.get("format_version") != PLAN_FORMAT_VERSION:
        raise PlanCacheError(
            f"{path}: plan format v{header.get('format_version')} "
            f"(this build reads v{PLAN_FORMAT_VERSION})"
        )
    payload = raw[newline + 1 :]
    if len(payload) != header.get("payload_bytes"):
        raise PlanCacheError(f"{path}: truncated payload")
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise PlanCacheError(f"{path}: payload checksum mismatch")
    try:
        value = pickle.loads(payload)
    except Exception as exc:
        raise PlanCacheError(f"{path}: payload does not unpickle") from exc
    return header, value


class PlanCache:
    """Directory of persisted compiler plans, one file per registry key.

    All operations are safe under concurrent processes: stores are
    atomic renames, loads validate before trusting, and every failure
    mode degrades to "miss, rebuild".
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._counts = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "store_errors": 0,
            "corrupt": 0,
            "evictions": 0,
        }

    def _count(self, what: str) -> None:
        with self._lock:
            self._counts[what] += 1
        from ..obs.observer import obs_counter

        obs_counter(f"plan_cache.{what}")

    def path_for(self, namespace: str, key: tuple) -> Path:
        return self.root / f"{namespace}-{plan_token(namespace, key)}{PLAN_SUFFIX}"

    # -- store / load / evict ------------------------------------------
    def store(self, namespace: str, key: tuple, value: Any) -> bool:
        """Persist one plan atomically; best-effort (False on I/O error)."""
        path = self.path_for(namespace, key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = (
                json.dumps(_header(namespace, key, payload)).encode()
                + b"\n"
                + payload
            )
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
            self._count("store_errors")
            return False
        self._count("stores")
        return True

    def load(self, namespace: str, key: tuple) -> Any | None:
        """The persisted plan, or ``None`` on a miss.

        A missing, truncated, or checksum-mismatched file is a miss, and
        the offending file is deleted best-effort so it gets rebuilt.
        """
        path = self.path_for(namespace, key)
        if not path.exists():
            self._count("misses")
            return None
        try:
            header, value = read_plan(path)
            if header.get("namespace") != namespace:
                # Token collision is cryptographically impossible; a
                # renamed file is operator error.  Treat as corrupt.
                raise PlanCacheError(f"{path}: namespace mismatch")
        except PlanCacheError:
            self._count("corrupt")
            self._discard(path)
            self._count("misses")
            return None
        self._count("hits")
        return value

    def contains(self, namespace: str, key: tuple) -> bool:
        """Whether a (structurally valid) plan file exists for the key."""
        path = self.path_for(namespace, key)
        if not path.exists():
            return False
        try:
            read_plan(path)
        except PlanCacheError:
            return False
        return True

    def evict(self, namespace: str, key: tuple) -> bool:
        """Delete the persisted plan; True when a file was removed."""
        removed = self._discard(self.path_for(namespace, key))
        if removed:
            self._count("evictions")
        return removed

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    # -- introspection -------------------------------------------------
    def entries(self) -> list[Path]:
        """Plan files currently in the store (any version)."""
        return sorted(self.root.glob(f"*{PLAN_SUFFIX}"))

    def clear(self) -> int:
        """Delete every plan file; returns the number removed."""
        removed = 0
        for path in self.entries():
            if self._discard(path):
                removed += 1
        return removed

    def stats(self) -> dict:
        """Hit/miss/store/corrupt/evict counters plus store location."""
        with self._lock:
            counts = dict(self._counts)
        looked = counts["hits"] + counts["misses"]
        counts["hit_rate"] = counts["hits"] / looked if looked else 0.0
        counts["root"] = str(self.root)
        counts["files"] = len(self.entries())
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanCache(root={str(self.root)!r}, files={len(self.entries())})"
