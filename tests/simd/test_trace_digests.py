"""Golden digests of the recorded trace IR.

The recorder's output is a contract: the replay compiler, the fuser and
the static analyzer all read it, and the interpreter that produces it is
the oracle every other tier is checked against.  Each cell here records
one kernel and hashes, separately, what the recording produced:

* ``ops`` — the linear op tuples, plus the analyzer's side tables
  (aligned and emulated op indices), register and scalar counts;
* ``buffers`` — the binding table, with every const snapshot's bytes;
* ``counters`` — the instruction mix;
* ``y`` — the recording run's product;
* ``steps`` — the level-scheduled program :func:`compile_trace` builds.

The cells are the ``kernel_panel`` benchmark's 20 (five structure
families x SELL/CSR/BETA on AVX-512 + SELL on SVE) plus every registered
variant on the differential verifier's partial-slice structure.  The
encoding is canonical (dtype strings, shapes and raw little-endian bytes;
floats as hex), not a pickle, so it does not depend on the NumPy version.

Regenerate the fixture (only when the IR is meant to change) with::

    PYTHONPATH=src python -m tests.simd.test_trace_digests
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.dispatch import get_variant, registered_variants
from repro.core.traced import trace_buffers
from repro.mat.aij import AijMat
from repro.memory.spaces import aligned_alloc
from repro.simd.replay import compile_trace, execute_step
from repro.simd.trace import TraceRecorder
from repro.simd.trace_ir import (
    OP_FIELDS,
    OP_LAYOUT,
    STEP_LAYOUT,
    cells_of,
    reg_defs,
    reg_uses,
    scalar_defs,
    scalar_uses,
)

FIXTURE = Path(__file__).parent / "data" / "trace_digests.json"

PANEL_VARIANTS = (
    "SELL using AVX512",
    "CSR using AVX512",
    "BETA using AVX512",
    "SELL using SVE",
)


def _panel_structures() -> dict[str, AijMat]:
    """The ``kernel_panel`` structure families, at the benchmark's sizes."""
    from repro.bench.format_shootout import _block_structured, _near_empty_rows
    from repro.pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal

    return {
        "stencil": gray_scott_jacobian(24),
        "banded": tridiagonal(1024),
        "long-tail": irregular_rows(768, min_len=2, max_len=40, alpha=1.1, seed=3),
        "block": _block_structured(nb=160, bs=4, seed=5),
        "near-empty": _near_empty_rows(n=1024, seed=9),
    }


def _with_values(base: AijMat, seed: int) -> tuple[AijMat, np.ndarray]:
    rng = np.random.default_rng(seed)
    mat = AijMat(
        base.shape,
        base.rowptr.copy(),
        base.colidx.copy(),
        rng.standard_normal(base.nnz),
        check=False,
    )
    return mat, rng.standard_normal(base.shape[1])


def cells() -> list[tuple[str, str, AijMat, np.ndarray]]:
    """(cell id, variant name, matrix, x) for every pinned recording."""
    from repro.pde.problems import irregular_rows

    out = []
    for family, base in _panel_structures().items():
        mat, x = _with_values(base, 1)
        out.extend((f"{family}/{v}", v, mat, x) for v in PANEL_VARIANTS)
    mat, x = _with_values(irregular_rows(19, max_len=9, seed=5), 2)
    out.extend(
        (f"partial-slice/{v.name}", v.name, mat, x) for v in registered_variants()
    )
    return out


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------


def _encode(obj, h) -> None:
    """Feed a canonical byte encoding of ``obj`` into the hash ``h``."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + float(obj).hex().encode() + b";")
    elif isinstance(obj, str):
        h.update(b"S%d:" % len(obj) + obj.encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        dt = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
        arr = arr.astype(dt, copy=False)
        h.update(b"A" + dt.str.encode() + repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _encode(item, h)
        h.update(b")")
    else:
        raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def _digest(obj) -> str:
    h = hashlib.sha256()
    _encode(obj, h)
    return h.hexdigest()


def record_cell(variant_name: str, mat: AijMat, x: np.ndarray):
    """Record one kernel: ``(recorder, y, compiled trace)``, or the name
    of the exception the variant refuses the matrix with."""
    variant = get_variant(variant_name)
    try:
        prepared = variant.prepare(mat)
    except (ValueError, NotImplementedError) as exc:
        return type(exc).__name__
    recorder = TraceRecorder(variant.isa)
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    recorder.bind_buffers(trace_buffers(variant.fmt, prepared))
    recorder.bind("x", x)
    recorder.bind("y", y)
    variant.kernel(recorder, prepared, x, y)
    return recorder, y, compile_trace(recorder)


def digest_cell(recorded) -> dict[str, str]:
    """Digest every part of a :func:`record_cell` recording."""
    if isinstance(recorded, str):
        return {"skipped": recorded}
    recorder, y, trace = recorded
    counters = recorder.counters
    return {
        "ops": _digest(
            (
                recorder.ops,
                sorted(recorder.aligned_ops),
                sorted(recorder.emulated_ops),
                recorder.nregs,
                recorder.nscalars,
            )
        ),
        "buffers": _digest(
            [(s.index, s.name, s.nbytes, s.dtype, s.const) for s in recorder.buffers]
        ),
        "counters": _digest(
            [(f.name, getattr(counters, f.name)) for f in dataclasses.fields(counters)]
        ),
        "y": _digest(y),
        "steps": _digest((trace.lanes, trace.nregs, trace.nscalars, trace.steps)),
    }


def compute_digests() -> dict[str, dict[str, str]]:
    return {cell: digest_cell(record_cell(v, mat, x)) for cell, v, mat, x in cells()}


@pytest.fixture(scope="module")
def recordings() -> dict:
    """Every golden cell's :func:`record_cell` result."""
    return {cell: record_cell(v, mat, x) for cell, v, mat, x in cells()}


@pytest.fixture(scope="module")
def digests(recordings) -> dict[str, dict[str, str]]:
    return {cell: digest_cell(rec) for cell, rec in recordings.items()}


@pytest.fixture(scope="module")
def expected() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def test_every_pinned_cell_still_exists(digests, expected):
    assert sorted(digests) == sorted(expected)
    skipped = {cell: parts for cell, parts in expected.items() if "skipped" in parts}
    assert {cell: digests[cell] for cell in skipped} == skipped


@pytest.mark.parametrize("part", ["ops", "buffers", "counters", "y", "steps"])
def test_recorded_ir_matches_golden_digest(digests, expected, part):
    moved = [
        cell
        for cell, parts in expected.items()
        if "skipped" not in parts and digests.get(cell, {}).get(part) != parts[part]
    ]
    assert not moved, f"{part} digest changed for {moved}"


@pytest.fixture(scope="module")
def every_recording(recordings) -> list:
    """``(recorder, compiled trace)`` of every golden cell, of every
    registered variant on an even-sized partial slice (the golden one is
    odd, so BAIJ skips it) and of every mutation-corpus case."""
    from repro.analysis import corpus
    from repro.pde.problems import irregular_rows

    mat, x = _with_values(irregular_rows(20, max_len=9, seed=5), 2)
    recorded = [*recordings.values()]
    recorded += [record_cell(v.name, mat, x) for v in registered_variants()]
    out = [(rec[0], rec[2]) for rec in recorded if not isinstance(rec, str)]

    recorders: list[TraceRecorder] = []

    class Spy(TraceRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "TraceRecorder", Spy)
        for case in corpus.CASES:
            case.build()
    assert recorders, "the corpus records through TraceRecorder"
    return out + [(eng, compile_trace(eng)) for eng in recorders]


def test_the_ir_carries_only_kinds_something_records(every_recording):
    """Every op kind the IR defines is recorded by a golden cell, a
    registered variant on an even-sized partial slice or a
    mutation-corpus case, so a kind no code emits cannot hide in the
    recorder, scheduler, tiler, fuser, replay and linters."""
    kinds = {op[0] for recorder, _ in every_recording for op in recorder.ops}
    assert kinds == set(OP_FIELDS)


def _dataflow(rows, table, lane_idx) -> dict[str, Counter]:
    """Multisets of ids defined and used and of ``(buffer, cell)`` read
    and written by ``rows`` (ops or compiled steps), decoded through
    ``table``'s layouts."""
    out: dict[str, Counter] = defaultdict(Counter)
    for row in rows:
        lay = table[row[0]]
        for name, ids in (
            ("reg defs", reg_defs(row, lay)),
            ("scalar defs", scalar_defs(row, lay)),
            ("reg uses", reg_uses(row, lay)),
            ("scalar uses", scalar_uses(row, lay)),
        ):
            out[name].update(np.ravel(ids).tolist())
        if lay.buf is not None:
            cells = cells_of(row, lay, lane_idx).tolist()
            out["writes" if lay.store else "reads"].update(
                (row[lay.buf], c) for c in cells
            )
    return out


def test_ops_and_compiled_steps_decode_alike(recordings):
    """The layouts decode a recording's ops and its compiled steps to the
    same dataflow and memory cells, cell by cell — what the linter reads
    off the ops is what the fuser reads off the steps."""
    checked = 0
    for cell, rec in recordings.items():
        if isinstance(rec, str):
            continue
        recorder, _, trace = rec
        lane_idx = np.arange(trace.lanes, dtype=np.int64)
        from_ops = _dataflow(recorder.ops, OP_LAYOUT, lane_idx)
        from_steps = _dataflow(trace.steps, STEP_LAYOUT, lane_idx)
        assert from_ops == from_steps, cell
        assert from_ops["reads"] and from_ops["writes"], cell
        checked += 1
    assert checked >= 30


def test_every_kind_has_replay_and_certifier_semantics(every_recording):
    """A kind added to ``OP_FIELDS`` needs replay and rounding semantics:
    one compiled step of every kind runs through ``execute_step`` (a
    kind with no branch raises "unknown replay step"), and every kind
    has a ``numlint`` handler; the layouts derive everything else."""
    from repro.analysis.numlint import _Interp

    ran: set[str] = set()
    for _, trace in every_recording:
        first: dict[str, tuple] = {}
        for step in trace.steps:
            if step[0] not in ran:
                first.setdefault(step[0], step)
        if not first:
            continue
        bufs = [
            np.zeros(s.nbytes // np.dtype(s.dtype).itemsize, s.dtype)
            if s.is_named else s.const
            for s in trace.buffers
        ]
        regs = np.zeros((max(trace.nregs, 1), trace.lanes))
        svals = np.zeros(max(trace.nscalars, 1))
        lane_idx = np.arange(trace.lanes, dtype=np.int64)
        for kind, step in first.items():
            execute_step(step, bufs, regs, svals, lane_idx)
            ran.add(kind)
    assert ran == set(OP_FIELDS)
    assert not [k for k in OP_FIELDS if not hasattr(_Interp, f"_op_{k}")]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
