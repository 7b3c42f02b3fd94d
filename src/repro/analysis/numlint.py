"""Static floating-point error certification over the trace IR.

Every kernel in this repository records its complete instruction stream
(:mod:`repro.simd.trace`), and every equivalence gate so far compared
replays *bit-identically* against the interpreted run.  Bit identity is
the right contract **within** one kernel — record, replay, and megakernel
tiers execute the same accumulation order — but it is the wrong contract
**between** kernels: SELL, ESB, CSR and BAIJ legitimately reorder the
additions of a row's partial products, so two *correct* formats disagree
in the last bits.  The principled question is *how much* they may
disagree, and the answer must be derived from the computation, not
guessed as an ``atol``.

This module answers it statically.  :func:`certify_recorder` walks the
recorded trace once with an abstract interpreter whose values are
**accumulation term lists**: each output cell ends up described as an
ordered sum of terms, every term a product of buffer-cell magnitudes
carrying the count of roundings it passed through.  The standard forward
error analysis (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 3) then bounds the computed value::

    y_computed = sum_i t_i * prod_j (1 + d_j),   |d_j| <= u
    |y_computed - y_exact| <= sum_i gamma(k_i) * |t_i|

with ``gamma(k) = k*u / (1 - k*u)`` and ``u = 2**-53`` the binary64 unit
roundoff.  Adding an exact zero contributes no rounding; multiplying by
a power of two is exact.  Multiply-accumulate needs care: the
interpreting engine computes every ``fmadd``/``sfma`` through NumPy and
Python floats as a multiply *then* an add — two roundings — because
NumPy has no fused path, so by default the certifier counts two (the
sound model for what actually executes here; the property suite
falsifies anything weaker).  ``fused_fma=True`` instead certifies the
single-rounding contract of real FMA hardware (``vfmadd231pd``) — the
reference model :func:`compare_certificates` holds a mul+add lowering
against when diagnosing dropped fusion (``NUM012``).
Because the trace is structure-derived, the resulting
:class:`NumericalCertificate` is value-independent: it caches under the
structure-only signature and its :meth:`~NumericalCertificate.bound` is
evaluated against any concrete ``val``/``x`` buffers — the analytically
derived tolerance the differential sweep (:mod:`repro.bench.diffverify`)
holds every kernel pair to.

Each term carries two rounding counters:

* ``k_add`` — roundings from additions and fused accumulations: the
  *depth* of the term's path through the reduction tree;
* ``k_total`` — every rounding including bare multiplies.

The split is what lets :func:`compare_certificates` distinguish the three
classic silent-reordering defects: a pairwise tree fold changes the depth
profile (``NUM010``), lowering a fused-contract FMA chain to mul+add
keeps the depth but adds roundings (``NUM012``), and swapping fold
levels keeps both counts but permutes the accumulation order
(``NUM011``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp
from typing import Iterable, NamedTuple

import numpy as np

from ..simd.trace import BufferSlot, TraceRecorder
from ..simd.trace_ir import OP_FIELDS, op_fold_order
from .diagnostics import Diagnostic

__all__ = [
    "Term",
    "NumericalCertificate",
    "certify_recorder",
    "certify_trace",
    "compare_certificates",
    "gamma",
    "UNIT_ROUNDOFF",
    "LONGDOUBLE_ROUNDOFF",
]

#: Unit roundoff of IEEE-754 binary64, the engine's compute precision.
UNIT_ROUNDOFF = 2.0 ** -53

#: Unit roundoff of ``np.longdouble`` (x87 80-bit extended on x86-64
#: Linux): the reference precision the differential sweep compares
#: against.  Conservative for platforms where longdouble is binary128.
LONGDOUBLE_ROUNDOFF = float(np.finfo(np.longdouble).eps) / 2.0


def gamma(k, unit: float = UNIT_ROUNDOFF):
    """Higham's ``gamma_k = k*u / (1 - k*u)``, elementwise over ``k``."""
    k = np.asarray(k, dtype=np.float64)
    ku = k * unit
    if np.any(ku >= 1.0):  # pragma: no cover - astronomically deep trees
        raise OverflowError("rounding bound overflows: k*u >= 1")
    return ku / (1.0 - ku)


class Term(NamedTuple):
    """One addend of an output cell: a product of leaves plus roundings.

    ``factors`` multiplies buffer cells ``("buf", slot, cell)`` and
    literals ``("lit", value)``; ``k_add`` counts addition/FMA roundings
    (reduction-tree depth), ``k_total`` counts every rounding.
    """

    factors: tuple
    k_add: int
    k_total: int


# An abstract value is ``tuple[Term, ...] | None``, an *ordered* sum of
# terms: ``()`` is exact zero, ``None`` is poison (an earlier diagnostic
# made the value unboundable).
_ZERO: tuple = ()


def _bump(val, d_add: int, d_total: int):
    """Every term of ``val`` passes through ``d_*`` more roundings."""
    if val is None or not val or (d_add == 0 and d_total == 0):
        return val
    return tuple(Term(t.factors, t.k_add + d_add, t.k_total + d_total) for t in val)


def _is_pow2(value: float) -> bool:
    """Multiplication by ``value`` is exact (a power of two)."""
    if value == 0.0 or not np.isfinite(value):
        return False
    return frexp(value)[0] in (0.5, -0.5)


def _is_exact_scale(term: Term) -> bool:
    """Multiplying by ``term`` rounds nothing: a bare pow2 literal."""
    return (
        term.k_total == 0
        and len(term.factors) == 1
        and term.factors[0][0] == "lit"
        and _is_pow2(term.factors[0][1])
    )


def _add(a, b):
    """Abstract ``a + b``: one rounding on every term unless one side is
    exact zero (IEEE: ``x + 0.0`` is exact)."""
    if a is None or b is None:
        return None
    if not a:
        return b
    if not b:
        return a
    return _bump(a, 1, 1) + _bump(b, 1, 1)


class _Interp:
    """One abstract interpretation of a linear trace."""

    def __init__(
        self,
        ops,
        lanes: int,
        buffers: Iterable[BufferSlot],
        fused_fma: bool = False,
    ):
        self.ops = ops
        self.lanes = lanes
        self.buffers = tuple(buffers)
        self.fused_fma = fused_fma
        self.regs: dict[int, list] = {}
        self.scalars: dict[int, object] = {}
        #: slot index -> {cell -> AbsVal} for cells the trace stored.
        self.cells: dict[int, dict[int, object]] = {}
        self.diags: list[Diagnostic] = []
        self._flagged_dtypes: set[int] = set()

    # -- diagnostics ---------------------------------------------------
    def _diag(self, code: str, where: str, detail: str) -> None:
        self.diags.append(Diagnostic(code, where, detail))

    # -- operand reading -----------------------------------------------
    def _buf_len(self, b: int) -> int:
        slot = self.buffers[b]
        return slot.nbytes // np.dtype(slot.dtype).itemsize

    def _check_dtype(self, b: int, where: str) -> None:
        slot = self.buffers[b]
        if np.dtype(slot.dtype) != np.float64 and b not in self._flagged_dtypes:
            self._flagged_dtypes.add(b)
            name = slot.name or f"<const {b}>"
            self._diag(
                "NUM003", where,
                f"buffer {name!r} has dtype {np.dtype(slot.dtype).name}; "
                f"the rounding model assumes binary64 throughout",
            )

    def _load_cell(self, b: int, cell: int, where: str):
        """The abstract value of one buffer cell.

        A cell this trace stored returns its stored value; an untouched
        cell is a fresh leaf — its pre-execution content, which the bound
        evaluates against the buffers as bound *at kernel entry*.
        """
        cell = int(cell)
        if cell < 0 or cell >= self._buf_len(b):
            self._diag(
                "NUM002", where,
                f"load of cell {cell} outside buffer {self.buffers[b].name!r} "
                f"(length {self._buf_len(b)}): provenance unknown",
            )
            return None
        written = self.cells.get(b)
        if written is not None and cell in written:
            return written[cell]
        self._check_dtype(b, where)
        return (Term((("buf", b, cell),), 0, 0),)

    def _store_cell(self, b: int, cell: int, val) -> None:
        self.cells.setdefault(b, {})[int(cell)] = val

    def _reg(self, operand, where: str) -> list:
        """Per-lane abstract values of a register operand."""
        if operand[0] == "r":
            lanes = self.regs.get(operand[1])
            if lanes is None:
                self._diag(
                    "NUM002", where,
                    f"register r{operand[1]} read before any definition: "
                    f"its accumulation history is unknown",
                )
                return [None] * self.lanes
            return lanes
        data = np.asarray(operand[1], dtype=np.float64)
        out = []
        for i in range(self.lanes):
            v = float(data[i]) if i < len(data) else 0.0
            out.append(_ZERO if v == 0.0 else (Term((("lit", v),), 0, 0),))
        return out

    def _scalar(self, operand, where: str):
        if operand is None:
            return _ZERO
        if operand[0] == "s":
            val = self.scalars.get(operand[1])
            if val is None and operand[1] not in self.scalars:
                self._diag(
                    "NUM002", where,
                    f"scalar s{operand[1]} read before any definition",
                )
                return None
            return val
        v = float(operand[1])
        return _ZERO if v == 0.0 else (Term((("lit", v),), 0, 0),)

    # -- arithmetic ----------------------------------------------------
    def _mul(self, a, b, where: str, rounds: bool = True):
        """Abstract ``a * b`` with one rounding per product term.

        Distributes one side over the other; a product of two *sums*
        cannot keep its ordered-term form (cross terms square the
        representation and the kernels never compute one), so it is an
        uncertifiable operation.
        """
        if a is None or b is None:
            return None
        if not a or not b:
            return _ZERO
        if len(a) > 1 and len(b) > 1:
            self._diag(
                "NUM001", where,
                "product of two accumulated sums: the certifier tracks "
                "sums of products, not products of sums",
            )
            return None
        if len(a) == 1 and len(b) == 1 and not _is_exact_scale(a[0]):
            # Products commute: pick the side that keeps the product
            # exact (a pow2 literal) as the distributed factor.
            single, multi = b[0], a
        else:
            single, multi = (a[0], b) if len(a) == 1 else (b[0], a)
        exact = not rounds or _is_exact_scale(single)
        sf = tuple(f for f in single.factors if f != ("lit", 1.0))
        out = []
        for t in multi:
            out.append(Term(
                t.factors + sf,
                t.k_add + single.k_add,
                t.k_total + single.k_total + (0 if exact else 1),
            ))
        return tuple(out)

    def _fma(self, a, b, c, where: str):
        """Abstract ``a*b + c``.

        Default: the engine's real arithmetic — NumPy multiply then add,
        two roundings on the product term.  Under ``fused_fma`` the
        single-rounding contract of hardware FMA instead.
        """
        if not self.fused_fma:
            return _add(self._mul(a, b, where), c)
        prod = self._mul(a, b, where, rounds=False)
        if prod is None or c is None:
            return None
        if not prod:
            return c  # fl(0 + c) = c exactly
        if not c:
            # Numerically a bare multiply: one rounding, no depth.
            return _bump(prod, 0, 1)
        return _bump(c, 1, 1) + _bump(prod, 1, 1)

    def _reduce_terms(self, lane_vals, order, where: str):
        """Fold lanes by ``order`` (groups, then group sums left to right)."""
        group_sums = []
        for grp in order:
            vals = [lane_vals[i] for i in grp if i < len(lane_vals)]
            if any(v is None for v in vals):
                return None
            nonempty = [v for v in vals if v]
            if not nonempty:
                continue
            extra = len(nonempty) - 1
            terms: tuple = ()
            for v in nonempty:
                terms = terms + _bump(v, extra, extra)
            group_sums.append(terms)
        if not group_sums:
            return _ZERO
        if len(group_sums) == 1:
            return group_sums[0]
        extra = len(group_sums) - 1
        out: tuple = ()
        for g in group_sums:
            out = out + _bump(g, extra, extra)
        return out

    # -- the walk ------------------------------------------------------
    def run(self) -> None:
        for i, op in enumerate(self.ops):
            kind = op[0]
            where = f"op {i}"
            if kind not in OP_FIELDS:
                self._diag(
                    "NUM001", where,
                    f"unknown op kind {kind!r}: no rounding semantics",
                )
                continue
            handler = getattr(self, f"_op_{kind}", None)
            if handler is None:
                self._diag(
                    "NUM001", where,
                    f"op kind {kind!r} has no certification semantics",
                )
                continue
            handler(op, where)

    # register creation
    def _op_setzero(self, op, where):
        self.regs[op[1]] = [_ZERO] * self.lanes

    def _op_set1(self, op, where):
        v = self._scalar(op[2], where)
        self.regs[op[1]] = [v] * self.lanes

    # loads
    def _op_vload(self, op, where):
        _, dst, b, off = op
        self.regs[dst] = [
            self._load_cell(b, off + i, where) for i in range(self.lanes)
        ]

    def _op_vload_prefix(self, op, where):
        _, dst, b, off, active = op
        self.regs[dst] = [
            self._load_cell(b, off + i, where) if i < active else _ZERO
            for i in range(self.lanes)
        ]

    def _op_gather(self, op, where):
        _, dst, b, idx = op
        idx = np.asarray(idx)
        self.regs[dst] = [
            self._load_cell(b, idx[i], where) if i < len(idx) else _ZERO
            for i in range(self.lanes)
        ]

    def _op_gather_mask(self, op, where):
        _, dst, b, idx, bits = op
        idx = np.asarray(idx)
        bits = np.asarray(bits, dtype=bool)
        self.regs[dst] = [
            self._load_cell(b, idx[i], where)
            if i < len(idx) and i < len(bits) and bits[i] else _ZERO
            for i in range(self.lanes)
        ]

    def _op_sload(self, op, where):
        _, dst, b, off = op
        self.scalars[dst] = self._load_cell(b, off, where)

    # arithmetic
    def _op_fmadd(self, op, where):
        _, dst, a, b, c = op
        av, bv, cv = (self._reg(x, where) for x in (a, b, c))
        self.regs[dst] = [
            self._fma(av[i], bv[i], cv[i], where) for i in range(self.lanes)
        ]

    def _op_fmadd_mask(self, op, where):
        _, dst, a, b, c, bits = op
        av, bv, cv = (self._reg(x, where) for x in (a, b, c))
        bits = np.asarray(bits, dtype=bool)
        self.regs[dst] = [
            self._fma(av[i], bv[i], cv[i], where) if bits[i] else cv[i]
            for i in range(self.lanes)
        ]

    def _op_mul(self, op, where):
        _, dst, a, b = op
        av, bv = self._reg(a, where), self._reg(b, where)
        self.regs[dst] = [
            self._mul(av[i], bv[i], where) for i in range(self.lanes)
        ]

    def _op_add(self, op, where):
        _, dst, a, b = op
        av, bv = self._reg(a, where), self._reg(b, where)
        self.regs[dst] = [_add(av[i], bv[i]) for i in range(self.lanes)]

    def _op_blend(self, op, where):
        _, dst, a, bits = op
        av = self._reg(a, where)
        bits = np.asarray(bits, dtype=bool)
        self.regs[dst] = [
            av[i] if bits[i] else _ZERO for i in range(self.lanes)
        ]

    # reductions
    def _op_reduce(self, op, where):
        _, dst, src, base = op
        folded = self._reduce_terms(
            self._reg(src, where), op_fold_order(op, self.lanes), where
        )
        self.scalars[dst] = _add(self._scalar(base, where), folded)

    def _op_reduce_sel(self, op, where):
        _, dst, src, _groups = op
        self.scalars[dst] = self._reduce_terms(
            self._reg(src, where), op_fold_order(op, self.lanes), where
        )

    def _op_extract(self, op, where):
        _, dst, src, lane = op
        self.scalars[dst] = self._reg(src, where)[lane]

    def _op_sfma(self, op, where):
        _, dst, a, b, c = op
        self.scalars[dst] = self._fma(
            self._scalar(a, where), self._scalar(b, where),
            self._scalar(c, where), where,
        )

    # stores
    def _op_vstore(self, op, where):
        _, b, off, src = op
        vals = self._reg(src, where)
        for i in range(self.lanes):
            self._store_cell(b, off + i, vals[i])

    def _op_vstore_mask(self, op, where):
        _, b, off, src, bits = op
        vals = self._reg(src, where)
        for i in np.nonzero(np.asarray(bits, dtype=bool))[0]:
            self._store_cell(b, off + int(i), vals[int(i)])

    def _op_sstore(self, op, where):
        _, b, off, s = op
        self._store_cell(b, off, self._scalar(s, where))


@dataclass
class NumericalCertificate:
    """Per-row accumulation terms and the analytic bound they imply.

    ``rows[r]`` holds the ordered terms of logical output cell ``r``
    (``None`` when a ``NUM0xx`` finding poisoned the cell, ``()`` when
    the kernel never wrote it — the coverage lint owns that defect).
    The certificate is structure-derived: :meth:`bound` evaluates the
    magnitude envelope against any concrete buffer contents.
    """

    subject: str
    lanes: int
    output: str
    nrows: int
    buffers: tuple[BufferSlot, ...]
    rows: tuple
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    @property
    def max_depth(self) -> int:
        """Deepest reduction path (max ``k_add``) over all rows."""
        return max(
            (t.k_add for terms in self.rows if terms for t in terms),
            default=0,
        )

    @property
    def max_roundings(self) -> int:
        """Most roundings any term accumulates (max ``k_total``)."""
        return max(
            (t.k_total for terms in self.rows if terms for t in terms),
            default=0,
        )

    @property
    def max_terms(self) -> int:
        """Widest row (number of addends)."""
        return max((len(terms) for terms in self.rows if terms), default=0)

    def _bind(self, buffers: dict[str, np.ndarray]) -> list:
        bound: list[np.ndarray | None] = []
        for slot in self.buffers:
            if slot.const is not None:
                bound.append(np.asarray(slot.const, dtype=np.float64).reshape(-1))
            elif slot.name in buffers:
                bound.append(
                    np.asarray(buffers[slot.name], dtype=np.float64).reshape(-1)
                )
            else:
                bound.append(None)
        return bound

    def _term_magnitude(self, term: Term, arrays: list) -> float:
        mag = 1.0
        for f in term.factors:
            if f[0] == "lit":
                mag *= abs(f[1])
            else:
                arr = arrays[f[1]]
                if arr is None:
                    raise KeyError(
                        f"certificate needs buffer "
                        f"{self.buffers[f[1]].name!r} to evaluate its bound"
                    )
                mag *= abs(float(arr[f[2]]))
        return mag

    def envelope(self, buffers: dict[str, np.ndarray]) -> np.ndarray:
        """Per-row magnitude envelope ``sum_i prod_j |factor_ij|``."""
        arrays = self._bind(buffers)
        out = np.zeros(self.nrows)
        for r, terms in enumerate(self.rows):
            if terms is None:
                out[r] = np.inf
            elif terms:
                out[r] = sum(self._term_magnitude(t, arrays) for t in terms)
        return out

    def bound(
        self, buffers: dict[str, np.ndarray], unit: float = UNIT_ROUNDOFF
    ) -> np.ndarray:
        """Per-row worst-case rounding bound, evaluated on real buffers.

        ``sum_i gamma(k_total_i) * |t_i|`` per row: the Higham forward
        bound for the exact accumulation tree the trace recorded.  Rows a
        diagnostic poisoned evaluate to ``inf`` — an uncertified kernel
        has no defensible tolerance.
        """
        arrays = self._bind(buffers)
        out = np.zeros(self.nrows)
        for r, terms in enumerate(self.rows):
            if terms is None:
                out[r] = np.inf
                continue
            acc = 0.0
            for t in terms:
                if t.k_total:
                    acc += float(gamma(t.k_total, unit)) * self._term_magnitude(
                        t, arrays
                    )
            out[r] = acc
        return out

    def as_dict(self) -> dict:
        """JSON-ready summary (terms themselves stay in-process)."""
        return {
            "subject": self.subject,
            "output": self.output,
            "rows": self.nrows,
            "ok": self.ok,
            "max_depth": self.max_depth,
            "max_roundings": self.max_roundings,
            "max_terms": self.max_terms,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def certify_trace(
    ops,
    lanes: int,
    buffers: Iterable[BufferSlot],
    nrows: int | None = None,
    output: str = "y",
    subject: str = "trace",
    fused_fma: bool = False,
) -> NumericalCertificate:
    """Certify a linear trace: abstract-interpret and collect per-row terms.

    ``fused_fma`` switches multiply-accumulate ops to the single-rounding
    hardware-FMA contract; the default models the interpreting engine's
    actual mul-then-add arithmetic.
    """
    interp = _Interp(tuple(ops), lanes, buffers, fused_fma=fused_fma)
    interp.run()
    out_slot = next(
        (s.index for s in interp.buffers if s.name == output), None
    )
    rows: list = []
    if out_slot is None:
        interp._diag(
            "NUM002", "trace",
            f"no buffer named {output!r} bound: nothing to certify",
        )
    else:
        if nrows is None:
            nrows = interp._buf_len(out_slot)
        written = interp.cells.get(out_slot, {})
        rows = [written.get(r, _ZERO) for r in range(nrows)]
    return NumericalCertificate(
        subject=subject,
        lanes=lanes,
        output=output,
        nrows=len(rows),
        buffers=interp.buffers,
        rows=tuple(rows),
        diagnostics=interp.diags,
    )


def certify_recorder(
    recorder: TraceRecorder,
    nrows: int | None = None,
    output: str = "y",
    subject: str = "trace",
    fused_fma: bool = False,
) -> NumericalCertificate:
    """Certify a finished recording (the common entry point).

    ``nrows`` is the *logical* output extent (format padding past it is
    not part of the certified result), mirroring the lint bounds.
    """
    return certify_trace(
        recorder.ops, recorder.lanes, recorder.buffers,
        nrows=nrows, output=output, subject=subject, fused_fma=fused_fma,
    )


# ---------------------------------------------------------------------------
# certificate comparison (the corpus's reduction-reordering detector)
# ---------------------------------------------------------------------------


def _canonical(term: Term) -> tuple:
    """Order-free identity of a term's leaves (products commute)."""
    return tuple(sorted(term.factors, key=repr))


def compare_certificates(
    reference: NumericalCertificate, candidate: NumericalCertificate
) -> list[Diagnostic]:
    """Diagnose how ``candidate``'s accumulation trees differ from
    ``reference``'s, most structural difference first.

    Per row, in precedence order (one code wins per row):

    * ``NUM010`` — the leaf set or the addition-depth profile changed
      (e.g. a sequential fold rewritten as a pairwise tree);
    * ``NUM012`` — depths match but total rounding counts differ (an FMA
      chain lowered to mul+add, doubling the product roundings);
    * ``NUM011`` — both rounding profiles match but the terms are
      accumulated in a different order (swapped fold levels).

    Rows either certificate poisoned are skipped — their ``NUM00x``
    findings already explain them.
    """
    diags: list[Diagnostic] = []
    hits: dict[str, list[int]] = {"NUM010": [], "NUM012": [], "NUM011": []}
    nrows = min(reference.nrows, candidate.nrows)
    if reference.nrows != candidate.nrows:
        diags.append(Diagnostic(
            "NUM010", reference.output,
            f"output extent differs: {reference.nrows} rows certified "
            f"vs {candidate.nrows}",
        ))
    for r in range(nrows):
        ref, cand = reference.rows[r], candidate.rows[r]
        if ref is None or cand is None:
            continue
        ref_depth = sorted((_canonical(t), t.k_add) for t in ref)
        cand_depth = sorted((_canonical(t), t.k_add) for t in cand)
        if ref_depth != cand_depth:
            hits["NUM010"].append(r)
            continue
        ref_total = sorted((_canonical(t), t.k_total) for t in ref)
        cand_total = sorted((_canonical(t), t.k_total) for t in cand)
        if ref_total != cand_total:
            hits["NUM012"].append(r)
            continue
        if [_canonical(t) for t in ref] != [_canonical(t) for t in cand]:
            hits["NUM011"].append(r)
    details = {
        "NUM010": "reduction tree reshaped: leaf set or addition depth "
                  "profile differs from the certified reference",
        "NUM012": "same tree depth but more roundings per term: FMA "
                  "fusion was dropped or extra arithmetic inserted",
        "NUM011": "same leaves, depths and roundings, but the terms are "
                  "accumulated in a different order",
    }
    for code, rows in hits.items():
        if rows:
            head = ", ".join(str(r) for r in rows[:8])
            more = f" (+{len(rows) - 8} more)" if len(rows) > 8 else ""
            diags.append(Diagnostic(
                code, f"{reference.output}[{head}]{more}", details[code],
            ))
    return diags
