"""Diagnostic codes the static analyzer emits.

Every finding is a :class:`Diagnostic` carrying a stable code.  ``VEC0xx``
codes come from the kernel-trace linter (:mod:`repro.analysis.trace_lint`).
Codes are grouped by pass:

* ``VEC01x`` — ISA conformance (instruction legal for the target ISA);
* ``VEC02x`` — dataflow (defs/uses over the SSA-like trace);
* ``VEC03x`` — memory safety (bounds and alignment contracts);
* ``VEC04x`` — output coverage (tail lanes written exactly once);
* ``VEC05x`` — megakernel fusion (boundary dataflow and coverage of
  fused programs, :func:`repro.analysis.trace_lint.lint_megakernel`);
* ``VEC06x`` — tiling (the program the trace cache tiles from per-shape
  templates against a full recording's,
  :func:`repro.analysis.trace_lint.lint_tiling`);
* ``NUM00x`` / ``NUM01x`` — floating-point error certification
  (:mod:`repro.analysis.numlint`): ``NUM00x`` means a trace could not be
  certified at all, ``NUM01x`` means two certificates that should agree
  describe different accumulation trees.

``docs/analysis.md`` documents each code with a minimal triggering trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numlint imports Diagnostic; only the annotation cycles
    from .numlint import NumericalCertificate

#: code -> one-line summary; the registry the CLI and docs enumerate.
CODES: dict[str, str] = {
    # ISA conformance
    "VEC010": "mask-predicated operation on an ISA without mask registers",
    "VEC011": "hardware gather issued on an ISA without gather support",
    "VEC012": "fused multiply-add issued on an ISA without FMA",
    "VEC013": "operand lane width does not match the target register width",
    # dataflow
    "VEC020": "register or scalar read before any definition",
    "VEC021": "value defined but never consumed (lost accumulator)",
    "VEC022": "output cell loaded before its first store (stale read)",
    # memory safety
    "VEC030": "gather index outside the bound buffer",
    "VEC031": "load/store offset outside the bound buffer",
    "VEC032": "aligned load/store at an offset violating the ISA alignment",
    # coverage
    "VEC040": "output cell stored twice with no intervening load",
    "VEC041": "output row never written by the kernel",
    # megakernel fusion
    "VEC050": "fused program reads a register or scalar before any segment defines it",
    "VEC051": "fused region's source steps are not the FMA chain and row epilogue its plans claim",
    "VEC052": "fused program does not cover the source trace's steps exactly",
    # tiling
    "VEC060": "tiled program differs from the full recording's compiled program",
    # numerical certification
    "NUM001": "uncertifiable operation: no rounding-error semantics",
    "NUM002": "unbounded accumulation: operand with unknown provenance",
    "NUM003": "mixed-precision hazard: non-float64 value in the dataflow",
    "NUM010": "accumulation tree depth or leaf set differs from reference",
    "NUM011": "accumulation order differs from the certified reference",
    "NUM012": "rounding count differs from reference (FMA fusion changed)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: a coded defect at a trace site.

    ``where`` locates the finding (an op index like ``op 17`` or a buffer
    name); ``detail`` is the human-readable specifics.
    """

    code: str
    where: str
    detail: str

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def summary(self) -> str:
        """The registry's one-line description of this code."""
        return CODES[self.code]

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.detail}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "where": self.where,
            "detail": self.detail,
            "summary": self.summary,
        }


@dataclass
class AnalysisReport:
    """All findings for one analyzed subject (a kernel variant or a mutant).

    ``certificate`` carries the :class:`repro.analysis.numlint.NumericalCertificate`
    derived from the same recording when the subject was certified; its
    diagnostics are merged into ``diagnostics``, so ``ok`` already
    accounts for certification failures.
    """

    subject: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    certificate: NumericalCertificate | None = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def as_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.as_dict()
        return out
