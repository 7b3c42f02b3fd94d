"""Analyze registered kernel variants by recording and linting their traces.

:func:`analyze_variant` prepares a matrix in the variant's format, records
one kernel execution under the variant's *true* ISA (so ``gather_auto`` /
``fmadd_auto`` resolve exactly as in production), and runs every lint pass
of :mod:`repro.analysis.trace_lint` over the recording and over the
program the trace cache builds for it — tiled from per-shape exemplars,
checked step for step against the full recording's compile, then fused.
Failures *during*
recording are findings too: the interpreting engine gates most illegal
instructions at execution time, and the analyzer maps those exceptions to
the same ``VEC01x`` codes a static scan would emit.

:func:`analyze_all` sweeps the full variant registry over a small
structure panel chosen to exercise every kernel path the formats have —
a regular stencil, a power-law matrix with a trailing partial slice, and
a sigma-sorted SELL window — and is what ``python -m repro analyze
--all-variants`` and the CI gate run.
"""

from __future__ import annotations

from ..core.dispatch import KernelVariant, get_variant, registered_variants
from ..core.spmv import default_x
from ..mat.aij import AijMat
from ..mat.base import Mat
from ..pde.problems import gray_scott_jacobian, irregular_rows
from ..simd.engine import AlignmentFault
from ..simd.isa import UnsupportedInstructionError
from ..simd.megakernel import compile_megakernel
from ..simd.register import LaneMismatchError
from ..simd.replay import compile_trace
from ..simd.trace import TraceError, TraceRecorder
from .diagnostics import AnalysisReport, Diagnostic
from .numlint import NumericalCertificate, certify_recorder
from .trace_lint import lint_megakernel, lint_recorder, lint_tiling


def default_structures() -> tuple[tuple[str, AijMat, int, int], ...]:
    """The analysis panel: (label, csr, slice_height, sigma) per entry.

    Mirrors the trace-equivalence test panel: a regular stencil, a
    power-law structure whose 19 rows leave a trailing partial slice
    (masked/scalarized store paths), and a sigma-sorted window (the SELL
    permutation store path).
    """
    return (
        ("stencil", gray_scott_jacobian(6), 8, 1),
        ("partial-slice", irregular_rows(19, max_len=9, seed=5), 8, 1),
        ("sorted-sell", irregular_rows(26, max_len=9, seed=8), 8, 16),
    )


def _record_error(exc: Exception) -> Diagnostic:
    """Map a record-time engine rejection to its diagnostic code."""
    msg = str(exc)
    if isinstance(exc, UnsupportedInstructionError):
        if "masks" in msg or "predicates" in msg:
            return Diagnostic("VEC010", "record", msg)
        if "gather" in msg:
            return Diagnostic("VEC011", "record", msg)
        if "fma" in msg:
            return Diagnostic("VEC012", "record", msg)
        return Diagnostic("VEC013", "record", msg)
    if isinstance(exc, LaneMismatchError):
        return Diagnostic("VEC013", "record", msg)
    if isinstance(exc, AlignmentFault):
        return Diagnostic("VEC032", "record", msg)
    raise exc


def _record(
    variant: KernelVariant,
    csr: AijMat,
    slice_height: int,
    sigma: int,
    strict_alignment: bool,
    block_shape: tuple[int, int] | None = None,
) -> tuple[TraceRecorder, Mat]:
    """Record one kernel execution under the variant's true ISA.

    The one recording path shared by the lint and certification entry
    points, so both always analyze the exact instruction stream the
    production trace cache would capture.  Returns the finished recorder
    and the prepared matrix (its shape is the physical, possibly padded,
    output and input extent).
    """
    # Imported here: the trace layer (and its tiler) loads only when a
    # kernel is analyzed, not with every importer of repro.analysis.
    from ..core.traced import record_kernel

    mat = variant.prepare(
        csr, slice_height=slice_height, sigma=sigma, block_shape=block_shape
    )
    recorder, _y = record_kernel(
        variant, mat, default_x(mat.shape[1]), strict_alignment=strict_alignment
    )
    return recorder, mat


def analyze_variant(
    variant: KernelVariant | str,
    csr: AijMat | None = None,
    slice_height: int = 8,
    sigma: int = 1,
    strict_alignment: bool = False,
    label: str | None = None,
    numerical: bool = True,
    block_shape: tuple[int, int] | None = None,
) -> AnalysisReport:
    """Record one execution of ``variant``, lint and certify the trace.

    The program the trace cache builds — tiled from per-shape exemplars
    (:func:`~repro.core.traced.tile_trace`) — must equal the recording's
    own compile (:func:`~repro.simd.replay.compile_trace`;
    :func:`~repro.analysis.trace_lint.lint_tiling`), and is then fused
    (:func:`~repro.simd.megakernel.compile_megakernel`) and linted
    (:func:`~repro.analysis.trace_lint.lint_megakernel`).
    The output/input bounds handed to the memory and coverage passes are
    the *logical* matrix dimensions; value buffers keep their physical
    (possibly padded) lengths, because reading format padding is the
    design, not a defect.  Unless ``numerical`` is off, the rounding
    certifier (:mod:`repro.analysis.numlint`) runs over the same
    recording: its ``NUM0xx`` findings join the report and the
    :class:`~repro.analysis.numlint.NumericalCertificate` is attached as
    ``report.certificate``.
    """
    if isinstance(variant, str):
        variant = get_variant(variant)
    if csr is None:
        csr = gray_scott_jacobian(6)
    subject = f"{variant.name} on {label or 'matrix'}"
    report = AnalysisReport(subject=subject)

    try:
        recorder, mat = _record(
            variant, csr, slice_height, sigma, strict_alignment, block_shape
        )
    except (UnsupportedInstructionError, LaneMismatchError, AlignmentFault) as exc:
        report.diagnostics.append(_record_error(exc))
        return report
    m, n = mat.shape
    report.extend(lint_recorder(recorder, bounds={"x": n, "y": m}))
    from ..core.traced import tile_trace

    full = compile_trace(recorder)
    try:
        tiled = tile_trace(variant, mat, strict_alignment=strict_alignment).compile()
    except TraceError as exc:
        report.diagnostics.append(Diagnostic("VEC060", "tile", str(exc)))
        tiled = full
    report.extend(lint_tiling(full, tiled))
    report.extend(lint_megakernel(compile_megakernel(tiled), tiled))
    if numerical:
        cert = certify_recorder(recorder, nrows=csr.shape[0], subject=subject)
        report.certificate = cert
        report.extend(cert.diagnostics)
    return report


def certify_variant(
    variant: KernelVariant | str,
    csr: AijMat | None = None,
    slice_height: int = 8,
    sigma: int = 1,
    strict_alignment: bool = False,
    label: str | None = None,
    block_shape: tuple[int, int] | None = None,
) -> NumericalCertificate:
    """Record one execution of ``variant`` and certify its rounding error.

    The certificate's rows cover the *logical* output extent
    (``csr.shape[0]``); like the recorded trace itself it is a pure
    function of the sparsity structure, so callers may cache it under
    the structure-only signature
    (:meth:`repro.core.registry.SignatureRegistry.certificate_key`).
    """
    if isinstance(variant, str):
        variant = get_variant(variant)
    if csr is None:
        csr = gray_scott_jacobian(6)
    recorder, _mat = _record(
        variant, csr, slice_height, sigma, strict_alignment, block_shape
    )
    return certify_recorder(
        recorder,
        nrows=csr.shape[0],
        subject=f"{variant.name} on {label or 'matrix'}",
    )


def analyze_all(
    variants: tuple[KernelVariant, ...] | None = None,
    structures: tuple[tuple[str, AijMat, int, int], ...] | None = None,
    strict_alignment: bool = False,
) -> list[AnalysisReport]:
    """Every variant x every panel structure; one report per pair.

    Variants whose format conversion rejects a structure (e.g. BAIJ on
    dimensions that don't block evenly) are skipped for that structure,
    as :meth:`~repro.core.context.ExecutionContext.sweep` skips a point
    whose conversion rejects the matrix.
    """
    if variants is None:
        variants = registered_variants()
    if structures is None:
        structures = default_structures()
    reports: list[AnalysisReport] = []
    for label, csr, slice_height, sigma in structures:
        for variant in variants:
            try:
                reports.append(analyze_variant(
                    variant,
                    csr,
                    slice_height=slice_height,
                    sigma=sigma,
                    strict_alignment=strict_alignment,
                    label=label,
                ))
            except (ValueError, NotImplementedError):
                continue  # format constraint, same skip rule as tuning
    return reports


def summarize(reports: list[AnalysisReport]) -> dict:
    """Aggregate reports into the JSON document the CLI writes."""
    return {
        "analyzed": len(reports),
        "clean": sum(r.ok for r in reports),
        "dirty": sum(not r.ok for r in reports),
        "reports": [r.as_dict() for r in reports],
    }
