"""Static trace lint: clean on every shipped kernel, loud on defects."""

import numpy as np
import pytest

from repro.analysis import (
    CODES,
    AnalysisReport,
    BufferInfo,
    Diagnostic,
    TraceSubject,
    analyze_all,
    analyze_variant,
    default_structures,
    lint_trace,
    summarize,
)
from repro.core.dispatch import registered_variants
from repro.simd.isa import AVX512


class TestDiagnostics:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("VEC999", "nowhere", "not a real code")

    def test_report_roundtrip(self):
        report = AnalysisReport(subject="s")
        assert report.ok
        report.diagnostics.append(Diagnostic("VEC020", "op 3", "use of r7"))
        assert not report.ok
        assert report.codes == {"VEC020"}
        doc = report.as_dict()
        assert doc["subject"] == "s"
        assert doc["diagnostics"][0]["code"] == "VEC020"

    def test_every_code_documented(self):
        for code, summary in CODES.items():
            assert code.startswith(("VEC0", "NUM0"))
            assert summary


class TestShippedKernelsAreClean:
    """The acceptance sweep: all registered variants x the full panel."""

    @pytest.mark.parametrize(
        "variant", [v.name for v in registered_variants()]
    )
    def test_variant_clean_on_panel(self, variant):
        for label, csr, slice_height, sigma in default_structures():
            try:
                report = analyze_variant(
                    variant, csr,
                    slice_height=slice_height, sigma=sigma, label=label,
                )
            except (ValueError, NotImplementedError):
                continue  # format constraint, same skip rule as tuning
            assert report.ok, (
                f"{report.subject}: " + "; ".join(map(str, report.diagnostics))
            )

    def test_analyze_all_summary(self):
        reports = analyze_all()
        doc = summarize(reports)
        assert doc["analyzed"] == len(reports) > 0
        assert doc["dirty"] == 0
        assert doc["clean"] == doc["analyzed"]


def _subject(ops, buffers=None, **kwargs):
    if buffers is None:
        buffers = (
            BufferInfo("val", 64, 8),
            BufferInfo("x", 8, 8),
            BufferInfo("y", 8, 8),
        )
    return TraceSubject(
        ops=tuple(ops), lanes=8, isa=AVX512, buffers=buffers, **kwargs
    )


class TestSyntheticDataflow:
    """Hand-built traces pin each dataflow rule independently."""

    def test_register_read_before_write(self):
        diags = lint_trace(_subject([
            ("vload", 0, 0, 0),
            ("add", 1, ("r", 0), ("r", 5)),   # r5 never defined
            ("vstore", 2, 0, ("r", 1)),
        ]))
        assert "VEC020" in {d.code for d in diags}

    def test_scalar_read_before_write(self):
        diags = lint_trace(_subject([
            ("sstore", 2, 0, ("s", 3)),       # s3 never defined
        ]))
        assert "VEC020" in {d.code for d in diags}

    def test_dead_scalar_flagged(self):
        diags = lint_trace(_subject([
            ("vload", 0, 0, 0),
            ("reduce", 0, ("r", 0), None),    # s0 computed, never consumed
            ("vstore", 2, 0, ("r", 0)),
        ]))
        assert "VEC021" in {d.code for d in diags}

    def test_clean_scalar_chain_has_no_findings(self):
        diags = lint_trace(_subject([
            ("sload", 0, 0, 0),
            ("sload", 1, 1, 0),
            ("sfma", 2, ("s", 0), ("s", 1), ("l", 0.0)),
            ("sstore", 2, 0, ("s", 2)),
        ], outputs=()))
        assert diags == []

    def test_lane_width_mismatch_on_index_vector(self):
        diags = lint_trace(_subject([
            ("gather", 0, 1, np.arange(4, dtype=np.int64)),
            ("vstore", 2, 0, ("r", 0)),
        ]))
        assert "VEC013" in {d.code for d in diags}

    def test_output_read_before_store(self):
        diags = lint_trace(_subject([
            ("vload", 0, 2, 0),               # reads y before any store
            ("vstore", 2, 0, ("r", 0)),
        ]))
        assert "VEC022" in {d.code for d in diags}

    def test_double_store_and_missing_row(self):
        diags = lint_trace(_subject(
            [
                ("setzero", 0),
                ("vstore", 2, 0, ("r", 0)),
                ("vstore", 2, 0, ("r", 0)),   # same 8 cells again
            ],
            buffers=(
                BufferInfo("val", 64, 8),
                BufferInfo("x", 8, 8),
                BufferInfo("y", 16, 8),       # rows 8..15 never written
            ),
        ))
        codes = {d.code for d in diags}
        assert "VEC040" in codes
        assert "VEC041" in codes
