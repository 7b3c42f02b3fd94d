"""``python -m repro analyze`` CLI contract."""

import json

from repro.analysis.cli import main


class TestAnalyzeCli:
    def test_corpus_only_exits_zero(self, capsys):
        assert main(["--corpus-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        assert doc["corpus"]["caught"] == doc["corpus"]["cases"]
        assert "kernels" not in doc

    def test_single_variant_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "--variant", "SELL using AVX512",
            "--no-corpus",
            "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"]
        assert doc["kernels"]["dirty"] == 0
        assert doc["kernels"]["analyzed"] >= 3  # one per panel structure

    def test_all_variants_and_corpus(self, tmp_path):
        out = tmp_path / "full.json"
        assert main(["--all-variants", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kernels"]["dirty"] == 0
        assert doc["corpus"]["ok"]

    def test_dispatch_through_module_main(self):
        from repro.__main__ import main as repro_main

        assert repro_main(["analyze", "--corpus-only"]) == 0

    def test_fused_programs_are_linted(self, monkeypatch, capsys):
        """A defect in the fused program, not the recording, fails analysis."""
        import dataclasses

        from repro.analysis import kernel

        compile_megakernel = kernel.compile_megakernel

        def holed(trace):
            mega = compile_megakernel(trace)
            return dataclasses.replace(
                mega, source_nsteps=mega.source_nsteps + 2
            )

        monkeypatch.setattr(kernel, "compile_megakernel", holed)
        assert main(["--variant", "SELL using AVX512", "--no-corpus"]) == 1
        doc = json.loads(capsys.readouterr().out)
        for report in doc["kernels"]["reports"]:
            codes = {d["code"] for d in report["diagnostics"]}
            assert codes == {"VEC052"}, report["subject"]

    def test_tiled_programs_are_checked_against_full_recordings(
        self, monkeypatch, capsys
    ):
        """A mis-tiled gather offset — every gathered column one off — is
        caught by comparing the tiled program with the full compile."""
        from repro.core import traced
        from repro.core.kernels_csr import spmv_csr_vectorized

        key = ("CSR", spmv_csr_vectorized)
        units = traced.TRACE_UNITS[key]

        def mistiled(mat, isa):
            plan = units(mat, isa)
            starts, colidx = plan.maps["x"]
            plan.maps["x"] = (starts, (colidx + 1) % mat.shape[1])
            return plan

        monkeypatch.setitem(traced.TRACE_UNITS, key, mistiled)
        assert main(["--variant", "CSR using AVX512", "--no-corpus"]) == 1
        doc = json.loads(capsys.readouterr().out)
        for report in doc["kernels"]["reports"]:
            codes = {d["code"] for d in report["diagnostics"]}
            assert "VEC060" in codes, report["subject"]
