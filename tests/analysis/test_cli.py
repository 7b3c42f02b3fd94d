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

    def test_plan_audit_lints_every_persisted_program(self, tmp_path):
        """Fused and zero-region programs lint; any other payload fails."""
        from repro.core.context import ExecutionContext
        from repro.pde.problems import gray_scott_jacobian
        from repro.simd.plan_cache import PlanCache

        plans = tmp_path / "plans"
        ctx = ExecutionContext(plan_cache_dir=plans)
        csr = gray_scott_jacobian(6)
        for name in ("SELL using AVX512", "CSR using AVX512"):
            ctx.measure(name, csr)
        paths = [str(p) for p in PlanCache(plans).entries()]
        out = tmp_path / "plans.json"
        args = ["--json", str(out)]
        for path in paths:
            args += ["--plan", path]
        assert main(args) == 0
        entries = json.loads(out.read_text())["plans"]
        assert sorted(e["regions"] for e in entries) == [0, 1]
        assert all(e["kind"] == "megakernel" and e["ok"] for e in entries)

        stray = PlanCache(tmp_path / "stray")
        stray.store("trace", ("key",), "not a program")
        assert main(["--plan", str(stray.entries()[0])]) == 1
