"""``import repro`` registers everything and loads little else.

The package ``__init__`` files re-export their public names lazily
(:mod:`repro._lazy`): a name's submodule loads the first time the name is
read.  Only the modules that register matrix formats and kernel
variants load with the package.  A fresh interpreter checks what a bare
``import repro`` leaves in ``sys.modules``; the rest checks that every
exported name still resolves.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``repro.__all__``, unchanged by the lazy exports.
PUBLIC = [
    "AVX", "AVX2", "AVX512", "AijMat", "BaijMat", "ChromeTrace", "EventLog",
    "ExecutionContext", "FIGURE11_VARIANTS", "FIGURE8_VARIANTS", "GrayScottProblem",
    "Grid2D", "KernelVariant", "LogStage", "MPIAij", "MPISell", "MPIVec", "MetricsRegistry",
    "Observer", "SCALAR", "SellMat", "SeqVec", "SimdEngine", "SpmvMeasurement",
    "__version__", "csr_traffic", "get_variant", "gray_scott_jacobian",
    "merge_rank_logs", "observing", "register_variant", "registered_variants",
    "sell_traffic", "validate_trace",
]

#: The largest entries of ``python -X importtime -c "import repro"`` before
#: the exports were lazy; none is needed to register a format or variant.
NOT_LOADED = (
    "repro.analysis",
    "repro.comm",
    "repro.core.context",
    "repro.core.traced",
    "repro.faults",
    "repro.ksp",
    "repro.machine",
    "repro.mat.mpi_aij",
    "repro.pde",
    "repro.serve",
    "repro.simd.megakernel",
    "repro.simd.replay",
    "repro.simd.trace",
)

PROBE = """
import json, sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
from repro.core.dispatch import registered_variants
from repro.mat.base import registered_formats
out = {
    "loaded": loaded,
    "variants": len(registered_variants()),
    "formats": list(registered_formats()),
    "all": list(repro.__all__),
}
for name in repro.__all__:
    getattr(repro, name)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def bare_import() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_bare_import_registers_every_variant_and_format(bare_import):
    assert bare_import["variants"] == 16
    assert bare_import["formats"] == [
        "AIJ", "BAIJ", "BETA", "CSR", "CSRPerm", "ESB", "MKL", "SELL",
    ]


def test_bare_import_keeps_the_public_names(bare_import):
    assert bare_import["all"] == PUBLIC


def test_bare_import_leaves_unused_layers_unloaded(bare_import):
    loaded = set(bare_import["loaded"])
    assert loaded.isdisjoint(NOT_LOADED), sorted(loaded & set(NOT_LOADED))


#: Every package under ``src/repro``, found by its ``__init__.py``.
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.rglob("__init__.py")
)


def test_packages_are_discovered():
    assert {"repro", "repro.bench", "repro.bench.experiments", "repro.ksp.pc"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in vars(module), name  # kept after the first read
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        module.not_exported  # noqa: B018


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_names_are_sorted_and_unique(package):
    names = list(importlib.import_module(package).__all__)
    assert names == sorted(set(names))


def test_an_export_table_rejects_a_name_listed_twice():
    from repro._lazy import lazy_exports

    with pytest.raises(ValueError, match="exports a name twice"):
        lazy_exports("repro", {".core": "SellMat", ".mat": "SellMat"})


def test_submodules_still_import_through_their_package():
    from repro.simd import megakernel

    assert megakernel.__name__ == "repro.simd.megakernel"
