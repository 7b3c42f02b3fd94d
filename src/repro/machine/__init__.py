"""Machine models: processor specs, performance pricing, roofline, network.

The substitute for the paper's hardware testbeds (DESIGN.md substitution
table).  :mod:`~repro.machine.specs` is Table 1;
:mod:`~repro.machine.perf_model` converts engine counters into seconds and
Gflop/s; :mod:`~repro.machine.roofline` reproduces the Figure 9 analysis;
:mod:`~repro.machine.network` supports the Figure 10 multinode runs.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".network": "Cluster NetworkModel halo_bytes_2d",
        ".perf_model": (
            "KNL_COSTS XEON_COSTS KernelPerformance MemoryMode PerfModel bandwidth_curve_for "
            "cost_table_for make_model"
        ),
        ".roofline": (
            "THETA_CEILINGS THETA_L1 THETA_L2 THETA_MCDRAM THETA_PEAK_GFLOPS Ceiling RooflinePoint "
            "attainable binding_ceiling"
        ),
        ".specs": (
            "BROADWELL HASWELL KNL_7230 KNL_7250 PROCESSORS SKYLAKE TABLE1 ProcessorSpec "
            "get_processor table1_rows"
        ),
    },
)
