"""Machine models: processor specs, performance pricing, roofline, network.

The substitute for the paper's hardware testbeds (DESIGN.md substitution
table).  :mod:`~repro.machine.specs` is Table 1;
:mod:`~repro.machine.perf_model` converts engine counters into seconds and
Gflop/s; :mod:`~repro.machine.roofline` reproduces the Figure 9 analysis;
:mod:`~repro.machine.network` supports the Figure 10 multinode runs.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".knl": "ClusterMode KnlNode Tile",
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
        ".xeon": "XeonNode broadwell_node haswell_node skylake_node",
    },
)

__all__ = [
    "BROADWELL",
    "Ceiling",
    "Cluster",
    "ClusterMode",
    "HASWELL",
    "KNL_7230",
    "KNL_7250",
    "KNL_COSTS",
    "KernelPerformance",
    "KnlNode",
    "MemoryMode",
    "NetworkModel",
    "PROCESSORS",
    "PerfModel",
    "ProcessorSpec",
    "RooflinePoint",
    "SKYLAKE",
    "TABLE1",
    "THETA_CEILINGS",
    "THETA_L1",
    "THETA_L2",
    "THETA_MCDRAM",
    "THETA_PEAK_GFLOPS",
    "Tile",
    "XEON_COSTS",
    "XeonNode",
    "attainable",
    "bandwidth_curve_for",
    "binding_ceiling",
    "broadwell_node",
    "cost_table_for",
    "get_processor",
    "halo_bytes_2d",
    "haswell_node",
    "make_model",
    "skylake_node",
    "table1_rows",
]
