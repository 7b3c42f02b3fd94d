"""Cost-table calibration against the paper's published KNL results.

The per-instruction costs in :data:`repro.machine.perf_model.KNL_COSTS`
are *fitted*, not invented: this module measures the instruction mix of
all eleven kernel variants on the reference Gray-Scott operator, then runs
a coordinate-descent least-squares fit of the cost-table entries (and the
compute/memory overlap factor) against the Figure 8 / Figure 11 values the
paper reports for a fully populated KNL 7230 node.

Targets are read off the published figures (log-scale plots; +-10%
digitization error is expected and EXPERIMENTS.md reports the residuals):

=====================  =======
series                 Gflop/s
=====================  =======
SELL using AVX512        46.0
SELL using AVX           41.0
SELL using AVX2          39.0
CSR using AVX512         35.0   (1.54x the baseline, Section 7.2)
CSR using AVX            12.5   (below Skylake's ~13.5: "the best
                                 performance of AVX/AVX2 versions of CSR
                                 is found on Skylake", Section 7.4)
CSR using AVX2           10.5   (the AVX2 regression, Section 7.2)
CSR baseline             22.8
CSRPerm                  22.5   ("does not yield any improvement")
MKL CSR                  19.0   ("10 to 20 percent slower")
CSR using novec           6.0   (Figure 11, KNL group)
SELL using novec          6.5
=====================  =======

Run ``python -m repro.machine.calibrate`` to regenerate the fit; the
resulting table is printed in CostTable constructor form.  The committed
defaults in :mod:`repro.machine.perf_model` are one such fit, frozen for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simd.cost_model import CostTable, cycles
from .perf_model import MemoryMode, PerfModel, combine_legs
from .specs import KNL_7230

#: Figure 8 (64 ranks) and Figure 11 (KNL group) readings, Gflop/s.
KNL_TARGETS: dict[str, float] = {
    "SELL using AVX512": 46.0,
    "SELL using AVX": 41.0,
    "SELL using AVX2": 39.0,
    "CSR using AVX512": 35.0,
    "CSR using AVX": 12.5,
    "CSR using AVX2": 10.5,
    "CSR baseline": 22.8,
    "CSRPerm": 22.5,
    "MKL CSR": 19.0,
    "CSR using novec": 6.0,
    "SELL using novec": 6.5,
}

#: Cost-table fields the fit may move, with (lower, upper) bounds chosen
#: to stay microarchitecturally plausible for KNL.
FIT_FIELDS: dict[str, tuple[float, float]] = {
    "vload": (0.5, 4.0),
    "vstore": (0.5, 4.0),
    "gather_base": (0.5, 12.0),
    "gather_lane": (0.2, 4.0),
    "emulated_gather_lane": (0.2, 4.0),
    "insert": (0.2, 4.0),
    "fma": (0.5, 6.0),
    "mul": (0.2, 3.0),
    "add": (0.2, 3.0),
    "reduce": (1.0, 20.0),
    "mask_setup": (0.5, 12.0),
    "mask_penalty": (0.0, 8.0),
    "sload": (0.5, 12.0),
    "sload_indep": (0.3, 6.0),
    "sfma_indep": (0.3, 8.0),
    "sstore": (0.5, 8.0),
    "sfma": (0.5, 24.0),
    "remainder": (0.0, 12.0),
    "loop_overhead": (0.0, 12.0),
}


@dataclass
class CalibrationProblem:
    """Measured instruction mixes plus the fixed experiment geometry."""

    counters: dict[str, object]      # variant name -> KernelCounters (scaled)
    traffic: dict[str, int]          # variant name -> bytes (scaled)
    useful_flops: dict[str, int]     # variant name -> 2*nnz (scaled)
    isa_of: dict[str, object]
    efficiency: dict[str, float]
    nprocs: int = 64

    @classmethod
    def measure(cls, grid: int = 32, target_grid: int = 2048) -> "CalibrationProblem":
        """Measure all target variants on the reference operator."""
        from ..core.context import ExecutionContext
        from ..core.dispatch import get_variant
        from ..pde.problems import gray_scott_jacobian

        csr = gray_scott_jacobian(grid)
        scale = (target_grid / grid) ** 2
        counters: dict[str, object] = {}
        traffic: dict[str, int] = {}
        flops: dict[str, int] = {}
        isa_of: dict[str, object] = {}
        eff: dict[str, float] = {}
        ctx = ExecutionContext(use_traces=False)
        for name in KNL_TARGETS:
            variant = get_variant(name)
            meas = ctx.measure(variant, csr)
            counters[name] = meas.counters.scaled(scale)
            traffic[name] = round(meas.traffic.total_bytes * scale)
            flops[name] = round(meas.traffic.flops * scale)
            isa_of[name] = variant.isa
            eff[name] = variant.efficiency
        return cls(counters, traffic, flops, isa_of, eff)

    def predict_gflops(self, table: CostTable, overlap: float) -> dict[str, float]:
        """Model throughput of every variant under a candidate table."""
        spec = KNL_7230
        model = PerfModel(spec=spec, mode=MemoryMode.FLAT_MCDRAM, overlap=overlap)
        out: dict[str, float] = {}
        for name, counters in self.counters.items():
            isa = self.isa_of[name]
            freq_hz = spec.effective_frequency(isa.name, self.nprocs) * 1e9
            compute = cycles(counters, table) / (freq_hz * self.nprocs)
            bw = model.bandwidth_gbs(isa, self.nprocs)
            memory = self.traffic[name] / (bw * 1e9)
            seconds = combine_legs(compute, memory, overlap) / self.efficiency[name]
            out[name] = self.useful_flops[name] / seconds / 1e9
        return out

    def loss(self, table: CostTable, overlap: float) -> float:
        """Sum of squared log-ratios between model and paper values."""
        pred = self.predict_gflops(table, overlap)
        return float(
            sum(
                np.log(pred[name] / target) ** 2
                for name, target in KNL_TARGETS.items()
            )
        )


def fit(
    problem: CalibrationProblem,
    start: CostTable | None = None,
    start_overlap: float = 0.5,
    rounds: int = 60,
    seed: int = 0,
) -> tuple[CostTable, float, float]:
    """Coordinate-descent fit; returns (table, overlap, loss).

    Each round perturbs every fitted field multiplicatively (golden-ratio
    shrinking step sizes) and keeps improvements; the overlap factor is
    fitted the same way within [0.2, 0.8].
    """
    table = start if start is not None else CostTable()
    overlap = start_overlap
    best = problem.loss(table, overlap)
    step = 0.5
    rng = np.random.default_rng(seed)
    fields = list(FIT_FIELDS)
    for round_idx in range(rounds):
        improved = False
        rng.shuffle(fields)
        for field in fields:
            lo, hi = FIT_FIELDS[field]
            current = getattr(table, field)
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                candidate_value = float(np.clip(current * factor, lo, hi))
                candidate = table.with_overrides(**{field: candidate_value})
                loss = problem.loss(candidate, overlap)
                if loss < best - 1e-12:
                    table, best, improved = candidate, loss, True
                    current = candidate_value
        for factor in (1.0 + step, 1.0 / (1.0 + step)):
            cand_overlap = float(np.clip(overlap * factor, 0.2, 0.8))
            loss = problem.loss(table, cand_overlap)
            if loss < best - 1e-12:
                overlap, best, improved = cand_overlap, loss, True
        if not improved:
            step *= 0.6
            if step < 1e-3:
                break
        del round_idx
    return table, overlap, best


def main() -> None:  # pragma: no cover - manual tool
    """Regenerate the calibration and print the fitted table."""
    problem = CalibrationProblem.measure()
    table, overlap, loss = fit(problem)
    print(f"# fitted loss (sum sq log-ratio): {loss:.4f}, overlap={overlap:.3f}")
    print("KNL_COSTS = CostTable(")
    for field in CostTable().__dataclass_fields__:
        print(f"    {field}={getattr(table, field):.3f},")
    print(")")
    pred = problem.predict_gflops(table, overlap)
    print(f"{'series':22s} {'model':>8s} {'paper':>8s} {'ratio':>7s}")
    for name, target in KNL_TARGETS.items():
        print(f"{name:22s} {pred[name]:8.1f} {target:8.1f} {pred[name]/target:7.2f}")


if __name__ == "__main__":  # pragma: no cover
    main()
