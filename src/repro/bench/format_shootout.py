"""Format shootout: the (format, sigma, block shape, ISA) frontier.

``python -m repro.bench.format_shootout`` sweeps the enlarged knob space
the autotuner searches — SELL-C-sigma sorting scopes, beta(r,c) block
shapes, and both modeled vector ISAs (AVX-512 on KNL, SVE on A64FX) —
over five structure families chosen so each format's argument gets a
fair fight and a fair failure:

* ``stencil`` — the paper's Gray-Scott operator: regular 10-nnz rows,
  SELL's home turf;
* ``banded`` — a tridiagonal band: 2-3 nnz/row, the remainder-loop and
  short-row stress case;
* ``long-tail`` — power-law row lengths: the sigma-sorting showcase
  (Section 5.4's ablation), where sorting scope directly buys padding
  back;
* ``block`` — dense 4x4 blocks on a block-tridiagonal pattern: the
  structure beta(r,c) exists for, where one 12-byte descriptor covers
  up to 64 nonzeros;
* ``near-empty`` — mostly empty or single-entry rows with sparse hot
  rows: the row-coverage and padding worst case.

Every measurement runs through an :class:`~repro.core.context.
ExecutionContext` at ``nprocs=1`` — a *kernel* shootout isolates the
per-core instruction stream the formats differ in, where the fitted
compute leg (not the node-level bandwidth ceiling) separates the
candidates, exactly like a single-core microbenchmark on hardware.

The JSON record (``BENCH_format_shootout.json``) carries every swept
entry (gflops, padded flops, analytic traffic, resident format bytes)
plus per-family winners.  Three gates turn the build red:

* ``sigma_sorting_pays_on_long_tail`` — the best SELL-C-sigma
  configuration with ``sigma > 1`` must beat ``sigma = 1`` on the
  long-tail family (the ISSUE acceptance criterion);
* ``beta_executes_no_padding`` — every beta(r,c) measurement must report
  exactly zero ``padded_flops``, the format's defining claim;
* ``plans_match_sweep`` — :meth:`ExecutionContext.best_plan` over the
  same candidates and knobs must pick each family's sweep winner, so
  the autotuner and the bench can never silently disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core.context import ExecutionContext
from ..core.dispatch import KernelVariant, get_variant
from ..machine.perf_model import make_model
from ..machine.specs import A64FX, KNL_7230
from ..mat.aij import AijMat
from ..pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal

#: SELL sorting scopes swept per sigma-sensitive format
#: (:data:`repro.mat.base.SLICE_FORMATS`; rows, 1 = unsorted).
SIGMAS: tuple[int, ...] = (1, 16, 64)

#: beta(r,c) block shapes swept (r rows x c anchor columns, r*c <= 64).
BLOCK_SHAPES: tuple[tuple[int, int], ...] = ((1, 4), (2, 4), (4, 4), (2, 8))

#: Candidate variants per machine, filtered by the spec's ISA set.
CANDIDATE_NAMES: tuple[str, ...] = (
    "CSR using AVX512",
    "SELL using AVX512",
    "ESB using AVX512",
    "BETA using AVX512",
    "CSR using novec",
    "SELL using SVE",
    "BETA using SVE",
)

#: The family the sigma-sorting gate reads, and the machine it reads on.
GATE_FAMILY = "long-tail"
GATE_MACHINE = "KNL"


def _block_structured(nb: int = 48, bs: int = 4, seed: int = 5) -> AijMat:
    """Dense ``bs x bs`` blocks on a block-tridiagonal coupling pattern."""
    rng = np.random.default_rng(seed)
    n = nb * bs
    rows, cols, vals = [], [], []
    rr, cc = np.meshgrid(np.arange(bs), np.arange(bs), indexing="ij")
    for bi in range(nb):
        for bj in (bi - 1, bi, bi + 1):
            if not 0 <= bj < nb:
                continue
            rows.append((bi * bs + rr).ravel().astype(np.int64))
            cols.append((bj * bs + cc).ravel().astype(np.int64))
            vals.append(rng.standard_normal(bs * bs))
    return AijMat.from_coo(
        (n, n),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def _near_empty_rows(
    n: int = 256, hot_every: int = 16, hot_len: int = 24, seed: int = 9
) -> AijMat:
    """Mostly empty or single-entry rows, with sparse hot rows.

    Every third non-hot row is *genuinely* empty — the structure that
    flushes out kernels skipping unwritten output rows (VEC041) and
    formats whose padding scales with the longest row in a slice.
    """
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        if i % hot_every == 0:
            c = np.sort(rng.choice(n, size=hot_len, replace=False))
        elif i % 3 == 0:
            continue  # an empty row: y[i] must still be defined (as 0)
        else:
            c = np.array([i])
        rows.append(np.full(len(c), i, dtype=np.int64))
        cols.append(c.astype(np.int64))
        vals.append(rng.standard_normal(len(c)))
    return AijMat.from_coo(
        (n, n),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def families() -> dict[str, AijMat]:
    """The five structure families, sized for a CI sweep."""
    return {
        "stencil": gray_scott_jacobian(10),
        "banded": tridiagonal(256),
        "long-tail": irregular_rows(
            160, min_len=2, max_len=40, alpha=1.1, seed=3
        ),
        "block": _block_structured(),
        "near-empty": _near_empty_rows(),
    }


@dataclass(frozen=True)
class ShootoutEntry:
    """One (machine, family, variant, sigma, block shape) measurement."""

    machine: str
    family: str
    variant: str
    isa: str
    sigma: int
    block_shape: tuple[int, int] | None
    gflops: float
    padded_flops: int
    traffic_bytes: int
    memory_bytes: int

    def as_dict(self) -> dict:
        return {
            "machine": self.machine,
            "family": self.family,
            "variant": self.variant,
            "isa": self.isa,
            "sigma": self.sigma,
            "block_shape": (
                list(self.block_shape) if self.block_shape else None
            ),
            "gflops": self.gflops,
            "padded_flops": self.padded_flops,
            "traffic_bytes": self.traffic_bytes,
            "memory_bytes": self.memory_bytes,
        }


def _contexts() -> dict[str, ExecutionContext]:
    """One single-core context per machine (see the module docstring)."""
    return {
        "KNL": ExecutionContext(model=make_model(KNL_7230), nprocs=1),
        "A64FX": ExecutionContext(model=make_model(A64FX), nprocs=1),
    }


def _candidates(ctx: ExecutionContext) -> tuple[KernelVariant, ...]:
    """The candidate variants this machine can run, in listed order."""
    return tuple(
        v for v in map(get_variant, CANDIDATE_NAMES) if ctx.supports(v)
    )


def _sweep_family(
    ctx: ExecutionContext, machine: str, family: str, csr: AijMat
) -> list[ShootoutEntry]:
    """One entry per admissible (variant, sigma, block shape) knob point."""
    entries: list[ShootoutEntry] = []
    for plan in ctx.sweep(
        csr, _candidates(ctx), sigmas=SIGMAS, block_shapes=BLOCK_SHAPES
    ):
        meas = ctx.measure(  # a memo hit: the sweep measured this point
            plan.variant, csr, slice_height=plan.slice_height,
            sigma=plan.sigma, block_shape=plan.block_shape,
        )
        entries.append(ShootoutEntry(
            machine=machine,
            family=family,
            variant=plan.variant.name,
            isa=plan.variant.isa.name,
            sigma=plan.sigma,
            block_shape=plan.block_shape,
            gflops=plan.gflops,
            padded_flops=int(meas.counters.padded_flops),
            traffic_bytes=int(meas.traffic.total_bytes),
            memory_bytes=int(meas.mat.memory_bytes()),
        ))
    return entries


def _gate_sigma_sorting(entries: list[ShootoutEntry]) -> dict:
    """Best SELL sigma > 1 must beat sigma = 1 on the long-tail family."""
    sell = [
        e for e in entries
        if e.machine == GATE_MACHINE and e.family == GATE_FAMILY
        and e.variant == "SELL using AVX512"
    ]
    unsorted = [e for e in sell if e.sigma == 1]
    scoped = [e for e in sell if e.sigma > 1]
    baseline = max((e.gflops for e in unsorted), default=0.0)
    best = max(scoped, key=lambda e: e.gflops, default=None)
    return {
        "gate": "sigma_sorting_pays_on_long_tail",
        "machine": GATE_MACHINE,
        "family": GATE_FAMILY,
        "sigma1_gflops": baseline,
        "best_scoped_sigma": best.sigma if best else None,
        "best_scoped_gflops": best.gflops if best else 0.0,
        "ok": best is not None and best.gflops > baseline,
    }


def _gate_beta_padding(entries: list[ShootoutEntry]) -> dict:
    """Every beta(r,c) measurement must execute exactly zero padded flops."""
    beta = [e for e in entries if e.variant.startswith("BETA")]
    offenders = [e.as_dict() for e in beta if e.padded_flops != 0]
    return {
        "gate": "beta_executes_no_padding",
        "measured": len(beta),
        "offenders": offenders,
        "ok": bool(beta) and not offenders,
    }


def _gate_plans(
    contexts: dict[str, ExecutionContext],
    mats: dict[str, AijMat],
    winners: dict[tuple[str, str], ShootoutEntry],
) -> dict:
    """best_plan over the same knobs must agree with each sweep winner."""
    mismatches = []
    for (machine, family), won in winners.items():
        ctx = contexts[machine]
        plan = ctx.best_plan(
            mats[family], _candidates(ctx),
            sigmas=SIGMAS, block_shapes=BLOCK_SHAPES,
        )
        if (
            plan.variant.name != won.variant
            or abs(plan.gflops - won.gflops) > 1e-9 * max(1.0, won.gflops)
        ):
            mismatches.append({
                "machine": machine,
                "family": family,
                "sweep": won.as_dict(),
                "plan": {
                    "variant": plan.variant.name,
                    "sigma": plan.sigma,
                    "block_shape": (
                        list(plan.block_shape) if plan.block_shape else None
                    ),
                    "gflops": plan.gflops,
                },
            })
    return {
        "gate": "plans_match_sweep",
        "checked": len(winners),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_shootout() -> dict:
    """Run the full sweep and assemble the JSON-ready record."""
    contexts = _contexts()
    mats = families()
    entries: list[ShootoutEntry] = []
    for machine, ctx in contexts.items():
        for family, csr in mats.items():
            entries.extend(_sweep_family(ctx, machine, family, csr))

    winners: dict[tuple[str, str], ShootoutEntry] = {}
    for e in entries:
        key = (e.machine, e.family)
        if key not in winners or e.gflops > winners[key].gflops:
            winners[key] = e

    gates = [
        _gate_sigma_sorting(entries),
        _gate_beta_padding(entries),
        _gate_plans(contexts, mats, winners),
    ]
    return {
        "bench": "format_shootout",
        "machines": {
            name: {
                "processor": ctx.spec.name,
                "isa": ctx.isa.name,
                "nprocs": ctx.nprocs,
            }
            for name, ctx in contexts.items()
        },
        "families": {
            name: {"rows": csr.shape[0], "nnz": csr.nnz}
            for name, csr in mats.items()
        },
        "sigmas": list(SIGMAS),
        "block_shapes": [list(s) for s in BLOCK_SHAPES],
        "entries": [e.as_dict() for e in entries],
        "winners": {
            f"{machine}/{family}": e.as_dict()
            for (machine, family), e in sorted(winners.items())
        },
        "gates": gates,
        "ok": all(g["ok"] for g in gates),
    }


def main(path: str = "BENCH_format_shootout.json") -> int:
    """Run the shootout, write the record, gate the build."""
    record = run_shootout()
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(
        f"format shootout: {len(record['entries'])} measurements over "
        f"{len(record['families'])} families x {len(record['machines'])} "
        f"machines"
    )
    for label, won in record["winners"].items():
        knobs = f"sigma={won['sigma']}"
        if won["block_shape"]:
            knobs += f", block={tuple(won['block_shape'])}"
        print(
            f"  {label:18s} -> {won['variant']:20s} "
            f"({knobs}) {won['gflops']:.2f} gflops"
        )
    failed = False
    for gate in record["gates"]:
        status = "ok" if gate["ok"] else "FAIL"
        print(f"  gate {gate['gate']}: {status}")
        if not gate["ok"]:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
