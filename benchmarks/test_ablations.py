"""Section 5 design-decision ablations: bit array, sigma sorting, slice height."""

from repro.bench.experiments import ablations


def test_ablation_bitarray(benchmark):
    """Section 5.3: 'Not using the bit array leads to about 10% speedup.'"""
    speedup = benchmark.pedantic(ablations.bitarray_speedup, rounds=1, iterations=1)
    print(f"\nno-bit-array SELL vs ESB speedup: {speedup:.2f}x (paper ~1.10x)")
    assert 1.02 <= speedup <= 1.30


def test_ablation_bitarray_rows(benchmark):
    rows = benchmark.pedantic(ablations.run_bitarray, rounds=1, iterations=1)
    sell, esb = rows
    assert sell.label == "SELL using AVX512"
    assert esb.label == "ESB using AVX512"
    assert sell.gflops > esb.gflops


def test_ablation_sigma_sorting(benchmark):
    """Section 5.4: sorting trades padding for locality; the paper keeps
    sigma = 1 in production because the kernel is domain-agnostic."""
    rows = benchmark.pedantic(ablations.run_sigma, rounds=1, iterations=1)
    print("\nsigma sweep on an irregular matrix:")
    for r in rows:
        print(
            f"  {r.label:10s} {r.gflops:6.1f} Gflop/s  padding "
            f"{100 * r.padding_fraction:5.1f}%  span {r.extra['locality_span']:.0f}"
        )
    by_sigma = {r.label: r for r in rows}
    # Larger windows monotonically reduce padding...
    pads = [by_sigma[f"sigma={s}"].padding_fraction for s in (1, 8, 32, 128)]
    assert all(b <= a + 1e-12 for a, b in zip(pads, pads[1:]))
    assert pads[-1] < 0.6 * pads[0]
    # ...while sorted variants pay scatter stores (visible at equal
    # padding: sigma=8 with C=8 changes nothing structurally but adds the
    # permutation overhead).
    assert by_sigma["sigma=8"].gflops <= by_sigma["sigma=1"].gflops


def test_ablation_slice_height(benchmark):
    """Section 5.1: C=8 is one ZMM of doubles; C=1 degenerates to CSR."""
    pad = benchmark.pedantic(
        ablations.storage_padding_by_height, rounds=1, iterations=1
    )
    print("\npadding by slice height:", {c: f"{100*f:.1f}%" for c, f in pad.items()})
    assert pad[1] == 0.0  # CSR-equivalent
    heights = sorted(pad)
    fractions = [pad[c] for c in heights]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    perf_rows = ablations.run_slice_height()
    by_c = {r.label: r.gflops for r in perf_rows}
    # Taller slices pad more and never help the 8-lane kernel.
    assert by_c["C=8"] >= by_c["C=32"]


def test_ablation_gray_scott_needs_no_sorting(benchmark):
    """On the paper's own workload the trade-off is moot: regular rows
    mean zero padding, so sorting could only hurt."""
    from repro.bench.experiments.common import reference_matrix
    from repro.core.sell import SellMat

    csr = reference_matrix()
    sell = benchmark.pedantic(
        SellMat.from_csr, args=(csr,), rounds=1, iterations=1
    )
    assert sell.padded_entries == 0
    sorted_sell = SellMat.from_csr(csr, sigma=64)
    assert sorted_sell.padded_entries == 0


def test_section32_register_blocking(benchmark):
    """Section 3.2: BAIJ's 2x2 natural blocks waste wide registers; SELL
    wins on both modeled throughput and SIMD efficiency."""
    out = benchmark.pedantic(
        ablations.run_register_blocking, rounds=1, iterations=1
    )
    sell = out["SELL using AVX512"]
    baij = out["BAIJ using AVX512"]
    print(
        f"\nSELL {sell['gflops']:.1f} Gflop/s (eff {sell['simd_efficiency']:.2f}) "
        f"vs BAIJ {baij['gflops']:.1f} Gflop/s (eff {baij['simd_efficiency']:.2f})"
    )
    assert sell["gflops"] > baij["gflops"]
    assert baij["simd_efficiency"] < 0.8 * sell["simd_efficiency"]


def test_section22_communication_overlap(benchmark):
    """Section 2.2's overlapped SpMV: at the paper's scale the ghost
    exchange hides completely under the diagonal product (which is why
    the paper never reports communication time); in the strong-scaling
    limit the overlap is worth a measurable factor."""
    rows = benchmark.pedantic(ablations.run_overlap, rounds=1, iterations=1)
    for r in rows:
        # Paper scale (16384^2, 64-512 nodes): fully hidden.
        assert r["speedup"] < 1.02
        assert r["halo_us"] < 0.02 * r["spmv_us"]
    limit = ablations.run_overlap(node_counts=(1024,), grid=2048)[0]
    print(
        f"\noverlap benefit: paper scale {rows[0]['speedup']:.2f}x, "
        f"strong-scaling limit {limit['speedup']:.2f}x"
    )
    assert limit["speedup"] > 1.2
