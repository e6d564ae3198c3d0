"""Figure 5 — 500x500 MM on a dedicated homogeneous cluster."""

from _util import once, save_series

from repro.experiments import fig5_mm_dedicated


def test_fig5_mm_dedicated(benchmark):
    series = once(
        benchmark, lambda: fig5_mm_dedicated.run(processors=(1, 2, 3, 4, 5, 6, 7))
    )
    save_series("fig5_mm_dedicated", series)

    t_seq = series.column("t_seq")[0]
    sp_dlb = series.column("speedup_dlb")
    eff_dlb = series.column("eff_dlb")
    overhead = series.column("dlb_overhead_%")

    # Paper shape: sequential time in the few-hundred-seconds range on a
    # ~1 Mop/s node; near-linear speedup; DLB overhead small; efficiency
    # close to 1 throughout.
    assert 150 <= t_seq <= 400
    assert sp_dlb[-1] > 6.0, f"speedup at 7 procs too low: {sp_dlb[-1]}"
    # Monotone speedup.
    assert all(b > a for a, b in zip(sp_dlb, sp_dlb[1:]))
    assert all(e > 0.9 for e in eff_dlb)
    assert all(o < 5.0 for o in overhead), f"DLB overhead too high: {overhead}"
