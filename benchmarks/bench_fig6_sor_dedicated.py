"""Figure 6 — 2000x2000 SOR on a dedicated homogeneous cluster."""

from _util import once, save_series

from repro.experiments import fig6_sor_dedicated


def test_fig6_sor_dedicated(benchmark):
    series = once(
        benchmark, lambda: fig6_sor_dedicated.run(processors=(1, 2, 3, 4, 5, 6, 7))
    )
    save_series("fig6_sor_dedicated", series)

    t_seq = series.column("t_seq")[0]
    sp_par = series.column("speedup_par")
    sp_dlb = series.column("speedup_dlb")
    eff_dlb = series.column("eff_dlb")
    overhead = series.column("dlb_overhead_%")

    # Paper shape: sequential ~350 s; sub-linear speedup around 6 at 7
    # processors (communication + pipeline fill/drain); DLB overhead
    # small; MM scales better than SOR.
    assert 250 <= t_seq <= 450
    assert 5.5 <= sp_dlb[-1] <= 7.0
    assert sp_par[-1] < 7.0  # sub-linear
    assert all(b > a for a, b in zip(sp_dlb, sp_dlb[1:]))
    assert all(e > 0.85 for e in eff_dlb)
    assert all(o < 5.0 for o in overhead)
