"""Figure 8 — 2000x2000 SOR with a constant competing load on processor 0."""

from _util import once, save_series

from repro.experiments import fig8_sor_loaded


def test_fig8_sor_loaded(benchmark):
    series = once(
        benchmark, lambda: fig8_sor_loaded.run(processors=(2, 3, 4, 5, 6, 7))
    )
    save_series("fig8_sor_loaded", series)

    eff_par = series.column("eff_par")
    eff_dlb = series.column("eff_dlb")
    t_par = series.column("t_par")
    t_dlb = series.column("t_dlb")
    moves = series.column("moves")

    # Paper shape: static efficiency collapses toward ~0.5; DLB lands
    # slightly below the dedicated case (restricted movement + pipeline
    # synchronization cost more than for MM) but clearly above static.
    assert all(e < 0.75 for e in eff_par)
    assert all(e > 0.8 for e in eff_dlb)
    assert all(d < p for d, p in zip(t_dlb, t_par))
    assert all(m >= 1 for m in moves)
    # DLB-for-SOR is a bit weaker than DLB-for-MM (paper Figures 7c vs 8b).
    assert t_par[-1] / t_dlb[-1] > 1.3
