"""Figure 7 — 500x500 MM with a constant competing load on processor 0."""

from _util import once, save_series

from repro.experiments import fig7_mm_loaded


def test_fig7_mm_loaded(benchmark):
    series = once(
        benchmark, lambda: fig7_mm_loaded.run(processors=(2, 3, 4, 5, 6, 7))
    )
    save_series("fig7_mm_loaded", series)

    eff_par = series.column("eff_par")
    eff_dlb = series.column("eff_dlb")
    t_par = series.column("t_par")
    t_dlb = series.column("t_dlb")
    moves = series.column("moves")

    # Paper shape: static efficiency collapses (everyone waits on the
    # loaded node, worse with more processors); DLB stays near the
    # dedicated level and clearly wins on elapsed time; work moves.
    assert all(e < 0.75 for e in eff_par)
    assert eff_par[-1] < 0.6
    assert all(e > 0.9 for e in eff_dlb)
    assert all(d < p for d, p in zip(t_dlb, t_par)), "DLB must beat static"
    assert all(m >= 1 for m in moves)
    # The win is substantial: at 7 processors static wastes the loaded
    # node's share; DLB recovers most of it.
    assert t_par[-1] / t_dlb[-1] > 1.4
