"""Section 3.2 claim — heterogeneous machines need no processor weights."""

from _util import once, save_series

from repro.experiments import heterogeneous


def test_heterogeneous_speeds_discovered(benchmark):
    series = once(benchmark, heterogeneous.run)
    save_series("heterogeneous", series)

    rows = {r[0]: r for r in series.rows}

    # A 2x machine ends up with roughly twice the work of a 1x machine —
    # discovered purely from measured work-units/sec.
    counts = [int(c) for c in rows["2x/1x/1x/1x"][5].split("/")]
    assert counts[0] > 1.6 * counts[1]

    # On the widest spread (4x..0.5x) the static distribution is gated by
    # the slowest machine; DLB recovers most of the gap.
    r = rows["4x/1x/1x/0.5x"]
    assert r[2] < r[1] * 0.5  # t_dlb < half of t_static
    c = [int(x) for x in r[5].split("/")]
    assert c[0] > c[3] * 4  # 4x machine holds >4x the 0.5x machine's work

    # Homogeneous control: DLB changes nothing.
    r0 = rows["1x/1x/1x/1x"]
    assert abs(r0[2] - r0[1]) / r0[1] < 0.02
