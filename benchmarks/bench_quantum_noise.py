"""Section 4.3 — quantum-induced measurement noise vs window length."""

from _util import once, save_series

from repro.experiments import quantum_noise


def test_rate_noise_collapses_past_five_quanta(benchmark):
    series = once(benchmark, quantum_noise.run)
    save_series("quantum_noise", series)

    windows = series.column("window_quanta")
    rr_cv = series.column("rr_rate_cv")
    fair_cv = series.column("fair_rate_cv")
    rr_mean = series.column("rr_rate_mean")

    by_window = dict(zip(windows, rr_cv))
    # Sub-quantum windows: wildly noisy samples (the paper's "dramatic
    # oscillations"); the paper's >= 5 quanta rule tames them.
    assert by_window[0.2] > 0.3
    assert by_window[5.0] < 0.08
    assert by_window[20.0] < by_window[5.0]
    # Noise is monotonically tamed by longer windows.
    assert all(b <= a + 0.02 for a, b in zip(rr_cv, rr_cv[1:]))
    # The idealised fair scheduler has no quantum, hence no noise.
    assert max(fair_cv) < 1e-9
    # Sub-quantum samples are also biased optimistic (bursts can fit the
    # free slot) — the reason the runtime gates rate samples on window.
    assert rr_mean[0] > 0.52
    assert abs(rr_mean[-1] - 0.5) < 0.02
