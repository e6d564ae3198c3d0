"""Figure 9 — work movement in response to an oscillating load.

A 500x500 MM runs on 4 slaves while slave 0 gets a competing task for
10 s out of every 20 s.  The figure plots, for the loaded slave: the raw
measured rate, the filtered ("adjusted") rate, and the work assignment,
all normalised.  Paper result: the work assignment tracks the available
processing power with a lag of about two load-balancing periods (one to
respond, one from pipelined master-slave interaction), with a longer lag
on load onset because hooks stretch as the slave slows down.
"""

from __future__ import annotations

import numpy as np

from ..apps.matmul import build_matmul
from ..obs import Recorder
from ..sim import OscillatingLoad
from .common import run_point

__all__ = ["run", "tracking_lag"]


def run(
    n: int = 500,
    reps: int = 6,
    n_slaves: int = 4,
    period: float = 20.0,
    duration: float = 10.0,
    seed: int = 0,
) -> dict:
    """Run the oscillating-load experiment and extract the three series."""
    plan = build_matmul(n=n, reps=reps, n_slaves_hint=n_slaves)
    loads = {0: OscillatingLoad(k=1, period=period, duration=duration)}
    recorder = Recorder()
    res = run_point(plan, n_slaves, loads=loads, seed=seed, recorder=recorder)
    trace = res.trace
    raw_t, raw_v = trace.series("raw_rate[0]")
    adj_t, adj_v = trace.series("adjusted_rate[0]")
    work_t, work_v = trace.series("work[0]")

    max_rate = float(np.max(adj_v)) if adj_v.size else 1.0
    even_share = plan.unit_count / n_slaves
    return {
        "result": res,
        "elapsed": res.elapsed,
        "raw_rate": (raw_t, raw_v / max_rate if max_rate else raw_v),
        "adjusted_rate": (adj_t, adj_v / max_rate if max_rate else adj_v),
        "work": (work_t, work_v / even_share),
        "period": period,
        "duration": duration,
        "moves": res.log.moves_applied,
        "units_moved": res.log.units_moved,
        "report": res.make_report(),
    }


def tracking_lag(result: dict) -> dict:
    """Measure how the work assignment follows the load square wave.

    Returns the mean work level during loaded and unloaded half-periods
    (loaded halves must carry visibly less work) plus the estimated
    tracking lag: the shift of the work series that best anti-correlates
    it with the load square wave.  The paper reports a lag of about two
    load-balancing periods (one to respond, one from pipelined
    master-slave interaction).
    """
    work_t, work_v = result["work"]
    period, duration = result["period"], result["duration"]
    loaded, unloaded = [], []
    for t, w in zip(work_t, work_v):
        # Skip the first half-period (startup) and classify with a lag
        # allowance of one balancing period (~1 s) after each edge.
        if t < duration / 2:
            continue
        phase = t % period
        if 2.0 < phase < duration:
            loaded.append(w)
        elif phase > duration + 2.0:
            unloaded.append(w)
    mean_loaded = float(np.mean(loaded)) if loaded else float("nan")
    mean_unloaded = float(np.mean(unloaded)) if unloaded else float("nan")

    # Lag estimate: resample work onto a fine grid, correlate with the
    # negated load indicator at candidate shifts.
    lag = float("nan")
    if len(work_t) > 4:
        t_end = float(work_t[-1])
        grid = np.arange(duration, t_end, 0.25)
        idx = np.searchsorted(work_t, grid, side="right") - 1
        series = work_v[np.clip(idx, 0, len(work_v) - 1)]
        series = series - series.mean()
        best = None
        for shift in np.arange(0.0, period / 2, 0.25):
            load_sig = ((grid - shift) % period < duration).astype(float)
            load_sig -= load_sig.mean()
            denom = np.linalg.norm(load_sig) * np.linalg.norm(series)
            if denom <= 0:
                continue
            score = -float(load_sig @ series) / denom  # anti-correlation
            if best is None or score > best[0]:
                best = (score, float(shift))
        if best is not None:
            lag = best[1]
    return {
        "mean_work_loaded": mean_loaded,
        "mean_work_unloaded": mean_unloaded,
        "tracks_load": mean_loaded < mean_unloaded,
        "lag_seconds": lag,
    }
