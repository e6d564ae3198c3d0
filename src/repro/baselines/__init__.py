"""Comparison schedulers from the paper's related work (Section 6).

- :mod:`diffusion` — receiver/sender-initiated near-neighbour diffusion
  balancing (Willebeek-LeMair & Reeves / gradient-model style), which
  uses only local information.

Central task-queue self-scheduling (chunk, guided, factoring,
trapezoid) is a strategy, not a separate runtime: run it with
:func:`repro.strategies.run_strategy` (``"fsc"``, ``"gss"``,
``"factoring"``, ``"trapezoid"``).  The paper's *static block
distribution* baseline is the DLB runtime with
``RunConfig.dlb_enabled=False`` (hooks compiled in but disabled).
"""

from .diffusion import run_diffusion

__all__ = ["run_diffusion"]
