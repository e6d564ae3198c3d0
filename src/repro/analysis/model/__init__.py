"""Explicit-state model checking of the DLB control planes (pass 6).

Each control plane ships a thin *model shim* next to its runtime code
(``repro.runtime.protocol_model``, ``repro.faults.protocol_model``,
``repro.ckpt.protocol_model``, ``repro.scale.protocol_model``,
``repro.strategies.protocol_model``, ``repro.strategies.rdlb_model``)
that abstracts the protocol into finite-state :class:`Actor`\\ s.  This
package owns the plane-agnostic machinery: the actor/message substrate
(:mod:`.core`), the exhaustive explorer with partial-order reduction
and the bounded fallback (:mod:`.explore`), counterexample rendering
(:mod:`.trace`), the diagnostic adapter (:mod:`.checker`) and the
standard verification sweep behind ``repro check --model``
(:mod:`.configs`).
"""

from .checker import check_model
from .configs import SWEEP_PLANES, mutation_sweep, run_sweep, standard_sweep
from .core import Actor, Invariant, Model, Msg, Step, Violation
from .explore import ExplorationResult, explore
from .trace import render_trace

__all__ = [
    "Actor",
    "ExplorationResult",
    "Invariant",
    "Model",
    "Msg",
    "SWEEP_PLANES",
    "Step",
    "Violation",
    "check_model",
    "explore",
    "mutation_sweep",
    "render_trace",
    "run_sweep",
    "standard_sweep",
]
