"""ADAPT: an irregular application with data-dependent iteration sizes.

None of the paper's three applications has a "yes" in Table 1's last
row; this fourth application exercises it.  It models an adaptive cell
relaxation: each distributed iteration owns a cell whose refinement
level is data — a conditional in the loop body decides how much work the
cell needs, so iteration cost cannot be predicted by the compiler
(Section 2.1: "the presence of conditionals in the distributed loop
makes it difficult to predict the cost of different iterations").

The compiler's cost model supplies only the *expected* cost; at run time
the kernels report the actual per-cell cost (``AppKernels.unit_ops``),
which also drifts across repetitions as cells refine and coarsen.  The
load balancer never sees the costs — it measures work-units/sec, so
intrinsic cost imbalance is corrected the same way competing-load
imbalance is.  The companion experiment shows DLB fixing a skewed cost
distribution on a *dedicated* cluster, where a static distribution
leaves most processors idle.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..compiler.ir import (
    ArrayDecl,
    ArrayRef,
    Assign,
    Conditional,
    Directive,
    Loop,
    Program,
    const,
    var,
)
from ..compiler.plan import AppKernels, ExecutionPlan
from ..config import GrainConfig
from .base import Application

__all__ = [
    "adaptive_program",
    "adaptive_application",
    "build_adaptive",
    "build_particle",
    "particle_application",
    "AdaptiveKernels",
    "ParticleKernels",
]

BASE_OPS = 200.0  # cost of one relaxation step of one cell
REFINED_PROBABILITY = 0.25  # compiler's estimate of the conditional
REFINED_EXTRA_STEPS = 12.0  # extra relaxation steps for refined cells


def adaptive_program() -> Program:
    """for rep: for cell (distributed): relax; if refined: extra steps."""
    cell, n = var("cell"), var("n")
    relax = Assign(
        target=ArrayRef("state", (cell,)),
        reads=(ArrayRef("state", (cell,)),),
        ops=BASE_OPS,
        label="state[cell] = relax(state[cell])",
    )
    refine = Conditional(
        "refined(cell)",
        (
            Assign(
                target=ArrayRef("state", (cell,)),
                reads=(ArrayRef("state", (cell,)),),
                ops=BASE_OPS * REFINED_EXTRA_STEPS,
                label="state[cell] = deep_relax(state[cell])",
            ),
        ),
        probability=REFINED_PROBABILITY,
    )
    nest = Loop(
        "rep",
        const(0),
        var("reps"),
        (Loop("cell", const(0), n, (relax, refine)),),
    )
    return Program(
        name="adaptive",
        params=("n", "reps"),
        arrays=(ArrayDecl("state", (n,)),),
        body=(nest,),
    )


def adaptive_directive() -> Directive:
    return Directive(
        distribute="cell", distributed_arrays=(("state", 0),), repetitions="rep"
    )


class AdaptiveKernels(AppKernels):
    """Kernels with data-dependent, drifting per-cell costs.

    Refinement levels live in the distributed state and move with their
    cells, so a migrated cell costs its new owner exactly what it would
    have cost the old one.
    """

    def __init__(self, params: Mapping[str, float]):
        self.n = int(params["n"])
        self.reps = int(params.get("reps", 1))

    def make_global(self, rng: np.random.Generator) -> dict[str, Any]:
        n = self.n
        # Skewed refinement: a contiguous hot region is deeply refined
        # (the worst case for a static block distribution).
        levels = np.zeros(n)
        hot = slice(0, max(1, n // 5))
        levels[hot] = rng.integers(
            6, int(REFINED_EXTRA_STEPS) + 1, size=levels[hot].shape
        )
        # Per-rep multiplicative drift: cells refine/coarsen over time.
        drift = rng.uniform(0.9, 1.1, size=(self.reps, n))
        return {"levels": levels, "drift": drift, "state": rng.standard_normal(n)}

    def make_local(self, global_state: dict, units: np.ndarray) -> dict[str, Any]:
        n = self.n
        local = {
            "state": np.zeros(n),
            "levels": np.zeros(n),
            "drift": global_state["drift"].copy(),
            "steps": np.zeros(n),
        }
        local["state"][units] = global_state["state"][units]
        local["levels"][units] = global_state["levels"][units]
        return local

    def input_bytes(self, n_units: int) -> int:
        return 8 * n_units * (2 + self.reps)

    def result_bytes(self, n_units: int) -> int:
        return 8 * n_units * 2

    # -- cost + computation ----------------------------------------------

    def unit_ops(self, local: dict, rep: int, unit: int) -> float:
        level = float(local["levels"][unit]) * float(local["drift"][rep, unit])
        return BASE_OPS * (1.0 + level)

    def run_units(self, local: dict, rep: int, units: np.ndarray) -> None:
        # Deterministic relaxation whose step count is the cell's cost —
        # the result encodes exactly how much work was done, so the
        # verifier can prove no step was skipped or duplicated.
        for u in units:
            steps = 1.0 + float(local["levels"][u]) * float(local["drift"][rep, u])
            local["state"][u] = np.tanh(local["state"][u]) + 1e-3 * steps
            local["steps"][u] += steps

    # -- movement -----------------------------------------------------------

    def pack_units(self, local: dict, units: np.ndarray, ctx: dict) -> dict:
        return {
            "state": local["state"][units].copy(),
            "levels": local["levels"][units].copy(),
            "steps": local["steps"][units].copy(),
        }

    # Packing copies cells and leaves ``local`` intact, so reading units
    # needs no deep copy of the whole state (work stealing reads every
    # finished unit).
    extract_units = pack_units

    def unpack_units(
        self, local: dict, units: np.ndarray, payload: dict, ctx: dict
    ) -> None:
        local["state"][units] = payload["state"]
        local["levels"][units] = payload["levels"]
        local["steps"][units] = payload["steps"]

    # -- gather ----------------------------------------------------------------

    def local_result(self, local: dict) -> dict:
        return {"state": local["state"], "steps": local["steps"]}

    def merge_results(self, global_state: dict, parts: Mapping[int, Any]) -> dict:
        n = self.n
        state = np.zeros(n)
        steps = np.zeros(n)
        for _pid, (units, data) in parts.items():
            if len(units):
                state[units] = data["state"][units]
                steps[units] = data["steps"][units]
        return {"state": state, "steps": steps}

    def sequential(self, global_state: dict) -> dict:
        local = self.make_local(global_state, np.arange(self.n))
        for rep in range(self.reps):
            self.run_units(local, rep, np.arange(self.n))
        return {"state": local["state"], "steps": local["steps"]}


def adaptive_application() -> Application:
    """IR + directive + kernels bundle for ADAPT."""
    return Application(
        name="adaptive",
        program=adaptive_program(),
        directive=adaptive_directive(),
        kernels_factory=lambda params: AdaptiveKernels(params),
    )


def build_adaptive(
    n: int = 400,
    reps: int = 3,
    grain: GrainConfig | None = None,
    n_slaves_hint: int = 8,
) -> ExecutionPlan:
    """Compile the ADAPT application."""
    return adaptive_application().compile(
        {"n": n, "reps": reps}, grain=grain, n_slaves_hint=n_slaves_hint
    )


#: Lognormal shape of the particle refinement levels; at 1.2 most cells
#: are near-empty and a few hold most of the particles.
PARTICLE_SIGMA = 1.2


class ParticleKernels(AdaptiveKernels):
    """ADAPT kernels with a heavy-tailed, scattered cost distribution.

    Models a particle code: each cell's refinement level is the (log-
    normally distributed) number of particles it holds, and hot cells
    are scattered over the whole index space instead of packed into one
    block.  A static block split cannot dodge the tail, and neither can
    a contiguous shard boundary move — this is the workload class where
    per-unit schedulers (work stealing, self-scheduling) earn their
    keep over the paper's shard redistribution.
    """

    def make_global(self, rng: np.random.Generator) -> dict[str, Any]:
        n = self.n
        # Heavy-tailed levels, capped at the deep-relax maximum the
        # cost model knows about, scattered by construction (iid).
        levels = np.minimum(
            rng.lognormal(mean=0.0, sigma=PARTICLE_SIGMA, size=n),
            REFINED_EXTRA_STEPS,
        )
        drift = rng.uniform(0.9, 1.1, size=(self.reps, n))
        return {"levels": levels, "drift": drift, "state": rng.standard_normal(n)}


def particle_application() -> Application:
    """IR + directive + kernels bundle for the particle variant."""
    program = adaptive_program()
    program = Program(
        name="particle",
        params=program.params,
        arrays=program.arrays,
        body=program.body,
    )
    return Application(
        name="particle",
        program=program,
        directive=adaptive_directive(),
        kernels_factory=lambda params: ParticleKernels(params),
    )


def build_particle(
    n: int = 400,
    reps: int = 3,
    grain: GrainConfig | None = None,
    n_slaves_hint: int = 8,
) -> ExecutionPlan:
    """Compile the heavy-tailed particle variant of ADAPT."""
    return particle_application().compile(
        {"n": n, "reps": reps}, grain=grain, n_slaves_hint=n_slaves_hint
    )
