"""Matrix multiplication (MM): the paper's parallel-map application.

``C = A @ B`` with rows of ``A``/``C`` distributed (owner computes) and
``B`` replicated.  No loop-carried dependences, so movement is
unrestricted (paper Figure 1a) and each moved unit carries its A row and
C row.  Table 1 classifies MM as repeatedly executed, so the IR wraps
the distributed loop in a ``rep`` loop (``reps`` defaults to 1 for the
Figure 5/7 experiments).

Per-iteration cost: one row of C costs ``2*n*n`` operations, giving the
paper's ~275 s sequential time for 500x500 at ~1 Mop/s (Sun 4/330).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..compiler.ir import (
    ArrayDecl,
    ArrayRef,
    Assign,
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
    "matmul_program",
    "matmul_semantics",
    "matmul_application",
    "build_matmul",
    "MatmulKernels",
]

OPS_PER_ELEMENT = 2.0  # multiply + add


def matmul_program() -> Program:
    """The sequential MM loop nest.

    Each repetition recomputes the product from scratch (the ``c[i][j] =
    0`` initialisation makes the loop idempotent across repetitions,
    matching the kernels' semantics).
    """
    i, j, k, rep, n = var("i"), var("j"), var("k"), var("rep"), var("n")
    init = Assign(
        target=ArrayRef("c", (i, j)),
        reads=(),
        ops=0.0,
        label="c[i][j] = 0",
    )
    inner = Assign(
        target=ArrayRef("c", (i, j)),
        reads=(ArrayRef("c", (i, j)), ArrayRef("a", (i, k)), ArrayRef("b", (k, j))),
        ops=OPS_PER_ELEMENT,
        label="c[i][j] += a[i][k] * b[k][j]",
    )
    nest = Loop(
        "rep",
        const(0),
        var("reps"),
        (
            Loop(
                "i",
                const(0),
                n,
                (
                    Loop(
                        "j",
                        const(0),
                        n,
                        (init, Loop("k", const(0), n, (inner,))),
                    ),
                ),
            ),
        ),
    )
    return Program(
        name="matmul",
        params=("n", "reps"),
        arrays=(
            ArrayDecl("a", (n, n)),
            ArrayDecl("b", (n, n)),
            ArrayDecl("c", (n, n)),
        ),
        body=(nest,),
    )


def matmul_semantics() -> dict:
    """Executable semantics for the IR (see repro.compiler.interp)."""
    return {
        "c[i][j] = 0": lambda: 0.0,
        "c[i][j] += a[i][k] * b[k][j]": lambda c, a, b: c + a * b,
    }


def matmul_directive() -> Directive:
    return Directive(
        distribute="i",
        distributed_arrays=(("a", 0), ("c", 0)),
        repetitions="rep",
    )


class MatmulKernels(AppKernels):
    """Numeric kernels for the generated MM program."""

    def __init__(self, params: Mapping[str, float]):
        self.n = int(params["n"])

    # -- setup ----------------------------------------------------------

    def make_global(self, rng: np.random.Generator) -> dict[str, Any]:
        n = self.n
        return {
            "A": rng.standard_normal((n, n)),
            "B": rng.standard_normal((n, n)),
        }

    def make_local(self, global_state: dict, units: np.ndarray) -> dict[str, Any]:
        n = self.n
        local = {
            "A": np.zeros((n, n)),
            "B": global_state["B"].copy(),
            "C": np.zeros((n, n)),
        }
        local["A"][units] = global_state["A"][units]
        return local

    def input_bytes(self, n_units: int) -> int:
        # Owned A rows + replicated B.
        return 8 * self.n * (n_units + self.n)

    def result_bytes(self, n_units: int) -> int:
        return 8 * self.n * n_units

    # -- computation ------------------------------------------------------

    def run_units(self, local: dict, rep: int, units: np.ndarray) -> None:
        local["C"][units] = local["A"][units] @ local["B"]

    # -- movement ----------------------------------------------------------

    def pack_units(self, local: dict, units: np.ndarray, ctx: dict) -> dict:
        return {"A": local["A"][units].copy(), "C": local["C"][units].copy()}

    # Packing copies rows and leaves ``local`` intact, so reading units
    # needs no deep copy of the whole state (work stealing reads every
    # finished unit).
    extract_units = pack_units

    def unpack_units(
        self, local: dict, units: np.ndarray, payload: dict, ctx: dict
    ) -> None:
        local["A"][units] = payload["A"]
        local["C"][units] = payload["C"]

    # -- gather -------------------------------------------------------------

    def local_result(self, local: dict) -> dict:
        # The runtime pairs this with the owned unit list; ship only the
        # owned C rows, in unit order.
        return local["C"]

    def merge_results(self, global_state: dict, parts: Mapping[int, Any]) -> np.ndarray:
        n = self.n
        C = np.zeros((n, n))
        for _pid, (units, data) in parts.items():
            if len(units):
                C[units] = data[units]
        return C

    def sequential(self, global_state: dict) -> np.ndarray:
        return global_state["A"] @ global_state["B"]


def matmul_application() -> Application:
    """IR + directive + kernels bundle for MM."""
    return Application(
        name="matmul",
        program=matmul_program(),
        directive=matmul_directive(),
        kernels_factory=lambda params: MatmulKernels(params),
    )


def build_matmul(
    n: int = 500,
    reps: int = 1,
    grain: GrainConfig | None = None,
    n_slaves_hint: int = 8,
) -> ExecutionPlan:
    """Compile the MM application (the paper uses n=500)."""
    return matmul_application().compile(
        {"n": n, "reps": reps}, grain=grain, n_slaves_hint=n_slaves_hint
    )
