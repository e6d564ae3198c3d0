"""Successive overrelaxation (SOR): the paper's pipelined application.

The grid ``b`` is indexed ``b[j][i]`` (column-major like the paper's
Figure 3): columns ``j`` are distributed, rows ``i`` are the pipelined
dimension, strip-mined by the compiler.  The update

    b[j][i] = 0.493*(b[j][i-1] + b[j-1][i] + b[j][i+1] + b[j+1][i])
              - 0.972*b[j][i]

carries flow dependences at distance +1 (left neighbour's updated
column) and anti dependences at distance -1 (right neighbour's old
column) along ``j``, plus a recurrence along ``i`` — exactly the feature
set that forces restricted movement, pipelined boundary communication,
and the sweep-start halo exchange (communication outside the loop).

Local state holds the full grid array; each slave only ever reads/writes
its owned columns plus the neighbour halo columns, so in-place update
order reproduces the sequential semantics bit-for-bit.  Columns 0 and
``n-1`` (and rows 0/``n-1``) are fixed boundary values; distributed
units are the ``n-2`` interior columns (unit ``u`` <-> column ``u+1``)
and pipelined strips cover the ``n-2`` interior rows.  Unit ids equal
column indices (the distributed loop's index values), so the unit space
is ``[1, n-1)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

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
from ..errors import MovementError
from .base import Application

__all__ = [
    "sor_program",
    "sor_sequential_convergent",
    "sor_semantics",
    "sor_application",
    "build_sor",
    "SorKernels",
]

C1 = 0.493
C2 = -0.972
OPS_PER_ELEMENT = 6.0  # 4 adds, 2 multiplies


def sor_program(dynamic: bool = False) -> Program:
    """The sequential SOR loop nest.

    With ``dynamic=True`` the sweep loop is a data-dependent WHILE
    (sweep until the residual drops below ``tol``, capped at
    ``maxiter`` trips) — the Section 4.1 case where the master must run
    the loop condition's test.
    """
    i, j, n = var("i"), var("j"), var("n")
    update = Assign(
        target=ArrayRef("b", (j, i)),
        reads=(
            ArrayRef("b", (j, i - 1)),
            ArrayRef("b", (j - 1, i)),
            ArrayRef("b", (j, i + 1)),
            ArrayRef("b", (j + 1, i)),
            ArrayRef("b", (j, i)),
        ),
        ops=OPS_PER_ELEMENT,
        label=(
            "b[j][i] = 0.493*(b[j][i-1]+b[j-1][i]"
            "+b[j][i+1]+b[j+1][i]) - 0.972*b[j][i]"
        ),
    )
    nest = Loop(
        "iter",
        const(0),
        var("maxiter"),
        (
            Loop(
                "i",
                const(1),
                n - 1,
                (Loop("j", const(1), n - 1, (update,)),),
            ),
        ),
        while_condition="max|delta| > tol" if dynamic else None,
    )
    return Program(
        name="sor",
        params=("n", "maxiter") + (("tol",) if dynamic else ()),
        arrays=(ArrayDecl("b", (n, n)),),
        body=(nest,),
    )


def sor_semantics() -> dict:
    """Executable semantics for the IR (see repro.compiler.interp)."""
    return {
        "b[j][i] = 0.493*(b[j][i-1]+b[j-1][i]+b[j][i+1]+b[j+1][i]) - 0.972*b[j][i]": (
            lambda up, left, down, right, self_: C1 * (up + left + down + right)
            + C2 * self_
        ),
    }


def sor_directive() -> Directive:
    return Directive(distribute="j", distributed_arrays=(("b", 0),))


def _update_cell(G: np.ndarray, j: int, i: int) -> None:
    G[j, i] = (
        C1 * (G[j, i - 1] + G[j - 1, i] + G[j, i + 1] + G[j + 1, i]) + C2 * G[j, i]
    )


def _sweep(G: np.ndarray, rows: Iterable[int], cols: Sequence[int]) -> None:
    """Update every cell ``(j, i)``, row ``i`` by row, ``j`` in order
    within a row: the sequential program's order."""
    for i in rows:
        for j in cols:
            _update_cell(G, j, i)


def _sweep_tracked(
    G: np.ndarray, rows: Iterable[int], cols: Sequence[int], residual: float
) -> float:
    """:func:`_sweep`, returning the max of ``residual`` and every
    cell's |delta| (the WHILE condition's residual)."""
    for i in rows:
        for j in cols:
            old = G[j, i]
            _update_cell(G, j, i)
            delta = abs(G[j, i] - old)
            if delta > residual:
                residual = delta
    return residual


def sor_sequential(G0: np.ndarray, maxiter: int) -> np.ndarray:
    """Reference sequential sweep (in place on a copy)."""
    G = G0.copy()
    inner = range(1, G.shape[0] - 1)
    for _ in range(maxiter):
        _sweep(G, inner, inner)
    return G


def sor_sequential_convergent(
    G0: np.ndarray, maxiter: int, tol: float
) -> tuple[np.ndarray, int]:
    """Sweep until ``max|delta| <= tol`` (at most ``maxiter`` sweeps);
    returns the grid and the number of sweeps executed.  This is the
    WHILE-loop semantics the distributed runtime must reproduce exactly,
    including the sweep count."""
    G = G0.copy()
    inner = range(1, G.shape[0] - 1)
    sweeps = 0
    for _ in range(maxiter):
        residual = _sweep_tracked(G, inner, inner, 0.0)
        sweeps += 1
        if residual <= tol:
            break
    return G, sweeps


class SorKernels(AppKernels):
    """Numeric kernels for the generated SOR program."""

    def __init__(self, params: Mapping[str, float]):
        self.n = int(params["n"])
        self.maxiter = int(params["maxiter"])
        # WHILE-repetition mode: track per-sweep residuals.
        self.tol = float(params["tol"]) if "tol" in params else None

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _cols(local: dict) -> list[int]:
        return local["cols"]

    @staticmethod
    def _rows(rows: tuple[int, int]) -> range:
        """Strip coordinates -> interior row indices."""
        return range(rows[0] + 1, rows[1] + 1)

    # -- setup ------------------------------------------------------------

    def make_global(self, rng: np.random.Generator) -> dict[str, Any]:
        return {"G": rng.standard_normal((self.n, self.n))}

    def make_local(self, global_state: dict, units: np.ndarray) -> dict[str, Any]:
        n = self.n
        G = np.zeros((n, n))
        cols = [int(u) for u in units]
        G[cols] = global_state["G"][cols]
        G[0] = global_state["G"][0]
        G[n - 1] = global_state["G"][n - 1]
        return {"G": G, "cols": sorted(int(u) for u in units), "residual": 0.0}

    def input_bytes(self, n_units: int) -> int:
        return 8 * self.n * (n_units + 2)

    def result_bytes(self, n_units: int) -> int:
        return 8 * self.n * n_units

    def boundary_bytes(self, n_rows: int) -> int:
        return 8 * n_rows

    # -- pipeline execution -------------------------------------------------

    def sweep_first_boundary(self, local: dict, rep: int) -> np.ndarray:
        """Old values of my first owned column (sent to the left
        neighbour as its right halo for this sweep)."""
        G = local["G"]
        return G[self._cols(local)[0], :].copy()

    def set_right_halo(self, local: dict, rep: int, halo: np.ndarray) -> None:
        G = local["G"]
        G[self._cols(local)[-1] + 1, :] = halo

    def run_block(
        self,
        local: dict,
        rep: int,
        rows: tuple[int, int],
        left_halo: np.ndarray | None,
    ) -> np.ndarray:
        G = local["G"]
        jcols = self._cols(local)
        if left_halo is not None:
            G[jcols[0] - 1, rows[0] + 1 : rows[1] + 1] = left_halo
        self._update_strip(local, jcols, rows)
        return G[jcols[-1], rows[0] + 1 : rows[1] + 1].copy()

    def _update_strip(
        self, local: dict, jcols: Sequence[int], rows: tuple[int, int]
    ) -> None:
        """Update one strip of columns ``jcols``; in WHILE mode also fold
        its max |delta| into the sweep's local residual."""
        if self.tol is None:
            _sweep(local["G"], self._rows(rows), jcols)
        else:
            local["residual"] = _sweep_tracked(
                local["G"], self._rows(rows), jcols, local["residual"]
            )

    def sweep_residual(self, local: dict, rep: int) -> float | None:
        """Local max |delta| of the sweep just finished; resets for the
        next sweep."""
        if self.tol is None:
            return None
        res = local["residual"]
        local["residual"] = 0.0
        return res

    def catchup_and_refresh(
        self,
        local: dict,
        rep: int,
        units: np.ndarray,
        row_blocks: Sequence[tuple[int, int]],
    ) -> list[np.ndarray]:
        """Bring just-received (behind) columns up to date over the missed
        strips; my own last pre-existing column serves as their left halo
        (its values per strip are final), the payload halo as their right
        halo.  Returns refreshed boundary values per strip."""
        G = local["G"]
        jmoved = sorted(int(u) for u in units)
        refreshed = []
        for lo, hi in row_blocks:
            self._update_strip(local, jmoved, (lo, hi))
            refreshed.append(G[jmoved[-1], lo + 1 : hi + 1].copy())
        return refreshed

    # -- movement -------------------------------------------------------------

    def pack_units(self, local: dict, units: np.ndarray, ctx: dict) -> dict:
        G = local["G"]
        cols = local["cols"]
        units_l = sorted(int(u) for u in units)
        for u in units_l:
            if u not in cols:
                raise MovementError(f"packing unowned SOR column {u}")
        payload: dict[str, Any] = {"cols_data": G[units_l, :].copy()}
        remaining = [u for u in cols if u not in units_l]
        if not remaining:
            raise MovementError(
                f"SOR slave cannot give away all columns "
                f"(owned={cols}, giving={units_l})"
            )
        if ctx.get("direction") == "to_left":
            # Snapshot of my new first column: its values at rows the
            # receiver will catch up over (and beyond) are still the old
            # ones, exactly what the right halo needs.
            payload["halo"] = G[remaining[0], :].copy()
        local["cols"] = remaining
        return payload

    def unpack_units(
        self, local: dict, units: np.ndarray, payload: dict, ctx: dict
    ) -> None:
        G = local["G"]
        units_l = sorted(int(u) for u in units)
        G[units_l, :] = payload["cols_data"]
        local["cols"] = sorted(set(local["cols"]) | set(units_l))
        if ctx.get("direction") == "from_right":
            G[units_l[-1] + 1, :] = payload["halo"]

    def extract_units(self, local: dict, units: np.ndarray, ctx: dict) -> dict:
        """Checkpoint-rollback extraction: read-only, and — unlike
        :meth:`pack_units` — allowed to cover a dead slave's *entire*
        ownership.  No halo travels: rollback grants restart at the top
        of the barrier sweep, where halo values flow through the normal
        sweep-start exchange."""
        G = local["G"]
        units_l = sorted(int(u) for u in units)
        return {"cols_data": G[units_l, :].copy()}

    # -- gather -------------------------------------------------------------

    def local_result(self, local: dict) -> np.ndarray:
        return local["G"]

    def merge_results(self, global_state: dict, parts: Mapping[int, Any]) -> np.ndarray:
        n = self.n
        G = np.zeros((n, n))
        G[0] = global_state["G"][0]
        G[n - 1] = global_state["G"][n - 1]
        for _pid, (units, data) in parts.items():
            cols = [int(u) for u in units]
            if cols:
                G[cols] = data[cols]
        return G

    def sequential(self, global_state: dict) -> np.ndarray:
        if self.tol is not None:
            G, _sweeps = sor_sequential_convergent(
                global_state["G"], self.maxiter, self.tol
            )
            return G
        return sor_sequential(global_state["G"], self.maxiter)


def sor_application() -> Application:
    """IR + directive + kernels bundle for SOR (static repetitions)."""
    return Application(
        name="sor",
        program=sor_program(),
        directive=sor_directive(),
        kernels_factory=lambda params: SorKernels(params),
    )


def build_sor(
    n: int = 2000,
    maxiter: int = 15,
    tol: float | None = None,
    grain: GrainConfig | None = None,
    n_slaves_hint: int = 8,
) -> ExecutionPlan:
    """Compile the SOR application (the paper uses n=2000).

    With ``tol`` set, the sweep loop becomes a data-dependent WHILE
    (converge to ``max|delta| <= tol``, capped at ``maxiter`` sweeps).
    """
    dynamic = tol is not None
    app = Application(
        name="sor",
        program=sor_program(dynamic=dynamic),
        directive=sor_directive(),
        kernels_factory=lambda params: SorKernels(params),
    )
    params: dict = {"n": n, "maxiter": maxiter}
    if dynamic:
        params["tol"] = tol
    return app.compile(params, grain=grain, n_slaves_hint=n_slaves_hint)
