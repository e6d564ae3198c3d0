"""SPMD code generation with load-balancing support.

``compile_program`` performs the compiler tasks of paper Table 2:

1. analyze dependences and extract application features,
2. choose the canonical SPMD schedule shape (parallel map / pipeline /
   reduction front),
3. restrict work movement when loop-carried dependences demand it,
4. strip-mine the pipelined dimension for granularity control,
5. place load-balancing hooks by the Section 4.2 cost rule,
6. compute per-iteration cost and movement payload models,
7. emit the :class:`~repro.compiler.plan.ExecutionPlan` plus a rendered
   source listing of the generated slave program (Figure 3 analogue)
   and the master control loop that mirrors its structure (Section 4.1).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..config import GrainConfig
from ..errors import CompileError
from .costmodel import cost_of_body, distributed_iteration_cost
from .deps import DependenceInfo, analyze_dependences
from .features import extract_features
from .hooks import HookLevel, place_hooks
from .ir import (
    Assign,
    Conditional,
    Directive,
    Loop,
    Program,
    Stmt,
)
from .plan import (
    AppKernels,
    ChannelSpec,
    ExecutionPlan,
    LoopShape,
    MovementSpec,
    StripSpec,
)

__all__ = ["compile_program", "derive_channels", "select_shape"]

#: Operations one non-firing load-balancing hook costs (a counter check).
HOOK_OVERHEAD_OPS = 50.0
#: Hooks go at the deepest loop level whose hook overhead stays within
#: this fraction of the work between hooks (Section 4.2).
HOOK_COST_FRACTION = 0.01


def select_shape(
    deps: DependenceInfo, program: Program, directive: Directive
) -> LoopShape:
    """Choose the canonical schedule shape from analysis results."""
    if deps.loop_carried and deps.pipeline_vars:
        return LoopShape.PIPELINE
    if deps.loop_carried:
        raise CompileError(
            "loop-carried dependences without an inner pipelinable "
            "dimension cannot be parallelized by this compiler"
        )
    dist_loop = program.find_loop(directive.distribute)
    path = program.loop_path(directive.distribute)
    enclosing_vars = [lp.index for lp in path[:-1]]
    varying = bool(enclosing_vars) and (
        dist_loop.lower.depends_on(enclosing_vars)
        or dist_loop.upper.depends_on(enclosing_vars)
    )
    if deps.nonlocal_reads or varying:
        return LoopShape.REDUCTION_FRONT
    return LoopShape.PARALLEL_MAP


def derive_channels(
    deps: DependenceInfo,
    directive: Directive,
    shape: LoopShape,
    restricted: bool,
) -> tuple[ChannelSpec, ...]:
    """The communication channels the generated program must provide.

    Derived entirely from the dependence analysis (the same reasoning the
    paper's compiler uses to insert communication, Sections 4.5-4.6):

    - a positive carried distance ``+d`` means iteration ``j`` reads the
      *updated* values of iteration ``j-d`` — under a block distribution
      the owner of ``j-d`` pipelines them rightward (``boundary``);
    - a negative carried distance ``-d`` means iteration ``j`` reads the
      *old* values of iteration ``j+d`` — exchanged leftward once per
      sweep before anyone overwrites them (``halo``);
    - a non-local read (subscript independent of the distributed index)
      is satisfied by an owner-computed ``front`` broadcast;
    - work movement always has a channel, ``adjacent`` when loop-carried
      dependences restrict it, ``any`` otherwise.
    """
    channels: list[ChannelSpec] = []
    arrays = tuple(name for name, _dim in directive.distributed_arrays)
    primary = arrays[0] if arrays else None
    for dist in deps.carried_distances:
        if dist > 0:
            channels.append(
                ChannelSpec(
                    kind="boundary",
                    direction="to_right",
                    distance=dist,
                    array=primary,
                    note=f"flow dependence at distance +{dist}",
                )
            )
        else:
            channels.append(
                ChannelSpec(
                    kind="halo",
                    direction="to_left",
                    distance=dist,
                    array=primary,
                    note=f"anti dependence at distance {dist}",
                )
            )
    seen_fronts: set[str] = set()
    for read in deps.nonlocal_reads:
        if read.array in seen_fronts:
            continue
        seen_fronts.add(read.array)
        channels.append(
            ChannelSpec(
                kind="front",
                direction="broadcast",
                array=read.array,
                note=f"non-local read {read}",
            )
        )
    channels.append(
        ChannelSpec(
            kind="move",
            direction="adjacent" if restricted else "any",
            note="work movement (Section 4.5)",
        )
    )
    return tuple(channels)


def _unit_bytes(
    program: Program, directive: Directive, params: Mapping[str, float]
) -> int:
    """Bytes of distributed data owned per distributed-loop iteration."""
    total = 0
    for name, dim in directive.distributed_arrays:
        decl = program.array(name)
        if dim >= decl.rank:
            raise CompileError(f"distributed dim {dim} out of range for {name}")
        slice_elems = 1.0
        for d, extent in enumerate(decl.extents):
            if d == dim:
                continue
            slice_elems *= float(extent.evaluate(params))
        total += int(slice_elems) * decl.element_bytes
    if total <= 0:
        raise CompileError("no distributed arrays declared; movement size unknown")
    return total


def _rep_var(
    program: Program, directive: Directive, pipeline_vars: tuple[str, ...] = ()
) -> str | None:
    """The sequential loop whose iterations repeat the distributed loop.

    Pipelined dimensions do not count as repetitions: in SOR the nest is
    ``iter -> i (pipelined) -> j (distributed)`` and the repetition loop
    is ``iter``.
    """
    path = program.loop_path(directive.distribute)
    enclosing = [lp.index for lp in path[:-1] if lp.index not in pipeline_vars]
    if enclosing:
        return enclosing[-1]
    return directive.repetitions


def _reps_count(
    program: Program,
    directive: Directive,
    params: Mapping[str, float],
    pipeline_vars: tuple[str, ...] = (),
) -> int:
    rep_var = _rep_var(program, directive, pipeline_vars)
    if rep_var is None:
        return 1
    try:
        rep_loop = program.find_loop(rep_var)
    except CompileError:
        return int(params.get("reps", 1))
    return int(rep_loop.trip_count().evaluate(params))


def _front_cost_fn(
    program: Program,
    directive: Directive,
    params: Mapping[str, float],
    rep_var: str | None,
) -> Callable[[int], float] | None:
    """Cost of owner-computed statements inside the repetition loop but
    outside the distributed loop (e.g. LU pivot normalisation)."""
    if rep_var is None:
        return None
    rep_loop = program.find_loop(rep_var)
    outside: list[Stmt] = [
        s
        for s in rep_loop.body
        if not (isinstance(s, Loop) and s.index == directive.distribute)
    ]
    cost = cost_of_body(tuple(outside))

    def front_cost(rep: int) -> float:
        return cost.evaluate({**params, rep_var: rep})

    return front_cost if cost.terms else None


def _hook_levels(
    shape: LoopShape,
    rep_var: str | None,
    per_unit_ops: float,
    owned: int,
    pipeline_total: int,
) -> list[HookLevel]:
    """Candidate hook positions with estimated ops between firings.

    ``per_unit_ops`` is the cost of one full distributed iteration in one
    repetition (for SOR: a whole column over one sweep); ``owned`` is the
    expected per-slave iteration count; ``pipeline_total`` the pipelined
    dimension's trip count (1 for non-pipelined shapes).
    """
    levels: list[HookLevel] = []
    if shape is LoopShape.PARALLEL_MAP:
        levels.append(
            HookLevel("after each distributed iteration", per_unit_ops, depth=1)
        )
        if rep_var is not None:
            levels.append(
                HookLevel(
                    f"after each {rep_var} iteration",
                    per_unit_ops * owned,
                    depth=0,
                )
            )
    elif shape is LoopShape.PIPELINE:
        # Deepest: after each element; then after each pipelined row
        # (Figure 3b's lbhook1); then after each strip block (Figure 3c's
        # lbhook1a — ops estimated from the Section 4.4 startup sizing of
        # ~150 ms on the reference CPU); then per sweep (lbhook0).
        per_row_ops = per_unit_ops * owned / max(1, pipeline_total)
        per_elem_ops = per_row_ops / max(1, owned)
        est_block_ops = max(per_row_ops, 0.15 * 1.0e6)
        levels.append(HookLevel("after each element (lbhook2)", per_elem_ops, depth=4))
        levels.append(
            HookLevel("after each pipelined row (lbhook1)", per_row_ops, depth=3)
        )
        levels.append(
            HookLevel("after each strip block (lbhook1a)", est_block_ops, depth=2)
        )
        levels.append(
            HookLevel("after each sweep (lbhook0)", per_unit_ops * owned, depth=0)
        )
    else:  # REDUCTION_FRONT
        levels.append(
            HookLevel("after each distributed iteration", per_unit_ops, depth=2)
        )
        levels.append(
            HookLevel(
                f"after each {rep_var} iteration",
                per_unit_ops * owned,
                depth=1,
            )
        )
    return levels


def compile_program(
    program: Program,
    directive: Directive,
    kernels: AppKernels,
    params: Mapping[str, float],
    grain: GrainConfig | None = None,
    n_slaves_hint: int = 8,
) -> ExecutionPlan:
    """Compile a sequential program into a load-balanced SPMD plan."""
    grain = grain or GrainConfig()
    params = dict(params)
    deps = analyze_dependences(program, directive)
    features = extract_features(program, directive, deps)
    shape = select_shape(deps, program, directive)

    d = directive.distribute
    dist_loop = program.find_loop(d)
    rep_var = _rep_var(program, directive, deps.pipeline_vars)
    reps = _reps_count(program, directive, params, deps.pipeline_vars)

    # Global unit id space: [0, upper) at the first repetition; shrinking
    # lower bounds are expressed through unit_domain (active slices, 4.7).
    bind0 = {**params}
    if rep_var is not None:
        bind0[rep_var] = 0
    for pv in deps.pipeline_vars:
        bind0[pv] = 0
    n_units = int(dist_loop.upper.evaluate(bind0))
    if shape is LoopShape.REDUCTION_FRONT:
        # Front data (e.g. LU's pivot columns) occupies unit ids below the
        # first repetition's active domain; those units need owners too.
        unit_lo = 0
    else:
        unit_lo = int(dist_loop.lower.evaluate(bind0))
    if n_units - unit_lo < 1:
        raise CompileError(f"empty distributed loop: [{unit_lo}, {n_units})")

    # Cost of one FULL distributed iteration in one repetition.  For a
    # pipelined nest the distributed loop body runs once per pipelined
    # index, so the column cost is the body cost times the pipelined trip
    # count.
    unit_cost_expr = distributed_iteration_cost(program, directive)
    strip = None
    if shape is LoopShape.PIPELINE:
        if not deps.pipeline_vars:
            raise CompileError("pipeline shape without a pipelined dimension")
        pvar = deps.pipeline_vars[0]
        ploop = program.find_loop(pvar)
        bind_mid = dict(bind0)
        total = int(ploop.trip_count().evaluate(bind_mid))
        strip = StripSpec(
            loop_var=pvar, total=total, block_size=grain.block_size_override
        )
        unit_cost_expr = unit_cost_expr.times_affine(ploop.trip_count())

    def bind(rep: int) -> dict[str, float]:
        bindings = {**params}
        if rep_var is not None:
            bindings[rep_var] = rep
        for pv in deps.pipeline_vars:
            bindings.setdefault(pv, 0)
        return bindings

    # Every other variable is bound to a constant, so the unit cost and
    # domain are memoized on the repetition and unit only where their
    # expressions read them: LU's cost reads the repetition, MM's and
    # SOR's neither.
    cost_vars = unit_cost_expr.variables()
    cost_reads_rep = rep_var is not None and rep_var in cost_vars
    cost_reads_unit = d in cost_vars
    costs: dict[tuple[int | None, int | None], float] = {}

    def unit_cost(rep: int, unit: int) -> float:
        key = (rep if cost_reads_rep else None, unit if cost_reads_unit else None)
        if key not in costs:
            costs[key] = unit_cost_expr.evaluate({**bind(rep), d: unit})
        return costs[key]

    varying_bounds = features.varying_loop_bounds
    bound_vars = dist_loop.lower.variables() | dist_loop.upper.variables()
    domain_reads_rep = rep_var is not None and rep_var in bound_vars
    domains: dict[int | None, tuple[int, int]] = {}

    def unit_domain(rep: int) -> tuple[int, int]:
        key = rep if domain_reads_rep else None
        if key not in domains:
            bindings = bind(rep)
            lo = int(dist_loop.lower.evaluate(bindings))
            hi = int(dist_loop.upper.evaluate(bindings))
            domains[key] = (lo, hi)
        return domains[key]

    movement = MovementSpec(
        restricted=deps.movement_restricted,
        unit_bytes=_unit_bytes(program, directive, params),
    )

    owned_hint = max(1, (n_units - unit_lo) // max(1, n_slaves_hint))
    per_unit_ops = max(1.0, unit_cost(reps // 2, n_units // 2))
    hook_placement = place_hooks(
        _hook_levels(
            shape,
            rep_var,
            per_unit_ops,
            owned_hint,
            strip.total if strip is not None else 1,
        ),
        hook_cost_ops=HOOK_OVERHEAD_OPS,
        max_cost_fraction=HOOK_COST_FRACTION,
    )

    front_cost = None
    if shape is LoopShape.REDUCTION_FRONT:
        front_cost = _front_cost_fn(program, directive, params, rep_var)
        if front_cost is None:
            front_cost = lambda rep: 0.0  # noqa: E731 - trivial default

    dynamic_reps = False
    if rep_var is not None:
        try:
            dynamic_reps = program.find_loop(rep_var).is_while
        except CompileError:
            dynamic_reps = False

    source = render_source(
        program, directive, shape, hook_placement.level.name, strip, deps
    )

    return ExecutionPlan(
        name=program.name,
        shape=shape,
        params={k: float(v) for k, v in params.items()},
        n_units=n_units,
        reps=reps,
        unit_cost=unit_cost,
        movement=movement,
        hooks=hook_placement,
        kernels=kernels,
        deps=deps,
        features=features,
        source=source,
        comms=derive_channels(deps, directive, shape, deps.movement_restricted),
        program=program,
        directive=directive,
        strip=strip,
        front_cost=front_cost,
        unit_domain=(
            unit_domain
            if (varying_bounds or shape is LoopShape.REDUCTION_FRONT)
            else None
        ),
        unit_lo=unit_lo,
        cost_uniform_in_unit=d not in unit_cost_expr.variables(),
        dynamic_reps=dynamic_reps,
        convergence_tol=(
            float(params["tol"]) if dynamic_reps and "tol" in params else None
        ),
    )


# ----------------------------------------------------------------------
# Source rendering (Figure 3 analogue)
# ----------------------------------------------------------------------


def _render_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(s, Assign):
        reads = " , ".join(str(r) for r in s.reads)
        label = f"  /* {s.label} */" if s.label else ""
        out.append(f"{pad}{s.target} = f({reads});{label}")
    elif isinstance(s, Conditional):
        out.append(f"{pad}if ({s.condition}) {{")
        for b in s.body:
            _render_stmt(b, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(s, Loop):
        out.append(
            f"{pad}for ({s.index} = {s.lower}; {s.index} < {s.upper}; {s.index}++) {{"
        )
        for b in s.body:
            _render_stmt(b, indent + 1, out)
        out.append(f"{pad}}}")


def render_source(
    program: Program,
    directive: Directive,
    shape: LoopShape,
    hook_level_name: str,
    strip: StripSpec | None,
    deps: DependenceInfo,
) -> str:
    """Render the generated slave program plus the master control loop.

    The listing is explanatory (like the paper's Figure 3), showing where
    the compiler inserted communication, strip mining, and lb hooks.
    """
    out: list[str] = []
    out.append(f"/* generated slave program for {program.name} */")
    out.append(f"/* schedule shape: {shape.value} */")
    out.append(f"/* distributed loop: {directive.distribute} (owner computes) */")
    if deps.movement_restricted:
        out.append("/* work movement RESTRICTED to adjacent slaves "
                   "(loop-carried dependences) */")
    else:
        out.append("/* work movement unrestricted (no loop-carried dependences) */")
    if strip is not None:
        out.append(
            f"/* strip mining: loop {strip.loop_var} blocked by BS "
            f"(BS set at startup, Section 4.4) */"
        )
    out.append(f"/* lb hook placed: {hook_level_name} */")
    out.append("")
    if shape is LoopShape.PIPELINE:
        out.append("send(left, first_owned_column);        /* sweep-start halo */")
        out.append("receive(right, right_halo);")
        out.append(
            f"for ({strip.loop_var}0 = 0; "
            f"{strip.loop_var}0 < n_blocks; {strip.loop_var}0++) {{"
        )
        out.append("    if (pid != 0) receive(left, left_halo_block);")
        out.append(f"    /* strip of {strip.loop_var}: owned columns updated */")
        for s in program.find_loop(directive.distribute).body:
            _render_stmt(s, 1, out)
        out.append("    if (pid != pcount-1) send(right, boundary_block);")
        out.append(
            "    lbhook();                          /* " + hook_level_name + " */"
        )
        out.append("}")
    elif shape is LoopShape.REDUCTION_FRONT:
        rep_var = program.loop_path(directive.distribute)[-2].index
        out.append(f"for ({rep_var} = ...; ...; {rep_var}++) {{")
        out.append(f"    if (owns({rep_var})) {{ compute_front(); broadcast(front); }}")
        out.append("    else receive_broadcast(front);")
        out.append(f"    for ({directive.distribute} in my active units) {{")
        for s in program.find_loop(directive.distribute).body:
            _render_stmt(s, 2, out)
        out.append("    }")
        out.append("    mark_inactive(" + rep_var + ");     /* active slices, 4.7 */")
        out.append(
            "    lbhook();                          /* " + hook_level_name + " */"
        )
        out.append("}")
    else:
        out.append(f"for ({directive.distribute} in my units) {{")
        for s in program.find_loop(directive.distribute).body:
            _render_stmt(s, 1, out)
        out.append(
            "    lbhook();                          /* " + hook_level_name + " */"
        )
        out.append("}")
    out.append("")
    out.append("/* master control loop mirrors the slave loop structure (4.1):")
    out.append("   it runs the same number of lb phases so termination and")
    out.append("   WHILE-loop condition data arrive in order. */")
    return "\n".join(out)
