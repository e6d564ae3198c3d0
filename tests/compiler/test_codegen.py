"""Code generation tests: shape selection, plan assembly, rendering."""

import pytest

from repro.apps import (
    build_adaptive,
    build_lu,
    build_matmul,
    build_particle,
    build_sor,
)
from repro.apps.lu import lu_directive, lu_program
from repro.apps.matmul import matmul_directive, matmul_program
from repro.apps.sor import sor_directive, sor_program
from repro.compiler.codegen import _rep_var, compile_program, select_shape
from repro.compiler.costmodel import distributed_iteration_cost
from repro.compiler.deps import analyze_dependences
from repro.compiler.ir import (
    ArrayDecl,
    ArrayRef,
    Assign,
    Directive,
    Loop,
    Program,
    const,
    var,
)
from repro.compiler.plan import AppKernels, LoopShape
from repro.errors import CompileError


class TestShapeSelection:
    def test_mm_is_parallel_map(self):
        p, d = matmul_program(), matmul_directive()
        assert select_shape(analyze_dependences(p, d), p, d) is LoopShape.PARALLEL_MAP

    def test_sor_is_pipeline(self):
        p, d = sor_program(), sor_directive()
        assert select_shape(analyze_dependences(p, d), p, d) is LoopShape.PIPELINE

    def test_lu_is_reduction_front(self):
        p, d = lu_program(), lu_directive()
        assert select_shape(analyze_dependences(p, d), p, d) is LoopShape.REDUCTION_FRONT

    def test_unpipelinable_carried_deps_rejected(self):
        i, n = var("i"), var("n")
        # x[i] = f(x[i-1]) with no other dimension to pipeline over.
        p = Program(
            "p",
            ("n",),
            (ArrayDecl("x", (n,)),),
            (Loop("i", const(0), n, (Assign(ArrayRef("x", (i,)), (ArrayRef("x", (i - 1,)),)),)),),
        )
        d = Directive("i", (("x", 0),))
        with pytest.raises(CompileError):
            select_shape(analyze_dependences(p, d), p, d)


class TestMatmulPlan:
    def setup_method(self):
        self.plan = build_matmul(n=64, reps=3)

    def test_unit_space(self):
        assert self.plan.unit_space() == (0, 64)
        assert self.plan.unit_count == 64

    def test_reps_from_directive_loop(self):
        assert self.plan.reps == 3

    def test_unit_cost(self):
        assert self.plan.unit_cost(0, 10) == pytest.approx(2 * 64 * 64)

    def test_cost_uniform(self):
        assert self.plan.cost_uniform_in_unit
        assert self.plan.units_cost(0, [1, 2, 3]) == pytest.approx(3 * 2 * 64 * 64)

    def test_total_ops(self):
        assert self.plan.total_ops() == pytest.approx(3 * 64 * 2 * 64 * 64)

    def test_movement_unit_bytes(self):
        # A row of a + a row of c = 2 * 64 * 8 bytes.
        assert self.plan.movement.unit_bytes == 2 * 64 * 8

    def test_source_mentions_shape(self):
        assert "parallel_map" in self.plan.source
        assert "unrestricted" in self.plan.source


class TestSorPlan:
    def setup_method(self):
        self.plan = build_sor(n=66, maxiter=4)

    def test_unit_space_is_interior_columns(self):
        assert self.plan.unit_space() == (1, 65)
        assert self.plan.unit_count == 64

    def test_strip_total_is_interior_rows(self):
        assert self.plan.strip.total == 64
        assert self.plan.strip.loop_var == "i"
        assert self.plan.strip.block_size is None  # resolved at startup

    def test_unit_cost_is_full_column_per_sweep(self):
        assert self.plan.unit_cost(0, 5) == pytest.approx(6 * 64)

    def test_restricted(self):
        assert self.plan.movement.restricted

    def test_reps(self):
        assert self.plan.reps == 4

    def test_source_shows_pipeline_artifacts(self):
        src = self.plan.source
        assert "strip mining" in src
        assert "halo" in src
        assert "RESTRICTED" in src

    def test_block_size_override(self):
        from repro.config import GrainConfig

        plan = build_sor(n=66, maxiter=2, grain=GrainConfig(block_size_override=7))
        assert plan.strip.block_size == 7


class TestLuPlan:
    def setup_method(self):
        self.plan = build_lu(n=50)

    def test_unit_space_includes_front_units(self):
        assert self.plan.unit_space() == (0, 50)

    def test_domain_shrinks(self):
        assert self.plan.domain(0) == (1, 50)
        assert self.plan.domain(10) == (11, 50)

    def test_reps(self):
        assert self.plan.reps == 49

    def test_front_cost(self):
        # Pivot scaling: (n - k - 1) ops.
        assert self.plan.front_cost(0) == pytest.approx(49)
        assert self.plan.front_cost(40) == pytest.approx(9)

    def test_cost_not_uniform_in_rep_but_uniform_in_unit(self):
        assert self.plan.cost_uniform_in_unit  # same cost for all j at step k
        assert self.plan.unit_cost(0, 10) != self.plan.unit_cost(30, 40)

    def test_total_ops_matches_closed_form(self):
        n = 50
        expected = sum(
            2 * (n - k - 1) * (n - k - 1) + (n - k - 1) for k in range(n - 1)
        )
        assert self.plan.total_ops() == pytest.approx(expected)

    def test_source_shows_broadcast(self):
        assert "broadcast" in self.plan.source
        assert "active slices" in self.plan.source


class TestCompileErrors:
    def test_empty_loop_rejected(self):
        i = var("i")
        p = Program(
            "p",
            (),
            (ArrayDecl("x", (const(8),)),),
            (Loop("i", const(0), const(0), (Assign(ArrayRef("x", (i,)), ()),)),),
        )
        with pytest.raises(CompileError):
            compile_program(p, Directive("i", (("x", 0),)), AppKernels(), {})

    def test_no_distributed_arrays_rejected(self):
        i = var("i")
        p = Program(
            "p",
            (),
            (ArrayDecl("x", (const(8),)),),
            (Loop("i", const(0), const(8), (Assign(ArrayRef("x", (i,)), ()),)),),
        )
        with pytest.raises(CompileError):
            compile_program(p, Directive("i", ()), AppKernels(), {})

    def test_bad_distributed_dim_rejected(self):
        i = var("i")
        p = Program(
            "p",
            (),
            (ArrayDecl("x", (const(8),)),),
            (Loop("i", const(0), const(8), (Assign(ArrayRef("x", (i,)), ()),)),),
        )
        with pytest.raises(CompileError):
            compile_program(p, Directive("i", (("x", 3),)), AppKernels(), {})


class TestMemoizedLookups:
    """``unit_cost`` and ``unit_domain`` are memoized on the variables
    their expressions read; every lookup, first or repeated, must equal a
    fresh symbolic evaluation exactly."""

    @pytest.mark.parametrize(
        "build",
        [build_matmul, build_sor, build_lu, build_adaptive, build_particle],
    )
    def test_lookups_equal_symbolic_evaluation(self, build):
        plan = build(n=24, n_slaves_hint=4)
        program, directive = plan.program, plan.directive
        pvars = plan.deps.pipeline_vars
        expr = distributed_iteration_cost(program, directive)
        if plan.shape is LoopShape.PIPELINE:
            expr = expr.times_affine(program.find_loop(pvars[0]).trip_count())
        rep_var = _rep_var(program, directive, pvars)
        loop = program.find_loop(directive.distribute)
        lo, hi = plan.unit_space()
        for _ in range(2):  # the second pass reads the memo
            for rep in range(plan.reps):
                bindings = dict(plan.params)
                if rep_var is not None:
                    bindings[rep_var] = rep
                for pv in pvars:
                    bindings.setdefault(pv, 0)
                if plan.unit_domain is not None:
                    assert plan.unit_domain(rep) == (
                        int(loop.lower.evaluate(bindings)),
                        int(loop.upper.evaluate(bindings)),
                    )
                for unit in range(lo, hi):
                    assert plan.unit_cost(rep, unit) == expr.evaluate(
                        {**bindings, directive.distribute: unit}
                    )
