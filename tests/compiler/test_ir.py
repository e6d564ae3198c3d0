"""Unit tests for the affine loop-nest IR."""

import pytest
from hypothesis import given, strategies as st

from repro.compiler.ir import (
    Affine,
    ArrayDecl,
    ArrayRef,
    Assign,
    Conditional,
    Directive,
    Loop,
    Program,
    const,
    var,
    iter_assigns,
    iter_conditionals,
    iter_loops,
)
from repro.errors import CompileError


class TestAffine:
    def test_constant(self):
        c = const(5)
        assert c.is_constant()
        assert c.evaluate({}) == 5

    def test_var(self):
        v = var("i")
        assert not v.is_constant()
        assert v.evaluate({"i": 7}) == 7
        assert v.coeff("i") == 1
        assert v.coeff("j") == 0

    def test_arithmetic(self):
        i, j = var("i"), var("j")
        e = 2 * i + j - 3
        assert e.evaluate({"i": 4, "j": 1}) == 6
        assert e.coeff("i") == 2
        assert e.coeff("j") == 1
        assert e.constant == -3

    def test_sub_and_neg(self):
        i = var("i")
        e = 10 - i
        assert e.evaluate({"i": 3}) == 7
        assert (-e).evaluate({"i": 3}) == -7

    def test_terms_cancel(self):
        i = var("i")
        e = i - i
        assert e.is_constant()
        assert e.constant == 0

    def test_mul_by_constant_affine(self):
        i = var("i")
        e = i * const(3)
        assert e.coeff("i") == 3

    def test_nonaffine_product_rejected(self):
        with pytest.raises(CompileError):
            _ = var("i") * var("j")

    def test_bad_multiplier_type(self):
        with pytest.raises(TypeError):
            _ = var("i") * "x"

    def test_substitute_partial(self):
        e = var("i") + var("n")
        e2 = e.substitute({"n": 10})
        assert e2.variables() == frozenset({"i"})
        assert e2.evaluate({"i": 1}) == 11

    def test_evaluate_unbound_raises(self):
        with pytest.raises(CompileError):
            var("i").evaluate({})
        e = 3 * var("z") + var("a") + 2 * var("m") - 1
        with pytest.raises(CompileError) as exc:
            e.evaluate({"m": 2})
        assert str(exc.value).startswith("unbound variables ['a', 'z'] in ")

    @given(
        st.floats(-1e6, 1e6),
        st.dictionaries(
            st.sampled_from("ijkn"), st.floats(-1e3, 1e3), min_size=1
        ),
        st.floats(-1e6, 1e6),
    )
    def test_evaluate_bit_equal_to_substitute(self, c0, coeffs, x):
        e = Affine.build(c0, coeffs)
        bindings = {v: x * (k + 1) for k, v in enumerate(sorted(coeffs))}
        assert e.evaluate(bindings) == e.substitute(bindings).constant

    def test_depends_on(self):
        e = var("i") + 2 * var("k")
        assert e.depends_on(["k"])
        assert not e.depends_on(["j"])

    def test_str_readable(self):
        assert str(var("i") - 1) == "i - 1"
        assert str(const(0)) == "0"

    def test_hashable_and_equal(self):
        assert var("i") + 1 == var("i") + 1
        assert hash(var("i") + 1) == hash(var("i") + 1)

    @given(
        a=st.integers(-5, 5),
        b=st.integers(-5, 5),
        i=st.integers(-10, 10),
    )
    def test_affine_evaluation_linear(self, a, b, i):
        e = a * var("i") + b
        assert e.evaluate({"i": i}) == a * i + b


def make_simple_program():
    i, n = var("i"), var("n")
    body = Loop(
        "i",
        const(0),
        n,
        (
            Assign(ArrayRef("x", (i,)), (ArrayRef("y", (i,)),), ops=1.0),
        ),
    )
    return Program(
        name="p",
        params=("n",),
        arrays=(ArrayDecl("x", (n,)), ArrayDecl("y", (n,))),
        body=(body,),
    )


class TestProgram:
    def test_find_loop(self):
        p = make_simple_program()
        lp = p.find_loop("i")
        assert lp.index == "i"

    def test_find_missing_loop(self):
        with pytest.raises(CompileError):
            make_simple_program().find_loop("zz")

    def test_array_lookup(self):
        p = make_simple_program()
        assert p.array("x").rank == 1
        with pytest.raises(CompileError):
            p.array("nope")

    def test_loop_path_nested(self):
        i, j, n = var("i"), var("j"), var("n")
        inner = Loop("j", const(0), n, (Assign(ArrayRef("x", (j,)), ()),))
        outer = Loop("i", const(0), n, (inner,))
        p = Program("p", ("n",), (ArrayDecl("x", (n,)),), (outer,))
        path = p.loop_path("j")
        assert [lp.index for lp in path] == ["i", "j"]

    def test_iter_helpers(self):
        i, n = var("i"), var("n")
        cond = Conditional("x > 0", (Assign(ArrayRef("x", (i,)), ()),))
        lp = Loop("i", const(0), n, (cond,))
        p = Program("p", ("n",), (ArrayDecl("x", (n,)),), (lp,))
        assert len(list(iter_loops(p.body))) == 1
        assert len(list(iter_assigns(p.body))) == 1
        assert len(list(iter_conditionals(p.body))) == 1

    def test_trip_count(self):
        lp = make_simple_program().find_loop("i")
        assert lp.trip_count().evaluate({"n": 12}) == 12


class TestDirective:
    def test_distributed_dim(self):
        d = Directive(distribute="i", distributed_arrays=(("x", 0),))
        assert d.distributed_dim("x") == 0
        assert d.distributed_dim("y") is None
