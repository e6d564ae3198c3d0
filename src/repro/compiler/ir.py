"""Affine loop-nest IR.

The IR represents the *sequential* source the paper's compiler starts
from: perfectly analysable FOR loops with affine bounds and affine array
subscripts, assignments whose operand lists drive dependence analysis,
and conditionals (which make iteration cost data-dependent, one of the
Table 1 features).

Only what dependence analysis and cost estimation need is modelled:
subscripts and bounds are affine forms over loop variables and symbolic
parameters; right-hand sides are just lists of array reads plus an
operation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from ..errors import CompileError

__all__ = [
    "Affine",
    "var",
    "const",
    "ArrayRef",
    "ArrayDecl",
    "Assign",
    "Conditional",
    "Loop",
    "Program",
    "Directive",
]

Number = Union[int, float]


@dataclass(frozen=True)
class Affine:
    """An affine form ``constant + sum(coeff * variable)``.

    Variables are loop indices (e.g. ``i``) or symbolic parameters
    (e.g. the problem size ``n``).  Affine forms are immutable and
    hashable; arithmetic with ints and other affine forms is supported as
    long as the result stays affine.
    """

    constant: Number = 0
    terms: tuple[tuple[str, Number], ...] = ()

    @staticmethod
    def _normalize(terms: Mapping[str, Number]) -> tuple[tuple[str, Number], ...]:
        return tuple(sorted((v, c) for v, c in terms.items() if c != 0))

    @classmethod
    def build(
        cls, constant: Number = 0, terms: Mapping[str, Number] | None = None
    ) -> "Affine":
        return cls(constant, cls._normalize(terms or {}))

    def coeff(self, name: str) -> Number:
        """Coefficient of variable ``name`` (0 if absent)."""
        for v, c in self.terms:
            if v == name:
                return c
        return 0

    def variables(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.terms)

    def is_constant(self) -> bool:
        return not self.terms

    def depends_on(self, names: Sequence[str]) -> bool:
        vs = self.variables()
        return any(n in vs for n in names)

    def substitute(self, bindings: Mapping[str, Number]) -> "Affine":
        """Replace variables with numeric values."""
        const_part: Number = self.constant
        new_terms: dict[str, Number] = {}
        for v, c in self.terms:
            if v in bindings:
                const_part += c * bindings[v]
            else:
                new_terms[v] = new_terms.get(v, 0) + c
        return Affine.build(const_part, new_terms)

    def evaluate(self, bindings: Mapping[str, Number]) -> Number:
        """Fully evaluate; raises if any variable is unbound.

        Adds the terms in the order :meth:`substitute` does, so the value
        is bit-equal to ``self.substitute(bindings).constant``.
        """
        value: Number = self.constant
        unbound: list[str] = []
        for v, c in self.terms:
            if v in bindings:
                value += c * bindings[v]
            else:
                unbound.append(v)
        if unbound:
            raise CompileError(f"unbound variables {unbound} in {self}")
        return value

    # ---- arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(other: "Affine | Number") -> "Affine":
        if isinstance(other, Affine):
            return other
        if isinstance(other, (int, float)):
            return Affine(other, ())
        raise TypeError(f"cannot coerce {other!r} to Affine")

    def __add__(self, other: "Affine | Number") -> "Affine":
        o = self._coerce(other)
        terms = dict(self.terms)
        for v, c in o.terms:
            terms[v] = terms.get(v, 0) + c
        return Affine.build(self.constant + o.constant, terms)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine.build(-self.constant, {v: -c for v, c in self.terms})

    def __sub__(self, other: "Affine | Number") -> "Affine":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "Affine | Number") -> "Affine":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "Affine | Number") -> "Affine":
        if isinstance(other, Affine):
            if other.is_constant():
                other = other.constant
            elif self.is_constant():
                return other * self.constant
            else:
                raise CompileError(f"non-affine product: ({self}) * ({other})")
        if not isinstance(other, (int, float)):
            raise TypeError(f"cannot multiply Affine by {other!r}")
        return Affine.build(
            self.constant * other, {v: c * other for v, c in self.terms}
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for v, c in self.terms:
            if c == 1:
                parts.append(v)
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        if self.constant or not parts:
            parts.append(str(self.constant))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def var(name: str) -> Affine:
    """Affine form for a single variable."""
    return Affine.build(0, {name: 1})


def const(value: Number) -> Affine:
    """Affine form for a constant."""
    return Affine.build(value, {})


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference, e.g. ``b[j-1][i]``."""

    array: str
    index: tuple[Affine, ...]

    def __str__(self) -> str:
        return self.array + "".join(f"[{e}]" for e in self.index)


@dataclass(frozen=True)
class ArrayDecl:
    """Array declaration: name, per-dimension extents (affine in params),
    and element size in bytes."""

    name: str
    extents: tuple[Affine, ...]
    element_bytes: int = 8

    @property
    def rank(self) -> int:
        return len(self.extents)


@dataclass(frozen=True)
class Assign:
    """``target = f(reads)`` costing ``ops`` operations per execution."""

    target: ArrayRef
    reads: tuple[ArrayRef, ...] = ()
    ops: float = 1.0
    label: str = ""

    def refs(self) -> Iterator[tuple[ArrayRef, bool]]:
        """All refs as ``(ref, is_write)``."""
        yield self.target, True
        for r in self.reads:
            yield r, False


@dataclass(frozen=True)
class Conditional:
    """A data-dependent guard around statements.

    The predicate itself is opaque (described by ``condition``); its
    presence is what matters for the Table 1 "data-dependent iteration
    size" feature.  ``probability`` scales the expected cost of the body.
    """

    condition: str
    body: tuple["Stmt", ...]
    probability: float = 0.5


@dataclass(frozen=True)
class Loop:
    """``for var in [lower, upper)``; ``upper`` is exclusive.

    A data-dependent WHILE loop (paper Section 4.1: "the master must
    invoke the central load balancing code the correct number of times
    before receiving the data for testing the WHILE loop conditions") is
    expressed as a bounded loop carrying its condition: the bounds give
    the maximum trip count, and ``while_condition`` names the
    data-dependent exit test evaluated each trip.
    """

    index: str
    lower: Affine
    upper: Affine
    body: tuple["Stmt", ...]
    while_condition: str | None = None

    def trip_count(self) -> Affine:
        """Trip count (the maximum for WHILE loops)."""
        return self.upper - self.lower

    @property
    def is_while(self) -> bool:
        return self.while_condition is not None


Stmt = Union[Assign, Conditional, Loop]


@dataclass(frozen=True)
class Program:
    """A sequential loop-nest program plus its array declarations.

    ``params`` are symbolic sizes (e.g. ``("n",)``); ``body`` is the
    top-level statement list.
    """

    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    body: tuple[Stmt, ...]

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise CompileError(f"unknown array {name!r} in program {self.name!r}")

    def find_loop(self, index: str) -> Loop:
        """Locate the (unique) loop with the given index variable."""
        found = [lp for lp in iter_loops(self.body) if lp.index == index]
        if not found:
            raise CompileError(f"no loop over {index!r} in program {self.name!r}")
        if len(found) > 1:
            raise CompileError(f"multiple loops over {index!r} in {self.name!r}")
        return found[0]

    def loop_path(self, index: str) -> tuple[Loop, ...]:
        """Loops from the outermost level down to (and including) the loop
        over ``index``."""
        path = _find_path(self.body, index)
        if path is None:
            raise CompileError(f"no loop over {index!r} in program {self.name!r}")
        return path


def iter_loops(stmts: Sequence[Stmt]) -> Iterator[Loop]:
    """All loops in a statement tree, preorder."""
    for s in stmts:
        if isinstance(s, Loop):
            yield s
            yield from iter_loops(s.body)
        elif isinstance(s, Conditional):
            yield from iter_loops(s.body)


def iter_assigns(stmts: Sequence[Stmt]) -> Iterator[Assign]:
    """All assignments in a statement tree, preorder."""
    for s in stmts:
        if isinstance(s, Assign):
            yield s
        elif isinstance(s, Loop):
            yield from iter_assigns(s.body)
        elif isinstance(s, Conditional):
            yield from iter_assigns(s.body)


def iter_conditionals(stmts: Sequence[Stmt]) -> Iterator[Conditional]:
    """All conditionals in a statement tree, preorder."""
    for s in stmts:
        if isinstance(s, Conditional):
            yield s
            yield from iter_conditionals(s.body)
        elif isinstance(s, Loop):
            yield from iter_conditionals(s.body)


def _find_path(stmts: Sequence[Stmt], index: str) -> tuple[Loop, ...] | None:
    for s in stmts:
        if isinstance(s, Loop):
            if s.index == index:
                return (s,)
            sub = _find_path(s.body, index)
            if sub is not None:
                return (s,) + sub
        elif isinstance(s, Conditional):
            sub = _find_path(s.body, index)
            if sub is not None:
                return sub
    return None


@dataclass(frozen=True)
class Directive:
    """Programmer-style parallelization directive (the paper assumes
    Fortran-D-like alignment/distribution directives as input).

    Attributes:
        distribute: index variable of the loop whose iterations are
            distributed across slaves.
        distributed_arrays: arrays distributed along the dimension indexed
            (directly) by the distributed loop variable; other arrays are
            replicated.
        repetitions: name of the enclosing loop that repeats the
            distributed loop, or None.
    """

    distribute: str
    distributed_arrays: tuple[tuple[str, int], ...] = ()
    repetitions: str | None = None

    def distributed_dim(self, array: str) -> int | None:
        for name, dim in self.distributed_arrays:
            if name == array:
                return dim
        return None
