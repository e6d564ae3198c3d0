"""Protocol lint (pass 4, ``RA4xx``): static send/receive pairing.

The generated program's correctness leans on *selective receive*: every
``Send`` tags its message, and the consumer names that tag in a ``Recv``
/ ``Poll``, an equality dispatch on ``msg.tag``, or a ``startswith``
family dispatch.  This pass parses the runtime sources (master, slave,
pipeline interpreters) with :mod:`ast`, resolves every tag expression to
its *tag family* (the :class:`~repro.runtime.protocol.Tags` constant or
constructor it came from), and pairs send sites with receive sites:

- a family that is sent but never selectively received is an orphan
  message — it sits in a mailbox forever (``RA401``);
- a family that is received but never sent blocks its consumer for good
  (``RA402``);
- a family declared in ``Tags`` but never used anywhere is a dead
  channel (``RA403``);
- a family consumed *only* through non-blocking polls may never actually
  be drained (``RA404``).

Tag families are derived from the ``Tags`` class itself (constants keep
their literal; constructors are probed with placeholder arguments and
the variable segments generalised), so the lint tracks protocol changes
without a hand-maintained table.

Below the tag level sits the *kind* sub-protocol: recovery control
(``lb.ctrl``) and checkpoint traffic (``lb.ckpt``) multiplex many
exchanges over one tag, dispatching on a ``kind`` string (``grant``,
``cancel_send``, ``ckpt``, ``rollback``, ``deposit``, ``manifest``,
``pull``, ...).  :func:`lint_kinds` pairs every constructed kind with a
receiver dispatch arm (``RA405``/``RA406``), so dropping a handler arm
for e.g. ``rollback`` is caught statically even though the ``lb.ctrl``
tag itself still has a selective receive.

:func:`check_protocol` runs both levels over all four control planes:
the base master/slave/pipeline protocol, the FT recovery messages, the
checkpoint exchanges (all in the runtime sources), and the hierarchical
``sc.*`` plane.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field

from .diagnostics import Diagnostic

__all__ = [
    "check_protocol",
    "lint_kinds",
    "lint_sources",
    "tag_families",
]

_DUMMY = 987654321  # placeholder argument, assumed absent from literals


@dataclass(frozen=True)
class _Family:
    """One tag family: an exact literal or a dotted prefix pattern."""

    key: str  # display key, e.g. "lb.status" or "pipe.bnd.*"
    prefix: str  # match prefix: full literal, or text before the "*"
    exact: bool

    def matches_literal_prefix(self, literal: str) -> bool:
        """Does a ``startswith(literal)`` dispatch select this family?"""
        return literal.startswith(self.prefix) or self.prefix.startswith(literal)


@dataclass
class _Sites:
    sends: list[str] = field(default_factory=list)
    recvs: list[str] = field(default_factory=list)  # blocking selective
    polls: list[str] = field(default_factory=list)  # non-blocking selective
    dispatches: list[str] = field(default_factory=list)  # ==/startswith/lambda


def tag_families(tags_cls: type | None = None) -> dict[str, _Family]:
    """Derive the tag families from the ``Tags`` class.

    Returns a mapping from the family key to its :class:`_Family`, keyed
    additionally by the ``Tags`` attribute name for AST resolution.
    """
    if tags_cls is None:
        from ..runtime.protocol import Tags

        tags_cls = Tags
    families: dict[str, _Family] = {}
    for name, value in vars(tags_cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, str):
            families[name] = _Family(key=value, prefix=value, exact=True)
            continue
        fn = getattr(tags_cls, name, None)
        if not callable(fn):
            continue
        try:
            n_args = len(inspect.signature(fn).parameters)
            probe = fn(*([_DUMMY] * n_args))
        except Exception:  # pragma: no cover - unprobeable constructor
            continue
        if not isinstance(probe, str):
            continue
        segments = probe.split(".")
        fixed = []
        for seg in segments:
            if str(_DUMMY) in seg:
                break
            fixed.append(seg)
        prefix = ".".join(fixed) + "."
        families[name] = _Family(key=prefix + "*", prefix=prefix, exact=False)
    return families


class _SiteCollector(ast.NodeVisitor):
    """Collect send/receive sites of ``Tags``-tagged messages."""

    def __init__(self, module: str, families: dict[str, _Family]):
        self.module = module
        self.families = families
        self.sites: dict[str, _Sites] = {}
        self._lambda_depth = 0

    # -- helpers ---------------------------------------------------------

    def _locus(self, node: ast.AST) -> str:
        return f"{self.module}:{getattr(node, 'lineno', 0)}"

    def _sites_for(self, fam: _Family) -> _Sites:
        return self.sites.setdefault(fam.key, _Sites())

    def _resolve(self, node: ast.expr) -> _Family | None:
        """Resolve a tag expression to its family, if statically known."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Tags"
        ):
            return self.families.get(node.attr)
        if isinstance(node, ast.Call):
            return self._resolve(node.func)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A literal tag string: match it against the known families.
            for fam in self.families.values():
                if fam.exact and fam.prefix == node.value:
                    return fam
                if not fam.exact and node.value.startswith(fam.prefix):
                    return fam
        return None

    @staticmethod
    def _is_tag_ref(node: ast.expr) -> bool:
        """Heuristic: does this expression read a message tag?"""
        if isinstance(node, ast.Name) and node.id == "tag":
            return True
        return isinstance(node, ast.Attribute) and node.attr == "tag"

    # -- visitors --------------------------------------------------------

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Expected-tag closures (see PipelineSlave._recv_neighbor) build
        # the tag a selective receive waits for; any Tags use inside a
        # lambda therefore counts as a receive site.
        self._lambda_depth += 1
        self.generic_visit(node)
        self._lambda_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else None
        if name == "Send" and len(node.args) >= 2:
            fam = self._resolve(node.args[1])
            if fam is not None:
                self._sites_for(fam).sends.append(self._locus(node))
        elif name in ("Recv", "Poll") or (
            isinstance(fn, ast.Attribute) and fn.attr == "_wait"
        ):
            # `SlaveCore._wait` is the slave's one wait primitive: a
            # blocking selective Recv, or a poll loop on the same tag
            # under failure tolerance; its tag argument is a receive
            # site like Recv's.
            tag_expr = next(
                (kw.value for kw in node.keywords if kw.arg == "tag"), None
            )
            if tag_expr is None and len(node.args) >= 2:
                tag_expr = node.args[1]
            fam = self._resolve(tag_expr) if tag_expr is not None else None
            if fam is not None:
                bucket = self._sites_for(fam)
                (bucket.polls if name == "Poll" else bucket.recvs).append(
                    self._locus(node)
                )
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr == "startswith"
            and self._is_tag_ref(fn.value)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            literal = node.args[0].value
            for fam in self.families.values():
                if fam.matches_literal_prefix(literal):
                    self._sites_for(fam).dispatches.append(self._locus(node))
        elif self._lambda_depth > 0:
            fam = self._resolve(node)
            if fam is not None:
                self._sites_for(fam).dispatches.append(self._locus(node))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            sides = [node.left, node.comparators[0]]
            if any(self._is_tag_ref(s) for s in sides):
                for side in sides:
                    fam = self._resolve(side)
                    if fam is not None:
                        self._sites_for(fam).dispatches.append(self._locus(node))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare `Tags.X` references inside lambdas (constant expected tags).
        if self._lambda_depth > 0:
            fam = self._resolve(node)
            if fam is not None:
                self._sites_for(fam).dispatches.append(self._locus(node))
        self.generic_visit(node)


def _default_sources() -> list[tuple[str, str]]:
    from ..runtime import master, pipeline, slave

    return [
        (mod.__name__.rsplit(".", 1)[-1] + ".py", inspect.getsource(mod))
        for mod in (master, slave, pipeline)
    ]


def lint_sources(
    sources: list[tuple[str, str]],
    families: dict[str, _Family] | None = None,
) -> list[Diagnostic]:
    """Run the send/receive pairing lint over ``(name, source)`` pairs."""
    fams = families if families is not None else tag_families()
    merged: dict[str, _Sites] = {}
    for module, text in sources:
        collector = _SiteCollector(module, fams)
        collector.visit(ast.parse(text))
        for key, sites in collector.sites.items():
            bucket = merged.setdefault(key, _Sites())
            bucket.sends.extend(sites.sends)
            bucket.recvs.extend(sites.recvs)
            bucket.polls.extend(sites.polls)
            bucket.dispatches.extend(sites.dispatches)

    found: list[Diagnostic] = []
    for fam in fams.values():
        sites = merged.get(fam.key, _Sites())
        receivers = sites.recvs + sites.polls + sites.dispatches
        if sites.sends and not receivers:
            found.append(
                Diagnostic.new(
                    "RA401",
                    f"tag family {fam.key!r} is sent but no selective "
                    f"receive, dispatch, or poll consumes it: messages "
                    f"would pile up unread",
                    locus=sites.sends[0],
                    details={"sends": sites.sends},
                )
            )
        elif receivers and not sites.sends:
            found.append(
                Diagnostic.new(
                    "RA402",
                    f"tag family {fam.key!r} is selectively received "
                    f"but never sent: a blocking consumer would "
                    f"deadlock waiting for it",
                    locus=receivers[0],
                    details={"receives": receivers},
                )
            )
        elif not sites.sends and not receivers:
            found.append(
                Diagnostic.new(
                    "RA403",
                    f"tag family {fam.key!r} is declared in Tags but "
                    f"neither sent nor received by the runtime",
                    locus="protocol.py",
                )
            )
        elif (
            sites.sends
            and sites.polls
            and not sites.recvs
            and not sites.dispatches
        ):
            found.append(
                Diagnostic.new(
                    "RA404",
                    f"tag family {fam.key!r} is consumed only by "
                    f"non-blocking polls: delivery is never guaranteed "
                    f"to be drained",
                    locus=sites.polls[0],
                    details={"polls": sites.polls},
                )
            )
    return found


class _KindCollector(ast.NodeVisitor):
    """Collect construction and dispatch sites of ``kind`` strings.

    Constructed kinds come from ``Ctrl(kind=...)`` (or its positional
    second argument), ``_send_ctrl(dst, "kind", ...)`` calls, and
    ``{"kind": "..."}`` payload literals.  Handled kinds come from
    equality or membership dispatches on a kind reference — an
    attribute ``*.kind``, a bare ``kind`` variable, or a
    ``payload.get("kind")`` call.
    """

    def __init__(self, module: str):
        self.module = module
        self.constructed: dict[str, list[str]] = {}
        self.handled: dict[str, list[str]] = {}

    def _locus(self, node: ast.AST) -> str:
        return f"{self.module}:{getattr(node, 'lineno', 0)}"

    def _note(
        self, bucket: dict[str, list[str]], kind: str, node: ast.AST
    ) -> None:
        bucket.setdefault(kind, []).append(self._locus(node))

    @staticmethod
    def _is_kind_ref(node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id == "kind":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "kind"
        )

    @staticmethod
    def _str_const(node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else None
        attr = fn.attr if isinstance(fn, ast.Attribute) else None
        if name == "Ctrl" or attr == "_send_ctrl":
            expr: ast.expr | None = next(
                (kw.value for kw in node.keywords if kw.arg == "kind"), None
            )
            if expr is None:
                pos = 1  # Ctrl(seq, kind, ...) / _send_ctrl(dst, kind, ...)
                if len(node.args) > pos:
                    expr = node.args[pos]
            kind = self._str_const(expr) if expr is not None else None
            if kind is not None:
                self._note(self.constructed, kind, node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # `kind = "cancel_recv" if src == pid else "cancel_send"` style
        # construction: string literals bound to a ``kind`` variable are
        # construction sites (non-literal values, e.g. payload lookups
        # in handlers, contribute nothing).
        if any(
            isinstance(t, ast.Name) and t.id == "kind" for t in node.targets
        ):
            for kind in self._literal_branches(node.value):
                self._note(self.constructed, kind, node)
        self.generic_visit(node)

    @classmethod
    def _literal_branches(cls, value: ast.expr) -> list[str]:
        """String literals a ``kind = ...`` binding can evaluate to.

        Only direct literals and conditional-expression branches count;
        handler-side bindings (``kind = payload.get("kind")``) yield
        nothing.
        """
        kind = cls._str_const(value)
        if kind is not None:
            return [kind]
        if isinstance(value, ast.IfExp):
            return cls._literal_branches(value.body) + cls._literal_branches(
                value.orelse
            )
        return []

    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                key is not None
                and self._str_const(key) == "kind"
                and self._str_const(value) is not None
            ):
                self._note(self.constructed, str(self._str_const(value)), node)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if len(node.ops) == 1 and self._is_kind_ref(node.left):
            op, right = node.ops[0], node.comparators[0]
            if isinstance(op, (ast.Eq, ast.NotEq)):
                kind = self._str_const(right)
                if kind is not None:
                    self._note(self.handled, kind, node)
            elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                right, (ast.Tuple, ast.List, ast.Set)
            ):
                for elt in right.elts:
                    kind = self._str_const(elt)
                    if kind is not None:
                        self._note(self.handled, kind, node)
        self.generic_visit(node)


def lint_kinds(sources: list[tuple[str, str]]) -> list[Diagnostic]:
    """Pair constructed control/checkpoint kinds with dispatch arms.

    A kind that is constructed and shipped but matches no receiver arm
    hits the runtime's unknown-control error path (``RA405``); an arm
    for a kind nothing constructs is dead dispatch code (``RA406``).
    """
    constructed: dict[str, list[str]] = {}
    handled: dict[str, list[str]] = {}
    for module, text in sources:
        collector = _KindCollector(module)
        collector.visit(ast.parse(text))
        for kind, sites in collector.constructed.items():
            constructed.setdefault(kind, []).extend(sites)
        for kind, sites in collector.handled.items():
            handled.setdefault(kind, []).extend(sites)

    found: list[Diagnostic] = []
    for kind in sorted(set(constructed) - set(handled)):
        found.append(
            Diagnostic.new(
                "RA405",
                f"control kind {kind!r} is constructed and sent but no "
                f"receiver dispatch arm handles it: the consumer would "
                f"reject it as an unknown control",
                locus=constructed[kind][0],
                details={"constructed": constructed[kind]},
            )
        )
    for kind in sorted(set(handled) - set(constructed)):
        found.append(
            Diagnostic.new(
                "RA406",
                f"control kind {kind!r} has a receiver dispatch arm but "
                f"is never constructed: dead protocol arm",
                locus=handled[kind][0],
                details={"handled": handled[kind]},
            )
        )
    return found


def _hier_sources() -> list[tuple[str, str]]:
    from ..scale import hierarchy

    return [("scale/hierarchy.py", inspect.getsource(hierarchy))]


def check_protocol() -> list[Diagnostic]:
    """Lint all four control planes of the shipped runtime sources.

    Covers the base master/slave/pipeline tag families (which include
    the FT ``lb.hb``/``lb.ctrl``/``lb.ctrlack`` and checkpoint
    ``lb.ckpt`` traffic), the ``kind`` sub-protocol multiplexed over the
    control/checkpoint tags, and the hierarchical ``sc.*`` plane.
    """
    from ..scale.protocol import ScaleTags

    sources = _default_sources()
    found = lint_sources(sources)
    found.extend(lint_kinds(sources))
    found.extend(lint_sources(_hier_sources(), tag_families(ScaleTags)))
    return found
