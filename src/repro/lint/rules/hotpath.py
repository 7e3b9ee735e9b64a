"""Hot-path discipline rules (``HOT``).

``tick``/``fast_forward``/``next_event`` bodies run up to once per
simulated cycle across millions of cycles; the performance PRs hand-removed
every avoidable allocation and attribute re-lookup from them.  These
rules keep regressions out: no collection displays or comprehensions, no
string formatting, no lambdas/nested defs, and no repeated multi-hop
``self.a.b`` chains (bind them to a local once instead).

The rules fire only inside methods with those names, in the files the
``hotpath`` scope configures (the component files that define them).
"""

from __future__ import annotations

import ast

from ..context import FileContext
from .base import Rule

__all__ = ["HotPathRule"]

_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _iter_hot_body(func: ast.AST):
    """Yield nodes of a hot method body, skipping nested function bodies.

    Nested defs/lambdas are themselves reported (HOT003); what they contain
    runs only if they are called, which is already the problem.
    """
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_chain(node: ast.Attribute) -> str | None:
    """Dotted text of a ``self.a.b...`` chain of depth >= 2, else ``None``."""
    parts: list[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not (isinstance(current, ast.Name) and current.id == "self"):
        return None
    if len(parts) < 2:
        return None
    parts.append("self")
    return ".".join(reversed(parts))


class HotPathRule(Rule):
    """All four HOT checks in one body sub-walk (the bodies are tiny)."""

    id = "HOT"  # reports under the specific ids below
    family = "hotpath"
    description = "hot-path discipline inside tick/fast_forward/next_event"
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    ALLOC_ID = "HOT001"
    FORMAT_ID = "HOT002"
    LAMBDA_ID = "HOT003"
    CHAIN_ID = "HOT004"

    #: The ids findings are reported under (for --list-rules and tests).
    REPORTED_IDS = (ALLOC_ID, FORMAT_ID, LAMBDA_ID, CHAIN_ID)

    _DESCRIPTIONS = {
        ALLOC_ID: "no collection displays/comprehensions in hot methods (per-cycle allocation)",
        FORMAT_ID: "no f-strings or str.format() in hot methods (per-cycle allocation)",
        LAMBDA_ID: "no lambdas or nested defs in hot methods (closure per call)",
        CHAIN_ID: "no repeated multi-hop self.a.b lookups in hot methods (bind a local once)",
    }

    @classmethod
    def describe(cls, rule_id: str) -> str:
        return cls._DESCRIPTIONS.get(rule_id, cls.description)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name not in ctx.config.hot_methods:
            return
        if not ctx.class_stack:
            return  # only methods are hot paths
        attributes: list[ast.Attribute] = []
        inner_chain_ids: set[int] = set()
        call_func_ids: set[int] = set()
        for sub in _iter_hot_body(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                call_func_ids.add(id(sub.func))
            if isinstance(sub, _DISPLAYS):
                kind = type(sub).__name__
                ctx.report(
                    self.ALLOC_ID,
                    self.severity,
                    sub,
                    f"{kind} allocated inside hot method {node.name}(); this "
                    f"runs per cycle — preallocate it outside the hot path "
                    f"or restructure the state",
                )
            elif isinstance(sub, ast.JoinedStr):
                ctx.report(
                    self.FORMAT_ID,
                    self.severity,
                    sub,
                    f"f-string built inside hot method {node.name}(); "
                    f"formatting allocates every cycle — move it behind a "
                    f"guard outside the hot path",
                )
            elif isinstance(sub, ast.Call) and (
                isinstance(sub.func, ast.Attribute) and sub.func.attr == "format"
            ):
                ctx.report(
                    self.FORMAT_ID,
                    self.severity,
                    sub,
                    f"str.format() called inside hot method {node.name}(); "
                    f"formatting allocates every cycle",
                )
            elif isinstance(sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx.report(
                    self.LAMBDA_ID,
                    self.severity,
                    sub,
                    f"function object created inside hot method {node.name}(); "
                    f"closures allocate per call — pre-bind it at "
                    f"registration time",
                )
            elif isinstance(sub, ast.Attribute):
                attributes.append(sub)
                if isinstance(sub.value, ast.Attribute):
                    inner_chain_ids.add(id(sub.value))
        # Count only *maximal* chains: `self.a.b.c` must not also count its
        # `self.a.b` prefix, or one duplicate would report twice.  For method
        # calls the chain is the *object* being re-looked-up — `self.bus
        # .arbiter.step()` and `self.bus.arbiter.account()` both re-walk
        # `self.bus.arbiter`, so the method name is stripped before counting.
        chains: dict[str, list[ast.Attribute]] = {}
        for attribute in attributes:
            if id(attribute) in inner_chain_ids:
                continue
            target: ast.AST = attribute
            if id(attribute) in call_func_ids:
                target = attribute.value
                if not isinstance(target, ast.Attribute):
                    continue
            chain = _self_chain(target)
            if chain is not None:
                chains.setdefault(chain, []).append(target)
        for chain, sites in sorted(chains.items()):
            if len(sites) < 2:
                continue
            second = sorted(sites, key=lambda n: (n.lineno, n.col_offset))[1]
            ctx.report(
                self.CHAIN_ID,
                self.severity,
                second,
                f"attribute chain {chain} looked up {len(sites)} times in hot "
                f"method {node.name}(); bind it to a local once "
                f"(e.g. `x = {chain}`) and reuse that",
            )
