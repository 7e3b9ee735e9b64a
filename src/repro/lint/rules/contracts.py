"""Component-contract rules (``CON``).

The kernel's scheduling contracts are easy to half-implement: a component
that overrides ``next_event`` but never pushes a wake silently never runs
again under due-only dispatch once its seeded wake is spent; a
``fast_forward`` override without a matching ``next_event`` breaks the
"only skip promised cycles" invariant; a ``fast_forward`` that reads the
clock replays the wrong cycles, because the kernel catches components up
lazily; an unslotted value class silently grows a ``__dict__`` per cache
line / bus request and melts the allocation budget.  These rules encode the contracts structurally.
"""

from __future__ import annotations

import ast

from ..context import FileContext
from .base import Rule

__all__ = [
    "NextEventWakeRule",
    "FastForwardClockRule",
    "FastForwardHintRule",
    "SlottedValueClassRule",
]

_WAKE_CALLS = frozenset({"schedule_wake", "_wake_schedule", "_push_wake"})
#: ``self`` attributes that read the current cycle.
_CLOCK_READS = frozenset({"now", "clock", "_clock"})


def _class_methods(node: ast.ClassDef) -> dict[str, ast.AST]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


class NextEventWakeRule(Rule):
    id = "CON001"
    family = "contracts"
    description = (
        "a subclass overriding next_event must push wakes "
        "(schedule_wake/_wake_schedule/_push_wake) somewhere in its body"
    )
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ClassDef)
        marker = _class_methods(node).get("next_event")
        if marker is None or not node.bases:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in _WAKE_CALLS:
                    return
        self.report(
            ctx,
            marker,
            f"class {node.name} overrides next_event() but never calls "
            f"schedule_wake/_wake_schedule/_push_wake: under due-only "
            f"dispatch it sleeps forever once its seeded wake is spent — push "
            f"wakes at its state transitions (a pure observer that genuinely "
            f"never wakes may pragma this)",
        )


class FastForwardHintRule(Rule):
    id = "CON002"
    family = "contracts"
    description = (
        "a class overriding fast_forward must also define next_event — the "
        "kernel only skips cycles the hint promised were uniform"
    )
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ClassDef)
        methods = _class_methods(node)
        if "fast_forward" in methods and "next_event" not in methods:
            self.report(
                ctx,
                methods["fast_forward"],
                f"class {node.name} overrides fast_forward() without defining "
                f"next_event(): the inherited hint ('wake me every cycle') "
                f"makes the override dead code at best and a skipped-state "
                f"bug at worst",
            )


class FastForwardClockRule(Rule):
    id = "CON004"
    family = "contracts"
    description = (
        "a fast_forward override must not read self.now or self.clock — the "
        "kernel runs it lazily, after the clock moved on; use its start argument"
    )
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ClassDef)
        method = _class_methods(node).get("fast_forward")
        if method is None:
            return
        for sub in ast.walk(method):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in _CLOCK_READS
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                self.report(
                    ctx,
                    sub,
                    f"{node.name}.fast_forward reads self.{sub.attr}: the kernel "
                    f"catches components up lazily, after the clock moved past "
                    f"the replayed cycles — take them from the start argument",
                )


def _dataclass_decorator(node: ast.ClassDef) -> tuple[ast.AST | None, bool]:
    """Return (decorator-node, slotted) for @dataclass classes, else (None, _)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name != "dataclass":
            continue
        slotted = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    slotted = True
        return decorator, slotted
    return None, False


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class SlottedValueClassRule(Rule):
    id = "CON003"
    family = "contracts"
    description = (
        "value classes (dataclasses in the configured value-class modules) "
        "must be slotted — they are allocated per access/request/window"
    )
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ClassDef)
        if not ctx.config.is_value_class_module(ctx.relpath):
            return
        decorator, slotted = _dataclass_decorator(node)
        if decorator is None:
            return
        if slotted or _declares_slots(node):
            return
        self.report(
            ctx,
            node,
            f"value class {node.name} is a dataclass without slots; instances "
            f"are allocated in bulk on simulation paths — add "
            f"@dataclass(slots=True) (or declare __slots__)",
        )
