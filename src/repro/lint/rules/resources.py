"""Fork/resource-safety rules (``RES``).

Campaign workers fork, crash (sometimes on purpose — the chaos harness) and
get killed on timeouts; resources that survive a dead process must therefore
be cleaned up on *every* path.  An unreleased ``flock`` deadlocks the next
campaign, and a stray ``os._exit`` skips every ``finally`` in the process —
which is exactly why only the fault injector may call it.
"""

from __future__ import annotations

import ast

from ..context import FileContext
from .base import Rule

__all__ = ["FlockPairRule", "OsExitRule"]


class FlockPairRule(Rule):
    id = "RES002"
    family = "resources"
    description = "a module taking fcntl.flock(LOCK_EX) must also release with LOCK_UN"
    interests = (ast.Call,)

    def begin_file(self, ctx: FileContext) -> None:
        self._acquires: list[ast.Call] = []
        self._releases = 0

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "flock":
            return
        flags = " ".join(ast.dump(arg) for arg in node.args[1:])
        if "LOCK_UN" in flags:
            self._releases += 1
        elif "LOCK_EX" in flags or "LOCK_SH" in flags:
            self._acquires.append(node)

    def end_file(self, ctx: FileContext) -> None:
        if self._acquires and not self._releases:
            for call in self._acquires:
                self.report(
                    ctx,
                    call,
                    "flock(LOCK_EX) acquired but this module never calls "
                    "flock(..., LOCK_UN); relying on process exit to release "
                    "deadlocks campaigns that share one interpreter",
                )
        self._acquires = []
        self._releases = 0


class OsExitRule(Rule):
    id = "RES003"
    family = "resources"
    description = (
        "os._exit skips every finally/atexit in the process; only the fault "
        "injector (configured os-exit-modules) may call it"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if ctx.call_name(node) != "os._exit":
            return
        if ctx.config.allows_os_exit(ctx.relpath):
            return
        self.report(
            ctx,
            node,
            "os._exit() terminates without running finally blocks, flushing "
            "stores or releasing locks; deliberate crash semantics belong in "
            "the fault injector only",
        )
