"""Rule registry: every rule family, instantiable in one call.

Adding a rule = subclass :class:`~repro.lint.rules.base.Rule` in the family
module, give it a unique ``id`` (family prefix + number) and ``family``, and
list the class here.  The engine, pragma matching, reports and baseline all
pick it up from this registry.
"""

from __future__ import annotations

from .base import Rule
from .contracts import (
    FastForwardClockRule,
    FastForwardHintRule,
    NextEventWakeRule,
    SlottedValueClassRule,
)
from .determinism import (
    BuiltinHashRule,
    GlobalNumpyRandomRule,
    GlobalRandomRule,
    OsEntropyRule,
    WallClockRule,
)
from .hotpath import HotPathRule
from .ordering import FilesystemOrderRule, JsonSortKeysRule, UnorderedIterationRule
from .resources import FlockPairRule, OsExitRule

__all__ = ["ALL_RULES", "Rule", "make_rules", "rule_ids"]

#: Every registered rule class, in report order.
ALL_RULES: tuple[type[Rule], ...] = (
    WallClockRule,
    OsEntropyRule,
    GlobalRandomRule,
    GlobalNumpyRandomRule,
    BuiltinHashRule,
    JsonSortKeysRule,
    UnorderedIterationRule,
    FilesystemOrderRule,
    HotPathRule,
    NextEventWakeRule,
    FastForwardHintRule,
    FastForwardClockRule,
    SlottedValueClassRule,
    FlockPairRule,
    OsExitRule,
)


def make_rules() -> list[Rule]:
    """Fresh rule instances for one engine run."""
    return [rule_class() for rule_class in ALL_RULES]


def rule_ids() -> tuple[str, ...]:
    """Every id findings can be reported under (HOT expands to its four)."""
    ids: list[str] = []
    for rule_class in ALL_RULES:
        if rule_class is HotPathRule:
            ids.extend(
                (
                    HotPathRule.ALLOC_ID,
                    HotPathRule.FORMAT_ID,
                    HotPathRule.LAMBDA_ID,
                    HotPathRule.CHAIN_ID,
                )
            )
        else:
            ids.append(rule_class.id)
    return tuple(ids)
