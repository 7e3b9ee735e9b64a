"""Positive/negative fixtures for the hot-path discipline (HOT) rules."""

from __future__ import annotations

def hot(method: str, body: str) -> str:
    """A class with one hot method whose body is ``body``."""
    lines = ["class Component:", f"    def {method}(self):"]
    lines.extend(f"        {line}" for line in body.splitlines())
    return "\n".join(lines) + "\n"


class TestAllocations:
    def test_list_display_flagged(self, harness):
        assert harness.rule_ids(hot("tick", "pending = []")) == ["HOT001"]

    def test_dict_display_flagged(self, harness):
        assert harness.rule_ids(hot("tick", "state = {}")) == ["HOT001"]

    def test_comprehension_flagged(self, harness):
        source = hot("tick", "ids = [m.id for m in self.masters]")
        assert harness.rule_ids(source) == ["HOT001"]

    def test_fast_forward_body_checked(self, harness):
        # next_event rides along so CON002 (its own rule) stays quiet here.
        source = hot("fast_forward", "ids = [m.id for m in self.masters]")
        source += "    def next_event(self):\n        return None\n"
        assert harness.rule_ids(source) == ["HOT001"]

    def test_generator_expression_flagged(self, harness):
        source = hot("next_event", "total = sum(c.value for c in self.counters)")
        assert harness.rule_ids(source) == ["HOT001"]

    def test_plain_arithmetic_ok(self, harness):
        assert harness.rule_ids(hot("tick", "self.cycle = self.cycle + 1")) == []

    def test_cold_method_not_checked(self, harness):
        assert harness.rule_ids(hot("reset", "pending = []")) == []

    def test_module_level_function_not_checked(self, harness):
        source = """
            def tick():
                pending = []
                return pending
        """
        assert harness.rule_ids(source) == []


class TestFormatting:
    def test_fstring_flagged(self, harness):
        source = hot("tick", 'label = f"cycle {self.cycle}"')
        assert harness.rule_ids(source) == ["HOT002"]

    def test_str_format_flagged(self, harness):
        source = hot("tick", 'label = "cycle {}".format(self.cycle)')
        assert harness.rule_ids(source) == ["HOT002"]


class TestFunctionObjects:
    def test_lambda_flagged(self, harness):
        source = hot("tick", "key = lambda item: item.cycle")
        assert harness.rule_ids(source) == ["HOT003"]

    def test_nested_def_flagged(self, harness):
        body = "def helper():\n    return 1\nself.x = helper()"
        assert harness.rule_ids(hot("tick", body)) == ["HOT003"]

    def test_nested_body_not_double_reported(self, harness):
        # The allocation inside the nested def is not separately reported —
        # the nested def itself is the finding.
        body = "def helper():\n    return []\nself.x = helper"
        assert harness.rule_ids(hot("tick", body)) == ["HOT003"]


class TestAttributeChains:
    def test_repeated_chain_flagged_once(self, harness):
        body = "self.bus.arbiter.step()\nself.bus.arbiter.account()"
        assert harness.rule_ids(hot("tick", body)) == ["HOT004"]

    def test_prefix_of_longer_chain_not_double_counted(self, harness):
        # self.a.b.c twice must yield ONE finding (for self.a.b.c), not a
        # second one for the self.a.b prefix.
        body = "self.a.b.c()\nself.a.b.c()"
        assert harness.rule_ids(hot("tick", body)) == ["HOT004"]

    def test_single_lookup_ok(self, harness):
        assert harness.rule_ids(hot("tick", "self.bus.arbiter.step()")) == []

    def test_single_hop_repeats_ok(self, harness):
        body = "self.cycle = self.cycle + self.cycle"
        assert harness.rule_ids(hot("tick", body)) == []


class TestConfigurableHotMethods:
    def test_custom_hot_method_names(self, harness):
        source = """
            class Component:
                def service(self):
                    pending = []
                    return pending
        """
        assert harness.rule_ids(source) == []
        assert harness.rule_ids(source, hot_methods=("service",)) == ["HOT001"]
