"""Tests for counters, running statistics and histograms."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Counter, Gauge, Histogram, RunningStats, StatGroup


class TestCounter:
    def test_increment_default_and_amount(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_rejected_negative_increment_leaves_value_untouched(self):
        # The fast path adds speculatively and the slow path rolls back; a
        # rejected call must not corrupt the count.
        counter = Counter("c", value=7)
        with pytest.raises(ValueError):
            counter.increment(-3)
        assert counter.value == 7

    def test_reset(self):
        counter = Counter("c", value=9)
        counter.reset()
        assert counter.value == 0

    def test_merge_adds_counts(self):
        left = Counter("c", value=3)
        left.merge(Counter("c", value=4))
        assert left.value == 7


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_merge_is_last_writer_wins(self):
        left = Gauge("g", value=5.0)
        left.merge(Gauge("g", value=1.5))
        assert left.value == 1.5

    def test_reset(self):
        gauge = Gauge("g", value=4.0)
        gauge.reset()
        assert gauge.value == 0.0


class TestRunningStats:
    def test_empty_stats_are_zero(self):
        stats = RunningStats("s")
        assert stats.mean == 0.0
        assert stats.stddev == 0.0
        assert stats.minimum == 0.0
        assert stats.maximum == 0.0

    def test_known_values(self):
        stats = RunningStats("s")
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0
        assert stats.count == 8
        assert stats.total == pytest.approx(40.0)
        assert stats.variance == pytest.approx(32.0 / 7.0)

    def test_single_sample_has_zero_variance(self):
        stats = RunningStats("s")
        stats.add(3.0)
        assert stats.variance == 0.0

    def test_as_dict_keys(self):
        stats = RunningStats("s")
        stats.add(1.0)
        assert set(stats.as_dict()) == {"count", "mean", "stddev", "min", "max", "total"}

    def test_merge_into_empty_adopts_other(self):
        left = RunningStats("s")
        right = RunningStats("s")
        right.extend([1.0, 2.0, 3.0])
        left.merge(right)
        assert left.count == 3
        assert left.mean == pytest.approx(2.0)
        assert left.minimum == 1.0
        assert left.maximum == 3.0

    def test_merge_empty_other_is_a_no_op(self):
        left = RunningStats("s")
        left.extend([1.0, 2.0])
        left.merge(RunningStats("s"))
        assert left.count == 2
        assert left.mean == pytest.approx(1.5)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=30),
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=0, max_size=30),
    )
    def test_merge_matches_single_stream(self, left_values, right_values):
        """Chan's merge must equal one stream that saw both sample sets."""
        merged = RunningStats("s")
        merged.extend(left_values)
        other = RunningStats("s")
        other.extend(right_values)
        merged.merge(other)

        sequential = RunningStats("s")
        sequential.extend(left_values + right_values)
        assert merged.count == sequential.count
        assert merged.total == pytest.approx(sequential.total, rel=1e-9, abs=1e-6)
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(sequential.variance, rel=1e-6, abs=1e-4)
        assert merged.minimum == sequential.minimum
        assert merged.maximum == sequential.maximum

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_matches_batch_computation(self, values):
        stats = RunningStats("s")
        stats.extend(values)
        mean = sum(values) / len(values)
        assert stats.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.variance == pytest.approx(variance, rel=1e-6, abs=1e-6)
        assert stats.stddev == pytest.approx(math.sqrt(variance), rel=1e-6, abs=1e-6)


class _EagerHistogram:
    """The binning a histogram promises, applied at every add."""

    def __init__(self) -> None:
        self.bins: dict[int, int] = {}

    def add(self, value, weight=1):
        self.bins[int(value)] = self.bins.get(int(value), 0) + weight

    def reads(self):
        items = sorted(self.bins.items())
        count = sum(self.bins.values())
        mean = sum(v * c for v, c in items) / count if count else 0.0
        return items, count, mean


class TestHistogram:
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(min_value=-5, max_value=40),
                    st.sampled_from([1, 1, 1, 2, 5]),
                ),
                st.tuples(st.sampled_from(["items", "mean", "percentile", "as_dict"])),
            ),
            max_size=60,
        )
    )
    def test_deferred_binning_matches_eager_binning(self, operations):
        """Samples sit in a raw column until a read folds them; any
        interleaving of adds and reads sees what eager binning would."""
        hist = Histogram("h")
        eager = _EagerHistogram()
        for operation in operations:
            if operation[0] == "add":
                _, value, weight = operation
                hist.add(value, weight=weight)
                eager.add(value, weight)
                continue
            items, count, mean = eager.reads()
            assert hist.count == count
            if operation[0] == "items":
                assert hist.items() == items
            elif operation[0] == "mean":
                assert hist.mean == pytest.approx(mean)
            elif operation[0] == "percentile":
                expected = 0
                cumulative = 0
                for value, weight in items:
                    cumulative += weight
                    if cumulative >= 0.9 * count:
                        expected = value
                        break
                assert hist.percentile(0.9) == expected
            else:
                summary = hist.as_dict()
                assert summary["count"] == count
                assert summary["min"] == (items[0][0] if items else 0)
                assert summary["max"] == (items[-1][0] if items else 0)
        assert hist.items() == eager.reads()[0]

    def test_add_and_frequency(self):
        hist = Histogram("h")
        hist.add(5)
        hist.add(5, weight=2)
        hist.add(7)
        assert hist.frequency(5) == 3
        assert hist.frequency(7) == 1
        assert hist.frequency(6) == 0
        assert hist.count == 4

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").add(1, weight=0)

    def test_mean_min_max(self):
        hist = Histogram("h")
        for value in (1, 2, 3, 4):
            hist.add(value)
        assert hist.mean == pytest.approx(2.5)
        assert hist.minimum == 1
        assert hist.maximum == 4

    def test_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.add(value)
        assert hist.percentile(0.5) == 50
        assert hist.percentile(0.99) == 99
        assert hist.percentile(1.0) == 100

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(1.5)

    def test_empty_histogram_percentile_is_zero(self):
        assert Histogram("h").percentile(0.9) == 0

    def test_bucket_edges(self):
        """Values landing exactly on existing bins fold into them; adjacent
        integers stay distinct buckets."""
        hist = Histogram("h")
        hist.add(9)
        hist.add(10)
        hist.add(10)
        hist.add(11)
        assert hist.items() == [(9, 1), (10, 2), (11, 1)]
        assert hist.frequency(10) == 2
        # percentile(0) needs at least the first bucket's smallest value.
        assert hist.percentile(0.0) == 9
        assert hist.percentile(1.0) == 11

    def test_float_values_truncate_to_integer_bins(self):
        hist = Histogram("h")
        hist.add(3.9)
        assert hist.frequency(3) == 1
        assert hist.frequency(4) == 0

    def test_merge_folds_bins_and_counts(self):
        left = Histogram("h")
        left.add(1, weight=2)
        left.add(5)
        right = Histogram("h")
        right.add(1)
        right.add(9, weight=3)
        left.merge(right)
        assert left.items() == [(1, 3), (5, 1), (9, 3)]
        assert left.count == 7
        assert left.minimum == 1
        assert left.maximum == 9

    def test_merge_leaves_other_untouched(self):
        left = Histogram("h")
        right = Histogram("h")
        right.add(4)
        left.merge(right)
        left.add(4)
        assert right.count == 1
        assert right.frequency(4) == 1

    def test_as_dict_snapshot_is_independent(self):
        hist = Histogram("h")
        hist.add(2)
        snapshot = hist.as_dict()
        hist.add(100, weight=5)
        assert snapshot["count"] == 1
        assert snapshot["max"] == 2


class TestStatGroup:
    def test_lazily_creates_members(self):
        group = StatGroup("g")
        group.counter("events").increment()
        group.sample("latency").add(3.0)
        group.histogram("sizes").add(2)
        assert group.counter("events").value == 1
        assert group.sample("latency").count == 1
        assert group.histogram("sizes").count == 1

    def test_as_dict_flattens(self):
        group = StatGroup("g")
        group.counter("events").increment(2)
        group.sample("latency").add(3.0)
        flat = group.as_dict()
        assert flat["events"] == 2
        assert flat["latency"]["count"] == 1

    def test_reset_clears_everything(self):
        group = StatGroup("g")
        group.counter("events").increment(2)
        group.sample("latency").add(3.0)
        group.histogram("sizes").add(2)
        group.reset()
        assert group.counter("events").value == 0
        assert group.sample("latency").count == 0
        assert group.histogram("sizes").count == 0

    def test_merge_folds_every_member_kind(self):
        left = StatGroup("g")
        left.counter("events").increment(2)
        left.sample("latency").add(1.0)
        left.histogram("sizes").add(3)
        right = StatGroup("g")
        right.counter("events").increment(5)
        right.sample("latency").add(3.0)
        right.histogram("sizes").add(3, weight=2)
        left.merge(right)
        assert left.counter("events").value == 7
        assert left.sample("latency").count == 2
        assert left.sample("latency").mean == pytest.approx(2.0)
        assert left.histogram("sizes").frequency(3) == 3

    def test_merge_creates_missing_members_by_name(self):
        left = StatGroup("g")
        right = StatGroup("g")
        right.counter("only_right").increment(4)
        right.sample("only_right_s").add(2.0)
        right.histogram("only_right_h").add(1)
        left.merge(right)
        assert left.counter("only_right").value == 4
        assert left.sample("only_right_s").count == 1
        assert left.histogram("only_right_h").count == 1

    def test_as_dict_snapshot_is_independent(self):
        """Mutating the group after as_dict must not change the snapshot."""
        group = StatGroup("g")
        group.counter("events").increment(2)
        group.sample("latency").add(3.0)
        group.histogram("sizes").add(2)
        snapshot = group.as_dict()
        group.counter("events").increment(10)
        group.sample("latency").add(99.0)
        group.histogram("sizes").add(50)
        assert snapshot["events"] == 2
        assert snapshot["latency"]["count"] == 1
        assert snapshot["sizes"]["count"] == 1
