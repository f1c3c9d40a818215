"""Unit + property tests for the multi-GPU dynamic scheduler (§3.6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.device import A100_SXM4, VirtualCluster
from repro.device.cluster import ScheduleResult, schedule_dynamic

cost_lists = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=60)


class TestScheduleDynamic:
    @given(cost_lists, st.integers(1, 9))
    def test_every_iteration_assigned_once(self, costs, g):
        result = schedule_dynamic(costs, g)
        assigned = sorted(i for lst in result.assignment for i in lst)
        assert assigned == list(range(len(costs)))

    @given(cost_lists, st.integers(1, 9))
    def test_makespan_bounds(self, costs, g):
        result = schedule_dynamic(costs, g)
        total = sum(costs)
        assert result.makespan >= total / g - 1e-6
        assert result.makespan >= max(costs) - 1e-9
        assert result.makespan <= total + 1e-6

    @given(cost_lists)
    def test_single_device_is_serial(self, costs):
        result = schedule_dynamic(costs, 1)
        assert result.makespan == pytest.approx(sum(costs))
        assert result.speedup == pytest.approx(1.0) or sum(costs) == 0

    def test_loads_match_assignment(self):
        costs = [5.0, 3.0, 2.0, 1.0]
        result = schedule_dynamic(costs, 2)
        for g, items in enumerate(result.assignment):
            assert result.device_loads[g] == pytest.approx(
                sum(costs[i] for i in items)
            )

    def test_in_order_greedy_behaviour(self):
        # First item to device 0, second to device 1, third to the least
        # loaded (device 1 after [5, 1]).
        result = schedule_dynamic([5.0, 1.0, 1.0], 2)
        assert result.assignment == [[0], [1, 2]]

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="non-negative"):
            schedule_dynamic([-1.0], 2)

    def test_rejects_bad_device_count(self):
        with pytest.raises(ValueError, match="n_devices"):
            schedule_dynamic([1.0], 0)

    @given(cost_lists)
    def test_speedup_monotone_in_devices(self, costs):
        prev = 0.0
        for g in (1, 2, 4, 8):
            s = schedule_dynamic(costs, g).speedup
            assert s >= prev - 1e-9
            prev = s


class TestVirtualCluster:
    def test_construction(self):
        cluster = VirtualCluster(A100_SXM4, 4)
        assert cluster.n_gpus == 4
        assert {g.device_id for g in cluster.gpus} == {0, 1, 2, 3}

    def test_engine_override(self):
        cluster = VirtualCluster(A100_SXM4, 2, engine_kind="xor_popc")
        assert all(g.engine.name == "xor_popc" for g in cluster.gpus)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="n_gpus"):
            VirtualCluster(A100_SXM4, 0)

    def test_repr(self):
        assert "4 x A100 SXM4" in repr(VirtualCluster(A100_SXM4, 4))


class TestScheduleResultFromExecuted:
    def test_matches_replayed_schedule(self):
        costs = [5.0, 3.0, 2.0, 1.0]
        replay = schedule_dynamic(costs, 2)
        executed = ScheduleResult.from_executed(replay.assignment, costs)
        assert executed.device_loads == replay.device_loads
        assert executed.makespan == replay.makespan
        assert executed.total_cost == pytest.approx(sum(costs))

    def test_empty_assignment_lists(self):
        # A device that took no work (more devices than iterations)
        # contributes an empty list; loads and makespan must still be well
        # defined.
        result = ScheduleResult.from_executed([[0, 1], []], [2.0, 3.0])
        assert result.device_loads == [5.0, 0.0]
        assert result.makespan == 5.0
        assert result.speedup == pytest.approx(1.0)

    def test_no_workers_degenerate(self):
        result = ScheduleResult.from_executed([], [])
        assert result.makespan == 0.0
        assert result.total_cost == 0.0
        assert result.speedup == 1.0  # 0/0 convention

    def test_zero_cost_iterations(self):
        result = ScheduleResult.from_executed([[0], [1]], [0.0, 0.0])
        assert result.device_loads == [0.0, 0.0]
        assert result.makespan == 0.0
        assert result.speedup == 1.0

    def test_single_device_degenerate(self):
        costs = [1.0, 2.0, 4.0]
        result = ScheduleResult.from_executed([[2, 0, 1]], costs)
        assert result.makespan == pytest.approx(7.0)
        assert result.speedup == pytest.approx(1.0)

    def test_partial_assignment_total_counts_assigned_only(self):
        # from_executed scores what actually ran; an unfinished iteration
        # simply does not contribute.
        result = ScheduleResult.from_executed([[0]], [2.0, 100.0])
        assert result.total_cost == pytest.approx(2.0)

    def test_rejects_duplicate_iteration(self):
        with pytest.raises(ValueError, match="assigned twice"):
            ScheduleResult.from_executed([[0, 1], [1]], [1.0, 1.0])

    def test_rejects_duplicate_within_one_worker(self):
        with pytest.raises(ValueError, match="iteration 0 assigned twice"):
            ScheduleResult.from_executed([[0, 0]], [1.0])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside cost table of 2"):
            ScheduleResult.from_executed([[2]], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside cost table"):
            ScheduleResult.from_executed([[-1]], [1.0])

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="non-negative"):
            ScheduleResult.from_executed([[0]], [-1.0])

