"""Unit tests for the deterministic fault-injection harness."""

import numpy as np
import pytest

from repro.datasets import generate_random_dataset
from repro.datasets.encoding import encode_dataset
from repro.device import A100_PCIE, VirtualGPU
from repro.device.faults import (
    FAULT_KINDS,
    KIND_KEYS,
    DeviceFault,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FaultyGPU,
    parse_fault_spec,
)


class TestParseFaultSpec:
    def test_single_transient_rule(self):
        plan = parse_fault_spec("transient:op=tensor4,count=2")
        assert len(plan.rules) == 1
        rule = plan.rules[0]
        assert rule.kind == "transient"
        assert rule.op == "tensor4"
        assert rule.count == 2
        assert plan.seed == 0

    def test_multiple_rules_and_seed(self):
        plan = parse_fault_spec(
            "transient:p=0.5;persistent:device=1,at=3;corrupt:iter=0;seed=42"
        )
        assert len(plan.rules) == 3
        assert plan.seed == 42
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["transient", "persistent", "corrupt"]
        assert plan.has_corruption

    def test_default_trigger_is_fire_once(self):
        plan = parse_fault_spec("transient")
        assert plan.rules[0].count == 1

    def test_corrupt_defaults_to_tensor4(self):
        plan = parse_fault_spec("corrupt:count=1")
        assert plan.rules[0].op == "tensor4"

    def test_corrupt_rejects_other_ops(self):
        with pytest.raises(ValueError, match="tensor4"):
            parse_fault_spec("corrupt:op=combine")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "explode:count=1",
            "transient:count=0",
            "transient:p=1.5",
            "transient:count=1,p=0.5",
            "transient:bogus=1",
            "transient:count",
            "seed=abc",
            "transient:op=warp",
            "transient:device=-1",
            "transient:iter=-2",
            "transient:at=0",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_rejects_multiple_triggers_directly(self):
        with pytest.raises(ValueError, match="at most one"):
            FaultRule(kind="transient", count=1, at=2)


class TestFaultInjector:
    def _plan(self, spec):
        return parse_fault_spec(spec)

    def test_count_trigger_fires_first_n(self):
        inj = FaultInjector(self._plan("transient:op=tensor4,count=2"))
        for _ in range(2):
            with pytest.raises(DeviceFault) as exc:
                inj.on_launch(0, "tensor4")
            assert exc.value.kind == "transient"
        assert inj.on_launch(0, "tensor4") is None  # budget exhausted
        assert inj.stats.transient == 2

    def test_at_trigger_fires_exactly_nth(self):
        inj = FaultInjector(self._plan("transient:at=3"))
        assert inj.on_launch(0, "combine") is None
        assert inj.on_launch(0, "combine") is None
        with pytest.raises(DeviceFault):
            inj.on_launch(0, "combine")
        assert inj.on_launch(0, "combine") is None

    def test_device_filter(self):
        inj = FaultInjector(self._plan("transient:device=1,count=5"))
        assert inj.on_launch(0, "tensor4") is None
        with pytest.raises(DeviceFault) as exc:
            inj.on_launch(1, "tensor4")
        assert exc.value.device_id == 1

    def test_iteration_filter(self):
        inj = FaultInjector(self._plan("transient:iter=2,count=1"))
        inj.begin_iteration(0, 1)
        assert inj.on_launch(0, "tensor4") is None
        inj.begin_iteration(0, 2)
        with pytest.raises(DeviceFault) as exc:
            inj.on_launch(0, "tensor4")
        assert exc.value.wi == 2

    def test_persistent_kills_the_device(self):
        inj = FaultInjector(self._plan("persistent:device=0,at=2"))
        assert inj.on_launch(0, "combine") is None
        with pytest.raises(DeviceFault):
            inj.on_launch(0, "combine")
        assert inj.dead_devices == {0}
        # Everything afterwards fails, regardless of kernel.
        for op in ("tensor4", "transfer", "applyScore"):
            with pytest.raises(DeviceFault) as exc:
                inj.on_launch(0, op)
            assert exc.value.kind == "persistent"
        # Other devices are unaffected.
        assert inj.on_launch(1, "combine") is None

    def test_probabilistic_trigger_is_deterministic(self):
        spec = "transient:p=0.5;seed=7"

        def decisions():
            inj = FaultInjector(parse_fault_spec(spec))
            out = []
            for _ in range(50):
                try:
                    inj.on_launch(0, "tensor4")
                    out.append(False)
                except DeviceFault:
                    out.append(True)
            return out

        first, second = decisions(), decisions()
        assert first == second
        assert any(first) and not all(first)

    def test_corrupt_action_and_deterministic_corruption(self):
        inj = FaultInjector(self._plan("corrupt:count=1;seed=3"))
        assert inj.on_launch(0, "tensor4") == "corrupt"
        assert inj.on_launch(0, "tensor4") is None
        out = np.arange(16).reshape(2, 2, 2, 2)
        corrupted = inj.corrupt_output(out.copy())
        assert corrupted.min() == -42  # impossible popcount: detectable

    def test_stats_accounting(self):
        inj = FaultInjector(self._plan("transient:count=2;corrupt:count=1"))
        fired = 0
        for _ in range(4):
            try:
                inj.on_launch(0, "tensor4")
            except DeviceFault:
                fired += 1
        assert fired == 2
        assert inj.stats.transient == 2
        assert inj.stats.corrupt == 1
        assert inj.stats.total == 3


class TestFaultyGPU:
    @pytest.fixture()
    def encoded(self):
        return encode_dataset(generate_random_dataset(8, 96, seed=2), block_size=4)

    def test_delegates_and_raises(self, encoded):
        gpu = VirtualGPU(A100_PCIE, device_id=0)
        inj = FaultInjector(parse_fault_spec("transient:op=combine,count=1"))
        faulty = FaultyGPU(gpu, inj)
        assert faulty.device_id == 0
        assert faulty.spec is gpu.spec
        planes = encoded.class_matrix(0)
        with pytest.raises(DeviceFault):
            faulty.launch_combine(planes, 0, 4, 4)
        # Injected fault is counted on the device's registry; no launch ran.
        assert gpu.metrics.total("epi4_faults_injected_total") == 1
        assert gpu.metrics.total("epi4_kernel_launches_total", kernel="combine") == 0
        # Second call passes through and produces the real result.
        out = faulty.launch_combine(planes, 0, 4, 4)
        ref = gpu.launch_combine(planes, 0, 4, 4)
        assert np.array_equal(out.data, ref.data)

    def test_corrupts_tensor4_output(self, encoded):
        gpu = VirtualGPU(A100_PCIE, device_id=0)
        planes = encoded.class_matrix(0)
        wx = gpu.launch_combine(planes, 0, 4, 4)
        yz = gpu.launch_combine(planes, 0, 4, 4)
        clean = gpu.launch_tensor4(wx, yz, 4)
        inj = FaultInjector(parse_fault_spec("corrupt:count=1;seed=1"))
        faulty = FaultyGPU(gpu, inj)
        corrupted = faulty.launch_tensor4(wx, yz, 4)
        assert not np.array_equal(corrupted, clean)
        assert corrupted.min() < 0
        assert inj.stats.corrupt == 1

    def test_transfer_faults(self):
        gpu = VirtualGPU(A100_PCIE, device_id=3)
        inj = FaultInjector(parse_fault_spec("transient:op=transfer,count=1"))
        faulty = FaultyGPU(gpu, inj)
        with pytest.raises(DeviceFault) as exc:
            faulty.transfer_to_device(1024)
        assert exc.value.op == "transfer"
        assert exc.value.device_id == 3
        faulty.transfer_to_device(1024)
        assert gpu.metrics.total("epi4_transfer_bytes_total") == 1024


class TestFaultPlan:
    def test_plan_is_frozen_and_reusable(self):
        plan = FaultPlan(rules=(FaultRule(kind="transient", count=1),), seed=9)
        first = FaultInjector(plan)
        with pytest.raises(DeviceFault):
            first.on_launch(0, "combine")
        # A fresh injector replays the same schedule from scratch.
        second = FaultInjector(plan)
        with pytest.raises(DeviceFault):
            second.on_launch(0, "combine")


class TestPerKindKeyRejection:
    """Unknown/duplicate keys are rejected per kind, with the clause index."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_unknown_key_names_the_kind_and_its_valid_keys(self, kind):
        with pytest.raises(ValueError) as exc:
            parse_fault_spec(f"{kind}:bogus=1")
        msg = str(exc.value)
        assert "bogus" in msg
        assert kind in msg
        for valid in KIND_KEYS[kind]:
            assert valid in msg

    def test_error_carries_one_based_clause_index(self):
        with pytest.raises(ValueError, match=r"clause 2"):
            parse_fault_spec("transient:count=1;hang:bogus=1")

    def test_error_carries_the_offending_clause_text(self):
        with pytest.raises(ValueError, match=r"'hang:frobnicate=3'"):
            parse_fault_spec("transient;hang:frobnicate=3")

    def test_duplicate_key_rejected_with_clause_index(self):
        with pytest.raises(ValueError, match=r"clause 1.*duplicate key 'count'"):
            parse_fault_spec("transient:count=1,count=2")

    def test_kind_keys_covers_every_kind(self):
        assert set(KIND_KEYS) == set(FAULT_KINDS)


class TestReprRoundTrip:
    """``repr`` of rules and plans is ``eval``-able back to equality, so
    failure reports and logs can quote an exact reproduction recipe."""

    _NAMESPACE = {"FaultRule": FaultRule, "FaultPlan": FaultPlan}

    @pytest.mark.parametrize(
        "spec",
        [
            "transient:op=tensor4,count=2",
            "persistent:device=1,at=3",
            "corrupt:iter=0",
            "hang:op=tensor4,p=0.25",
            "transient:device=2,count=4",
        ],
    )
    def test_rule_round_trips(self, spec):
        rule = parse_fault_spec(spec).rules[0]
        assert eval(repr(rule), dict(self._NAMESPACE)) == rule

    def test_plan_round_trips(self):
        plan = parse_fault_spec(
            "transient:p=0.5;hang:op=tensor4;persistent:count=2;seed=42"
        )
        clone = eval(repr(plan), dict(self._NAMESPACE))
        assert clone == plan
        assert clone.rules == plan.rules and clone.seed == plan.seed


class TestHangAndOomInjection:
    def test_on_launch_returns_hang_action_and_counts(self):
        inj = FaultInjector(parse_fault_spec("hang:op=tensor4,count=2"))
        assert inj.on_launch(0, "combine") is None
        assert inj.on_launch(0, "tensor4") == "hang"
        assert inj.on_launch(0, "tensor4") == "hang"
        assert inj.on_launch(0, "tensor4") is None  # budget spent
        assert inj.stats.hang == 2
        assert inj.stats.total == 2

    def test_oom_is_not_a_fault_kind(self):
        # Device memory is checked once, up front (check_fits); there is
        # no runtime out-of-memory fault to inject.
        with pytest.raises(ValueError, match="unknown fault kind 'oom'"):
            parse_fault_spec("oom:op=tensor4,count=1")

    def test_plan_has_hang_property(self):
        assert parse_fault_spec("hang").has_hang
        assert not parse_fault_spec("transient;corrupt").has_hang

    def test_hang_without_watchdog_degrades_to_immediate_fault(self):
        gpu = VirtualGPU(A100_PCIE, device_id=2)
        inj = FaultInjector(parse_fault_spec("hang:op=transfer,count=1"))
        faulty = FaultyGPU(gpu, inj)  # no watchdog armed
        with pytest.raises(DeviceFault) as exc:
            faulty.transfer_to_device(64)
        assert exc.value.kind == "hang"
        assert exc.value.device_id == 2
        assert gpu.metrics.total("epi4_faults_injected_total") == 1
        # The launch never ran: nothing was transferred.
        assert gpu.metrics.total("epi4_transfer_bytes_total") == 0

    def test_hang_with_watchdog_stalls_until_cancelled(self):
        from repro.core.watchdog import LaunchWatchdog

        gpu = VirtualGPU(A100_PCIE, device_id=0)
        inj = FaultInjector(parse_fault_spec("hang:op=transfer,count=1"))
        dog = LaunchWatchdog(20.0)
        try:
            faulty = FaultyGPU(gpu, inj, dog)
            with pytest.raises(DeviceFault) as exc:
                faulty.transfer_to_device(64)
            assert exc.value.kind == "hang"
            assert dog.trips == 1
            # The next launch is clean and passes through.
            faulty.transfer_to_device(64)
            assert gpu.metrics.total("epi4_transfer_bytes_total") == 64
        finally:
            dog.close()
