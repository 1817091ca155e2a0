"""Tests for the declarative fault plans (repro.faults.plan)."""

import pytest

from repro.faults import FaultPlan, plan_from_env


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(read_latency_rate=-0.1)

    def test_counters_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(fail_first=-1)
        with pytest.raises(ValueError):
            FaultPlan(break_after=-2)
        with pytest.raises(ValueError):
            FaultPlan(latency_seconds=-0.5)

    def test_noop_detection(self):
        assert FaultPlan().is_noop
        assert not FaultPlan(read_error_rate=0.1).is_noop
        assert not FaultPlan(fail_first=1).is_noop
        assert not FaultPlan(break_after=0).is_noop
        assert not FaultPlan(crash_after_writes=2, torn_write_bytes=4).is_noop

    def test_table_restriction(self):
        plan = FaultPlan(read_error_rate=1.0).restricted_to("edges")
        assert plan.applies_to("edges")
        assert not plan.applies_to("other")
        assert FaultPlan().applies_to("anything")


class TestSpecStrings:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=7,
            read_error_rate=0.2,
            fail_first=3,
            break_after=100,
            tables=("a", "b"),
        )
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_unknown_key_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.from_spec("read_eror_rate=0.2")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_spec("read_error_rate")


class TestPlanFromEnv:
    def test_absent_and_off_mean_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"FAULT_PLAN": ""}) is None
        assert plan_from_env({"FAULT_PLAN": "off"}) is None

    def test_moderate_scenario_by_name(self):
        plan = plan_from_env({"FAULT_PLAN": "moderate"})
        assert plan == FaultPlan.moderate()
        assert plan.read_error_rate == pytest.approx(0.2)

    def test_spec_string(self):
        plan = plan_from_env({"FLIX_FAULT_PLAN": "read_error_rate=0.5,seed=9"})
        assert plan.read_error_rate == pytest.approx(0.5)
        assert plan.seed == 9

    def test_flix_variable_wins(self):
        plan = plan_from_env(
            {"FLIX_FAULT_PLAN": "seed=1,fail_first=1", "FAULT_PLAN": "moderate"}
        )
        assert plan.fail_first == 1


class TestCrashFaults:
    """The crash-fault fields (crash_after_writes / torn_write_bytes)."""

    def test_crash_fields_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_after_writes=-1)
        with pytest.raises(ValueError):
            FaultPlan(torn_write_bytes=-3)

    def test_spec_round_trips_crash_fields(self):
        plan = FaultPlan.from_spec("crash_after_writes=3,torn_write_bytes=9")
        assert plan.crash_after_writes == 3
        assert plan.torn_write_bytes == 9
        again = FaultPlan.from_spec(plan.to_spec())
        assert again == plan

    def test_spec_none_clears_crash_fields(self):
        plan = FaultPlan.from_spec("crash_after_writes=none")
        assert plan.crash_after_writes is None

    def test_env_plan_with_crash_fields(self):
        plan = plan_from_env({"FAULT_PLAN": "crash_after_writes=1"})
        assert plan is not None and plan.crash_after_writes == 1
