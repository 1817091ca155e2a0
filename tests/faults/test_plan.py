"""Tests for the declarative crash plans (repro.faults.plan)."""

import pytest

from repro.faults import FaultPlan, plan_from_env


class TestSpecStrings:
    def test_unknown_key_fails_loudly(self):
        # a key of the deleted read-fault plans is as unknown as a typo
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.from_spec("read_error_rate=0.2")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_spec("crash_after_writes")


class TestPlanFromEnv:
    def test_absent_and_off_mean_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"FAULT_PLAN": ""}) is None
        assert plan_from_env({"FAULT_PLAN": "off"}) is None

    def test_flix_variable_wins(self):
        plan = plan_from_env(
            {"FLIX_FAULT_PLAN": "crash_after_writes=1",
             "FAULT_PLAN": "crash_after_writes=5"}
        )
        assert plan.crash_after_writes == 1


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
