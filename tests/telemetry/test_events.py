"""The static event-name registry."""

import pytest

from repro.runtime.work import StepNames
from repro.telemetry.runtime import registered


class TestRegistry:
    def test_step_names_all_registered(self):
        for step in StepNames.ORDER:
            assert registered(step) == step  # does not raise

    def test_unregistered_name_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            registered("no.such.metric")
