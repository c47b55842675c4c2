"""The live ``src/repro`` tree carries none of the static hazards of
:mod:`tests.analysis.hazards`: one test per hazard."""

import pytest

from tests.analysis.hazards import package_files, scan


@pytest.fixture(scope="module")
def live_findings():
    return scan(package_files())


def of_rule(findings, rule):
    return [finding for finding in findings if finding[2] == rule]


def test_no_wall_clock_outside_the_service_layer(live_findings):
    assert of_rule(live_findings, "MP201") == []


def test_no_unseeded_random_source(live_findings):
    assert of_rule(live_findings, "MP202") == []


def test_no_set_iteration_in_result_paths(live_findings):
    assert of_rule(live_findings, "MP203") == []


def test_gateway_handlers_are_pure(live_findings):
    assert of_rule(live_findings, "MP605") == []


def test_no_suppression_comment_under_src(live_findings):
    assert of_rule(live_findings, "MP001") == []
