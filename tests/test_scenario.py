"""Scenario parsing and validation."""

from pathlib import Path

import pytest

from paxsim.scenario import ParseError, ValidationError, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
acceptors: 3
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests: []
"""


@pytest.mark.parametrize("name", ["baseline", "error_streak", "stale_count"])
def test_bundled_scenarios_load(name):
    scenario = load_scenario(SCENARIO_DIR / f"{name}.scenario")
    assert scenario.name == name
    assert scenario.acceptors >= 1


def test_error_streak_fixture_encodes_the_counted_edge():
    scenario = load_scenario(SCENARIO_DIR / "error_streak.scenario")
    rule = scenario.machine.rules[0]
    assert (rule.source, rule.target, rule.threshold) == ("3", "7", 6)
    assert rule.matches("anything", "Error")
    assert rule.matches("anything", "Failure")
    assert not rule.matches("anything", "OK")
    assert len(scenario.requests) == 7


def test_minimal_scenario_with_no_requests_is_valid():
    scenario = parse_scenario(MINIMAL)
    assert scenario.requests == ()
    assert scenario.faults == ()


def test_fault_target_out_of_range_names_the_field():
    text = MINIMAL + "faults: [{at: 0, target: 3, kind: crash}]\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == "faults[0].target"


def test_decreasing_arrivals_rejected():
    text = """
acceptors: 3
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 9, payload: "a"}
  - {at: 3, payload: "b"}
"""
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == "requests[1].at"


def test_malformed_yaml_reports_line():
    with pytest.raises(ParseError) as err:
        parse_scenario("acceptors: 3\n  bogus indent: [", name_hint="bad.scenario")
    assert "bad.scenario" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError):
        parse_scenario(MINIMAL + "surprise: 1\n")


@pytest.mark.parametrize("loss", [-0.1, 1.5, "high"])
def test_bad_loss_rate_rejected(loss):
    text = MINIMAL + f"net: {{seed: 1, loss_rate: {loss!r}}}\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == "net.loss_rate"


def test_bad_machine_surfaces_as_validation_error():
    text = """
acceptors: 3
machine: {states: ["S"], start: "T", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests: []
"""
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == "machine"


def test_bad_policy_rejected():
    with pytest.raises(ValidationError):
        parse_scenario(MINIMAL + "anomaly_policy: lenient\n")


def test_compromise_requires_override():
    text = MINIMAL + "faults: [{at: 0, target: 1, kind: compromise}]\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == "faults[0].override"


def test_star_threshold_parses():
    text = """
acceptors: 3
machine:
  states: ["S"]
  start: "S"
  rules:
    - {from: "S", to: "S", output_regex: ".*", threshold: "*"}
app_model: {outputs: [], default_output: "OK"}
requests: []
"""
    scenario = parse_scenario(text)
    assert scenario.machine.rules[0].threshold is None


@pytest.mark.parametrize("section", [
    'machine: {states: ["S"], start: "S", rules: [5]}',
    'machine: {states: ["S"], start: "S", rules: 5}',
    'machine: {states: 5, start: "S", rules: []}',
    'machine: {states: ["S"], start: "S", rules: [{from: "S", to: "S", threshold: true}]}',
    "app_model: {outputs: [7]}",
    "app_model: {outputs: 5}",
], ids=["rule-not-mapping", "rules-not-list", "states-not-list", "boolean-threshold",
        "output-not-mapping", "outputs-not-list"])
def test_malformed_machine_sections_are_validation_errors(section):
    key = section.split(":")[0]
    text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(key))
    with pytest.raises(ValidationError) as err:
        parse_scenario(text + "\n" + section + "\n")
    assert err.value.field_name == key
