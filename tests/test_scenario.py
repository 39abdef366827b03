"""Scenario parsing and validation."""

import os
import re
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from paxsim import cli, scenario as scenario_module
from paxsim.scenario import ParseError, ValidationError, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
acceptors: 3
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests: []
"""


@pytest.mark.parametrize("name", ["baseline", "error_streak", "stale_count", "lossy_pull"])
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
    assert parse_scenario(MINIMAL.replace("requests: []", "requests: ~\nfaults: null")) == scenario


def assert_invalid(tmp_path, capsys, text, field_name, detail):
    """parse_scenario names field_name, and paxsim validate exits 1 with its message."""
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.field_name == field_name
    path = tmp_path / "bad.scenario"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_INVALID
    message = capsys.readouterr().err
    assert message.startswith(f"invalid scenario: {field_name}: {detail}")
    assert "Traceback" not in message


@pytest.mark.parametrize("tail, field_name", [
    ("requests: 0", "requests"),
    ("requests: {}", "requests"),
    ("requests: ''", "requests"),
    ("faults: {}", "faults"),
    ("faults: 0", "faults"),
    ("requests: [{at: 0, payload: ~}]", "requests[0].payload"),
    ("faults: [{at: 0, target: 1, kind: compromise, override: {~: Error}}]",
     "faults[0].override"),
    ("faults: [{at: 0, target: 1, kind: compromise, override: {q: ~}}]",
     "faults[0].override.q"),
    ("name: ~", "name"),
], ids=["requests-int", "requests-mapping", "requests-text", "faults-mapping", "faults-int",
        "payload-null", "override-key-null", "override-value-null", "name-null"])
def test_a_wrong_typed_list_or_a_null_text_field_is_invalid(tmp_path, capsys, tail, field_name):
    text = MINIMAL.replace("requests: []\n", "") + tail + "\n"
    assert_invalid(tmp_path, capsys, text, field_name, "")


@pytest.mark.parametrize("machine, detail", [
    ('{states: [~, "S", "None"], start: "S", rules: []}', "states[0]: expected text, got null"),
    ('{states: ["S", "None"], start: "S", rules: [{from: ~, to: "S"}]}',
     "rules[0].from: expected text, got null"),
    ('{states: ["S", "None"], start: "S", rules: [{from: "S", to: ~}]}',
     "rules[0].to: expected text, got null"),
], ids=["state-null", "from-null", "to-null"])
def test_a_null_state_name_is_invalid_not_the_text_none(tmp_path, capsys, machine, detail):
    # Each machine declares a state "None", so a null read as that text would compile.
    text = MINIMAL.replace('{states: ["S"], start: "S", rules: []}', machine)
    assert_invalid(tmp_path, capsys, text, "machine", detail)


@pytest.mark.parametrize("old, new, field_name, detail", [
    ("requests: []", "requests: [{at: 0, payload: {k: v}}]", "requests[0].payload",
     "expected text, got dict"),
    ("requests: []", "requests: [{at: 0, payload: [a]}]", "requests[0].payload",
     "expected text, got list"),
    ("requests: []", "faults: [{at: 0, target: 1, kind: compromise, override: {q: {a: 1}}}]",
     "faults[0].override.q", "expected text, got dict"),
    ("requests: []", "faults: [{at: 0, target: 1, kind: compromise, override: {q: [E]}}]",
     "faults[0].override.q", "expected text, got list"),
    ('default_output: "OK"', "default_output: {a: 1}", "app_model",
     "default_output: expected text, got dict"),
    ("outputs: []", "outputs: [{request: [a], output: OK}]", "app_model",
     "outputs[0].request: expected text, got list"),
    ("outputs: []", "outputs: [{request: a, output: {b: 1}}]", "app_model",
     "outputs[0].output: expected text, got dict"),
], ids=["payload-mapping", "payload-list", "override-mapping", "override-list",
        "default-output-mapping", "request-list", "output-mapping"])
def test_a_mapping_or_list_where_text_belongs_is_invalid(tmp_path, capsys, old, new, field_name,
                                                         detail):
    assert old in MINIMAL
    assert_invalid(tmp_path, capsys, MINIMAL.replace(old, new), field_name, detail)


@pytest.mark.parametrize("old, new, field_name, detail", [
    ("acceptors: 3", "acceptors: five", "acceptors", "expected an integer, got 'five'"),
    ("requests: []", "net: 5", "net", "expected a mapping, got int"),
    ("requests: []", "net: {speed: 1}", "net.speed", "unknown key"),
    ("requests: []", "timing: {pace: 1}", "timing.pace", "unknown key"),
    ("requests: []", "requests: [{at: 0}]", "requests[0].payload", "missing payload"),
    ("requests: []", "faults: [{at: 0, target: 1, kind: reboot}]", "faults[0].kind",
     "expected crash or compromise, got 'reboot'"),
    ('states: ["S"]', "states: []", "machine", "machine declares no states"),
    ("rules: []", 'rules: [{from: "T", to: "S"}]', "machine",
     "rules[0].from: 'T' is not a declared state"),
], ids=["acceptors-text", "net-int", "net-unknown-key", "timing-unknown-key",
        "request-without-payload", "fault-kind-unknown", "no-states", "rule-from-undeclared"])
def test_a_scenario_that_breaks_a_rule_is_invalid(tmp_path, capsys, old, new, field_name, detail):
    assert old in MINIMAL
    assert_invalid(tmp_path, capsys, MINIMAL.replace(old, new), field_name, detail)


@pytest.mark.parametrize("text, detail", [
    ("", "empty document"),
    ("- acceptors: 3\n", "top level must be a mapping"),
    (None, "[Errno 2] No such file or directory"),
], ids=["empty-document", "top-level-list", "missing-file"])
def test_a_scenario_that_cannot_be_read_is_invalid(tmp_path, capsys, text, detail):
    path = tmp_path / "bad.scenario"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(path)
    assert cli.main(["validate", "--scenario", str(path)]) == cli.EXIT_INVALID
    message = capsys.readouterr().err
    assert message.startswith(f"invalid scenario: {path}: ") and detail in message
    assert "Traceback" not in message


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


@pytest.mark.parametrize("text, cause, where", [
    # libyaml encodes the text to UTF-8 first; the pure reader rejects the character
    ("acceptors: 3\nname: \ud800\n", (UnicodeEncodeError, yaml.reader.ReaderError), "line 2"),
    ("acceptors: 3\nname: !!python/object:os.system {}\n", yaml.constructor.ConstructorError, "line 2"),
    ("acceptors: 3\nname: !!python/object/apply:os.system [true]\n",
     yaml.constructor.ConstructorError, "line 2"),
    ("acceptors: 3\nname: \x07\n", yaml.reader.ReaderError, "line 2"),
    # libyaml's offset counts bytes: read as characters it would land on line 6
    ("name: \u00e9\u00e9\u00e9\u00e9\u00e9\n\x07\n\n\n\n\n", yaml.reader.ReaderError, "line 2"),
], ids=["lone-surrogate", "python-object-tag", "python-apply-tag", "control-character",
        "control-character-after-multibyte"])
def test_unloadable_yaml_is_a_parse_error(text, cause, where):
    with mock.patch.object(os, "system", side_effect=AssertionError("constructed a python object")):
        with pytest.raises(ParseError) as err:
            parse_scenario(text, name_hint="bad.scenario")
    assert isinstance(err.value.__cause__, cause)
    assert str(err.value).startswith(f"bad.scenario: {where}: ")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_a_scenario_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bad.scenario"
    bad.write_bytes(b"acceptors: 3\r\nname: caf\xe9\n")
    assert cli.main([command, "--scenario", str(bad)]) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {bad}: line 2: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err


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
    'app_model: {outputs: [{request: "GET /x"}]}',
    'app_model: {outputs: [{output: "OK"}]}',
    'app_model: {outputs: [{request: "GET /x", output: null}]}',
    'machine: {states: ["S"], start: "S", rules: [{from: "S", to: "S", output_regex: null}]}',
    "app_model: {outputs: [], default_output: null}",
], ids=["rule-not-mapping", "rules-not-list", "states-not-list", "boolean-threshold",
        "output-not-mapping", "outputs-not-list", "output-without-output",
        "output-without-request", "output-null", "output-regex-null", "default-output-null"])
def test_malformed_machine_sections_are_validation_errors(section):
    key = section.split(":")[0]
    text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith(key))
    with pytest.raises(ValidationError) as err:
        parse_scenario(text + "\n" + section + "\n")
    assert err.value.field_name == key


def _parse_with_the_pure_loader(text):
    with mock.patch.object(scenario_module, "_LOADER", yaml.SafeLoader):
        return parse_scenario(text)


labels = st.text(max_size=8)
patterns = labels.map(re.escape)
ticks = st.integers(0, 10**6)


@st.composite
def scenario_docs(draw):
    acceptors = draw(st.integers(1, 7))
    states = draw(st.lists(labels, min_size=1, max_size=3, unique=True))
    rule = st.fixed_dictionaries(
        {"from": st.sampled_from(states), "to": st.sampled_from(states),
         "output_regex": patterns, "threshold": st.integers(0, 5)},
        optional={"input_regex": patterns})
    target = st.integers(0, acceptors - 1)
    fault = st.one_of(
        st.fixed_dictionaries({"at": ticks, "target": target, "kind": st.just("crash")}),
        st.fixed_dictionaries({"at": ticks, "target": target, "kind": st.just("compromise"),
                               "override": st.dictionaries(labels, labels, min_size=1, max_size=2)}))
    return {
        "name": draw(labels),
        "acceptors": acceptors,
        "anomaly_policy": draw(st.sampled_from(["strict", "majority"])),
        "net": {"seed": draw(st.integers(0, 2**64 - 1)), "base_delay": draw(st.integers(0, 9)),
                "jitter": draw(st.integers(0, 9)), "loss_rate": draw(st.floats(0.0, 1.0))},
        "timing": {"heartbeat_interval": draw(st.integers(1, 99)), "horizon": draw(st.integers(1, 10**6))},
        "machine": {"states": states, "start": draw(st.sampled_from(states)),
                    "rules": draw(st.lists(rule, max_size=3))},
        "app_model": {"outputs": draw(st.lists(st.fixed_dictionaries(
                          {"request": patterns, "output": labels}), max_size=3)),
                      "default_output": draw(labels)},
        "requests": [{"at": at, "payload": draw(labels)}
                     for at in sorted(draw(st.lists(ticks, max_size=4)))],
        "faults": draw(st.lists(fault, max_size=2)),
    }


@settings(max_examples=60, deadline=None)
@given(scenario_docs(), st.booleans())
def test_parse_matches_the_pure_loader_on_dumped_documents(doc, allow_unicode):
    for flow_style in (False, True):
        text = yaml.safe_dump(doc, default_flow_style=flow_style, allow_unicode=allow_unicode,
                              sort_keys=False)
        assert parse_scenario(text) == _parse_with_the_pure_loader(text)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scenario")), ids=lambda p: p.stem)
def test_parse_matches_the_pure_loader_on_bundled_scenarios(path):
    text = path.read_text(encoding="utf-8")
    assert parse_scenario(text) == _parse_with_the_pure_loader(text)


def test_parse_uses_libyaml_when_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    with mock.patch.object(expected, "__init__", autospec=True,
                           side_effect=expected.__init__) as init:
        parse_scenario(MINIMAL)
    init.assert_called_once()
