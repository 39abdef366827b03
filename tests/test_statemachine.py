"""State machine semantics against a brute-force trace oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from paxsim.messages import ClientRequest
from paxsim.statemachine import (
    BadRegex,
    MachineError,
    NoStartState,
    StarNotSelfLoop,
    UnknownState,
    apply,
    compile_app_model,
    compile_machine,
    execute,
    initial_state,
)

ERROR_EDGE = {
    "states": ["3", "7"],
    "start": "3",
    "rules": [{"from": "3", "to": "7", "output_regex": "Error|Failure", "threshold": 6}],
}


def test_compile_error_edge_fragment():
    machine = compile_machine(ERROR_EDGE)
    assert machine.start == "3"
    assert machine.rules[0].threshold == 6
    assert machine.rules[0].target == "7"


def test_compile_trivial_single_state():
    machine = compile_machine({"states": ["S"], "start": "S", "rules": []})
    assert initial_state(machine).current == "S"


def test_compile_rejects_undeclared_state():
    bad = {"states": ["3", "7"], "start": "3",
           "rules": [{"from": "3", "to": "9", "output_regex": "x", "threshold": 1}]}
    with pytest.raises(UnknownState):
        compile_machine(bad)


def test_compile_rejects_bad_regex():
    bad = {"states": ["S"], "start": "S",
           "rules": [{"from": "S", "to": "S", "output_regex": "(", "threshold": 1}]}
    with pytest.raises(BadRegex):
        compile_machine(bad)


def test_compile_rejects_missing_start():
    with pytest.raises(NoStartState):
        compile_machine({"states": ["S"], "start": "T", "rules": []})


def test_compile_rejects_star_that_moves():
    bad = {"states": ["A", "B"], "start": "A",
           "rules": [{"from": "A", "to": "B", "output_regex": "x", "threshold": "*"}]}
    with pytest.raises(StarNotSelfLoop):
        compile_machine(bad)


def test_compile_rejects_an_unknown_rule_or_output_key():
    misspelt = {"states": ["S", "T"], "start": "S",
                "rules": [{"from": "S", "to": "T", "output_regex": "x", "thresold": 5}]}
    with pytest.raises(MachineError, match=r"^rules\[0\]\.thresold: unknown key$"):
        compile_machine(misspelt)
    with pytest.raises(MachineError, match=r"^outputs\[0\]\.ouptut: unknown key$"):
        compile_app_model({"outputs": [{"request": "a", "output": "OK", "ouptut": "Error"}]})


def test_compile_takes_tuples_from_a_python_caller():
    machine = compile_machine({"states": ("S", "T"), "start": "S",
                               "rules": ({"from": "S", "to": "T", "output_regex": "x"},)})
    assert (machine.states, machine.rules[0].target) == (("S", "T"), "T")
    model = compile_app_model({"outputs": ({"request": "a", "output": "OK"},)})
    assert execute(model, ClientRequest(0, "a")) == "OK"


def test_six_errors_hold_seventh_fires():
    machine = compile_machine(ERROR_EDGE)
    rs = initial_state(machine)
    for _ in range(6):
        rs = apply(machine, rs, "req", "Error")
        assert rs.current == "3"
    rs = apply(machine, rs, "req", "Error")
    assert rs.current == "7"
    assert rs.counters == {}


def test_no_match_resets_counters():
    machine = compile_machine(ERROR_EDGE)
    rs = initial_state(machine)
    rs = apply(machine, rs, "req", "Error")
    assert rs.counters == {0: 1}
    rs = apply(machine, rs, "req", "OK")
    assert rs.current == "3"
    assert rs.counters == {}


def brute_force_transition_step(threshold, streak, matched):
    """Independent oracle: a threshold-k edge fires on the (k+1)-th
    consecutive match. Returns (fired, new streak length)."""
    if not matched:
        return False, 0
    if streak + 1 >= threshold + 1:
        return True, 0
    return False, streak + 1


@pytest.mark.parametrize("threshold", [0, 1, 2, 3])
def test_apply_agrees_with_streak_oracle(threshold):
    machine = compile_machine({
        "states": ["A", "B"],
        "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "hit", "threshold": threshold}],
    })
    rng = random.Random(threshold)
    for _ in range(200):
        rs = initial_state(machine)
        streak = 0
        for _ in range(threshold + 5):
            output = rng.choice(["hit", "miss"])
            fired, streak = brute_force_transition_step(threshold, streak, output == "hit")
            rs = apply(machine, rs, "x", output)
            if fired:
                assert rs.current == "B"
                break
            assert rs.current == "A"
            assert rs.counters.get(0, 0) == streak


def test_threshold_zero_fires_immediately():
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "hit", "threshold": 0}]})
    rs = apply(machine, initial_state(machine), "x", "hit")
    assert rs.current == "B"


@pytest.mark.parametrize("threshold", [1, 2, 4])
def test_interleaved_miss_prevents_transition(threshold):
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "hit", "threshold": threshold}]})
    rs = initial_state(machine)
    for _ in range(threshold):
        rs = apply(machine, rs, "x", "hit")
    rs = apply(machine, rs, "x", "miss")
    for _ in range(threshold):
        rs = apply(machine, rs, "x", "hit")
        assert rs.current == "A"


def test_star_edge_never_escalates_and_keeps_counters():
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [
            {"from": "A", "to": "A", "output_regex": "idle", "threshold": "*"},
            {"from": "A", "to": "B", "output_regex": "hot", "threshold": 2},
        ]})
    rs = initial_state(machine)
    rs = apply(machine, rs, "x", "hot")
    before = dict(rs.counters)
    for _ in range(10):
        rs = apply(machine, rs, "x", "idle")
        assert rs.current == "A"
    assert rs.counters == before


def test_full_match_not_substring():
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "Error", "threshold": 0}]})
    rs = apply(machine, initial_state(machine), "x", "NoError")
    assert rs.current == "A"


def test_a_rule_whose_input_regex_misses_does_not_fire():
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "Error", "input_regex": "PUT .*",
                   "threshold": 0}]})
    assert machine.rules[0].input.pattern == "PUT .*"
    rs = apply(machine, initial_state(machine), "GET /x", "Error")
    assert rs.current == "A"
    assert apply(machine, rs, "PUT /x", "Error").current == "B"


def test_first_declared_rule_wins():
    machine = compile_machine({
        "states": ["A", "B", "C"], "start": "A",
        "rules": [
            {"from": "A", "to": "B", "output_regex": "x+", "threshold": 0},
            {"from": "A", "to": "C", "output_regex": "xx", "threshold": 0},
        ]})
    rs = apply(machine, initial_state(machine), "i", "xx")
    assert rs.current == "B"


machine_defs = st.builds(
    lambda thresholds: compile_machine({
        "states": ["A", "B", "C"],
        "start": "A",
        "rules": [
            {"from": "A", "to": "B", "output_regex": "e1", "threshold": thresholds[0]},
            {"from": "B", "to": "C", "output_regex": "e2", "threshold": thresholds[1]},
            {"from": "C", "to": "A", "output_regex": ".*", "threshold": thresholds[2]},
        ]}),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
traces = st.lists(st.sampled_from(["e1", "e2", "zz"]), max_size=30)


@given(machine_defs, traces)
def test_apply_stays_inside_declared_states_with_bounded_counters(machine, trace):
    rs = initial_state(machine)
    for output in trace:
        rs = apply(machine, rs, "in", output)
        assert rs.current in machine.states
        for idx, count in rs.counters.items():
            assert machine.rules[idx].source == rs.current
            assert count <= machine.rules[idx].threshold


@given(machine_defs, traces)
def test_replica_equivalence_on_identical_traces(machine, trace):
    a = initial_state(machine)
    b = initial_state(machine)
    for output in trace:
        a = apply(machine, a, "in", output)
        b = apply(machine, b, "in", output)
        assert a == b


def test_apply_and_execute_are_pure():
    machine = compile_machine(ERROR_EDGE)
    rs = initial_state(machine)
    first = apply(machine, rs, "req", "Error")
    second = apply(machine, rs, "req", "Error")
    assert first == second
    assert rs.counters == {}  # input untouched


def test_execute_direct_lookup_and_default():
    model = compile_app_model({
        "outputs": [{"request": "GET /health", "output": "OK"}],
        "default_output": "Error"})
    assert execute(model, ClientRequest(0, "GET /health")) == "OK"
    assert execute(model, ClientRequest(1, "unknown")) == "Error"


def test_execute_declaration_order_precedence():
    # Enumerate both orderings of two overlapping entries: first declared wins.
    entries = [{"request": "a.*", "output": "first"}, {"request": "ab", "output": "second"}]
    for ordering in (entries, entries[::-1]):
        model = compile_app_model({"outputs": ordering, "default_output": "d"})
        assert execute(model, ClientRequest(0, "ab")) == ordering[0]["output"]
