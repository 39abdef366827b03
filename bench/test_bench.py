"""Self-tests of the benchmark's oracle, percentile helper, tracer and inputs."""

import random

import pytest

import logstats
import oracle
import spans
import workloads

NET = {"seed": 1, "base_delay": 1, "jitter": 0, "loss_rate": 0.0}


def _case(payloads, compromised=None, override=None):
    return workloads._case("t", 3, NET, {"horizon": 500}, list(range(1, len(payloads) + 1)),
                           payloads, compromised, override or {}, ())


def _evaluator():
    return oracle.Evaluator(workloads.MACHINE, workloads.APP)


def _consensus(pair):
    return {"verdict": "Consensus", "output": pair[0], "state": pair[1]}


def _anomaly(agreeing, dissenting):
    return {"verdict": "Anomaly", "agreeing": agreeing, "dissenting": dissenting}


# Request 0 is tampered in its output, request 1 only in the state it leaves.
TAMPERED = _case(["GET /item/1", "DELETE /item/2"], compromised=2,
                 override={"GET /item/1": "Failure"})
HONEST = _case(["GET /item/1", "POST /pay/3"])


def test_evaluator_pairs():
    honest, compromised = oracle.expected_pairs(TAMPERED, _evaluator())
    assert honest == [("OK", "ok"), ("Failure", "ok")]
    assert compromised == [("Failure", "ok"), ("Failure", "warn")]


def test_evaluator_agrees_with_the_program_machine():
    from paxsim import ClientRequest, apply, compile_app_model, compile_machine, execute
    from paxsim.statemachine import initial_state

    machine, app = compile_machine(workloads.MACHINE), compile_app_model(workloads.APP)
    rng = random.Random(5)
    for _ in range(50):
        payloads = workloads._payloads(rng, 40)
        state, expected = initial_state(machine), []
        for rid, payload in enumerate(payloads):
            output = execute(app, ClientRequest(rid, payload))
            state = apply(machine, state, payload, output)
            expected.append((output, state.current))
        assert _evaluator().walk(payloads) == expected


def test_oracle_accepts_detection_and_counts_failures():
    verdicts = {0: _anomaly("0,1", "2"), 1: {"verdict": "Inconclusive"}}
    result = oracle.judge(TAMPERED, verdicts, _evaluator())
    assert result.tampered == {0, 1}
    assert result.failed == {1: "inconclusive"}
    undetected = {0: _consensus(("OK", "ok")), 1: _anomaly("0", "2")}
    assert oracle.judge(TAMPERED, undetected, _evaluator()).failed == {0: "undetected"}


def test_oracle_allows_either_side_of_a_one_to_one_tie():
    verdicts = {0: _anomaly("2", "0"), 1: _anomaly("0", "2")}
    assert oracle.judge(TAMPERED, verdicts, _evaluator()).failed == {}


@pytest.mark.parametrize("case, verdicts, message", [
    (HONEST, {0: _consensus(("OK", "warn")), 1: _consensus(("Error", "ok"))}, "Consensus on"),
    (TAMPERED, {0: _consensus(("Failure", "ok")), 1: _anomaly("0,1", "2")}, "Consensus on"),
    (HONEST, {0: _consensus(("OK", "ok")), 1: _anomaly("0,1", "2")}, "untampered"),
    (HONEST, {0: _consensus(("OK", "ok"))}, "without a verdict [1]"),
    (TAMPERED, {0: _anomaly("2", "0,1"), 1: _anomaly("0,1", "2")}, "omit the compromised"),
    (TAMPERED, {0: _anomaly("0", "1"), 1: _anomaly("0,1", "2")}, "without a report"),
])
def test_oracle_rejects_planted_errors(case, verdicts, message):
    with pytest.raises(oracle.CheckFailed, match=message.replace("[", r"\[").replace("]", r"\]")):
        oracle.judge(case, verdicts, _evaluator())


def test_failed_requests_count_as_unanswered_until_the_end():
    times = logstats.latencies([0, 10, 20], {0: 5, 1: 12, 2: 30}, {1}, final_time=100)
    assert times == [5, 90, 10]
    assert logstats.percentile(times, 50) == 10
    assert logstats.percentile(times, 99) == 90


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))
    assert logstats.percentile(values, 50) == 500
    assert logstats.percentile(values, 99) == 990  # ten values lie beyond it
    assert logstats.percentile([7], 99) == 7


def test_self_time_is_span_minus_children():
    #  a [0, 10] -> b [1, 4], c [5, 9] -> d [6, 8];  e [12, 13] is a second root
    name = ["a", "b", "c", "d", "e"]
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 8.0, 13.0]
    parent = [-1, 0, 0, 2, -1]
    own, calls, by_root = spans.self_times(name, start, end, parent)
    assert own == {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0, "e": 1.0}
    assert calls == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}
    assert sum(t for (root, _), t in by_root.items() if root == "a") == 10.0


def test_tracer_links_nested_calls():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Box, "outer", "box.outer")
    tracer.wrap(Box, "inner", "box.inner", hook=lambda result, args: seen.append(result))
    seen = []
    with tracer.span("phase"):
        assert Box().outer() == 2
    names, start, end, parent = tracer.columns()
    assert names == ["phase", "box.outer", "box.inner"]
    assert list(parent) == [-1, 0, 1]
    assert seen == [1]
    own, _, _ = spans.self_times(names, start, end, parent)
    assert sum(own.values()) == pytest.approx(end[0] - start[0])


def test_inputs_repeat_per_seed_and_keep_their_size():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(3), make(3), make(4)
        assert [c.text for c in first] == [c.text for c in again]
        assert sum(len(c.payloads) for c in first) == sum(len(c.payloads) for c in other)
        assert sum(len(c.payloads) for c in first) >= 1000
    assert [c.text for c in workloads.lossy(3)] == [c.text for c in workloads.lossy(4)]
    assert workloads.sweep(3)[-1] == workloads.sweep(4)[-1] == workloads.mixed_round_probe()


def test_sweep_scenarios_pass_the_oracle():
    from paxsim import parse_scenario, run

    for case in workloads.sweep(9)[:40]:
        records = run(parse_scenario(case.text)).records
        facts = logstats.read_facts(records, case.acceptors)
        assert oracle.judge(case, facts.verdicts, _evaluator()).failed == {}


def test_meter_scales_wall_time_by_the_calibration_beside_it(monkeypatch):
    import hostspeed

    samples = iter([hostspeed.REFERENCE_S * 2, hostspeed.REFERENCE_S * 4])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    meter = hostspeed.Meter.__new__(hostspeed.Meter)
    meter.last = hostspeed.sample()  # the host runs at half speed before the call...
    result, wall, reference = meter.call(lambda x: x + 1, 41)
    assert result == 42
    assert reference == pytest.approx(wall / 3)  # ...and at a quarter after it


def test_phases_time_batches_and_report_each_batch_median():
    import run

    results, seconds = run.timed_each(lambda x: 2 * x, range(45))
    assert results == [2 * x for x in range(45)]
    assert len(seconds) == 23  # 45 calls in batches of 45 // run.BATCHES = 2
    rounds = [{"p": [[(9.0, 1.0), (9.0, 10.0)], [(9.0, 3.0), (9.0, 20.0)]]},
              {"p": [[(9.0, 2.0), (9.0, 99.0)]]}]
    assert run.typical(rounds, "p") == 2.0 + 20.0
