"""Golden event logs: pinned sha256 digests of whole logs, held across commits.

The determinism tests elsewhere only compare two runs in one process; these
digests were taken once and must never be edited to make a change pass. A
change that alters any of them alters a log, which is a behaviour change.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from paxsim import load_scenario, parse_scenario, run
from paxsim.eventlog import dump_records
from test_harness import COMPROMISE, MIXED_ROUND

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Five replicas at 10% loss under the majority policy, one of them lying:
# drops, a re-proposal, AnomalyReports and all three verdict kinds in one run.
LOSSY_MAJORITY = """
name: lossy_majority
acceptors: 5
anomaly_policy: majority
net: {seed: 4, base_delay: 1, jitter: 2, loss_rate: 0.1}
timing: {horizon: 800}
machine:
  states: ["S0", "S7"]
  start: "S0"
  rules:
    - {from: "S0", to: "S7", output_regex: "Error", threshold: 0}
app_model: {outputs: [{request: "q.*", output: "OK"}], default_output: "OK"}
requests:
  - {at: 1, payload: "q1"}
  - {at: 10, payload: "q2"}
  - {at: 20, payload: "q3"}
  - {at: 30, payload: "q4"}
  - {at: 40, payload: "q5"}
  - {at: 50, payload: "q6"}
faults:
  - {at: 0, target: 3, kind: compromise, override: {"q2": "Error", "q5": "Error"}}
"""

INLINE = {"COMPROMISE": COMPROMISE, "MIXED_ROUND": MIXED_ROUND,
          "LOSSY_MAJORITY": LOSSY_MAJORITY}

GOLDEN = {
    ("baseline", 0): "52715657e0c4fb4dfbb16212076d198dabef7450ab37d6ed28d07072ecc4adf7",
    ("baseline", 1): "dfa7c015d27d713649c640d29fa93487acd7b2015989ba733d5419ef42d6f7d2",
    ("baseline", 2): "84d45c453dbfe8c9f741112996491299e6dcd1e5edd14a622e4ea0c0c376c75a",
    ("baseline", 3): "c5a6b4cb785615b01e491923f039bf87e72bf1fe524d62806dda715d9e996664",
    ("baseline", 4): "baf822c47fd6e4aa0ff7d282bb574a0a50c4d26e5a039b553c9a23ef7759bf82",
    ("baseline", 5): "4b1f99ed9974b210da9ad2e1905d35d1c4ab8253d17fcdcf7033ea095ae595df",
    ("baseline", 6): "c9a1af67478cf70f782409f63796fd81f3d37daf0477e55312ea0720f48360aa",
    ("baseline", 7): "effca2727e98a7f60a40bbc80de8f60bd2441cab30b17329e2f85fa4b8e68f28",
    ("error_streak", 0): "ce5b6c60d1c0b8a9b6705a1d3e392a9687845dcb712469c187cb549ddd6d02df",
    ("error_streak", 1): "7c8d19dc915bb9420928d672c6e43bb186a082d95e901ae4c99c31a136a01fbd",
    ("error_streak", 2): "3dc0ba418c3ce971e9f8d02ac8ec2839e80c3671269197d38d8d16bb07687131",
    ("error_streak", 3): "a1210bdd6c15eadf9ea3ba858f34a018b39e2a68f96eddacf450a5fedf3fb16f",
    ("error_streak", 4): "5885211b8d92038efd0b6df29adc6cc88377b1f342734105307fd7dd3165e0bb",
    ("error_streak", 5): "90974814ef63d8a32d7d3f0b66c471d82db172e83168426c44f0f8bd0b513fc5",
    ("error_streak", 6): "ac7664e6beb447b264db808a739dc0a8bd37eebf4e2edd2b68a0f9723f71fe63",
    ("error_streak", 7): "06a5562a55d9fc2dea05f9b9ce8962ac10b5d0f384b02042645e1f119f997932",
    ("stale_count", 0): "137d217f3ee5ebf3b7948827314f269b302ba83698438a392a31359ee601caba",
    ("stale_count", 1): "baa813809d974a9337c1d404aa63c0f1e1200cd0ef35e2072180b266768a4155",
    ("stale_count", 2): "d4c89b47510a40b96892a2286b8c498c1e71211dd20815e3257bc1ac0c6ce712",
    ("stale_count", 3): "00f044904f9720f34b9b4e6e4fa9c05bba3bc8162478c42bad15ad30b50f4b4e",
    ("stale_count", 4): "840fae6059730e81e699fd17e1ff551a2faf498ac4bf2bef42c74cafdce9edbd",
    ("stale_count", 5): "453f85c8fbcf924f517969901d779d89b425dbce179e410d77ac73a783c685fe",
    ("stale_count", 6): "84ca6ef2bfae07a949b68a663b7557882adaa3008a75a541a7e5ba81f071228c",
    ("stale_count", 7): "27130fcaefabc3c9d0f0c28682c37759d1575c5bfd6f980760cc72aa8a72e53c",
    ("COMPROMISE", None): "f7fa4dfeb50768bcd033c1daf68137c9b0e1d8db6870223917c9a9dfde39c790",
    ("MIXED_ROUND", None): "bd3c13230004f8a5b4a994a3baae87a1eecbe575b68a8e60e9e3e235ee785d37",
    ("LOSSY_MAJORITY", None): "ba91f92b79e303e5d24c9db0acbf1d8f9b16a1f83dfb4a7d71742d51587c981f",
}


def golden_run(name, seed):
    if name in INLINE:
        return run(parse_scenario(INLINE[name]), seed=seed)
    return run(load_scenario(SCENARIO_DIR / f"{name}.scenario"), seed=seed)


@pytest.mark.parametrize("name, seed", list(GOLDEN))
def test_log_matches_its_golden_digest(name, seed):
    log = dump_records(golden_run(name, seed).records)
    assert hashlib.sha256(log.encode("utf-8")).hexdigest() == GOLDEN[name, seed]


def test_golden_runs_cover_every_verdict_and_fault_record():
    kinds, verdicts = Counter(), Counter()
    for name, seed in GOLDEN:
        for record in golden_run(name, seed).records:
            kinds[record.kind] += 1
            if record.kind == "Verdict":
                verdicts[record.fields["verdict"]] += 1
    assert {"AnomalyReport", "Drop", "Repropose", "Election", "Failure"} <= set(kinds)
    assert set(verdicts) == {"Consensus", "Anomaly", "Inconclusive"}
