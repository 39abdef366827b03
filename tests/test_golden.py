"""Golden event logs and reports: pinned sha256 digests, held across commits.

The determinism tests elsewhere only compare two runs in one process; these
digests were taken once and must never be edited to make a change pass. A
change that alters any of them alters a log or a report, which is a
behaviour change. The log-only invariants at the end name properties that
the digests would catch only by accident, over the golden runs and each
bundled scenario at seeds 0-7.
"""

import gc
import hashlib
import weakref
from collections import Counter
from pathlib import Path

import pytest

from paxsim import ClusterRun, cli, load_scenario, parse_scenario, run
from paxsim.eventlog import Delivery, LineRecord, dump_records, read_log, write_log
from paxsim.harness import replay_verdicts
from paxsim.logcheck import check_proposal_numbers
from paxsim.messages import ProposalNumber
from test_harness import COMPROMISE, CRASHED_LEADER, LOSSY_MAJORITY, MIXED_ROUND

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Every replica crashes in one tick: the group empties and the run halts.
ALL_CRASH = (SCENARIO_DIR / "all_crash.scenario").read_text(encoding="utf-8")

INLINE = {"COMPROMISE": COMPROMISE, "MIXED_ROUND": MIXED_ROUND,
          "LOSSY_MAJORITY": LOSSY_MAJORITY, "ALL_CRASH": ALL_CRASH,
          "CRASHED_LEADER": CRASHED_LEADER}

GOLDEN = {
    ("baseline", 0): "63ba8bee512451ae230c6459c43b1ea5f252ba3f3db7fb58b931c13ba938a3b2",
    ("baseline", 1): "c675268b028318b45fe2876e5e3257047875509af57b425bc4c57bd677ce006d",
    ("baseline", 2): "cbf3088f64d7d1bc7076d60ac9460c3fc1d267789bfaf96e6da56d098d29c66f",
    ("baseline", 3): "814489e3bac117ec67d36d71b688e57c663d31fe9031ab64f14c84a85a40b3aa",
    ("baseline", 4): "595d28c6fb6af54d6322fd7d5e32ee4aea2b67015650c196135c5684f3f3c576",
    ("baseline", 5): "0a0af98cc61bc9de05e534071f60fa9e4a424668a2ec00d7c3c1b946f9982481",
    ("baseline", 6): "07f9426175953b3dfb65cde6768117425e645cd341054806ba14581d454fa861",
    ("baseline", 7): "6db16d23eff4369636627b17c1488be2c198c12139c0fa0ed95509169e188324",
    ("error_streak", 0): "5b2e818b65d8e8f7ce041e3a2d84faf68d5998cd5a246f6ccb7ed0f2b0208567",
    ("error_streak", 1): "8ee427d95eeb848d83b550adcd47cb7940d6d822f391efe2b3b81a505b636614",
    ("error_streak", 2): "3d501fc2b2afefec455c0bb37bba82e78aaa9dd67823b3a710dfc3d529d692fa",
    ("error_streak", 3): "bb1f4c5089aaa1362d8a671c0f4c691047ac687e03c763f5afa54f41b33b0e72",
    ("error_streak", 4): "4b0c82d2c0b8bb679400bda4d4c66110f001b80ed563cfcf4c5cfcaeb914615a",
    ("error_streak", 5): "7ccfdd1711f6aa37746782a4de958431fa80af74f8b4f964c7a363132f9c4613",
    ("error_streak", 6): "1b11ed8e2f017e9bb007f211c787854bbcfcd4670c90ef6cd929a2e36ce6b6e2",
    ("error_streak", 7): "6a3fae7d69fff3c1dcd72f10068134ac273b411a60b78e956a880a74d46e4ca6",
    ("stale_count", 0): "88723d7057b4c672e454f7dc7aa75f6d04c36b239b6bcd8cbdff8e5998f524da",
    ("stale_count", 1): "285c63999e16cf2b028db267700eeae95e567da2344942236f69ce1c9d038c5f",
    ("stale_count", 2): "ff6b0bec2313702527ac69d394cc5cba4b593b65137d1e45e58b3756b956e066",
    ("stale_count", 3): "845ba2aab053d968c107bcf7e83691ff44436089c9b732c7f3b3e18f691ad20f",
    ("stale_count", 4): "772c8045c3e16c60c1ff167490e84276c67718d1b430ddd202237db62677676e",
    ("stale_count", 5): "436ce28a83eefe85deb8c7e6dd15d2d784a4b21294c00f2ab3c91f7c09e14de3",
    ("stale_count", 6): "f9803c2cd5a30efc811e69d5c9005ae1469b3fee2f8210ffa1a53a418567fec5",
    ("stale_count", 7): "4915968f0a5881291f9c9ee288cf1f1c091df5a1a3e259cb1f3e96b4d224ef8d",
    ("COMPROMISE", None): "d7527f6d84293652fc006ab838cd68a1cfe54fd89e25896eb2861454521442d4",
    ("MIXED_ROUND", None): "78456b65946c00364acec980011174240aab2c74a28eda29493ab97ad8546db3",
    ("LOSSY_MAJORITY", None): "2da7ca56b19a5991cc3a97f50eb2b82a192f198e19c05eaee04a61315f654bc1",
    ("lossy_pull", None): "fdf2dca1e425e3128f742bfe18f59d17494957ee5f545612d6d845e37f8a2513",
}

# sha256 of (Report.to_json(), Report.to_text()) for the same runs.
GOLDEN_REPORTS = {
    ("baseline", 0): ("44d67daf15b5e9a39b58d0d891e7f22b1e056d2061889885d08169aaf2a0c0db",
                       "097af3a25e112dddbf6772177dacea1ba8d7575179154ddc01620b57be2540f3"),
    ("baseline", 1): ("568cdf9ce7d4fd3e8376f66b7cd33e2a4d9f48e613437499bc7a8e95f6e36563",
                       "39a2561fd88b8e4be236306dfc1294405dbe5b0ad792518dbfed0b1a720db6ac"),
    ("baseline", 2): ("98bef862f2fd1def4ceb59a0874bc8e36ca562f8cc3bc4ee9aed8d8d7e4a8533",
                       "d81a2bc031be3efba226fcc9d4ffa2a1b66d0687fdc9357c51666923ebab991a"),
    ("baseline", 3): ("0605612c4401d6239ffccd15b89781f23148840e6ab95158b480c94d04bdef83",
                       "8d5490ac6caa907638db18e5997460efeb4bf44c39b5e6b64dbf5b402c626fe9"),
    ("baseline", 4): ("982e2819b8b9fad759f7c50fac6168b8e5c588d1c918167f0c610cb9947fafc1",
                       "cfafaa3e8a77e4e2307d63a76a708600fcb9efd101d27253d12e21fe3668e0c6"),
    ("baseline", 5): ("21b535186bb4a3efc77ec25423275be34c5f555ebf3d3db998f5fb25e385ad89",
                       "0fafdf67bfa5a8eb280e9bab65c8299c5cee842ae510a64562d8ffe24c3d220f"),
    ("baseline", 6): ("3bd09878d19b3b4533511257963aa2ac078e4ffd99be4c288efca5321d065ee3",
                       "04a6a56c84ea893f3a7e574bd10a994032314be7deb95bace9661299854f3891"),
    ("baseline", 7): ("b57d93f65d58a52257d38c81465ae03ca658195ff823db0d05d06cc0998cf1ed",
                       "5f24e36373ea06391ac694dfd2ab8600073e442112665f86f26ba142fc38740a"),
    ("error_streak", 0): ("cc573d8c94c92cb0e8bb1b14ece165b225c74440e56241f3c4e999ca4f286d58",
                           "698fd82bf992205edf9d6ef73c02a51d3da61ce9b45c9b95cea34bd9fc23a734"),
    ("error_streak", 1): ("66583ef15e466b6170e11ecefa1101f9713ffae9a2186476f6ac4e75a72f40c8",
                           "adb9efbcb89eba24dc2b2e66d4f7fddbe17dc25ab1547e4779908bd2e5ea0592"),
    ("error_streak", 2): ("b304e66e0ebc9ab4ac558787c01f195de5cdb948a9dd7d2dbd44f4b2f5302b87",
                           "f70b9a8e24d5b976aeffeeecc2e8e37d822a1f2e706152c3e1053bcdc98b8c21"),
    ("error_streak", 3): ("22e4d5e46ee32758165614c68c8ce03d3bfcc9b2e0cffba2c03542b934f46ca0",
                           "7d640a39c6f9f71224379c338e374242868c6a7bd4dff33d4ca00ef62c14eaa5"),
    ("error_streak", 4): ("cc999f47173d1f779beedc9b6a58a3c957903b6e41f3f70b1896c4c824290b59",
                           "2f53341c97755bcde938f4a8d64067ecc62636296ea2d140c2080dc9423890f6"),
    ("error_streak", 5): ("92f1a16c695437076be1ccb0b4d2486d5f622f847cc6d46048e243cd82ce10dc",
                           "cddaa38ecdc31b58efaaee4e7f5ff892575f6d031b7cd6d2ce3836a641267540"),
    ("error_streak", 6): ("ca24bd169da30b047fc8ab23bff5d8bee5d821f3d35c59ca25eb8cb3a1040a78",
                           "0daa1e5bd28640f3bdc6a9b3c76c8223b092795b8cdc0766245e3d16f166e084"),
    ("error_streak", 7): ("d96e840793f2358eb1ed77645c1ff62e509928d2e39d6e043caf98fcf72622fc",
                           "f63b151424dcbab99c048dbdade6ae619943aca7aed5630cd66377a643550e05"),
    ("stale_count", 0): ("38f8e8ad06d21cc2368941d057c3f6c51527dd004d28f1e5ca0b7a16e16e3c2b",
                          "7ab162eb74324bf76fe55a3c8a5767a93790435d884e256fb5e4e9ddb0ad5400"),
    ("stale_count", 1): ("2625a103b0ea2c993dd1e21f7aa8c7e5bc88c56a370ccf6d4c1343fe428d529c",
                          "c22401063252d99d5cda3e7e561681f56016f00c5e84c49489bc7f8457bd75bf"),
    ("stale_count", 2): ("8d0ab2b195a61ef896ae67e251ec08dbf5fb21dbf67fc005f5b0fc236c306de4",
                          "3927e5f1d22f3306042e22b857844c3135707e2760fd76debb9c93efc0c560a6"),
    ("stale_count", 3): ("933745fef1a83c59e124dc2e1f96ba181bd44357cd0b2130bbb4e4c55bd3ddad",
                          "1fbe3ce900c0ffce68453b203165ddf1f470b136d811b6ba68126c710221d490"),
    ("stale_count", 4): ("5333c7e3f29758755b450076f7bd4280d9f9eb1998521b163be4b7e75ce83d20",
                          "e15800d3c2b24c18c0bf88482459f25e27831394ccdf43019d46ab406de7bee8"),
    ("stale_count", 5): ("852f0296bd65cf03d7d56e6f7f1b25d21a8feed01eaa8b3be2f20f7502534f9a",
                          "37308e7d5c75ebd59d2871dcc280ae05f51cca34c03c8f3b24312cdf6de05469"),
    ("stale_count", 6): ("b988537d13997aeb1779563e9f65283e953f1172f30cc05137d82c81a8e7610e",
                          "bdb27f6f0e97d7ccb7258a1bc0d9120db750ab6ad06958c72f9e1b55bb612aa9"),
    ("stale_count", 7): ("d6de7e831fa70278c0a2e8bb2b0accaae3645b6335e7511e76e331d686a1e7b9",
                          "7069fd94233250d891084d94b96f4155384bec60a0487b748141f31ef0319874"),
    ("COMPROMISE", None): ("2cb9ec6fb21912f91442364d2dcc94143b67ecea0e24a4c3b7240c9472dddb32",
                            "e083cee1c8689925c349c41d5c7d98b481c7758933b7cc010f9ef69581feec8a"),
    ("MIXED_ROUND", None): ("1e4cbe326f854ec2e3a022ea76326538990892549ec406424d2238252e2bbcff",
                             "d2c212ff6b5ccb85f4f36596cfc484511dba8b96c65791cedeaf8b047c2ab3d2"),
    ("LOSSY_MAJORITY", None): ("4d0c62897cba28d07cf0aaeb1d7923426a76a60e566ae63a441b58515b1a93cd",
                                "9c448ef4bd89b6c46103b9d6c87c1cf10f49f3d89cca8bd68e275be84a77662c"),
    ("lossy_pull", None): ("bd14ba3d3eef3afd82ab20b5951be630d06ccf2830690707c38597a416d968bd",
                            "fce1000d1296aa25540e8f7beb77e6f4ac4e6c27f6c4d050f40bce3518ba2879"),
}


def golden_scenario(name):
    if name in INLINE:
        return parse_scenario(INLINE[name])
    return load_scenario(SCENARIO_DIR / f"{name}.scenario")


def golden_run(name, seed):
    return run(golden_scenario(name), seed=seed)


def log_digest(records):
    return hashlib.sha256(dump_records(records).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, seed", list(GOLDEN))
def test_log_matches_its_golden_digest(name, seed):
    assert log_digest(golden_run(name, seed).records) == GOLDEN[name, seed]


@pytest.mark.parametrize("name, seed", list(GOLDEN))
def test_live_records_and_their_log_file_agree(tmp_path, name, seed):
    # Live deliveries hold packets, records read back hold text; both read as the same fields.
    live = golden_run(name, seed).records
    path = tmp_path / "run.log"
    write_log(live, path)
    from_file = read_log(path)
    # Every line write_log writes here is in the fast-path grammar.
    assert all(type(record) is LineRecord for record in from_file)
    verdicts = sum(record.kind == "Verdict" for record in live)
    assert replay_verdicts(live) == replay_verdicts(from_file) == (verdicts, [])
    assert check_proposal_numbers(live) == check_proposal_numbers(from_file)
    assert dump_records(from_file) == dump_records(live)
    deliveries = [i for i, record in enumerate(live) if type(record) is Delivery]
    assert deliveries and all(live[i].fields == from_file[i].fields for i in deliveries)


@pytest.mark.parametrize("name, seed", list(GOLDEN_REPORTS))
def test_report_matches_its_golden_digests(name, seed):
    report = golden_run(name, seed).report
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                    for text in (report.to_json(), report.to_text()))
    assert digests == GOLDEN_REPORTS[name, seed]


def test_golden_runs_cover_every_verdict_and_fault_record():
    # Catch-up leaves no lossy golden slot Inconclusive; ALL_CRASH's slot is one.
    kinds, verdicts = Counter(), Counter()
    for name, seed in list(GOLDEN) + [("ALL_CRASH", None)]:
        for record in golden_run(name, seed).records:
            kinds[record.kind] += 1
            if record.kind == "Verdict":
                verdicts[record.fields["verdict"]] += 1
    assert {"AnomalyReport", "Drop", "Repropose", "Election", "Failure", "CatchUp",
            "Decided", "Query"} <= set(kinds)
    assert set(verdicts) == {"Consensus", "Anomaly", "Inconclusive"}


@pytest.mark.parametrize("name, seed", list(GOLDEN) + [("ALL_CRASH", None)])
def test_a_dropped_cluster_is_freed_by_reference_counting(name, seed):
    # With the cyclic collector off, only an acyclic node graph dies with its last reference.
    gc.disable()
    try:
        cluster = ClusterRun(golden_scenario(name), seed=seed)
        result = cluster.run()
        parts = [cluster, cluster.sim, cluster.learner, cluster.membership, *cluster.replicas]
        refs = [weakref.ref(part) for part in parts]
        del cluster, parts
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert alive == []
    if name == "ALL_CRASH":
        assert result.report.halted
    else:  # the result the caller keeps outlives the cluster whole
        assert log_digest(result.records) == GOLDEN[name, seed]


def test_a_cluster_runs_once_and_leaves_its_result_whole():
    cluster = ClusterRun(golden_scenario("COMPROMISE"))
    result = cluster.run()
    with pytest.raises(RuntimeError, match="runs once"):
        cluster.run()
    assert log_digest(result.records) == GOLDEN["COMPROMISE", None]


def test_a_halted_run_replays_clean(tmp_path):
    # The learner logs membership 1 for the emptied group, as replay now tracks it.
    records = golden_run("ALL_CRASH", None).records
    assert replay_verdicts(records) == (1, [])
    path = tmp_path / "all_crash.log"
    write_log(records, path)
    assert replay_verdicts(read_log(path)) == (1, [])
    assert cli.main(["replay", "--log", str(path)]) == cli.EXIT_OK


# Every golden run, and each bundled scenario at seeds 0-7.
BUNDLED = sorted(path.stem for path in SCENARIO_DIR.glob("*.scenario"))
INVARIANT_RUNS = list(GOLDEN) + [(name, seed) for name in BUNDLED for seed in range(8)
                                 if (name, seed) not in GOLDEN]


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_every_promise_is_delivered_to_the_proposer_its_number_names(name, seed):
    # So the round check_proposal_numbers notes from a Promise is one its recipient
    # proposed itself, and the ceiling it observes is sound.
    promises = [r.fields for r in golden_run(name, seed).records if r.kind == "Promise"]
    assert promises
    assert [f for f in promises if ProposalNumber.parse(f["n"]).proposer != int(f["to"])] == []


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_no_node_sends_itself_a_packet_over_the_network(name, seed):
    # A node's messages to itself are in-node hand-offs: no Delivery, Drop or DiscardCrashed.
    routed = [r.fields for r in golden_run(name, seed).records
              if "from" in r.fields and "to" in r.fields]
    assert routed
    assert [f for f in routed if int(f["from"]) == int(f["to"])] == []


def leadership_violations(records) -> list[str]:
    """Proposals not by the current leader in its epoch; packets a non-leader sent in it."""
    problems = []
    leader = epoch = None
    for record in records:
        kind = record.kind
        if kind not in ("Init", "Election", "Propose", "Repropose", "MajorityReached",
                        "Prepare", "AcceptRequest"):
            continue
        fields = record.fields
        where = f"t={record.time} seq={record.seq} {kind}"
        if kind in ("Init", "Election"):
            leader, epoch = int(fields["leader"]), int(fields["epoch"])
        elif kind in ("Prepare", "AcceptRequest"):  # a delivery
            if int(fields["from"]) != leader and int(fields["epoch"]) == epoch:
                problems.append(f"{where}: from non-leader {fields['from']} in epoch {epoch}")
        elif int(fields["from"]) != leader:
            problems.append(f"{where}: from {fields['from']}, but {leader} leads")
        elif kind != "MajorityReached" and int(fields["epoch"]) != epoch:
            problems.append(f"{where}: epoch {fields['epoch']}, but it is {epoch}")
    return problems


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_only_the_leader_proposes_in_its_epoch(name, seed):
    assert leadership_violations(golden_run(name, seed).records) == []


def unprepared_accepts(records) -> list[str]:
    """AcceptRequest deliveries whose n no MajorityReached by their sender in their epoch
    logged before them: phase 2 runs only under a number a majority promised."""
    problems = []
    epoch = None
    prepared = set()  # (sender, epoch, n) of each MajorityReached so far
    for record in records:
        kind = record.kind
        if kind in ("Init", "Election"):
            epoch = int(record.fields["epoch"])
        elif kind == "MajorityReached":
            fields = record.fields
            prepared.add((int(fields["from"]), epoch, str(fields["n"])))
        elif kind == "AcceptRequest":
            fields = record.fields
            if (int(fields["from"]), int(fields["epoch"]), fields["n"]) not in prepared:
                problems.append(f"t={record.time} seq={record.seq} AcceptRequest: from "
                                f"{fields['from']} in epoch {fields['epoch']} under "
                                f"{fields['n']}, which no majority promised it")
    return problems


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_every_accept_request_follows_its_senders_majority_in_its_epoch(name, seed):
    assert unprepared_accepts(golden_run(name, seed).records) == []


def proposals_after_crash(records) -> list[str]:
    """Propose, Repropose and MajorityReached records from a node after its Crash."""
    problems = []
    crashed = set()
    for record in records:
        if record.kind == "Crash":
            crashed.add(int(record.fields["node"]))
        elif (record.kind in ("Propose", "Repropose", "MajorityReached")
              and int(record.fields["from"]) in crashed):
            problems.append(f"t={record.time} seq={record.seq} {record.kind}: "
                            f"from {record.fields['from']}, which has crashed")
    return problems


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS + [("CRASHED_LEADER", None)])
def test_no_crashed_node_proposes(name, seed):
    assert proposals_after_crash(golden_run(name, seed).records) == []


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_a_run_and_its_log_read_back_leave_no_cyclic_garbage(tmp_path, name, seed):
    # The event loop and read_log pause the cyclic collector; this is what makes that safe.
    path = tmp_path / "run.log"
    gc.disable()
    try:
        gc.collect()
        result = golden_run(name, seed)
        write_log(result.records, path)
        del result
        after_run = gc.collect()
        replay_verdicts(read_log(path))
        after_read = gc.collect()
    finally:
        gc.enable()
    assert (after_run, after_read) == (0, 0)
