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
    ("baseline", 0): "206b651bca63f0325ce00a9fd62358608e0973bea029acb1cffb920e34c5e1b8",
    ("baseline", 1): "3f3142f121d76913a5aa10afc3e94550cad3e5ee66b2ae1322c1e5a0b5e4f1aa",
    ("baseline", 2): "426e37e6ad5b170470ef73c4479a2cbd5698395970298e37bef931945c49c308",
    ("baseline", 3): "b11c6c8d3cf84da78ce1249b3319e763f94523ddb322ee593e675e803b281c91",
    ("baseline", 4): "0cbc5f5520356fed719d661fcac043ac568a69aaacfe695191b236272e9d78e8",
    ("baseline", 5): "31f9fdb650c9a668e2346159351df793edf6c0f85060b08e32f2f22b0d0a9c59",
    ("baseline", 6): "e48cf9b009328066e37105dd571f0fddf364dd671c59265ac0c6e6e93e99413e",
    ("baseline", 7): "d14d02a39c6c1f7551fd2070c0e46f95e1296ad2aa97a6910c637735e7756d82",
    ("error_streak", 0): "bac9475e0353d186f05889d72d8d11a69aaefb624805779056a36561384c48b0",
    ("error_streak", 1): "91b9ec53fe82e1fa6087cf57480cdd2210df104187f9e9406e3ea414ebfb01f3",
    ("error_streak", 2): "f8b92ab8b3cccf8321f8145f18cb6fe5f432eba8c93f27c8e234ac9095cecc28",
    ("error_streak", 3): "311a89a70b2c6efbedc9c6659195cd81c6be481fb23b48e7a736eada499b3ad2",
    ("error_streak", 4): "a3f3676ed82f5e7a1554a08d767b764085e526abb84115ec9ecc18b8b7e21bfa",
    ("error_streak", 5): "878c12ad61ccc02cf9418840377f0d875f6d7aa7ccb59d5a11a1f8aeaa78443e",
    ("error_streak", 6): "015af0af111151b3c0fbb09aaae88a6f145e487866859790d09e83a1d353a565",
    ("error_streak", 7): "7032ef37f488b2df1adde0b04342009c559f08c1a968b08828abda0d854cf86d",
    ("stale_count", 0): "e309f823e3767ef6c0180789e1e442140d38c15020261b3fcc9e552498137bbb",
    ("stale_count", 1): "40967b65d708ed75dc2ccda1b0d35d7e5ddd0af2e458457ea9ca20b98adc4d00",
    ("stale_count", 2): "1b528bb0022600613cdd04dc206fe10e50a21d9f159bc8a171783dfda4e36435",
    ("stale_count", 3): "f86f58fd8810b7322f63d52ca531ef167f90590671f4ae6dbebc9e91d4e10fbb",
    ("stale_count", 4): "f99eb219ec20256ffb0435a27f3cfdf2d47e6970b43fd8b7caf938b27b49366c",
    ("stale_count", 5): "84c59ca6401b993a1f739bdf97a99a7a5c7baac08d8f7035c2614e5c7a3aa9fa",
    ("stale_count", 6): "ba39a459ad4fc1e2a30aa4d2be6c542ae60b06dbd3ada3fcf387c4a4d41bf723",
    ("stale_count", 7): "0a07f830ff97208d3a86863b5fb5ce9035e2d8153dbaa2fa40ec5e806c72034f",
    ("COMPROMISE", None): "63543b2aba149dce394b9c3ee5c9a239ea4841df719a30ac0c77acfe859b2738",
    ("MIXED_ROUND", None): "232fb05d9d534fd3c05a9d0510ebeeb2021ec96a613044a425605e4e5777f45b",
    ("LOSSY_MAJORITY", None): "1271670b94419658b05693789a6517aa4eb957a01590d63da6e3d2272fdbb5bf",
    ("lossy_pull", None): "ec9cfc4d6cd8db453f31a94c3b9c418bcc5ff1c2df9c2ca83e6b7fb73edde9c8",
}

# sha256 of (Report.to_json(), Report.to_text()) for the same runs.
GOLDEN_REPORTS = {
    ("baseline", 0): ("719c8751fa61faeebcf249d20002c26dce76d7157be5613fe5bdde898990f8f1",
                       "2e5f5a37e38e991905de16b1cf799c74c8f27a78aef5d908442a5db98c7d63da"),
    ("baseline", 1): ("568cdf9ce7d4fd3e8376f66b7cd33e2a4d9f48e613437499bc7a8e95f6e36563",
                       "39a2561fd88b8e4be236306dfc1294405dbe5b0ad792518dbfed0b1a720db6ac"),
    ("baseline", 2): ("968110c5c8dd62793fb3d6bcee54a8bc94d3bfad47aed9a2ab58e963ce2b9631",
                       "8e2b8a509d8e88cb2755a4337803793d1ba2b9772260f609b385fc0af9152fe2"),
    ("baseline", 3): ("1813c26bfbb5d93154f7ed413a9ac112784c2d63708407915b25589ca699b676",
                       "0d0f1c54e93c249e288efe9f873e6cd1baeb70eceaebb6e702805ba19e1e5587"),
    ("baseline", 4): ("982e2819b8b9fad759f7c50fac6168b8e5c588d1c918167f0c610cb9947fafc1",
                       "cfafaa3e8a77e4e2307d63a76a708600fcb9efd101d27253d12e21fe3668e0c6"),
    ("baseline", 5): ("2c21445d42341224619c3f9035c33c04209ec98089e3160a6c102e6314f3ab20",
                       "3d07b09c44e09ab12f6bbb523516ef0b551c1dcb1d7829ea30c2e7be092f511b"),
    ("baseline", 6): ("b1d002f6b9548e9940581de2ad4d75b9b71c018dceee6c2982a597f012595d50",
                       "96eb5d388a484132147f4705fe983997a28c93d83ca2d4c04e37336e9f030904"),
    ("baseline", 7): ("b57d93f65d58a52257d38c81465ae03ca658195ff823db0d05d06cc0998cf1ed",
                       "5f24e36373ea06391ac694dfd2ab8600073e442112665f86f26ba142fc38740a"),
    ("error_streak", 0): ("cc573d8c94c92cb0e8bb1b14ece165b225c74440e56241f3c4e999ca4f286d58",
                           "698fd82bf992205edf9d6ef73c02a51d3da61ce9b45c9b95cea34bd9fc23a734"),
    ("error_streak", 1): ("66583ef15e466b6170e11ecefa1101f9713ffae9a2186476f6ac4e75a72f40c8",
                           "adb9efbcb89eba24dc2b2e66d4f7fddbe17dc25ab1547e4779908bd2e5ea0592"),
    ("error_streak", 2): ("a166c03ec4ed444cac23597d67a57a8855ee0f6f1e285d21e91ed86e65fd6165",
                           "d8d306b9147110a7cdda01cfbde8dbff82f4d7dbc2f28b0d6335b4345e593108"),
    ("error_streak", 3): ("58efa8ab3e3c4649da42d6bbf0c87c0f98bc629cf178682360090523e7bc0c7c",
                           "e329907287eac9bd00cb4711b5fda7b784a972c7149716bc8c89f97123002b8d"),
    ("error_streak", 4): ("cc999f47173d1f779beedc9b6a58a3c957903b6e41f3f70b1896c4c824290b59",
                           "2f53341c97755bcde938f4a8d64067ecc62636296ea2d140c2080dc9423890f6"),
    ("error_streak", 5): ("c5f17385619ce3c5362860a4d9aec7f9da1d7d009b4501e575f19cf4dfb6ba71",
                           "4e19967ef3d1503e4244f1494517d674d49883b6c4fb8d3ffa17b556c3f3d41a"),
    ("error_streak", 6): ("420d556279521d88f99a63cee74b45405f22ad5297bf42fac300bab7a688eb2c",
                           "2da6eca9a177562ecb251ca35cd0f2d9cbb61afcbfbf3939127c0567d22dd8b6"),
    ("error_streak", 7): ("6e4984383d5381a57c411d2c75b6369a047b11a61b8fe2c1221c35b4274176ab",
                           "7f6506c3a46be72fe93faa7f23eed1565d308ec631932393488f410238204ea6"),
    ("stale_count", 0): ("c4047e71cd5b087c4ab615f216b461c331017cc8baa8f59a118693a6d50ceee5",
                          "40fd2efd1b6335058292f81bfb6c22e1ee66c0fedfb2474c79a9a94964a60950"),
    ("stale_count", 1): ("2625a103b0ea2c993dd1e21f7aa8c7e5bc88c56a370ccf6d4c1343fe428d529c",
                          "c22401063252d99d5cda3e7e561681f56016f00c5e84c49489bc7f8457bd75bf"),
    ("stale_count", 2): ("05f70f8db677cbbc789396190734f4229cf51ed4dd64dad7aa202771971a5c1a",
                          "ca08a91cb5b3220158129d41e7bdf3ef12f70cf3707105db66de2112a832fa67"),
    ("stale_count", 3): ("7ebd631b1995a2fd32983e72792ca0532876c226ff0c4614ff9c165825a5f4c6",
                          "4083cff6de665ea26d72308fa45ca3d32a9f2d571c9117202f4165d84444be2d"),
    ("stale_count", 4): ("a93be203d97d7f2a93f0cd7bb26693e258099251de2388bf2f7a04ffdf9396c0",
                          "72685df65cd1f1d9fbb42d91c95c25119dea78ecfacce2484dcaed868781612b"),
    ("stale_count", 5): ("1a5a9165f990b1c46eae0f8d5389019565b07b2f5ced957e2455923ccc80d1ea",
                          "7c89197b0b118b90f2fe8bfcba5ff6269587714ef39ab1d31655d42c300c68e6"),
    ("stale_count", 6): ("823c3896a997bb1df2496a442aaaff6de21cdef92bef1fc90c401b618ae85792",
                          "ab37f78de8db74e770bf93e416f94773aab1b0f17d299023b8953354825208f9"),
    ("stale_count", 7): ("d6de7e831fa70278c0a2e8bb2b0accaae3645b6335e7511e76e331d686a1e7b9",
                          "7069fd94233250d891084d94b96f4155384bec60a0487b748141f31ef0319874"),
    ("COMPROMISE", None): ("14017b8549bb0ffbfd2cc4d252836193764d3c3ec7a917bce5f152b63dd7d17e",
                            "e91c16153c91827d7cf463e38d22e59a1f6f3953d575860204f29a70d24a6f69"),
    ("MIXED_ROUND", None): ("feeb73e94518302f868c38542d80abf10cedf3c81fbbcc8a28750941b41a9c02",
                             "441538c87845518fa4fba842df132888088e1d88f5aef83a62b2f8a7e86ebb0c"),
    ("LOSSY_MAJORITY", None): ("96abf75d774f8335e4c96e8e97d3b4643d82adba006e0e8fb20b34786dc083d1",
                                "4e41197042dfa69cad3b0cbefde9ddebe727c6083e1192a325de462b6603862a"),
    ("lossy_pull", None): ("4aebfeaaee640a096bf280d18399da9a27cc77ddddb87a928ba2997fe1deaa6d",
                            "1fc59cbe84460b94131645cad759ec5d1064e9a88c7e054d067c099f470eea84"),
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
    # The learner logs membership 0 for the emptied group, as replay tracks it.
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


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_every_accepted_goes_to_the_learner(name, seed):
    # Phase 2 keeps no acceptance votes: acceptors report to the learner only.
    records = golden_run(name, seed).records
    learner = int(records[0].fields["acceptors"])
    accepted = [r.fields for r in records if r.kind == "Accepted"]
    assert accepted
    assert [f for f in accepted if int(f["to"]) != learner] == []
    dropped = [r.fields for r in records
               if r.kind in ("Drop", "DiscardCrashed") and r.fields["pkt"] == "Accepted"]
    assert [f for f in dropped if int(f["to"]) != learner] == []


@pytest.mark.parametrize("name, seed", INVARIANT_RUNS)
def test_a_replica_reports_one_triple_per_slot(name, seed):
    # An acceptor answers a retried slot and a Query with the report it cached when it
    # executed the slot, so no retry forks a replica: every Accepted delivery from one
    # replica for one slot carries the same output and state. (A Drop or DiscardCrashed
    # record names only the packet's kind, so it has no output or state to compare.)
    first, forks = {}, []
    for record in golden_run(name, seed).records:
        if record.kind == "Accepted":
            fields = record.fields
            report = first.setdefault((fields["from"], fields["req"]),
                                      (fields["output"], fields["state"]))
            if report != (fields["output"], fields["state"]):
                forks.append(f"t={record.time} seq={record.seq}: {fields} after {report}")
    assert first
    assert forks == []


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
