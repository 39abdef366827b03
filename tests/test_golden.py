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
    ("baseline", 0): "ba2fe30529c45af1321ec6d8b0eabf59761f7cf55f13facc222fb710780e41d3",
    ("baseline", 1): "4d6e0ba730b59edf576ed5c8ce910266d9009e4be5144cbe71a46709ee7145fc",
    ("baseline", 2): "ad4f8631bfdbd5a7ceacd190748f4a91d9c750d1a75b12acb45904a980d71a49",
    ("baseline", 3): "e1227953ba24d4351de7e75e6b1eb36723f716ff091b3eda1cacaec3dd1bf9fc",
    ("baseline", 4): "efca74810d21aff42f7821db43deb30a5eb4a9975861bc4ec4e1efd77f03b561",
    ("baseline", 5): "ea8733f365304526cfd13e402a68e6309ff937b25ca8b9aea4079c716c17a568",
    ("baseline", 6): "5c8e228c750e8ee2ef5fec1a882dc481b9184d3642572683e94560c5da2fd6d9",
    ("baseline", 7): "015720f2f70856c6a8272f5ed7d4532a98077669ea48c42705040e3a55c1e97c",
    ("error_streak", 0): "22f45fbf21f99c78e31b911d68409488de2acbcd121fe67f893a95a1611e59c3",
    ("error_streak", 1): "214f433de435ab5a991e1ea9cd9c423876bee03a090fe489bf955e30d94b4682",
    ("error_streak", 2): "e501b1d09916df8d13a43a4856a5e06d1ace42e860d17a640f4f7fe0fec340f7",
    ("error_streak", 3): "f45d4c16f730dec96bf8766efb853a278ea2346ba3ae5ffd5ee47c9206b6dc07",
    ("error_streak", 4): "bdd4401008353ac641a05b6ac782fe5cc49e60a7333f7ddfd542e324ec191701",
    ("error_streak", 5): "06e561407b82bd0b140be4e81557916a4e6811829c30da546fd4d03248c3df8f",
    ("error_streak", 6): "c5c4abee1e47bd22359224b9ef3907dc20c9012035baccf5f87ca931409e7337",
    ("error_streak", 7): "570037060c3440994cd31ec4366f15a07c3b08d5665b58171a57f59f227dab61",
    ("stale_count", 0): "1338c236667e630a41319339dfaeda9a56a5d71253f2af3b66c555e77c315c1a",
    ("stale_count", 1): "8fec3cf2b229977bfb2e2db8a8d3580b46f13c2790e0f36a698daca098a2cd8e",
    ("stale_count", 2): "8500f5da3c65ab0bb44d23e035ed28b724945466ac8d9ca2642e52d57a13e59b",
    ("stale_count", 3): "7116e26414d61ed711fdab4ab963ff867b3808938dfdf1fb098b482b56825bfe",
    ("stale_count", 4): "404e2e1d3adce75c48deda6e368dbe000b8aad64eaa7018d16c5c385c0e930e9",
    ("stale_count", 5): "1590ab54e7b6adcca858c1185ab3480defa3108b443d38787cf0df514a2cccd0",
    ("stale_count", 6): "63be79a23af7a0259c1ea1cfff8dd089be115d97a85c359205f027f75e170d88",
    ("stale_count", 7): "4a3483f68efe7569f56e8aa81823a559da4fdf3a2565ed7f86083729834009ab",
    ("COMPROMISE", None): "6629559e5c24d4bd388ad55b6bf9011bb1d1eef833eb11f6ee2a5d96b1b43a19",
    ("MIXED_ROUND", None): "1374660f4379a72da9f6ae596a1420f15ada9e60c40746a9574e66ca03c1aaec",
    ("LOSSY_MAJORITY", None): "7230a802b8c42ad4f3290267d961f0329edeec6734f7350a619b245a299a6ca6",
    ("lossy_pull", None): "8b6187aa8e85b7120510908efa2d967bab5520e83354c44146671dd811b8c835",
}

# sha256 of (Report.to_json(), Report.to_text()) for the same runs.
GOLDEN_REPORTS = {
    ("baseline", 0): ("c114eefe8f9ac25ab4367fb2bbdbe115c4d1ab2ebb09971604feab1ddac88b3d",
                       "1c10a716ca10064358446745f6def38fc2bd82eb9fd72d43479b1e507098b225"),
    ("baseline", 1): ("e0e758e28f6107d737c71f10341a3b789c0701e74bdc9bdaee0987f30134220a",
                       "a00e8f625acffbc45bea3dfbefb054e4eec0868843703a7f971e4ffdfda850b8"),
    ("baseline", 2): ("968110c5c8dd62793fb3d6bcee54a8bc94d3bfad47aed9a2ab58e963ce2b9631",
                       "8e2b8a509d8e88cb2755a4337803793d1ba2b9772260f609b385fc0af9152fe2"),
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
    ("error_streak", 1): ("23867a8d4fe578a80485266b2d0f57b06345c28697a1dc8e641e27ff33153259",
                           "e90f9c66240f1fcae8d0fbfa62e966889e954ab5e7a174dbfa2615a2546240c3"),
    ("error_streak", 2): ("6736ab9da4c703126e287e22d091251a51f01a677da02d25f9db12b4687ae4ea",
                           "0d4373d2551252ce09a3ef2b2845d6675cef3aac5930fc7f72e6ed528ecff405"),
    ("error_streak", 3): ("fe868cec59dc48e193840477c44ba98791cff8eac27f9bd758459125d2f6b499",
                           "1cd8f8b033ab2e7a9f2423cd73a8901939dea2b5375157a7bfbf958ed7223c46"),
    ("error_streak", 4): ("569bd7f0a9227cd10db418756d337116f7c4aed1c809c84a1ca52a6a3911faa3",
                           "c3ddc1b5ecdcaa5c1ffb87a742b34d71ab334832df236816c6e05a67c14781ed"),
    ("error_streak", 5): ("722ddf6df01dc529572679b511e6b0d6e3126c9882ee4613921979ba4166d0c3",
                           "83cd3f282bf6836c3814b811668711360f9b5cdc4faad2616ca3020b92d2e40f"),
    ("error_streak", 6): ("ca24bd169da30b047fc8ab23bff5d8bee5d821f3d35c59ca25eb8cb3a1040a78",
                           "0daa1e5bd28640f3bdc6a9b3c76c8223b092795b8cdc0766245e3d16f166e084"),
    ("error_streak", 7): ("3e911c5d9aa391e4f7b86eddc66698a046cedaf87a890f6a3a192c0e06477d38",
                           "bf49dd2f485dde3a61dc12b7e3ebf1279d1b302f29e3c41b22cd1afb0910b397"),
    ("stale_count", 0): ("dd32409b01e6d786e474f41b7a1fe26a357b76b9d155fb29b1d19433371f1c37",
                          "b82a9aa95073f4ace6b1a44533171f30ea03cb3211983a43b2f981a0ec93018a"),
    ("stale_count", 1): ("a2071e121199a035358a39968ffc56606b644ec21d5e7716c55151d455401adc",
                          "385b873d62e5537e0ef127ca5e647bf62cf15622bb6ee3098be2778dd91df738"),
    ("stale_count", 2): ("c44338079abfce68660dca0a4877d92f46f4e30dc642cec9a65ce068ce18b170",
                          "7a8d125560758e5eca312efb72c24a9216e1568765d55cdcbe1501d423a01f6c"),
    ("stale_count", 3): ("ad590332c8a405446198d6732caf909b7e01b07a19111389b7fd272c68277748",
                          "4f03bf6457fd56ddd331e4be0a4f19cc35898d7d14e935332bce16dcd6bc1416"),
    ("stale_count", 4): ("0d83c6f1b7c8191b10b4cd70682f8218ba26849cc6de0b963ed9106faa734a6a",
                          "f59d16eb572903d3648c28a0b241380a833603bdec0ea1ec22c51be6ffe0d07e"),
    ("stale_count", 5): ("d08552a648afd1d7c13698611d975af0429714875bd1b3a098c2f3979fbe6828",
                          "6eef7ab4e981856991139a31151a2511016f7d0fd3f6026993f120dc98b07c40"),
    ("stale_count", 6): ("3fb3c769d6599c26c8fa37caaed181202c170b8355226c9b72ba5bedd5c8f4a1",
                          "e1c6526c5b406be7204b2115d3185493d5d4ced15a8f8287c7232adbc508b5bb"),
    ("stale_count", 7): ("4972b1491dc3247d24ca12ad2b94fba7480171e004c518c52531dba5a2f1be9a",
                          "df8ecca5432ceee582c63a8ce9dd210b76066e8937bfecdbeb951f36b348a4c6"),
    ("COMPROMISE", None): ("2cb9ec6fb21912f91442364d2dcc94143b67ecea0e24a4c3b7240c9472dddb32",
                            "e083cee1c8689925c349c41d5c7d98b481c7758933b7cc010f9ef69581feec8a"),
    ("MIXED_ROUND", None): ("e883f6774e967a8a18deba80e0143a489752817101273693cd9ec10d226a49ee",
                             "fbc2810f9a84452210e68d4b8d44bc14c34886fc0871036a878b02ad517712b1"),
    ("LOSSY_MAJORITY", None): ("7de39d3af1cfea91959cf5f0830e2a5c561c127765ecdea3199e4ced0667f70f",
                                "7be1f846efad4279ba112de7d46f55c3a6508d6639340723fb51148928e43a97"),
    ("lossy_pull", None): ("083d9579a9dc27a7ad3317cb41524162ca32aa2238a40cbfba2a0537d22feb39",
                            "de647f57129b299c8ec9c683acf424f43c211a38f839af322c927d6033811ff0"),
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
