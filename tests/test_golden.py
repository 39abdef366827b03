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
    ("stale_count", 0): "9861275ad296a903b784912ca9ee3d49c33b956c5a885be69551d7c5d6bffd03",
    ("stale_count", 1): "baa813809d974a9337c1d404aa63c0f1e1200cd0ef35e2072180b266768a4155",
    ("stale_count", 2): "382fffe7e7efc2865069d09293a4e2a6af704020e97d3c4986892fc8a074bae0",
    ("stale_count", 3): "dcfd3a4b59ef520bed34f61c145630f533fb0ff9d83bf160942528f53330a11a",
    ("stale_count", 4): "7f9c54c4b4e72c70668140206e1ee1289f501e89fc91801539473cac1a0e4bd7",
    ("stale_count", 5): "a603e247489b609652e8c800a076e33235ad36fa57dce2f465fe00b833a59e1e",
    ("stale_count", 6): "72dc9ba570ef53c036e33723417df0779b485f307c6c054a6060c602fdda7bf5",
    ("stale_count", 7): "3034fb9d57f3bce6c9b23d6e04081d3c2e8fc572beeb9c42ce44fd2588dd4bf1",
    ("COMPROMISE", None): "f7fa4dfeb50768bcd033c1daf68137c9b0e1d8db6870223917c9a9dfde39c790",
    ("MIXED_ROUND", None): "215dbdb47e05ad649976810bc3cea1ca8786215ef7c16ffef38cf4e851ab48f4",
    ("LOSSY_MAJORITY", None): "ea8eab508e65fcae2a06764535c2a23dbaf8704b89203e33e29b0d28a6ab4a89",
    ("lossy_pull", None): "0b645d6f20f1809c4401d0e78e6fb3e3a46064a722f1ca79d108a4a691fe673c",
}

# sha256 of (Report.to_json(), Report.to_text()) for the same runs.
GOLDEN_REPORTS = {
    ("baseline", 0): ("cca30432add137b892636251883650fecb44efa05d6a8a58e70d8cbbc5695ce3",
                       "7fc58db46611cab62ca78d87d1e0421bc5a0fdd92238ebfd6b59ab6402aa20a5"),
    ("baseline", 1): ("608486d71dd69c0b2bafa834aedc3a4962acf62d0c742292fe08d51ed06f0662",
                       "b32380f075b86da69c9b33efdee1c285b33c33ac56e0d1d544836e412a265424"),
    ("baseline", 2): ("4cdadfd782e1d252483c7f408c54559bb50189c26927f538195e21b5e2c3d9a4",
                       "d81d78796cf0aab67bb89f90c6559afebc1e9b67cb4a8cd1d7724d4b777a6026"),
    ("baseline", 3): ("6766c526273fd6e401f3cd8f02125f50d5fc7d549a3ee1ef281dbfef8b823274",
                       "1e3135cf33c9612ffa69e0d2a3dd5246a79d584703113a42882f2eb42e9506aa"),
    ("baseline", 4): ("c06fe6dad5e06d8c240db1b82507a37281647c07bb6b68e79ad72ecb86a6680e",
                       "5e7159b9dddd2f345738d88b98a38e864e447af1a2dd07f8e24278e05939e962"),
    ("baseline", 5): ("dd3c3b34c047e33e5d5a0e14e95043e6c5e2451d30f7eb3737536ae02263f8e4",
                       "280ea7830469c29ddd4cae1f087d0f5ce86709a192fd7164b2c7f2521b34dc8b"),
    ("baseline", 6): ("88de71233418878d8f4723cbd1e9ce9fcd8a2fb044d912d2f09dffbe739f4ac2",
                       "e9df7773469919b94934a1b8892dd77862d97871b561a00719dd8e3cb925ec5c"),
    ("baseline", 7): ("653d05b002a7c9dbf3fa542e640c906f02517d2fe178b9ff19f12f6c1df13ddc",
                       "6dc04a9f618bae220a403977d51bd238b4807825a3c96fd3986ba5a14992fd55"),
    ("error_streak", 0): ("71755ad1f2ae310f4e3cac2e66fe74ae9150747a0b7987e6403c798d58c5db6a",
                           "45fb244c0c013780bceda2da792537451beb72e6c2369ae8550dd76e1aaecd76"),
    ("error_streak", 1): ("2f9a5132f6f7fb6a4be6caf568a25790a8f89c6776bdc7bd9d817932d252bf73",
                           "6ad38df657137c3cbf1e2109cd5f0a56237d82057850fb827540fa7041b9c86c"),
    ("error_streak", 2): ("6c03d66135f54f693badc8eb5f3729e4b6557b1ebf1c5da1d833e42da38a6057",
                           "ee6b48a5a443720a52b8e7c0755a4e7e6887a3081e1ce4f9cf722e67d4c0e8c4"),
    ("error_streak", 3): ("0070ec80d47be61ce34c28f51813dcc76a5113ba469a072760d48ecefec5cec4",
                           "99488f173ddd005a1a685aadb8592615318c0bfd05960e7431695285a78a59d4"),
    ("error_streak", 4): ("13bda5d99d0ec8006faff03fefc40c987945ac8be970f6a8ddc60f7e8d9f5d55",
                           "dd3d2b205cb6f6413eda42baebd68f2f8e629921e0a40aefb8017f17fd9c5f8b"),
    ("error_streak", 5): ("a7e35bf4de388737ebbddffa5514456ab38b59aecc6dd70a91ae59ebe3c004b8",
                           "4468e0a87be0581f7b2c4a6ef879cfc51010bd0834d31c9435515c762438e1ff"),
    ("error_streak", 6): ("30596f0ad11d2a103d4f2d6ca05ee7b5c24fa562e3a7834acbaf1078cb97913c",
                           "ffc256004b6a6b0d399fe4ad1e2dd6d7b1abbdc7e153be920ca14f3be678d693"),
    ("error_streak", 7): ("126fe1ebf1d653b089b7dd255222b24a9a48ef28e6f855436e480e32fd60b747",
                           "828f23c6e52ea145cc8d2838e89283d0f0699597fb6b492468f86eb0984e91a3"),
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
    ("COMPROMISE", None): ("057bba6febb17f3075e013c7cf6e36adb02e629fd5c9d99b5e264b21abd90391",
                            "b4e90d3ef62b1c900c1e69151c609717b12bc8fed59723b36ad4391863aafa38"),
    ("MIXED_ROUND", None): ("fafb25328ca95fcec77ab449bd64be4c5f2880a94d73fe662bc249463db973e1",
                             "4526ec922fad2ebc995ba57846781b24b18f49eeccc9e986b92fa2136e1d3ea1"),
    ("LOSSY_MAJORITY", None): ("1a9c101221dc5437cfd698fb07ae0581562a3085fe63b2f5024dd5277dd219c2",
                                "c2e800945a2bff76f2f9113786fdc743aed3b3dadb03e50eee754ed4b8bcca9f"),
    ("lossy_pull", None): ("07b00baf5d04c5d8957078fd6c6298b3ad5ea50db1e54428b689b74cde576b81",
                            "664363a38da9b196aca61c7713a9ad230520f6ac30d8dec41b15501b8c899def"),
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
def test_every_promise_echoes_a_number_below_its_own(name, seed):
    # So a Promise's last never raises the round its n has already noted.
    promises = [r.fields for r in golden_run(name, seed).records if r.kind == "Promise"]
    assert all(ProposalNumber.parse(f["last"]) < ProposalNumber.parse(f["n"])
               for f in promises if "last" in f)


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
