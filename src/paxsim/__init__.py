"""Deterministic simulator for a Paxos-replicated state machine cluster.

Replicas execute client requests behind single-decree Paxos rounds, step a
shared regex/threshold state machine on every execution, and report each
result (output, new state) to a learner that declares consensus or flags an
anomaly whenever the replicas diverge. Crash and compromise faults,
heartbeat failure detection and leader election are all driven by a seeded
discrete-event loop, so identical inputs give byte-identical event logs.
"""

from .harness import ClusterRun, Report, RunResult, replay_verdicts, run
from .learner import Anomaly, Consensus, Inconclusive, Verdict, decide
from .messages import ClientRequest, ProposalNumber
from .proposer import majority_threshold
from .scenario import Scenario, load_scenario, parse_scenario
from .statemachine import apply, compile_app_model, compile_machine, execute

__version__ = "0.1.0"

__all__ = [
    "Anomaly",
    "ClientRequest",
    "ClusterRun",
    "Consensus",
    "Inconclusive",
    "ProposalNumber",
    "Report",
    "RunResult",
    "Scenario",
    "Verdict",
    "apply",
    "compile_app_model",
    "compile_machine",
    "decide",
    "execute",
    "load_scenario",
    "majority_threshold",
    "parse_scenario",
    "replay_verdicts",
    "run",
    "__version__",
]
