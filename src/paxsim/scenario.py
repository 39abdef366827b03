"""Scenario files: declarative run inputs, validated up front.

A scenario is a YAML document with these sections::

    name: baseline              # optional label
    acceptors: 5                # replica count; node 0 starts as leader
    anomaly_policy: strict      # strict | majority
    net:      {seed, base_delay, jitter, loss_rate}
    timing:   {heartbeat_interval, suspect_after, prepare_timeout,
               instance_deadline, horizon}
    machine:  {states, start, rules: [{from, to, output_regex,
               input_regex?, threshold}]}
    app_model: {outputs: [{request, output}], default_output}
    requests: [{at, payload}]   # arrival times nondecreasing; ids by position
    faults:   [{at, target, kind: crash} |
               {at, target, kind: compromise, override: {payload: output}}]
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import yaml

from .messages import NodeId
from .simnet import NetConfig
from .statemachine import AppModel, MachineError, StateMachineDef, compile_app_model, compile_machine


# libyaml's scanner and parser when PyYAML was built with them, under the
# same safe constructor and resolver as yaml.SafeLoader; about 8x faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    pass


class ParseError(ScenarioError):
    pass


class ValidationError(ScenarioError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True, slots=True)
class TimingConfig:
    heartbeat_interval: int = 5
    suspect_after: int = 15
    prepare_timeout: int = 10
    instance_deadline: int = 50
    horizon: int = 1000


@dataclass(frozen=True, slots=True)
class CrashFault:
    at: int
    target: NodeId

    kind = "Crash"


@dataclass(frozen=True, slots=True)
class CompromiseFault:
    at: int
    target: NodeId
    override: dict  # request payload -> forced output

    kind = "Compromise"


FaultSpec = CrashFault | CompromiseFault


@dataclass(frozen=True)
class Scenario:
    name: str
    acceptors: int
    machine: StateMachineDef
    app_model: AppModel
    requests: tuple[tuple[int, str], ...]  # (arrival time, payload); ids by position
    faults: tuple[FaultSpec, ...] = ()
    net: NetConfig = NetConfig(seed=0)
    timing: TimingConfig = TimingConfig()
    anomaly_policy: str = "strict"


MAX_SEED = 2**64 - 1  # net.seed is a u64
_TOP_KEYS = {"name", "acceptors", "anomaly_policy", "net", "timing",
             "machine", "app_model", "requests", "faults"}
_NET_KEYS = {f.name for f in fields(NetConfig)}
_TIMING_KEYS = {f.name for f in fields(TimingConfig)}


def _require_int(value, field_name, minimum=None, maximum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(field_name, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(field_name, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field_name, f"must be <= {maximum}, got {value}")
    return value


def _require_mapping(value, field_name) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(field_name, f"expected a mapping, got {type(value).__name__}")
    return value


def _require_list(value, field_name) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValidationError(field_name, f"expected a list, got {type(value).__name__}")
    return value


def _require_text(value, field_name) -> str:
    """A text field's value; null, a mapping and a list are not text, whatever str() makes of them."""
    if value is None or isinstance(value, (dict, list)):
        got = "null" if value is None else type(value).__name__
        raise ValidationError(field_name, f"expected text, got {got}")
    return str(value)


def _error_line(text: str, exc: Exception) -> int | None:
    """The 1-based line a YAML load error points at, if it carries a position."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        return mark.line + 1
    if isinstance(exc, UnicodeEncodeError):
        return text.count("\n", 0, exc.start) + 1
    if isinstance(exc, yaml.reader.ReaderError):
        if _LOADER is not yaml.SafeLoader:  # libyaml's offset counts UTF-8 bytes
            return text.encode("utf-8").count(b"\n", 0, exc.position) + 1
        return text.count("\n", 0, exc.position) + 1
    return None


def parse_scenario(text: str, name_hint: str = "<scenario>") -> Scenario:
    """Parse and validate scenario YAML text."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes to UTF-8 first
        line = _error_line(text, exc)
        where = f"line {line}" if line is not None else "unknown location"
        raise ParseError(f"{name_hint}: {where}: {exc}") from exc
    if doc is None:
        raise ParseError(f"{name_hint}: empty document")
    if not isinstance(doc, dict):
        raise ParseError(f"{name_hint}: top level must be a mapping")

    for key in doc:
        if key not in _TOP_KEYS:
            raise ValidationError(str(key), "unknown scenario key")

    acceptors = _require_int(doc.get("acceptors"), "acceptors", minimum=1)

    policy = doc.get("anomaly_policy", "strict")
    if policy not in ("strict", "majority"):
        raise ValidationError("anomaly_policy", f"expected strict or majority, got {policy!r}")

    net_doc = _require_mapping(doc.get("net"), "net")
    for key in net_doc:
        if key not in _NET_KEYS:
            raise ValidationError(f"net.{key}", "unknown key")
    seed = _require_int(net_doc.get("seed", 0), "net.seed", minimum=0, maximum=MAX_SEED)
    base_delay = _require_int(net_doc.get("base_delay", 1), "net.base_delay", minimum=0)
    jitter = _require_int(net_doc.get("jitter", 0), "net.jitter", minimum=0)
    loss_rate = net_doc.get("loss_rate", 0.0)
    if not isinstance(loss_rate, (int, float)) or isinstance(loss_rate, bool) \
            or not 0.0 <= float(loss_rate) <= 1.0:
        raise ValidationError("net.loss_rate", f"expected a probability in [0, 1], got {loss_rate!r}")
    net = NetConfig(seed=seed, base_delay=base_delay, jitter=jitter, loss_rate=float(loss_rate))

    timing_doc = _require_mapping(doc.get("timing"), "timing")
    for key in timing_doc:
        if key not in _TIMING_KEYS:
            raise ValidationError(f"timing.{key}", "unknown key")
    timing = TimingConfig(**{
        f.name: _require_int(timing_doc.get(f.name, f.default), f"timing.{f.name}", minimum=1)
        for f in fields(TimingConfig)})

    try:
        machine = compile_machine(_require_mapping(doc.get("machine"), "machine"))
    except MachineError as exc:
        raise ValidationError("machine", str(exc)) from exc
    try:
        app_model = compile_app_model(_require_mapping(doc.get("app_model"), "app_model"))
    except MachineError as exc:
        raise ValidationError("app_model", str(exc)) from exc

    requests = []
    previous_at = 0
    for idx, raw in enumerate(_require_list(doc.get("requests"), "requests")):
        entry = _require_mapping(raw, f"requests[{idx}]")
        at = _require_int(entry.get("at"), f"requests[{idx}].at", minimum=0)
        if at < previous_at:
            raise ValidationError(f"requests[{idx}].at", "arrival times must be nondecreasing")
        previous_at = at
        if "payload" not in entry:
            raise ValidationError(f"requests[{idx}].payload", "missing payload")
        requests.append((at, _require_text(entry["payload"], f"requests[{idx}].payload")))

    faults = []
    for idx, raw in enumerate(_require_list(doc.get("faults"), "faults")):
        entry = _require_mapping(raw, f"faults[{idx}]")
        at = _require_int(entry.get("at"), f"faults[{idx}].at", minimum=0)
        target = _require_int(entry.get("target"), f"faults[{idx}].target",
                              minimum=0, maximum=acceptors - 1)
        kind = entry.get("kind")
        if kind == "crash":
            faults.append(CrashFault(at=at, target=target))
        elif kind == "compromise":
            where = f"faults[{idx}].override"
            override = _require_mapping(entry.get("override"), where)
            if not override:
                raise ValidationError(where, "compromise requires an override table")
            override = {_require_text(k, where): _require_text(v, f"{where}.{k}")
                        for k, v in override.items()}
            faults.append(CompromiseFault(at=at, target=target, override=override))
        else:
            raise ValidationError(f"faults[{idx}].kind", f"expected crash or compromise, got {kind!r}")

    return Scenario(
        name=_require_text(doc.get("name", name_hint), "name"),
        acceptors=acceptors,
        machine=machine,
        app_model=app_model,
        requests=tuple(requests),
        faults=tuple(faults),
        net=net,
        timing=timing,
        anomaly_policy=policy,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _undecodable_line(path) from exc
    return parse_scenario(text, name_hint=str(path))


def _undecodable_line(path) -> ParseError:
    # Decode line by line so that the error names the line and the byte's
    # position in it; bytes.splitlines breaks lines where text-mode reading does.
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for number, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(f"{path}: line {number}: {exc}")
    return ParseError(f"{path}: not UTF-8")
