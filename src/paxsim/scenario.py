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

Each mapping takes only the keys shown (an override table takes any payload);
any other key is refused as ``<where>.<key>: unknown key``.

Loading. The loader (libyaml, or PyYAML's pure-Python composer where PyYAML
was built without it) composes the text into a node graph, and ``_build``
turns the graph into values in one pass: a ``str`` scalar becomes its text,
a null, bool, int or float scalar goes to the safe constructor's own
function for its tag, and a ``seq`` or ``map`` node becomes one list or
dict, shared by every alias of the node and filled from a stack (so a
recursive alias gives the self-containing value PyYAML gives). Any other
node hands the whole document back to PyYAML's constructor
(``construct_document``), so that its values and error texts stay PyYAML's:
a scalar of another tag (a timestamp, ``!!binary``, an unknown tag such as
``!foo``), a collection of another tag (``!!set``, ``!!omap``, ``!!seq`` on
a mapping), a ``<<`` merge key, and a key that is a collection, which
PyYAML refuses as unhashable.

parse_scenario loads with the cyclic collector paused (collector_paused), as
the event loop and read_log run. The loader and the builder form no cycle
(the builder is module-level functions, not a closure that would refer to
itself), and the node graph is freed before the collector resumes, so
reference counting frees all that the load drops and the young generation
is nearly empty again on resume. The only cycle a document can hold is a
recursive alias's, which PyYAML builds too; the collector finds it later.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .eventlog import collector_paused
from .messages import NodeId
from .simnet import NetConfig
from .statemachine import (AppModel, FieldError, MachineError, StateMachineDef, check_int, check_list,
                           check_mapping, check_text, compile_app_model, compile_machine)


# libyaml's scanner and parser when PyYAML was built with them, under the
# same safe constructor and resolver as yaml.SafeLoader; about 8x faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_STR = "tag:yaml.org,2002:str"
_CONSTRUCTED = frozenset(f"tag:yaml.org,2002:{kind}" for kind in ("null", "bool", "int", "float"))
_COLLECTIONS = {(SequenceNode, "tag:yaml.org,2002:seq"): list,
                (MappingNode, "tag:yaml.org,2002:map"): dict}


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
_REQUEST_KEYS = {"at", "payload"}
_FAULT_KEYS = {"at", "target", "kind", "override"}
_CRASH_KEYS = _FAULT_KEYS - {"override"}


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


class _OutsideTheSubset(Exception):
    """A node that _build does not take: PyYAML's constructor builds the document."""


def _load(text: str):
    """The document in text, equal to what yaml.load(text, Loader=_LOADER) returns."""
    loader = _LOADER(text)
    try:
        root = loader.get_single_node()
        try:
            return None if root is None else _build(loader, root)
        except _OutsideTheSubset:
            pass
        return loader.construct_document(root)
    finally:
        loader.dispose()


def _build(loader, root):
    """The document under root, each collection made once and then filled from a stack."""
    built, unfilled = {}, []  # id(node) -> its list or dict; (list or dict, node) to fill
    document = _value(loader, root, built, unfilled)
    while unfilled:
        value, node = unfilled.pop()
        if value.__class__ is list:
            value.extend([_value(loader, item, built, unfilled) for item in node.value])
            continue
        for key_node, value_node in node.value:
            if key_node.__class__ is not ScalarNode:
                raise _OutsideTheSubset  # PyYAML refuses it: an unhashable key
            key = _value(loader, key_node, built, unfilled)
            value[key] = _value(loader, value_node, built, unfilled)
    return document


def _value(loader, node, built, unfilled):
    """A scalar node's value, or a collection node's list or dict, queued to be filled if new."""
    if node.__class__ is ScalarNode:
        if node.tag == _STR:
            return node.value
        if node.tag in _CONSTRUCTED:
            return loader.yaml_constructors[node.tag](loader, node)
        raise _OutsideTheSubset
    value = built.get(id(node))
    if value is None:
        make = _COLLECTIONS.get((node.__class__, node.tag))
        if make is None:
            raise _OutsideTheSubset
        value = built[id(node)] = make()
        unfilled.append((value, node))
    return value


def parse_scenario(text: str, name_hint: str = "<scenario>") -> Scenario:
    """Parse and validate scenario YAML text."""
    try:
        with collector_paused():  # _load's node graph is freed before the collector resumes
            doc = _load(text)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes to UTF-8 first
        line = _error_line(text, exc)
        where = f"line {line}" if line is not None else "unknown location"
        raise ParseError(f"{name_hint}: {where}: {exc}") from exc
    if doc is None:
        raise ParseError(f"{name_hint}: empty document")
    if not isinstance(doc, dict):
        raise ParseError(f"{name_hint}: top level must be a mapping")

    try:
        return _scenario(doc, name_hint)
    except FieldError as exc:
        raise ValidationError(exc.field_name, exc.detail) from exc


def _scenario(doc: dict, name_hint: str) -> Scenario:
    """The scenario doc describes; a field that breaks a rule raises FieldError."""
    check_mapping(doc, "", _TOP_KEYS)
    acceptors = check_int(doc.get("acceptors"), "acceptors", minimum=1)

    policy = doc.get("anomaly_policy", "strict")
    if policy not in ("strict", "majority"):
        raise FieldError("anomaly_policy", f"expected strict or majority, got {policy!r}")

    net_doc = check_mapping(doc.get("net"), "net", _NET_KEYS)
    seed = check_int(net_doc.get("seed", 0), "net.seed", minimum=0, maximum=MAX_SEED)
    base_delay = check_int(net_doc.get("base_delay", 1), "net.base_delay", minimum=0)
    jitter = check_int(net_doc.get("jitter", 0), "net.jitter", minimum=0)
    loss_rate = net_doc.get("loss_rate", 0.0)
    if not isinstance(loss_rate, (int, float)) or isinstance(loss_rate, bool) \
            or not 0.0 <= float(loss_rate) <= 1.0:
        raise FieldError("net.loss_rate", f"expected a probability in [0, 1], got {loss_rate!r}")
    net = NetConfig(seed=seed, base_delay=base_delay, jitter=jitter, loss_rate=float(loss_rate))

    timing_doc = check_mapping(doc.get("timing"), "timing", _TIMING_KEYS)
    timing = TimingConfig(**{
        f.name: check_int(timing_doc.get(f.name, f.default), f"timing.{f.name}", minimum=1)
        for f in fields(TimingConfig)})

    try:
        machine = compile_machine(doc.get("machine"))
    except MachineError as exc:
        raise FieldError("machine", str(exc)) from exc
    try:
        app_model = compile_app_model(doc.get("app_model"))
    except MachineError as exc:
        raise FieldError("app_model", str(exc)) from exc

    requests = []
    previous_at = 0
    for idx, raw in enumerate(check_list(doc.get("requests"), "requests")):
        entry = check_mapping(raw, f"requests[{idx}]", _REQUEST_KEYS)
        at = check_int(entry.get("at"), f"requests[{idx}].at", minimum=0)
        if at < previous_at:
            raise FieldError(f"requests[{idx}].at", "arrival times must be nondecreasing")
        previous_at = at
        if "payload" not in entry:
            raise FieldError(f"requests[{idx}].payload", "missing payload")
        requests.append((at, check_text(entry["payload"], f"requests[{idx}].payload")))

    faults = []
    for idx, raw in enumerate(check_list(doc.get("faults"), "faults")):
        entry = check_mapping(raw, f"faults[{idx}]", _FAULT_KEYS)
        at = check_int(entry.get("at"), f"faults[{idx}].at", minimum=0)
        target = check_int(entry.get("target"), f"faults[{idx}].target",
                           minimum=0, maximum=acceptors - 1)
        kind = entry.get("kind")
        if kind == "crash":
            check_mapping(entry, f"faults[{idx}]", _CRASH_KEYS)
            faults.append(CrashFault(at=at, target=target))
        elif kind == "compromise":
            where = f"faults[{idx}].override"
            override = check_mapping(entry.get("override"), where, None)
            if not override:
                raise FieldError(where, "compromise requires an override table")
            override = {check_text(k, where): check_text(v, f"{where}.{k}")
                        for k, v in override.items()}
            faults.append(CompromiseFault(at=at, target=target, override=override))
        else:
            raise FieldError(f"faults[{idx}].kind", f"expected crash or compromise, got {kind!r}")

    return Scenario(name=check_text(doc.get("name", name_hint), "name"), acceptors=acceptors,
                    machine=machine, app_model=app_model, requests=tuple(requests),
                    faults=tuple(faults), net=net, timing=timing, anomaly_policy=policy)


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
