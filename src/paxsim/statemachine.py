"""Regex-labelled, repetition-counted state machine executed by every replica.

Each transition rule carries an output pattern (and optionally an input
pattern) plus a repetition threshold k: the rule must match k+1 times in a
row before the transition fires. A "*" threshold marks a self-loop that
never escalates. The application itself is modelled as a deterministic
payload -> output table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .messages import ClientRequest


class MachineError(ValueError):
    """Base class for state machine definition problems."""


class FieldError(MachineError):
    """A field missing, of the wrong kind or unknown; field_name is its path in the section."""

    def __init__(self, field_name: str, detail: str):
        super().__init__(f"{field_name}: {detail}" if field_name else detail)
        self.field_name, self.detail = field_name, detail


class UnknownState(MachineError):
    pass


class BadRegex(MachineError):
    pass


class NoStartState(MachineError):
    pass


class StarNotSelfLoop(MachineError):
    pass


# Threshold value meaning "self-describe forever, never escalate".
STAR = None

_MACHINE_KEYS = {"states", "start", "rules"}
_RULE_KEYS = {"from", "to", "output_regex", "input_regex", "threshold"}
_APP_KEYS = {"outputs", "default_output"}
_OUTPUT_KEYS = {"request", "output"}


@dataclass(frozen=True)
class TransitionRule:
    source: str
    target: str
    output: re.Pattern            # compiled output_regex; .pattern is its text
    input: re.Pattern | None      # compiled input_regex; None matches any input
    threshold: int | None         # None is STAR

    def matches(self, input_text: str, output_text: str) -> bool:
        if self.input is not None and not self.input.fullmatch(input_text):
            return False
        return self.output.fullmatch(output_text) is not None


@dataclass(frozen=True)
class StateMachineDef:
    states: tuple[str, ...]
    start: str
    rules: tuple[TransitionRule, ...]


@dataclass(frozen=True)
class RuntimeState:
    """Current state plus consecutive-match counters, keyed by rule index.

    Only non-zero counters are stored, so two replicas that walked the same
    trace compare equal.
    """

    current: str
    counters: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class AppModel:
    """Deterministic application: first fully-matching pattern wins, else default."""

    entries: tuple[tuple[re.Pattern, str], ...]  # (compiled request pattern, output)
    default_output: str


def _compile_pattern(text: str, where: str) -> re.Pattern:
    try:
        return re.compile(text)
    except re.error as exc:
        raise BadRegex(f"{where}: cannot compile regex {text!r}: {exc}") from exc


def check_int(value, where: str, minimum=None, maximum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FieldError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FieldError(where, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise FieldError(where, f"must be <= {maximum}, got {value}")
    return value


def check_mapping(value, where: str, keys) -> dict:
    """A mapping's value, {} for null; a key outside keys is unknown (keys None allows any)."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise FieldError(where, f"expected a mapping, got {type(value).__name__}")
    if keys is not None and not value.keys() <= keys:
        key = next(key for key in value if key not in keys)
        raise FieldError(f"{where}.{key}" if where else str(key), "unknown key")
    return value


def check_list(value, where: str) -> list | tuple:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise FieldError(where, f"expected a list, got {type(value).__name__}")
    return value


def check_text(value, where: str) -> str:
    """A text field's value; null, a mapping and a list are not text, whatever str() makes of them."""
    if value is None or isinstance(value, (dict, list)):
        got = "null" if value is None else type(value).__name__
        raise FieldError(where, f"expected text, got {got}")
    return str(value)


def compile_machine(section: dict) -> StateMachineDef:
    """Validate a machine definition section and compile its patterns.

    Expected keys: states (list of names), start (name), rules (list of
    mappings with from/to/output_regex, optional input_regex, threshold as a
    non-negative integer or "*"). No other key is taken, there or in a rule.
    """
    section = check_mapping(section, "", _MACHINE_KEYS)
    states = tuple(check_text(s, f"states[{i}]")
                   for i, s in enumerate(check_list(section.get("states"), "states")))
    if not states:
        raise NoStartState("machine declares no states")
    declared = set(states)
    start = section.get("start")
    if start is None or str(start) not in declared:
        raise NoStartState(f"start state {start!r} is not a declared state")
    start = str(start)

    rules = []
    for idx, raw in enumerate(check_list(section.get("rules"), "rules")):
        where = f"rules[{idx}]"
        raw = check_mapping(raw, where, _RULE_KEYS)
        source = check_text(raw.get("from"), f"{where}.from")
        target = check_text(raw.get("to"), f"{where}.to")
        if source not in declared:
            raise UnknownState(f"{where}.from: {source!r} is not a declared state")
        if target not in declared:
            raise UnknownState(f"{where}.to: {target!r} is not a declared state")
        threshold = raw.get("threshold", 0)
        if threshold == "*":
            threshold = STAR
        elif not isinstance(threshold, int) or isinstance(threshold, bool) or threshold < 0:
            raise FieldError(f"{where}.threshold", f"expected non-negative integer or '*', got {threshold!r}")
        if threshold is STAR and target != source:
            raise StarNotSelfLoop(f"{where}: '*' threshold requires to == from, got {source!r} -> {target!r}")
        output_regex = check_text(raw.get("output_regex", ""), f"{where}.output_regex")
        input_regex = raw.get("input_regex")
        if input_regex is not None:
            input_regex = check_text(input_regex, f"{where}.input_regex")
        rules.append(TransitionRule(
            source=source,
            target=target,
            output=_compile_pattern(output_regex, f"{where}.output_regex"),
            input=_compile_pattern(input_regex, f"{where}.input_regex")
            if input_regex is not None else None,
            threshold=threshold,
        ))

    return StateMachineDef(states=states, start=start, rules=tuple(rules))


def initial_state(definition: StateMachineDef) -> RuntimeState:
    return RuntimeState(current=definition.start, counters={})


def apply(definition: StateMachineDef, rs: RuntimeState, input_text: str, output_text: str) -> RuntimeState:
    """Step the machine for one (input, output) observation.

    The first declared rule out of the current state whose patterns fully
    match is the active rule. A threshold-k rule fires on its (k+1)-th
    consecutive match; any non-matching step resets every counter. A STAR
    rule leaves the state untouched.
    """
    for idx, rule in enumerate(definition.rules):
        if rule.source == rs.current and rule.matches(input_text, output_text):
            break
    else:  # no rule matches: every counter resets
        return rs if not rs.counters else RuntimeState(current=rs.current, counters={})

    if rule.threshold is STAR:
        return rs
    count = rs.counters.get(idx, 0)
    if count < rule.threshold:
        return RuntimeState(current=rs.current, counters={idx: count + 1})
    return RuntimeState(current=rule.target, counters={})


def compile_app_model(section: dict) -> AppModel:
    """Build the application table: list of {request, output} plus default_output, no other key."""
    section = check_mapping(section, "", _APP_KEYS)
    entries = []
    for idx, raw in enumerate(check_list(section.get("outputs"), "outputs")):
        raw = check_mapping(raw, f"outputs[{idx}]", _OUTPUT_KEYS)
        for key in ("request", "output"):
            if key not in raw:
                raise FieldError(f"outputs[{idx}].{key}", "missing")
        pattern, output = (check_text(raw[key], f"outputs[{idx}].{key}")
                           for key in ("request", "output"))
        entries.append((_compile_pattern(pattern, f"outputs[{idx}].request"), output))
    return AppModel(
        entries=tuple(entries),
        default_output=check_text(section.get("default_output", ""), "default_output"),
    )


def execute(model: AppModel, request: ClientRequest) -> str:
    """Deterministic application output for a request payload."""
    for pattern, output in model.entries:
        if pattern.fullmatch(request.payload):
            return output
    return model.default_output
