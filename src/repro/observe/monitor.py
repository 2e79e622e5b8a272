"""Temporal assertion monitors over the ``(CS, PH)`` probe stream.

The paper's §2.7 debugging claim is that errors localize to an exact
control step and phase.  This module makes that localization *active*:
a :class:`Property` is a temporal assertion evaluated online over the
canonical probe stream (see :mod:`repro.observe.emit`), and every
failure is a structured :class:`Violation` carrying the ``(CS, PH)``
point, the offending signal, and observed vs expected values,
aggregated into an :class:`AssertionReport`.

Property catalogue (all composable, all backends):

* :func:`never` / :func:`never_illegal` -- a predicate over observed
  value changes must never hold (e.g. "bus B1 is never ILLEGAL").
* :func:`no_conflicts` -- no :class:`ConflictEvent` on the named
  signals (the conflict stream localizes independently of values).
* :func:`always_at` -- a state predicate must hold at every cycle of
  one phase (e.g. "R1 is non-ILLEGAL at every CR").
* :func:`implies_within` -- bounded response: once a trigger condition
  fires, a response condition must hold within ``k_steps`` control
  steps (strong semantics: obligations still pending at the end of the
  run are violations).
* :func:`stable_between` -- a register must keep one value across the
  inclusive control-step window ``[cs_lo, cs_hi]``.

Identical verdicts on every RT backend:

* **event / compiled** (and batched at N == 1) attach an
  :class:`AssertionMonitor` probe via ``observe=`` and evaluate online
  -- the canonical emission order makes the verdict backend-independent.
* **compiled-batched at N > 1** has no per-signal probe stream, so
  :func:`check_model` replays each lane's ``watch=`` subset trace and
  per-lane conflict list through the *same* evaluation core
  (:func:`evaluate_trace`), yielding one :class:`AssertionReport` per
  lane, bit-identical to N scalar runs (pinned by
  ``tests/observe/test_monitor_differential.py``).

:func:`parse_properties` loads a JSON property file (the CLI's
``--assert-file``); :func:`default_properties` is the ``--monitor``
shorthand (never-ILLEGAL anywhere + no conflicts).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core.phases import Phase, StepPhase
from ..core.values import DISC, ILLEGAL, format_value
from .probe import Probe
from .recorder import decode_value, encode_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.diagnostics import ConflictEvent
    from ..core.model import RTModel
    from ..core.trace import TraceLog


class MonitorError(ValueError):
    """A malformed property specification (bad file, bad arguments)."""


# ----------------------------------------------------------------------
# violations and reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One observed assertion failure, localized to ``(CS, PH)``.

    ``observed``/``expected`` are subset values (or None / descriptive
    strings where a single value does not apply); ``at`` is None only
    for end-of-run obligations that never localized.
    """

    prop: str
    at: Optional[StepPhase]
    signal: Optional[str]
    observed: Any
    expected: Any
    message: str

    def sort_key(self) -> tuple:
        if self.at is None:
            return (1 << 31, 0, self.prop, self.signal or "")
        return (self.at.step, int(self.at.phase), self.prop, self.signal or "")

    def to_dict(self) -> Dict[str, Any]:
        def enc(value: Any) -> Any:
            return encode_value(value) if isinstance(value, int) else value

        return {
            "property": self.prop,
            "cs": None if self.at is None else self.at.step,
            "ph": None if self.at is None else self.at.phase.vhdl_name,
            "signal": self.signal,
            "observed": enc(self.observed),
            "expected": enc(self.expected),
            "message": self.message,
        }

    def __str__(self) -> str:
        where = "end of run" if self.at is None else str(self.at)
        sig = f" {self.signal}" if self.signal else ""
        return f"[{self.prop}]{sig} at {where}: {self.message}"


@dataclass
class AssertionReport:
    """The aggregated verdict of one monitored run (or one lane).

    Violations are sorted by ``(CS, PH, property, signal)`` so reports
    from different backends compare bit-identically via
    :meth:`to_dict` regardless of internal evaluation interleaving.
    """

    properties: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    cycles: int = 0
    conflicts: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_property(self) -> Dict[str, List[Violation]]:
        out: Dict[str, List[Violation]] = {label: [] for label in self.properties}
        for v in self.violations:
            out.setdefault(v.prop, []).append(v)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "properties": list(self.properties),
            "cycles": self.cycles,
            "conflicts": self.conflicts,
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        lines = [
            "assertion report: "
            f"{len(self.properties)} propert"
            f"{'y' if len(self.properties) == 1 else 'ies'}, "
            f"{len(self.violations)} violation"
            f"{'' if len(self.violations) == 1 else 's'}, "
            f"{self.cycles} cycles"
        ]
        for label, violations in self.by_property().items():
            verdict = "PASS" if not violations else "FAIL"
            lines.append(f"  {verdict} {label}")
            for v in violations:
                where = "end of run" if v.at is None else str(v.at)
                sig = f"{v.signal}: " if v.signal else ""
                lines.append(f"    {where} {sig}{v.message}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
#: A state/changed predicate: ``f(at, state, changed) -> bool``.
CyclePredicate = Callable[[StepPhase, Mapping[str, int], Mapping[str, int]], bool]

_OPS: Dict[str, Callable[[int, int], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


class PropertyChecker:
    """Per-run evaluation state of one property (minted per run/lane)."""

    def __init__(self, label: str) -> None:
        self.label = label

    def on_conflict(self, event: "ConflictEvent") -> Iterable[Violation]:
        return ()

    def on_cycle(
        self,
        at: StepPhase,
        state: Mapping[str, int],
        changed: Mapping[str, int],
    ) -> Iterable[Violation]:
        return ()

    def on_end(self, last_at: Optional[StepPhase]) -> Iterable[Violation]:
        return ()


class Property:
    """An immutable temporal-property spec; :meth:`checker` mints the
    per-run state, so one Property evaluates many runs/lanes safely."""

    def __init__(self, label: str) -> None:
        self.label = label

    def checker(self) -> PropertyChecker:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class _LambdaProperty(Property):
    def __init__(self, label: str, factory: Callable[[], PropertyChecker]) -> None:
        super().__init__(label)
        self._factory = factory

    def checker(self) -> PropertyChecker:
        return self._factory()


def when(
    signal: str,
    op: str = "eq",
    value: int = ILLEGAL,
    changed_only: bool = False,
) -> CyclePredicate:
    """A condition predicate for :func:`implies_within` triggers and
    responses: ``signal <op> value``, read from the cycle's effective
    state (or only from this cycle's *changes* with ``changed_only``)."""
    try:
        test = _OPS[op]
    except KeyError:
        raise MonitorError(f"unknown comparison op {op!r} (use {sorted(_OPS)})") from None

    def pred(at: StepPhase, state: Mapping[str, int], changed: Mapping[str, int]) -> bool:
        src = changed if changed_only else state
        if signal not in src:
            return False
        return bool(test(src[signal], value))

    return pred


def never(
    pred: Callable[[str, int], bool],
    label: str = "never",
    expected: Any = "predicate never to hold",
) -> Property:
    """Violation whenever ``pred(signal, new_value)`` holds for an
    observed value change (bus drive or register latch)."""

    class _Checker(PropertyChecker):
        def on_cycle(self, at, state, changed):
            return [
                Violation(
                    prop=self.label,
                    at=at,
                    signal=sig,
                    observed=value,
                    expected=expected,
                    message=f"observed {format_value(value)}",
                )
                for sig, value in changed.items()
                if pred(sig, value)
            ]

    return _LambdaProperty(label, lambda: _Checker(label))


def never_illegal(*signals: str) -> Property:
    """No observed signal (or only the named ones) ever goes ILLEGAL."""
    names = set(signals)
    label = "never_illegal" + (f"({','.join(sorted(names))})" if names else "")

    def pred(signal: str, value: int) -> bool:
        return value == ILLEGAL and (not names or signal in names)

    return never(pred, label=label, expected="not ILLEGAL")


def no_conflicts(*signals: str) -> Property:
    """No resource conflict is recorded (optionally: on named signals).

    Conflicts stream through ``on_conflict`` with their own exact
    ``(CS, PH)``; the violation's observed value is the colliding
    driver list."""
    names = set(signals)
    label = "no_conflicts" + (f"({','.join(sorted(names))})" if names else "")

    class _Checker(PropertyChecker):
        def on_conflict(self, event):
            if names and event.signal not in names:
                return ()
            drivers = ", ".join(
                f"{owner}={format_value(value)}" for owner, value in event.sources
            )
            return [
                Violation(
                    prop=self.label,
                    at=event.at,
                    signal=event.signal,
                    observed=ILLEGAL,
                    expected="no colliding drivers",
                    message=f"conflict (drivers: {drivers})",
                )
            ]

    return _LambdaProperty(label, lambda: _Checker(label))


def always_at(
    phase: Union[Phase, str],
    pred: Callable[[Mapping[str, int]], bool],
    label: Optional[str] = None,
    signal: Optional[str] = None,
    expected: Any = "predicate to hold",
) -> Property:
    """``pred(state)`` must hold at every executed cycle of ``phase``.

    With ``signal`` set, the violation records that signal's observed
    value (``pred`` still receives the full state mapping)."""
    ph = Phase.from_vhdl_name(phase) if isinstance(phase, str) else phase
    name = label or f"always_at({ph.vhdl_name}" + (f":{signal}" if signal else "") + ")"

    class _Checker(PropertyChecker):
        def on_cycle(self, at, state, changed):
            if at.phase is not ph or pred(state):
                return ()
            observed = state.get(signal, DISC) if signal else None
            seen = f"observed {format_value(observed)}" if signal else "predicate false"
            return [
                Violation(
                    prop=self.label,
                    at=at,
                    signal=signal,
                    observed=observed,
                    expected=expected,
                    message=seen,
                )
            ]

    return _LambdaProperty(name, lambda: _Checker(name))


def implies_within(
    trigger: CyclePredicate,
    response: CyclePredicate,
    k_steps: int,
    label: str = "implies_within",
) -> Property:
    """Bounded response: each cycle where ``trigger`` holds opens an
    obligation that ``response`` must hold at some cycle no more than
    ``k_steps`` control steps later (same step counts; a response
    cycle discharges *all* open obligations).  Obligations still open
    when the run ends are violations (strong finite-trace semantics)."""
    if k_steps < 0:
        raise MonitorError(f"implies_within needs k_steps >= 0, got {k_steps}")

    class _Checker(PropertyChecker):
        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.pending: List[StepPhase] = []

        def _expired(self, trigger_at: StepPhase) -> Violation:
            return Violation(
                prop=self.label,
                at=trigger_at,
                signal=None,
                observed=None,
                expected=f"response within {k_steps} step(s)",
                message=f"trigger at {trigger_at} got no response within {k_steps} step(s)",
            )

        def on_cycle(self, at, state, changed):
            out = [
                self._expired(t_at)
                for t_at in self.pending
                if at.step > t_at.step + k_steps
            ]
            self.pending = [t_at for t_at in self.pending if at.step <= t_at.step + k_steps]
            if trigger(at, state, changed):
                self.pending.append(at)
            if self.pending and response(at, state, changed):
                self.pending = []
            return out

        def on_end(self, last_at):
            out = [self._expired(t_at) for t_at in self.pending]
            self.pending = []
            return out

    return _LambdaProperty(label, lambda: _Checker(label))


def stable_between(register: str, cs_lo: int, cs_hi: int, label: Optional[str] = None) -> Property:
    """``register`` must hold one value across control steps
    ``[cs_lo, cs_hi]`` inclusive.  The baseline is the value in force
    at the window's first executed cycle; any later latch inside the
    window is a violation carrying observed vs expected values."""
    if cs_lo > cs_hi:
        raise MonitorError(f"stable_between window is empty: [{cs_lo}, {cs_hi}]")
    name = label or f"stable_between({register},{cs_lo},{cs_hi})"
    _UNSET = object()

    class _Checker(PropertyChecker):
        def __init__(self, lbl: str) -> None:
            super().__init__(lbl)
            self.baseline: Any = _UNSET

        def on_cycle(self, at, state, changed):
            if not (cs_lo <= at.step <= cs_hi):
                return ()
            if self.baseline is _UNSET:
                self.baseline = state.get(register, DISC)
                return ()
            if register in changed and changed[register] != self.baseline:
                return [
                    Violation(
                        prop=self.label,
                        at=at,
                        signal=register,
                        observed=changed[register],
                        expected=self.baseline,
                        message=(
                            f"latched {format_value(changed[register])}, expected to "
                            f"stay {format_value(self.baseline)}"
                        ),
                    )
                ]
            return ()

    return _LambdaProperty(name, lambda: _Checker(name))


def default_properties(model: Optional["RTModel"] = None) -> List[Property]:
    """The ``--monitor`` shorthand: nothing ever ILLEGAL, no conflicts."""
    del model  # reserved for model-aware defaults
    return [never_illegal(), no_conflicts()]


# ----------------------------------------------------------------------
# the evaluation core (shared by online monitor and trace replay)
# ----------------------------------------------------------------------
class _Evaluation:
    """State machine feeding one property set from a cycle stream."""

    def __init__(self, properties: Sequence[Property]) -> None:
        self.properties = list(properties)
        self.checkers = [p.checker() for p in self.properties]
        self.violations: List[Violation] = []
        self.state: Dict[str, int] = {}
        self.cycles = 0
        self.conflicts = 0
        self._last_at: Optional[StepPhase] = None

    def start(self, initial_state: Mapping[str, int]) -> None:
        self.state = dict(initial_state)

    def conflict(self, event: "ConflictEvent") -> None:
        self.conflicts += 1
        for checker in self.checkers:
            self.violations.extend(checker.on_conflict(event))

    def cycle(self, at: StepPhase, changed: Mapping[str, int]) -> None:
        self.cycles += 1
        self._last_at = at
        self.state.update(changed)
        for checker in self.checkers:
            self.violations.extend(checker.on_cycle(at, self.state, changed))

    def finish(self) -> AssertionReport:
        for checker in self.checkers:
            self.violations.extend(checker.on_end(self._last_at))
        return AssertionReport(
            properties=[p.label for p in self.properties],
            violations=sorted(self.violations, key=Violation.sort_key),
            cycles=self.cycles,
            conflicts=self.conflicts,
        )


def _initial_state(backend: Any) -> Dict[str, int]:
    """Buses at DISC plus the backend's post-override register values."""
    state: Dict[str, int] = {}
    model = getattr(backend, "model", None)
    if model is not None:
        for bus in model.buses:
            state[bus] = DISC
    if getattr(backend, "batch_size", None) == 1:
        state.update(backend.vector_registers(0))
        return state
    regs = getattr(backend, "registers", None)
    if isinstance(regs, Mapping):
        state.update(regs)
    elif model is not None:
        for name, decl in model.registers.items():
            state[name] = decl.init
    return state


class AssertionMonitor(Probe):
    """The online realization: a probe evaluating properties as the
    canonical stream arrives, on any backend that emits it.

    A cycle's changes trail its phase callback, so evaluation of cycle
    *k* happens when the next boundary (phase *k+1*, a conflict, or run
    end) proves *k* complete.  ``listener`` (if set) receives each
    :class:`Violation` the moment it is detected -- the stream server
    uses this to push violations to live watchers."""

    def __init__(
        self,
        properties: Sequence[Property],
        listener: Optional[Callable[[Violation], None]] = None,
    ) -> None:
        self.properties = list(properties)
        self.listener = listener
        self.report: Optional[AssertionReport] = None
        self._eval: Optional[_Evaluation] = None
        self._open_at: Optional[StepPhase] = None
        self._changed: Dict[str, int] = {}

    # -- stream plumbing ------------------------------------------------
    def _notify_from(self, start: int) -> None:
        if self.listener is not None and self._eval is not None:
            for violation in self._eval.violations[start:]:
                self.listener(violation)

    def _flush(self) -> None:
        if self._eval is None or self._open_at is None:
            return
        mark = len(self._eval.violations)
        self._eval.cycle(self._open_at, self._changed)
        self._notify_from(mark)
        self._open_at = None
        self._changed = {}

    # -- probe callbacks ------------------------------------------------
    def on_run_start(self, backend: Any) -> None:
        self._eval = _Evaluation(self.properties)
        self._eval.start(_initial_state(backend))
        self._open_at = None
        self._changed = {}
        self.report = None

    def on_phase(self, at: StepPhase) -> None:
        self._flush()
        self._open_at = at
        self._changed = {}

    def on_bus_drive(self, at: Optional[StepPhase], bus: str, value: int) -> None:
        if at is None:  # handshake style: no (CS, PH) time to localize to
            return
        self._changed[bus] = value

    def on_register_latch(
        self, at: Optional[StepPhase], register: str, value: int
    ) -> None:
        if at is None:
            return
        self._changed[register] = value

    def on_conflict(self, event: "ConflictEvent") -> None:
        if self._eval is None:
            return
        self._flush()
        mark = len(self._eval.violations)
        self._eval.conflict(event)
        self._notify_from(mark)

    def on_run_end(self, backend: Any, wall: float) -> None:
        if self._eval is None:
            return
        self._flush()
        mark = len(self._eval.violations)
        self.report = self._eval.finish()
        self._notify_from(mark)
        self._eval = None


# ----------------------------------------------------------------------
# trace replay (batched lanes) and the uniform entry point
# ----------------------------------------------------------------------
def evaluate_trace(
    model: "RTModel",
    trace: "TraceLog",
    properties: Sequence[Property],
    conflicts: Sequence["ConflictEvent"] = (),
) -> AssertionReport:
    """Replay a recorded trace through the same evaluation core.

    The trace must cover every bus and every register output port
    (``<reg>_out`` columns map back to register names); per-cycle
    change sets are reconstructed by diffing successive samples, which
    matches the online probe exactly because probes only observe
    effective-value *changes* at the same cycle points the tracer
    samples."""
    reg_out = {f"{name}_out": name for name in model.registers}
    buses = set(model.buses)
    evaluation = _Evaluation(properties)
    pending = list(conflicts)
    feed_idx = 0
    first = True
    for sample in trace.samples:
        values: Dict[str, int] = {}
        for column, value in sample.values.items():
            if column in buses:
                values[column] = value
            elif column in reg_out:
                values[reg_out[column]] = value
        while feed_idx < len(pending) and pending[feed_idx].at <= sample.at:
            evaluation.conflict(pending[feed_idx])
            feed_idx += 1
        if first:
            evaluation.start(values)
            evaluation.cycle(sample.at, {})
            first = False
        else:
            changed = {
                name: value
                for name, value in values.items()
                if evaluation.state.get(name) != value
            }
            evaluation.cycle(sample.at, changed)
    while feed_idx < len(pending):
        evaluation.conflict(pending[feed_idx])
        feed_idx += 1
    return evaluation.finish()


def monitored_watch_list(model: "RTModel") -> List[str]:
    """The ``watch=`` column set monitors need: all buses + reg outputs."""
    return list(model.buses) + [f"{name}_out" for name in model.registers]


def check_model(
    model: "RTModel",
    properties: Sequence[Property],
    backend: str = "compiled",
    register_values: Union[Mapping[str, int], Sequence[Mapping[str, int]], None] = None,
    **elaborate_kwargs: Any,
) -> Union[AssertionReport, List[AssertionReport]]:
    """Run ``model`` under ``backend`` and return its assertion verdict.

    Scalar backends (``event``/``compiled``/``compiled-py``) attach an
    online :class:`AssertionMonitor`.  ``compiled-batched`` sweeps a
    *sequence* of register-value vectors in one run and returns one
    report per lane (a single mapping returns a single report), with
    verdicts bit-identical to N scalar runs."""
    properties = list(properties)
    if backend == "compiled-batched":
        vectors: Sequence[Mapping[str, int]]
        single = False
        if register_values is None:
            vectors, single = [{}], True
        elif isinstance(register_values, Mapping):
            vectors, single = [register_values], True
        else:
            vectors = list(register_values)
        sim = model.elaborate(
            backend=backend,
            register_values=list(vectors),
            watch=monitored_watch_list(model),
            **elaborate_kwargs,
        )
        sim.run()
        # Each read of a batch view builds all N lanes: read once.
        reports = [
            evaluate_trace(model, tracer, properties, conflicts)
            for tracer, conflicts in zip(sim.tracers, sim.conflicts)
        ]
        return reports[0] if single else reports
    if register_values is not None and not isinstance(register_values, Mapping):
        raise MonitorError(
            "a sequence of register-value vectors needs backend='compiled-batched'"
        )
    monitor = AssertionMonitor(properties)
    kwargs = dict(elaborate_kwargs)
    if register_values is not None:
        kwargs["register_values"] = register_values
    sim = model.elaborate(backend=backend, observe=monitor, **kwargs)
    sim.run()
    assert monitor.report is not None
    return monitor.report


# ----------------------------------------------------------------------
# the --assert-file format
# ----------------------------------------------------------------------
def _parse_value(raw: Any, where: str) -> int:
    if isinstance(raw, str):
        value = decode_value(raw)
        if isinstance(value, int):
            return value
        raise MonitorError(f"{where}: bad value {raw!r} (use an int, 'z' or 'x')")
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise MonitorError(f"{where}: bad value {raw!r} (use an int, 'z' or 'x')")
    return raw


def _parse_condition(spec: Any, where: str) -> CyclePredicate:
    if not isinstance(spec, Mapping):
        raise MonitorError(f"{where}: condition must be an object, got {spec!r}")
    try:
        signal = spec["signal"]
    except KeyError:
        raise MonitorError(f"{where}: condition needs a 'signal'") from None
    op = spec.get("op", "eq")
    if op not in _OPS:
        raise MonitorError(f"{where}: unknown op {op!r} (use {sorted(_OPS)})")
    value = _parse_value(spec.get("value", ILLEGAL), where)
    return when(signal, op=op, value=value, changed_only=bool(spec.get("changed", False)))


def _condition_label(spec: Mapping[str, Any]) -> str:
    value = spec.get("value", "x")
    return f"{spec.get('signal', '?')} {spec.get('op', 'eq')} {value}"


def parse_properties(source: Union[str, bytes, Sequence[Any], Mapping[str, Any]]) -> List[Property]:
    """Build properties from the JSON assert-file format.

    The file is either a list of property objects or ``{"properties":
    [...]}``.  Supported ``type`` values: ``never`` (optionally scoped
    to one ``signal``, default condition "is ILLEGAL"),
    ``no_conflicts`` (optional ``signals`` list), ``always_at``
    (``phase`` + ``signal``/``op``/``value``), ``implies_within``
    (``trigger``/``response`` condition objects + ``steps``) and
    ``stable_between`` (``register`` + ``from``/``to``).  Every entry
    accepts an optional ``label``."""
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise MonitorError(f"assert file is not valid JSON: {exc}") from exc
    else:
        data = source
    if isinstance(data, Mapping):
        data = data.get("properties")
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise MonitorError("assert file must be a list of property objects")
    out: List[Property] = []
    for index, entry in enumerate(data):
        where = f"property #{index + 1}"
        if not isinstance(entry, Mapping):
            raise MonitorError(f"{where}: must be an object, got {entry!r}")
        ptype = entry.get("type")
        label = entry.get("label")
        if ptype == "never":
            signal = entry.get("signal")
            op = entry.get("op", "eq")
            if op not in _OPS:
                raise MonitorError(f"{where}: unknown op {op!r} (use {sorted(_OPS)})")
            test = _OPS[op]
            value = _parse_value(entry.get("value", ILLEGAL), where)
            name = label or f"never({_condition_label({'signal': signal or '*', 'op': op, 'value': entry.get('value', 'x')})})"

            def pred(sig: str, new: int, _signal=signal, _test=test, _value=value) -> bool:
                return (_signal is None or sig == _signal) and bool(_test(new, _value))

            out.append(never(pred, label=name, expected=f"never {op} {format_value(value)}"))
        elif ptype == "no_conflicts":
            signals = entry.get("signals", [])
            if not isinstance(signals, Sequence) or isinstance(signals, (str, bytes)):
                raise MonitorError(f"{where}: 'signals' must be a list of names")
            prop = no_conflicts(*signals)
            if label:
                prop.label = label
            out.append(prop)
        elif ptype == "always_at":
            try:
                phase = Phase.from_vhdl_name(str(entry["phase"]))
            except KeyError:
                raise MonitorError(f"{where}: needs a 'phase'") from None
            except ValueError as exc:
                raise MonitorError(f"{where}: {exc}") from exc
            try:
                signal = entry["signal"]
            except KeyError:
                raise MonitorError(f"{where}: always_at needs a 'signal'") from None
            op = entry.get("op", "ne")
            if op not in _OPS:
                raise MonitorError(f"{where}: unknown op {op!r} (use {sorted(_OPS)})")
            test = _OPS[op]
            value = _parse_value(entry.get("value", ILLEGAL), where)

            def state_pred(state: Mapping[str, int], _signal=signal, _test=test, _value=value) -> bool:
                return bool(_test(state.get(_signal, DISC), _value))

            out.append(
                always_at(
                    phase,
                    state_pred,
                    label=label
                    or f"always_at({phase.vhdl_name}: {signal} {op} {entry.get('value', 'x')})",
                    signal=signal,
                    expected=f"{op} {format_value(value)}",
                )
            )
        elif ptype == "implies_within":
            if "trigger" not in entry or "response" not in entry:
                raise MonitorError(f"{where}: implies_within needs 'trigger' and 'response'")
            steps = entry.get("steps", entry.get("k_steps"))
            if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
                raise MonitorError(f"{where}: implies_within needs integer 'steps' >= 0")
            trigger = _parse_condition(entry["trigger"], f"{where} trigger")
            response = _parse_condition(entry["response"], f"{where} response")
            name = label or (
                f"implies_within({_condition_label(entry['trigger'])} -> "
                f"{_condition_label(entry['response'])} in {steps})"
            )
            out.append(implies_within(trigger, response, steps, label=name))
        elif ptype == "stable_between":
            try:
                register = entry["register"]
            except KeyError:
                raise MonitorError(f"{where}: stable_between needs a 'register'") from None
            lo = entry.get("from", entry.get("cs_lo"))
            hi = entry.get("to", entry.get("cs_hi"))
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise MonitorError(f"{where}: stable_between needs integer 'from'/'to'")
            out.append(stable_between(register, lo, hi, label=label))
        else:
            raise MonitorError(
                f"{where}: unknown property type {ptype!r} (use never, no_conflicts, "
                "always_at, implies_within, stable_between)"
            )
    if not out:
        raise MonitorError("assert file declares no properties")
    return out


def load_properties(path: str) -> List[Property]:
    """Read and parse an assert file from disk (CLI ``--assert-file``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MonitorError(f"cannot read assert file {path}: {exc}") from exc
    return parse_properties(text)
