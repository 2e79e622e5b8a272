"""The simulation-service wire schema.

Requests are single JSON objects; responses are NDJSON -- a sequence
of ``\\n``-terminated JSON records using the *same* event dictionaries
the :mod:`repro.observe` layer already defines: conflicts travel as
:func:`repro.observe.recorder.conflict_event` records, assertion
failures as :meth:`repro.observe.monitor.Violation.to_dict` records
(the ``{"event": "violation", ...}`` shape ``repro watch`` renders),
followed by one terminal ``{"event": "result", ...}`` (or
``{"event": "error", ...}``) record carrying the verdict.  The HTTP
and WebSocket transports in :mod:`repro.serve.server` and the clients
in :mod:`repro.serve.client` share this module, so the schema is
defined exactly once.

Request shape (``POST /v1/simulate`` / ``POST /v1/verify`` bodies and
WebSocket ``{"op": "simulate" | "verify"}`` frames)::

    {
      "model": "<digest>" | {<repro-rt-model document>},
      "register_values": {"R1": 7, "R2": "z"},   # optional overrides
      "deadline_ms": 250.0,                      # optional, queue+sweep
      "properties": [...],                       # verify only; assert-file
      "id": <any JSON value>,                    # echoed on every record
      "trace": "<hex id>"                        # optional caller trace id
    }

A caller-supplied ``trace`` id (any non-empty string up to 128 chars)
is echoed on the terminal record and used as the request's trace id in
the server's span tracer and access log; when absent the server mints
one.  Supplying it makes a *retried* request keep one identity across
attempts (see ``tests/serve/test_observability.py``).

Error records carry a stable ``code`` (one of :data:`ERROR_STATUS`)
mapped onto the obvious HTTP status by the server; the WebSocket
transport sends the same record as a frame instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..observe.recorder import decode_value, encode_value

#: Error code -> (HTTP status, default reason).
ERROR_STATUS: Dict[str, Tuple[int, str]] = {
    "bad_request": (400, "Bad Request"),
    "model_error": (400, "Bad Request"),
    "not_found": (404, "Not Found"),
    "method_not_allowed": (405, "Method Not Allowed"),
    "too_large": (413, "Payload Too Large"),
    "internal": (500, "Internal Server Error"),
    "queue_full": (503, "Service Unavailable"),
    "closing": (503, "Service Unavailable"),
    "deadline": (504, "Gateway Timeout"),
}

NDJSON_CONTENT_TYPE = "application/x-ndjson"


class ServeError(Exception):
    """A request failure with a wire-stable ``code``.

    The server maps the code to an HTTP status (``ERROR_STATUS``) and
    renders :meth:`record` as the response body; raising one anywhere
    on the request path therefore produces a well-formed error reply.
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code][0]

    def record(self, id: Any = None, trace: Optional[str] = None) -> dict:
        return error_record(self.code, self.message, id=id, trace=trace)


def error_record(
    code: str, message: str, id: Any = None, trace: Optional[str] = None
) -> dict:
    record: dict = {"event": "error", "code": code, "message": message}
    if id is not None:
        record["id"] = id
    if trace is not None:
        record["trace"] = trace
    return record


# ----------------------------------------------------------------------
# NDJSON helpers
# ----------------------------------------------------------------------
def dump_record(record: Mapping[str, Any]) -> str:
    """One wire line (no trailing newline), compact separators."""
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


def encode_ndjson(records: List[dict]) -> bytes:
    return "".join(dump_record(r) + "\n" for r in records).encode("utf-8")


def decode_ndjson(body: bytes) -> List[dict]:
    """Parse an NDJSON body; raises ServeError on garbage."""
    records: List[dict] = []
    for line in body.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServeError("bad_request", f"invalid NDJSON line: {exc}")
        records.append(record)
    return records


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------
@dataclass
class SimRequest:
    """One parsed simulate/verify request, transport-independent."""

    #: either a digest string or an inline model document
    model: Union[str, Mapping[str, Any]]
    register_values: Dict[str, int] = field(default_factory=dict)
    #: wall-clock budget covering queue wait *and* the sweep; None =
    #: no deadline
    deadline_ms: Optional[float] = None
    #: raw assert-file property spec (verify) or None (simulate)
    properties: Optional[Any] = None
    #: echoed verbatim on every response record
    id: Any = None
    #: caller-supplied trace id (stable across retries); the server
    #: mints one when absent
    trace: Optional[str] = None

    @property
    def verify(self) -> bool:
        return self.properties is not None

    def prop_key(self) -> Optional[str]:
        """Canonical batching key: requests sharing a property set (or
        none at all) may share one sweep."""
        if self.properties is None:
            return None
        return json.dumps(self.properties, sort_keys=True, separators=(",", ":"))


def _parse_register_values(raw: Any) -> Dict[str, int]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ServeError(
            "bad_request", "register_values must be an object of name -> value"
        )
    values: Dict[str, int] = {}
    for name, value in raw.items():
        if isinstance(value, str):
            try:
                value = decode_value(value)
            except ValueError:
                raise ServeError(
                    "bad_request",
                    f"register_values[{name!r}]: bad value {value!r} "
                    "(use an int or 'z')",
                ) from None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(
                "bad_request",
                f"register_values[{name!r}]: bad value {value!r} "
                "(use an int or 'z')",
            )
        values[str(name)] = value
    return values


def parse_sim_request(payload: Any, verify: bool = False) -> SimRequest:
    """Validate one simulate/verify request object."""
    if not isinstance(payload, Mapping):
        raise ServeError("bad_request", "request body must be a JSON object")
    model = payload.get("model")
    if isinstance(model, str):
        model = model.strip()
        if not model:
            raise ServeError("bad_request", "empty model digest")
    elif not isinstance(model, Mapping):
        raise ServeError(
            "bad_request",
            "'model' must be a digest string or an inline model document",
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ServeError("bad_request", "deadline_ms must be a number")
        deadline_ms = float(deadline_ms)
        if deadline_ms <= 0:
            raise ServeError("bad_request", "deadline_ms must be > 0")
    properties = payload.get("properties") if verify else None
    if verify and properties is None:
        properties = "default"
    trace = payload.get("trace")
    if trace is not None:
        if not isinstance(trace, str) or not trace:
            raise ServeError("bad_request", "trace must be a non-empty string")
        if len(trace) > 128:
            raise ServeError("bad_request", "trace must be <= 128 characters")
    return SimRequest(
        model=model,
        register_values=_parse_register_values(payload.get("register_values")),
        deadline_ms=deadline_ms,
        properties=properties,
        id=payload.get("id"),
        trace=trace,
    )


# ----------------------------------------------------------------------
# response records
# ----------------------------------------------------------------------
def encode_registers(registers: Mapping[str, int]) -> Dict[str, Any]:
    """JSON-safe register values (DISC/ILLEGAL -> 'z'/'x')."""
    return {name: encode_value(value) for name, value in registers.items()}


def decode_registers(registers: Mapping[str, Any]) -> Dict[str, int]:
    return {name: decode_value(value) for name, value in registers.items()}


def result_record(
    request_id: Any,
    digest: str,
    registers: Mapping[str, int],
    clean: bool,
    batch: int,
    queue_ms: float,
    sweep_ms: float,
    report: Optional[Mapping[str, Any]] = None,
    trace: Optional[str] = None,
) -> dict:
    """The terminal record of a successful simulate/verify response."""
    record: dict = {
        "event": "result",
        "digest": digest,
        "registers": encode_registers(registers),
        "clean": bool(clean),
        "batch": batch,
        "queue_ms": round(queue_ms, 3),
        "sweep_ms": round(sweep_ms, 3),
    }
    if request_id is not None:
        record["id"] = request_id
    if trace is not None:
        record["trace"] = trace
    if report is not None:
        record["ok"] = report["ok"]
        record["cycles"] = report["cycles"]
        record["properties"] = report["properties"]
    return record


__all__ = [
    "ERROR_STATUS",
    "NDJSON_CONTENT_TYPE",
    "ServeError",
    "SimRequest",
    "decode_ndjson",
    "decode_registers",
    "dump_record",
    "encode_ndjson",
    "encode_registers",
    "error_record",
    "parse_sim_request",
    "result_record",
]
