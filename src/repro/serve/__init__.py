"""Simulation-as-a-service: the async batching simulation server.

The paper's clockless RT models elaborate to input-independent static
schedules, which makes them unusually good service payloads: a design
is submitted once (digest-keyed, plan-cache backed), and concurrent
single-vector requests against it coalesce into one sweep of a
re-armed ``compiled-py`` elaboration on the sweep thread, with
per-lane results de-multiplexed back to each caller -- bit-identical
to sequential ``compiled`` runs.

* :class:`ServeServer` / :func:`serve_in_thread` -- the asyncio HTTP +
  WebSocket server (``repro serve``).
* :class:`BatchingEngine` -- admission control, per-design lanes,
  deadlines, graceful drain.
* :class:`ModelCache` -- the in-process compiled-model cache.
* :class:`ServeClient` / :func:`run_load` -- sync client and the
  CI load-smoke driver.

See ``docs/serving.md`` for the wire schema and semantics.
"""

from .batcher import BatchingEngine
from .cache import CachedDesign, ModelCache
from .flight import FlightRecorder
from .client import (
    ServeClient,
    ServeClientError,
    drive_load,
    result_of,
    run_load,
)
from .protocol import (
    ERROR_STATUS,
    ServeError,
    SimRequest,
    decode_ndjson,
    encode_ndjson,
    parse_sim_request,
)
from .server import ServeHandle, ServeServer, serve_in_thread

__all__ = [
    "ERROR_STATUS",
    "BatchingEngine",
    "CachedDesign",
    "FlightRecorder",
    "ModelCache",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServeHandle",
    "ServeServer",
    "SimRequest",
    "decode_ndjson",
    "drive_load",
    "encode_ndjson",
    "parse_sim_request",
    "result_of",
    "run_load",
    "serve_in_thread",
]
