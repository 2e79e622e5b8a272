"""The server's in-process compiled-model cache.

One :class:`CachedDesign` per submitted model, keyed by the
content-addressed ``model_digest`` from :mod:`repro.engine.plan` --
the same digest that keys the on-disk ``plans/`` and ``codegen/``
tiers, so a *cold* submit is exactly one ``elaborate -> lower ->
generate`` trip (or a plain disk hit on both tiers when another
process already paid it: each entry carries the model cache's plan
cache, and the first sweep elaborates with it) and every later
request for that design is a dictionary lookup.  The cache is
LRU-bounded; evicting an entry only drops the in-process reference --
the on-disk tiers keep the artifacts, so a re-submitted design
warm-starts.

Submits and sweeps run on the event-loop thread; a lock guards the
table for health reads from other threads.  An entry owns its design's
armed elaborations and, through a finalizer, its codegen memo entry,
so ``max_models`` alone bounds what a server holds.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.model import ModelError, RTModel
from ..core.serialize import SerializeError, model_from_dict
from ..engine.codegen import forget_module
from ..engine.plan import Plan, PlanCacheArg, model_digest, resolve_plan
from .protocol import ServeError


@dataclass
class CachedDesign:
    """One submitted design: the live model plus its lowered Plan."""

    digest: str
    model: RTModel
    plan: Plan
    #: how the Plan was resolved at submit time (hit/miss/off)
    plan_source: str
    plan_build_ms: float
    #: the model cache's on-disk root, handed to the sweep's
    #: elaboration so its generated kernel uses the codegen tier
    plan_cache: PlanCacheArg = None
    #: how many simulate/verify requests this design has served
    requests: int = 0
    #: run_sweep's armed elaborations, at most one monitored and one not
    armed: Dict[Tuple[str, bool], Any] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        weakref.finalize(self, forget_module, self.digest)

    def describe(self) -> dict:
        return {
            "digest": self.digest,
            "name": self.model.name,
            "cs_max": self.model.cs_max,
            "width": self.model.width,
            "registers": len(self.model.registers),
            "transfers": len(self.model.trans_specs()),
            "plan_source": self.plan_source,
            "plan_build_ms": round(self.plan_build_ms, 3),
            "requests": self.requests,
        }


class ModelCache:
    """LRU table of :class:`CachedDesign`, backed by the Plan cache."""

    def __init__(
        self,
        plan_cache: PlanCacheArg = None,
        max_models: int = 64,
    ) -> None:
        """``max_models=0`` retains nothing: every document resolve
        pays the full decode + lower trip and digest lookups always
        404."""
        if max_models < 0:
            raise ValueError(f"max_models must be >= 0, got {max_models}")
        self._plan_cache = plan_cache
        self._max_models = max_models
        self._designs: "OrderedDict[str, CachedDesign]" = OrderedDict()
        self._lock = threading.Lock()
        #: lifetime counters (healthz / metrics)
        self.submits = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._designs)

    def submit(self, document: Mapping[str, Any]) -> Tuple[CachedDesign, bool]:
        """Register a model document; returns ``(entry, already_cached)``.

        Every submit deserializes and digests; only a digest that is
        not resident is lowered (or read from the plan tier).
        """
        try:
            model = model_from_dict(document)
            digest = model_digest(model)
        except (SerializeError, ModelError, ValueError) as exc:
            raise ServeError("model_error", str(exc))
        with self._lock:  # held while lowering: a digest lowers once
            hit = self._designs.get(digest)
            if hit is not None:
                self._designs.move_to_end(digest)
                return hit, True
            try:
                handle = resolve_plan(model, None, self._plan_cache)
            except ModelError as exc:
                raise ServeError("model_error", str(exc))
            entry = CachedDesign(
                digest=digest,
                model=model,
                plan=handle.plan,
                plan_source=handle.source,
                plan_build_ms=handle.build_ms,
                plan_cache=self._plan_cache,
            )
            self._designs[digest] = entry
            self.submits += 1
            while len(self._designs) > self._max_models:
                self._designs.popitem(last=False)
                self.evictions += 1
        return entry, False

    def get(self, digest: str) -> CachedDesign:
        """Look a design up by digest; unknown digests are a 404."""
        with self._lock:
            entry = self._designs.get(digest)
            if entry is None:
                raise ServeError(
                    "not_found",
                    f"unknown model digest {digest!r} "
                    "(submit the model document first)",
                )
            self._designs.move_to_end(digest)
            entry.requests += 1
            return entry

    def resolve(
        self, model: Any
    ) -> Tuple[CachedDesign, Optional[bool]]:
        """Request-path entry: a digest looks up, a document submits.

        Returns ``(entry, already_cached)`` where ``already_cached``
        is None for digest lookups.
        """
        if isinstance(model, str):
            return self.get(model), None
        entry, cached = self.submit(model)
        with self._lock:
            entry.requests += 1
        return entry, cached

    def describe(self) -> List[dict]:
        with self._lock:
            return [e.describe() for e in self._designs.values()]
