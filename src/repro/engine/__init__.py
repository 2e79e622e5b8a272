"""Pluggable simulation-engine layer.

See :mod:`repro.engine.backend` for the :class:`Backend` protocol and
the factory registry, and :mod:`repro.engine.compiled` for the
compiled control-step backend.
"""

from .backend import (
    Backend,
    BackendError,
    BackendFactory,
    backend_names,
    create_backend,
    register_backend,
    run_metrics,
)
from .batched import CompiledBatchedRTSimulation
from .codegen import (
    CODEGEN_VERSION,
    CodegenBatchedRTSimulation,
    CodegenCache,
    CodegenRTSimulation,
    gc_caches,
    generate_source,
)
from .compiled import CompiledRTSimulation, PortView
from .plan import (
    PLAN_VERSION,
    ModulePlan,
    Plan,
    PlanCache,
    PlanHandle,
    lower,
    model_digest,
    resolve_plan,
)

__all__ = [
    "Backend",
    "BackendError",
    "BackendFactory",
    "backend_names",
    "create_backend",
    "register_backend",
    "run_metrics",
    "CompiledBatchedRTSimulation",
    "CompiledRTSimulation",
    "PortView",
    "CODEGEN_VERSION",
    "CodegenBatchedRTSimulation",
    "CodegenCache",
    "CodegenRTSimulation",
    "gc_caches",
    "generate_source",
    "PLAN_VERSION",
    "ModulePlan",
    "Plan",
    "PlanCache",
    "PlanHandle",
    "lower",
    "model_digest",
    "resolve_plan",
]
