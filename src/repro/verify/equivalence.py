"""Equivalence checking between RT models and algorithmic descriptions.

Two complementary procedures, as in the paper's verification flow:

* **normalization**: symbolic expressions are put into a canonical
  form (constants folded, associative-commutative operators flattened
  and sorted); two descriptions whose normal forms coincide are
  equivalent.  This decides most HLS-generated designs, since the RT
  side computes literally the same tree modulo re-association.
* **randomized refutation**: when normal forms differ, the check is
  completed by evaluating both sides on random inputs; any
  disagreement is a counterexample, agreement over the trial budget
  is reported as "probably equivalent" (the classic fallback of
  algebraic-simplification-based provers like the one in [9]).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..core.model import RTModel
from ..hls.dfg import OP_NAMES as OP_NAMES_BY_SYMBOL
from ..hls.expr import Const, Expr, Program, Var, evaluate
from .symbolic import SymConst, SymExpr, SymOp, SymVar, symbolic_run

#: Operations that may be flattened and sorted (associative+commutative).
AC_OPS = {"ADD", "MULT", "AND", "OR", "XOR", "MIN", "MAX"}


def normalize(expr: SymExpr, width: int, ops: Mapping[str, object]) -> SymExpr:
    """Canonical form: fold constants, flatten/sort AC operators."""
    if not isinstance(expr, SymOp):
        return expr
    args = [normalize(a, width, ops) for a in expr.args]
    operation = ops.get(expr.op)
    # Full constant folding when the operation is known.
    if operation is not None and all(isinstance(a, SymConst) for a in args):
        return SymConst(
            operation.apply([a.value for a in args], width)  # type: ignore[attr-defined]
        )
    if expr.op in AC_OPS:
        flat: list[SymExpr] = []
        for arg in args:
            if isinstance(arg, SymOp) and arg.op == expr.op:
                flat.extend(arg.args)
            else:
                flat.append(arg)
        # Fold the constant subset together.
        consts = [a for a in flat if isinstance(a, SymConst)]
        rest = [a for a in flat if not isinstance(a, SymConst)]
        if operation is not None and len(consts) > 1:
            folded = consts[0].value
            for c in consts[1:]:
                folded = operation.apply([folded, c.value], width)  # type: ignore[attr-defined]
            consts = [SymConst(folded)]
        flat = sorted(rest, key=_sort_key) + consts
        if len(flat) == 1:
            return flat[0]
        return SymOp(expr.op, tuple(flat))
    return SymOp(expr.op, tuple(args))


def _sort_key(expr: SymExpr) -> tuple:
    if isinstance(expr, SymVar):
        return (0, expr.name)
    if isinstance(expr, SymConst):
        return (1, expr.value)
    return (2, expr.op, str(expr))


def program_symbolic_env(program: Program) -> dict[str, SymExpr]:
    """Symbolically evaluate an algorithmic program.

    Returns the final environment mapping each variable to an
    expression over the program's inputs, using the same operation
    names as the RT side so normal forms are comparable.
    """
    env: dict[str, SymExpr] = {name: SymVar(name) for name in program.inputs}
    for stmt in program.statements:
        env[stmt.target] = _expr_to_sym(stmt.expr, env)
    return env


def _expr_to_sym(expr: Expr, env: Mapping[str, SymExpr]) -> SymExpr:
    if isinstance(expr, Const):
        return SymConst(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    left = _expr_to_sym(expr.left, env)
    right = _expr_to_sym(expr.right, env)
    return SymOp(OP_NAMES_BY_SYMBOL[expr.op], (left, right))


@dataclass
class EquivalenceResult:
    """Outcome of one register-vs-expression comparison."""

    register: str
    variable: str
    method: str  # "normal-form" | "random" | "counterexample"
    equivalent: bool
    counterexample: Optional[dict[str, int]] = None

    def __str__(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "DIFFERENT"
        extra = (
            f" counterexample={self.counterexample}"
            if self.counterexample
            else ""
        )
        return (
            f"{self.variable} ~ {self.register}: {verdict} "
            f"({self.method}){extra}"
        )


def draw_trial_vectors(
    inputs: Sequence[str], width: int, trials: int, seed: int
) -> list[dict[str, int]]:
    """Materialize all randomized-refutation input vectors up front.

    One rng walk per check: vector ``t`` depends only on ``(seed, t)``,
    never on how many trials an earlier register pair consumed before
    an early exit -- and the resulting list is exactly the
    ``register_values`` batch the ``compiled-batched`` backend takes.
    """
    rng = random.Random(seed)
    return [
        {name: rng.randrange(0, 1 << width) for name in inputs}
        for _ in range(trials)
    ]


class _ModelEvaluator:
    """Refutation oracle that *simulates* the model (``backend=`` path).

    Lazily sweeps the full trial batch through the chosen backend --
    one run for ``compiled-batched``, one elaboration per vector for
    scalar backends -- and serves every register pair from the same
    sweep.  Nothing runs if every pair already decided by normal form.
    """

    def __init__(
        self, model: RTModel, envs: Sequence[Mapping[str, int]], backend: str
    ) -> None:
        self._model = model
        self._envs = envs
        self._backend = backend
        self._results: Optional[list[dict[str, int]]] = None

    def value(self, register: str, trial: int) -> int:
        if self._results is None:
            self._results = self._sweep()
        return self._results[trial][register]

    def _sweep(self) -> list[dict[str, int]]:
        if self._backend == "compiled-batched":
            sim = self._model.elaborate(
                register_values=list(self._envs), backend=self._backend
            ).run()
            return sim.registers
        return [
            self._model.elaborate(
                register_values=env, backend=self._backend
            ).run().registers
            for env in self._envs
        ]


def check_program_vs_model(
    program: Program,
    model: RTModel,
    output_regs: Mapping[str, str],
    trials: int = 64,
    seed: int = 12345,
    backend: Optional[str] = None,
    properties: Optional[Sequence] = None,
    coverage_db: object = None,
) -> list[EquivalenceResult]:
    """Verify an RT model against its algorithmic source program.

    ``output_regs`` maps program variables to the registers holding
    them (as produced by :func:`repro.hls.synthesize`).  Registers
    named after program inputs are treated as symbolic.

    ``backend`` selects how the randomized-refutation side evaluates
    the model: None (the default) evaluates the symbolic run's
    expressions directly; a backend name simulates the model itself on
    the trial vectors -- ``"compiled-batched"`` sweeps the whole trial
    batch in one run.  The trial vectors are identical either way
    (drawn up front from ``seed``).

    ``properties`` (a sequence of :class:`repro.observe.Property`)
    adds the runtime monitors as an extra oracle: every trial vector
    is swept through the assertion checker and each property
    contributes one ``method="monitor"`` result -- failing with the
    first offending vector as counterexample, or passing over the
    whole trial batch.  Functional equivalence alone misses these
    (a bus conflict that resolves to the right value, a transient
    ILLEGAL overwritten before the output step); the monitor oracle
    rejects them.

    ``coverage_db`` (any :data:`repro.observe.coverage.CoverageDBArg`
    shape -- True, a path, or a ready ``CoverageDB``) additionally
    measures the structural coverage the trial sweep achieved and
    merges it into the cumulative on-disk DB, so refutation trials
    feed the same saturation campaign as ``repro cover`` runs.  Needs
    ``backend`` (the symbolic path never executes the model).
    """
    run = symbolic_run(model, symbolic_registers=list(program.inputs))
    prog_env = program_symbolic_env(program)
    # The program side may use operations the model never executed;
    # extend the operation table for normalization/evaluation.
    from ..core.modules_lib import standard_operation

    ops = dict(run.operations)
    for symbol, op_name in OP_NAMES_BY_SYMBOL.items():
        ops.setdefault(op_name, standard_operation(op_name))

    trial_envs = draw_trial_vectors(
        program.inputs, model.width, trials, seed
    )
    evaluator = (
        _ModelEvaluator(model, trial_envs, backend)
        if backend is not None
        else None
    )
    results: list[EquivalenceResult] = []
    for variable, register in output_regs.items():
        model_expr = normalize(run.expr(register), model.width, ops)
        prog_expr = normalize(prog_env[variable], model.width, ops)
        if model_expr == prog_expr:
            results.append(
                EquivalenceResult(register, variable, "normal-form", True)
            )
            continue
        # Randomized refutation.
        counterexample = None
        for t, env in enumerate(trial_envs):
            if evaluator is not None:
                lhs = evaluator.value(register, t)
            else:
                lhs = run.concrete(register, env)
            rhs = evaluate(program, env, model.width)[variable]
            if lhs != rhs:
                counterexample = dict(env)
                break
        if counterexample is not None:
            results.append(
                EquivalenceResult(
                    register,
                    variable,
                    "counterexample",
                    False,
                    counterexample,
                )
            )
        else:
            results.append(
                EquivalenceResult(register, variable, "random", True)
            )
    if properties:
        results.extend(
            _monitor_oracle(model, trial_envs, properties, backend)
        )
    if coverage_db is not None and coverage_db is not False:
        _accumulate_coverage(model, trial_envs, backend, coverage_db)
    return results


def _accumulate_coverage(
    model: RTModel,
    trial_envs: Sequence[Mapping[str, int]],
    backend: Optional[str],
    coverage_db: object,
) -> None:
    """Merge the trial sweep's structural coverage into the DB."""
    from ..observe import as_coverage_db, measure_coverage

    db = as_coverage_db(coverage_db)
    if db is None:
        return
    if backend is None:
        raise ValueError(
            "coverage_db needs a backend= that executes the model "
            "(the symbolic oracle never runs it)"
        )
    if backend == "compiled-batched":
        report = measure_coverage(
            model, backend=backend, register_values=list(trial_envs)
        )
    else:
        report = None
        for env in trial_envs:
            lane = measure_coverage(
                model, backend=backend, register_values=dict(env)
            )
            report = lane if report is None else report.merge(lane)
    if report is not None:
        db.update(report)


def _monitor_oracle(
    model: RTModel,
    trial_envs: Sequence[Mapping[str, int]],
    properties: Sequence,
    backend: Optional[str],
) -> list[EquivalenceResult]:
    """Sweep the trial vectors through the runtime monitors.

    One result per property: the first trial vector violating it is
    the counterexample; a property no vector violates passes with
    ``register="*"`` (it constrains the whole run, not one output).
    Without a ``backend`` the sweep is one ``compiled-batched`` run, or
    one scalar ``compiled`` run per vector when numpy is absent (the
    verdicts are identical)."""
    from ..core.values_np import have_numpy
    from ..observe import check_model

    sweep_backend = backend or (
        "compiled-batched" if have_numpy() else "compiled"
    )
    reports = check_model(
        model, properties, backend=sweep_backend,
        register_values=list(trial_envs),
    ) if sweep_backend == "compiled-batched" else [
        check_model(model, properties, backend=sweep_backend,
                    register_values=dict(env))
        for env in trial_envs
    ]
    results: list[EquivalenceResult] = []
    for prop in properties:
        offending = next(
            (
                (t, violation)
                for t, report in enumerate(reports)
                for violation in report.violations
                if violation.prop == prop.label
            ),
            None,
        )
        if offending is None:
            results.append(
                EquivalenceResult("*", prop.label, "monitor", True)
            )
        else:
            t, violation = offending
            results.append(
                EquivalenceResult(
                    violation.signal or "*",
                    prop.label,
                    "monitor",
                    False,
                    dict(trial_envs[t]),
                )
            )
    return results


def all_equivalent(results: Sequence[EquivalenceResult]) -> bool:
    """Whether every output verified."""
    return all(r.equivalent for r in results)
