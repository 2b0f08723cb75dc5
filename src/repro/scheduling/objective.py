"""Static, timing-aware cost objective for candidate schedules.

The first-valid-schedule search (``objective="first"``) stops at the first
schedule satisfying the Section 4.1 properties.  With ``objective="cost"``
the search enumerates up to ``candidate_limit`` distinct valid schedules and
selects the one minimising the score computed here -- *statically*, from the
schedule structure alone, without running a simulation:

* **computation / communication cycles** -- every reaction segment (await
  node to next await node) is walked symbolically; the code fragments on the
  traversed transitions are measured by a static mirror of the FlowC
  interpreter's operation counting (:class:`_StaticInterpreter`), and the
  port arcs of each transition are classified with the single-task rules of
  :class:`repro.runtime.simulation.SingleTaskSimulation` (channel places are
  intra-task buffers, environment places are latched arrays);
* **context switches** -- each await node beyond the first is a dispatch
  boundary of the quasi-static task and is charged one context switch plus
  the per-event ISR dispatch;
* **latency / jitter** -- when processes carry ``WCET(n)`` annotations
  (:attr:`repro.petrinet.net.PetriNet.process_wcet`), the latency of a
  reaction path is the prefix sum of per-transition WCETs up to the *last*
  environment output write.  Whole-path WCET sums are invariant under
  reordering, prefix-to-output sums are not, which is exactly what makes the
  term discriminate interleavings; jitter is the max-min spread across paths.

The score is an integer and the selection in
:meth:`repro.scheduling.ep._EPSearch._select_by_cost` breaks ties on the
canonical schedule fingerprint, so the winner is a pure function of
(net, source, options) -- independent of the enumeration order.

The same machinery powers :func:`predict_single_task`, the predictor checked
against :class:`~repro.runtime.simulation.SingleTaskSimulation` by the corpus
differential harness: context-switch and communication counts must match the
simulation *exactly* (they are derived from arcs and schedule structure, not
from data), operation counts are exact whenever control flow is statically
decidable and otherwise flagged via ``exact_operations``.

This module must not import :mod:`repro.scheduling.ep` (the search imports
the scorer lazily); it depends only on the schedule graph, the net and the
cost tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Break,
    Call,
    Conditional,
    Continue,
    Declaration,
    Expression,
    ExprStatement,
    FloatLiteral,
    For,
    Identifier,
    If,
    Index,
    IntLiteral,
    PostfixOp,
    ReadData,
    Return,
    SelectExpr,
    Statement,
    StringLiteral,
    Switch,
    UnaryOp,
    While,
    WriteData,
    walk_statements,
)
from repro.flowc.compiler import SelectCondition
from repro.flowc.interpreter import BUILTIN_FUNCTIONS, OperationCounter
from repro.runtime.channels import CommunicationStats
from repro.runtime.cost_model import PROFILES, CostModel
from repro.scheduling.schedule import Schedule, ScheduleNode

# Weights of the WCET-derived terms relative to the (already cycle-valued)
# computation/communication/framework terms.  They only discriminate when
# candidates tie on everything else, so the absolute magnitude is not
# critical; they are pinned so scores are stable across releases.
LATENCY_WEIGHT = 4
JITTER_WEIGHT = 2

# Fan-out / unrolling safety caps for the symbolic walk.  Exceeding either
# cap degrades the prediction to "inexact" instead of failing.
MAX_SEGMENT_PATHS = 64
MAX_STATIC_LOOP_ITERATIONS = 65536

# The profile the score is computed under; pfc has computation_scale 1.0 so
# every term is integral by construction.
SCORE_PROFILE = "pfc"


class _Unknown:
    """Sentinel for values the static walk cannot determine."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unknown>"


UNKNOWN = _Unknown()


def _known(value: Any) -> bool:
    return not isinstance(value, _Unknown)


def _copy_value(value: Any) -> Any:
    return list(value) if isinstance(value, list) else value


def _poison_value(value: Any) -> Any:
    """Forget a value while keeping its scalar/array kind (the kind decides
    how READ_DATA stores are counted, so it must survive poisoning)."""
    if isinstance(value, list):
        return [UNKNOWN] * len(value)
    return UNKNOWN


class _ProcessState:
    """Static mirror of :class:`repro.flowc.interpreter.Environment`.

    ``default_unknown`` selects what an undeclared variable reads as: the
    real interpreter defaults to 0, which is the right mirror when the
    hoisted declarations have been replayed (prediction mode); when scoring
    without a linked system the initial values are unavailable, so undeclared
    reads are UNKNOWN to avoid constant-folding on wrong values.
    """

    __slots__ = ("variables", "default_unknown")

    def __init__(self, default_unknown: bool):
        self.variables: Dict[str, Any] = {}
        self.default_unknown = default_unknown

    def get(self, name: str) -> Any:
        if name not in self.variables:
            self.variables[name] = UNKNOWN if self.default_unknown else 0
        return self.variables[name]

    def set(self, name: str, value: Any) -> None:
        self.variables[name] = value

    def clone(self) -> "_ProcessState":
        copy = _ProcessState(self.default_unknown)
        copy.variables = {k: _copy_value(v) for k, v in self.variables.items()}
        return copy


def _copy_stats(stats: CommunicationStats) -> CommunicationStats:
    clone = CommunicationStats()
    clone.merge(stats)
    return clone


def _counter_delta(after: OperationCounter, before: OperationCounter) -> OperationCounter:
    delta = OperationCounter()
    for f in fields(OperationCounter):
        setattr(delta, f.name, getattr(after, f.name) - getattr(before, f.name))
    return delta


def _counters_equal(a: OperationCounter, b: OperationCounter) -> bool:
    return all(getattr(a, f.name) == getattr(b, f.name) for f in fields(OperationCounter))


def _stats_equal(a: CommunicationStats, b: CommunicationStats) -> bool:
    return all(getattr(a, f.name) == getattr(b, f.name) for f in fields(CommunicationStats))


def _cycle_weight(delta: OperationCounter) -> float:
    """Deterministic arm-selection weight: the pfc cycle value of a delta."""
    model = CostModel()
    comm_proxy = (
        delta.reads + delta.writes + delta.items_read + delta.items_written
    )
    return model.cycle_costs.computation_cycles(delta) + comm_proxy


@dataclass
class _BranchState:
    """One symbolic execution branch: variable state plus running totals."""

    states: Dict[str, _ProcessState]
    default_unknown: bool
    counter: OperationCounter = field(default_factory=OperationCounter)
    comm: CommunicationStats = field(default_factory=CommunicationStats)
    steps: int = 0
    wcet_prefix: int = 0
    latency: Optional[int] = None
    node: int = 0
    exact_ops: bool = True
    exact_comm: bool = True
    visited: Set[int] = field(default_factory=set)
    truncated: bool = False

    def state_of(self, process: str) -> _ProcessState:
        if process not in self.states:
            self.states[process] = _ProcessState(self.default_unknown)
        return self.states[process]

    def clone(self) -> "_BranchState":
        return _BranchState(
            states={name: state.clone() for name, state in self.states.items()},
            default_unknown=self.default_unknown,
            counter=self.counter.copy(),
            comm=_copy_stats(self.comm),
            steps=self.steps,
            wcet_prefix=self.wcet_prefix,
            latency=self.latency,
            node=self.node,
            exact_ops=self.exact_ops,
            exact_comm=self.exact_comm,
            visited=set(self.visited),
            truncated=self.truncated,
        )

    def adopt(self, other: "_BranchState") -> None:
        self.states = other.states
        self.counter = other.counter
        self.comm = other.comm
        self.steps = other.steps
        self.wcet_prefix = other.wcet_prefix
        self.latency = other.latency
        self.node = other.node
        self.exact_ops = other.exact_ops
        self.exact_comm = other.exact_comm
        self.visited = other.visited
        self.truncated = other.truncated


class _StaticBreak(Exception):
    pass


class _StaticContinue(Exception):
    pass


class _StaticReturn(Exception):
    pass


def _assigned_names(statements: Sequence[Statement]) -> Set[str]:
    """Names a statement sequence may write to (for poisoning on unknown
    control flow).  Conservative: includes READ_DATA targets and declarators."""

    names: Set[str] = set()

    def target_name(expr: Expression) -> None:
        if isinstance(expr, UnaryOp) and expr.op in ("&", "*"):
            target_name(expr.operand)
        elif isinstance(expr, Identifier):
            names.add(expr.name)
        elif isinstance(expr, Index):
            target_name(expr.base)

    def scan_expr(expr: Optional[Expression]) -> None:
        if expr is None:
            return
        if isinstance(expr, Assignment):
            target_name(expr.target)
            scan_expr(expr.value)
        elif isinstance(expr, (UnaryOp, PostfixOp)):
            if expr.op in ("++", "--"):
                target_name(expr.operand)
            scan_expr(expr.operand)
        elif isinstance(expr, BinaryOp):
            scan_expr(expr.left)
            scan_expr(expr.right)
        elif isinstance(expr, Conditional):
            scan_expr(expr.condition)
            scan_expr(expr.then)
            scan_expr(expr.other)
        elif isinstance(expr, Call):
            for arg in expr.args:
                scan_expr(arg)
        elif isinstance(expr, Index):
            scan_expr(expr.base)
            scan_expr(expr.index)

    for statement in walk_statements(statements):
        if isinstance(statement, Declaration):
            for declarator in statement.declarators:
                names.add(declarator.name)
        elif isinstance(statement, ExprStatement):
            scan_expr(statement.expr)
        elif isinstance(statement, (If, While)):
            scan_expr(statement.condition)
        elif isinstance(statement, For):
            scan_expr(statement.init)
            scan_expr(statement.condition)
            scan_expr(statement.update)
        elif isinstance(statement, Switch):
            scan_expr(statement.subject)
        elif isinstance(statement, ReadData):
            target_name(statement.target)
            scan_expr(statement.nitems)
        elif isinstance(statement, WriteData):
            scan_expr(statement.value)
            scan_expr(statement.nitems)
        elif isinstance(statement, Return):
            scan_expr(statement.value)
    return names


class _StaticInterpreter:
    """Mirror of :class:`repro.flowc.interpreter.Interpreter` over partially
    known values.

    Every counting rule is replicated verbatim from the interpreter; when a
    control decision depends on an unknown value the interpreter speculates
    both arms, keeps the heavier one (deterministically: first arm on ties),
    poisons the variables either arm writes, and clears ``exact_ops``.
    """

    def __init__(self, branch: _BranchState, process: str):
        self.branch = branch
        self.env = branch.state_of(process)
        self.process = process
        self.counter = branch.counter

    # -- statements ---------------------------------------------------------
    def run(self, statements: Sequence[Statement]) -> None:
        try:
            self.execute_block(statements)
        except _StaticReturn:
            pass
        except (_StaticBreak, _StaticContinue):
            self.branch.exact_ops = False

    def execute_block(self, statements: Sequence[Statement]) -> None:
        for statement in statements:
            self.execute(statement)

    def execute(self, statement: Statement) -> None:
        if isinstance(statement, Declaration):
            self._execute_declaration(statement)
        elif isinstance(statement, ExprStatement):
            self.evaluate(statement.expr)
        elif isinstance(statement, Block):
            self.execute_block(statement.statements)
        elif isinstance(statement, If):
            self.counter.branches += 1
            condition = self.evaluate(statement.condition)
            if _known(condition):
                if self._truth(condition):
                    self.execute_block(statement.then_body)
                elif statement.else_body is not None:
                    self.execute_block(statement.else_body)
            else:
                arms = [lambda i, s=statement: i.execute_block(s.then_body)]
                if statement.else_body is not None:
                    arms.append(lambda i, s=statement: i.execute_block(s.else_body))
                else:
                    arms.append(lambda i: None)
                self._speculate(arms)
        elif isinstance(statement, While):
            self._execute_while(statement)
        elif isinstance(statement, For):
            self._execute_for(statement)
        elif isinstance(statement, Switch):
            self._execute_switch(statement)
        elif isinstance(statement, Break):
            raise _StaticBreak()
        elif isinstance(statement, Continue):
            raise _StaticContinue()
        elif isinstance(statement, Return):
            if statement.value is not None:
                self.evaluate(statement.value)
            raise _StaticReturn()
        elif isinstance(statement, ReadData):
            self._execute_read(statement)
        elif isinstance(statement, WriteData):
            self._execute_write(statement)
        else:
            self.branch.exact_ops = False

    def _execute_declaration(self, statement: Declaration) -> None:
        for declarator in statement.declarators:
            if declarator.array_size is not None:
                size = self.evaluate(declarator.array_size)
                if _known(size):
                    self.env.set(declarator.name, [0] * int(size))
                else:
                    self.env.set(declarator.name, UNKNOWN)
                    self.branch.exact_ops = False
            elif declarator.init is not None:
                self.env.set(declarator.name, self.evaluate(declarator.init))
                self.counter.assignments += 1
            else:
                self.env.set(declarator.name, 0)

    def _poison(self, statements: Sequence[Statement]) -> None:
        for name in _assigned_names(statements):
            self.env.set(name, _poison_value(self.env.get(name)))

    def _execute_while(self, statement: While) -> None:
        iterations = 0
        while True:
            self.counter.branches += 1
            condition = self.evaluate(statement.condition)
            if not _known(condition):
                self._poison(statement.body)
                self.branch.exact_ops = False
                return
            if not self._truth(condition):
                return
            iterations += 1
            if iterations > MAX_STATIC_LOOP_ITERATIONS:
                self._poison(statement.body)
                self.branch.exact_ops = False
                return
            try:
                self.execute_block(statement.body)
            except _StaticBreak:
                return
            except _StaticContinue:
                continue

    def _execute_for(self, statement: For) -> None:
        if statement.init is not None:
            self.evaluate(statement.init)
        iterations = 0
        while True:
            if statement.condition is not None:
                self.counter.branches += 1
                condition = self.evaluate(statement.condition)
                if not _known(condition):
                    self._poison(statement.body)
                    if statement.update is not None:
                        self._poison([ExprStatement(statement.update)])
                    self.branch.exact_ops = False
                    return
                if not self._truth(condition):
                    return
            iterations += 1
            if iterations > MAX_STATIC_LOOP_ITERATIONS:
                self._poison(statement.body)
                self.branch.exact_ops = False
                return
            try:
                self.execute_block(statement.body)
            except _StaticBreak:
                return
            except _StaticContinue:
                pass
            if statement.update is not None:
                self.evaluate(statement.update)

    def _execute_switch(self, statement: Switch) -> None:
        subject = self.evaluate(statement.subject)
        self.counter.branches += 1
        if _known(subject):
            default_case = None
            for case in statement.cases:
                if case.value is None:
                    default_case = case
                    continue
                value = self.evaluate(case.value)
                if not _known(value):
                    self._switch_unknown(statement)
                    return
                if value == subject:
                    self._run_case(case.body)
                    return
            if default_case is not None:
                self._run_case(default_case.body)
            return
        self._switch_unknown(statement)

    def _switch_unknown(self, statement: Switch) -> None:
        arms: List[Callable[["_StaticInterpreter"], None]] = [
            lambda i, c=case: i._run_case(c.body) for case in statement.cases
        ]
        if not any(case.value is None for case in statement.cases):
            arms.append(lambda i: None)
        self._speculate(arms)
        self.branch.exact_ops = False

    def _run_case(self, body: Sequence[Statement]) -> None:
        try:
            self.execute_block(body)
        except _StaticBreak:
            pass

    def _execute_read(self, statement: ReadData) -> None:
        nitems_value = self.evaluate(statement.nitems)
        nitems = int(nitems_value) if _known(nitems_value) else 1
        if not _known(nitems_value):
            self.branch.exact_ops = False
            self.branch.exact_comm = False
        self.counter.reads += 1
        self.counter.items_read += nitems
        target = statement.target
        if isinstance(target, UnaryOp) and target.op == "&":
            target = target.operand
        if isinstance(target, Identifier):
            current = self.env.get(target.name)
            if isinstance(current, list) and nitems >= 1:
                for offset in range(min(nitems, len(current))):
                    current[offset] = UNKNOWN
                self.counter.memory += nitems
            else:
                if not _known(current) and self.env.default_unknown:
                    # without the declarations (score mode) an undeclared
                    # target could be an array; assume the scalar store shape
                    self.branch.exact_ops = False
                self.env.set(target.name, UNKNOWN)
            self.counter.assignments += 1
            return
        if isinstance(target, Index):
            base, index = self._resolve_index(target)
            if nitems != 1:
                if isinstance(base, list) and _known(index):
                    for offset in range(min(nitems, max(0, len(base) - int(index)))):
                        base[int(index) + offset] = UNKNOWN
                elif isinstance(base, list):
                    for offset in range(len(base)):
                        base[offset] = UNKNOWN
                self.counter.memory += nitems
                return
            if isinstance(base, list):
                if _known(index) and 0 <= int(index) < len(base):
                    base[int(index)] = UNKNOWN
                else:
                    for offset in range(len(base)):
                        base[offset] = UNKNOWN
            self.counter.assignments += 1
            self.counter.memory += 1
            return
        self.branch.exact_ops = False

    def _execute_write(self, statement: WriteData) -> None:
        nitems_value = self.evaluate(statement.nitems)
        self.evaluate(statement.value)
        nitems = int(nitems_value) if _known(nitems_value) else 1
        if not _known(nitems_value):
            self.branch.exact_ops = False
            self.branch.exact_comm = False
        self.counter.writes += 1
        self.counter.items_written += nitems

    # -- expressions --------------------------------------------------------
    def evaluate(self, expr: Expression) -> Any:
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, FloatLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, Identifier):
            return self.env.get(expr.name)
        if isinstance(expr, Index):
            base, index = self._resolve_index(expr)
            self.counter.memory += 1
            if isinstance(base, list) and _known(index) and 0 <= int(index) < len(base):
                return base[int(index)]
            return UNKNOWN
        if isinstance(expr, UnaryOp):
            return self._evaluate_unary(expr)
        if isinstance(expr, PostfixOp):
            return self._evaluate_postfix(expr)
        if isinstance(expr, BinaryOp):
            return self._evaluate_binary(expr)
        if isinstance(expr, Assignment):
            return self._evaluate_assignment(expr)
        if isinstance(expr, Conditional):
            self.counter.branches += 1
            condition = self.evaluate(expr.condition)
            if _known(condition):
                if self._truth(condition):
                    return self.evaluate(expr.then)
                return self.evaluate(expr.other)
            self._speculate(
                [
                    lambda i, e=expr: (i.evaluate(e.then), None)[1],
                    lambda i, e=expr: (i.evaluate(e.other), None)[1],
                ]
            )
            return UNKNOWN
        if isinstance(expr, Call):
            return self._evaluate_call(expr)
        if isinstance(expr, SelectExpr):
            return self._evaluate_select(expr)
        self.branch.exact_ops = False
        return UNKNOWN

    def _truth(self, value: Any) -> bool:
        if isinstance(value, list):
            return bool(value)
        return bool(value)

    def _resolve_index(self, expr: Index) -> Tuple[Any, Any]:
        base = self.evaluate(expr.base)
        index = self.evaluate(expr.index)
        return base, index

    def _evaluate_unary(self, expr: UnaryOp) -> Any:
        if expr.op == "&":
            return self.evaluate(expr.operand)
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            value = self.evaluate(expr.operand)
            value = value + delta if _known(value) else UNKNOWN
            self._assign_to(expr.operand, value)
            self.counter.arithmetic += 1
            self.counter.assignments += 1
            return value
        operand = self.evaluate(expr.operand)
        self.counter.arithmetic += 1
        if not _known(operand):
            return UNKNOWN
        if expr.op == "-":
            return -operand
        if expr.op == "+":
            return operand
        if expr.op == "!":
            return 0 if self._truth(operand) else 1
        if expr.op == "~":
            return ~int(operand)
        if expr.op == "*":
            return operand
        return UNKNOWN

    def _evaluate_postfix(self, expr: PostfixOp) -> Any:
        value = self.evaluate(expr.operand)
        updated = value + (1 if expr.op == "++" else -1) if _known(value) else UNKNOWN
        self._assign_to(expr.operand, updated)
        self.counter.arithmetic += 1
        self.counter.assignments += 1
        return value

    def _evaluate_binary(self, expr: BinaryOp) -> Any:
        left = self.evaluate(expr.left)
        if expr.op in ("&&", "||"):
            self.counter.comparisons += 1
            if _known(left):
                left_truth = self._truth(left)
                if expr.op == "&&" and not left_truth:
                    return 0
                if expr.op == "||" and left_truth:
                    return 1
                right = self.evaluate(expr.right)
                if not _known(right):
                    return UNKNOWN
                return 1 if self._truth(right) else 0
            # unknown left operand: the right side may or may not run
            self._speculate(
                [
                    lambda i, e=expr: (i.evaluate(e.right), None)[1],
                    lambda i: None,
                ]
            )
            return UNKNOWN
        right = self.evaluate(expr.right)
        op = expr.op
        if op in ("==", "!=", "<", ">", "<=", ">="):
            self.counter.comparisons += 1
            if not (_known(left) and _known(right)):
                return UNKNOWN
            result = {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                ">": left > right,
                "<=": left <= right,
                ">=": left >= right,
            }[op]
            return 1 if result else 0
        self.counter.arithmetic += 1
        if not (_known(left) and _known(right)):
            return UNKNOWN
        return self._apply_arith(op, left, right)

    def _apply_arith(self, op: str, left: Any, right: Any) -> Any:
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return UNKNOWN
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right) if (left < 0) != (right < 0) else left // right
                return left / right
            if op == "%":
                if right == 0:
                    return UNKNOWN
                return left - right * int(left / right) if isinstance(left, int) else left % right
            if op == "&":
                return int(left) & int(right)
            if op == "|":
                return int(left) | int(right)
            if op == "^":
                return int(left) ^ int(right)
            if op == "<<":
                return int(left) << int(right)
            if op == ">>":
                return int(left) >> int(right)
        except (TypeError, ValueError):
            return UNKNOWN
        return UNKNOWN

    def _evaluate_assignment(self, expr: Assignment) -> Any:
        value = self.evaluate(expr.value)
        if expr.op != "=":
            current = self.evaluate(expr.target)
            self.counter.arithmetic += 1
            if _known(current) and _known(value):
                value = self._apply_arith(expr.op[0], current, value)
            else:
                value = UNKNOWN
        self._assign_to(expr.target, value)
        self.counter.assignments += 1
        return value

    def _assign_to(self, target: Expression, value: Any) -> None:
        if isinstance(target, UnaryOp) and target.op in ("&", "*"):
            target = target.operand
        if isinstance(target, Identifier):
            self.env.set(target.name, value)
            return
        if isinstance(target, Index):
            base, index = self._resolve_index(target)
            self.counter.memory += 1
            if isinstance(base, list):
                if _known(index) and 0 <= int(index) < len(base):
                    base[int(index)] = value
                else:
                    for offset in range(len(base)):
                        base[offset] = UNKNOWN
            return
        self.branch.exact_ops = False

    def _evaluate_call(self, expr: Call) -> Any:
        args = [self.evaluate(arg) for arg in expr.args]
        self.counter.calls += 1
        function = BUILTIN_FUNCTIONS.get(expr.name)
        if function is not None and all(_known(arg) for arg in args):
            try:
                return function(*args)
            except (TypeError, ValueError):
                return UNKNOWN
        return UNKNOWN

    def _evaluate_select(self, expr: SelectExpr) -> Any:
        for _port, count in expr.entries:
            self.evaluate(count)
        self.counter.selects += 1
        self.branch.comm.selects += 1
        return UNKNOWN

    # -- speculation --------------------------------------------------------
    def _speculate(self, arms: List[Callable[["_StaticInterpreter"], None]]) -> None:
        """Run each arm on a clone, keep the heaviest, poison divergent state.

        Deterministic: the first arm wins ties.  Any difference between arm
        deltas clears ``exact_ops``; any communication inside an arm clears
        ``exact_comm`` too (arms of a data-dependent choice with port traffic
        cannot be predicted without the data).
        """
        base = self.branch
        results: List[_BranchState] = []
        for arm in arms:
            clone = base.clone()
            interpreter = _StaticInterpreter(clone, self.process)
            try:
                arm(interpreter)
            except (_StaticBreak, _StaticContinue, _StaticReturn):
                clone.exact_ops = False
            results.append(clone)
        deltas = [_counter_delta(result.counter, base.counter) for result in results]
        best = 0
        best_weight = _cycle_weight(deltas[0])
        for i in range(1, len(results)):
            weight = _cycle_weight(deltas[i])
            if weight > best_weight:
                best, best_weight = i, weight
        winner = results[best]
        if any(not _counters_equal(deltas[i], deltas[best]) for i in range(len(deltas))):
            winner.exact_ops = False
        if any(
            d.reads or d.writes or d.items_read or d.items_written or d.selects
            for d in deltas
        ):
            winner.exact_comm = False
        if any(not _stats_equal(results[i].comm, winner.comm) for i in range(len(results))):
            winner.exact_comm = False
        # poison variables whose value differs across arms
        for process, winner_state in winner.states.items():
            for name in list(winner_state.variables):
                value = winner_state.variables[name]
                for other in results:
                    other_value = other.state_of(process).variables.get(name, UNKNOWN)
                    if not _known(other_value) or not _known(value) or other_value != value:
                        winner_state.variables[name] = _poison_value(value)
                        break
        base.adopt(winner)
        # self.env may now be stale; re-bind to the adopted state
        self.env = base.state_of(self.process)
        self.counter = base.counter


# ---------------------------------------------------------------------------
# schedule walking
# ---------------------------------------------------------------------------


def _choice_place_of(schedule: Schedule, node: ScheduleNode):
    """The shared choice place of a multi-edge node (mirror of
    :meth:`repro.codegen.task.ExecutableTask._choice_place_of`)."""
    net = schedule.net
    transitions = list(node.edges)
    for place in net.pre[transitions[0]]:
        obj = net.places[place]
        if obj.condition is not None and all(place in net.pre[t] for t in transitions):
            return obj
    return None


def _resolve_choice(schedule: Schedule, node: ScheduleNode, branch: _BranchState) -> List[str]:
    """Statically resolve a data-dependent choice; returns the edges the
    execution may take (a single edge when the condition folds)."""
    place = _choice_place_of(schedule, node)
    edges = sorted(node.edges)
    if place is None or place.condition is None:
        branch.exact_ops = False
        branch.exact_comm = False
        return edges
    net = schedule.net
    guards = {t: net.transitions[t].guard for t in node.edges}
    if isinstance(place.condition, SelectCondition):
        process = place.process or next(
            (net.transitions[t].process for t in edges if net.transitions[t].process),
            None,
        )
        if process is None:
            branch.exact_ops = False
            branch.exact_comm = False
            return edges
        interpreter = _StaticInterpreter(branch, process)
        interpreter.evaluate(place.condition.select)
        # which entry is ready depends on channel occupancy at run time
        return edges
    process = place.process
    if process is None:
        branch.exact_ops = False
        branch.exact_comm = False
        return edges
    interpreter = _StaticInterpreter(branch, process)
    value = interpreter.evaluate(place.condition)
    if not _known(value):
        return edges
    boolean_guards = set(guards.values()) <= {True, False, None}
    if boolean_guards:
        wanted = bool(value)
        chosen = [t for t in edges if guards[t] == wanted]
        return chosen or edges
    chosen = [t for t in edges if guards[t] == value]
    if chosen:
        return chosen
    chosen = [t for t in edges if guards[t] == "default"]
    return chosen or edges


def _execute_transition(schedule: Schedule, name: str, branch: _BranchState) -> None:
    """Account one executed transition: steps, WCET prefix, arc-derived
    communication (single-task classification) and the code fragment's ops."""
    net = schedule.net
    transition = net.transitions[name]
    branch.steps += 1
    if transition.process:
        branch.wcet_prefix += net.process_wcet.get(transition.process, 0)
    if transition.is_source or transition.is_sink:
        return
    for place, weight in sorted(net.pre[name].items()):
        obj = net.places[place]
        if not obj.is_port:
            continue
        if obj.channel is None:
            branch.comm.environment_reads += 1
            branch.comm.environment_items += weight
        else:
            branch.comm.intratask_reads += 1
            branch.comm.intratask_items += weight
    wrote_output = False
    for place, weight in sorted(net.post[name].items()):
        obj = net.places[place]
        if not obj.is_port:
            continue
        if obj.channel is None:
            branch.comm.environment_writes += 1
            branch.comm.environment_items += weight
            wrote_output = True
        else:
            branch.comm.intratask_writes += 1
            branch.comm.intratask_items += weight
    if wrote_output:
        branch.latency = branch.wcet_prefix
    if transition.code and transition.process:
        interpreter = _StaticInterpreter(branch, transition.process)
        interpreter.run(list(transition.code))


def _walk_segment(schedule: Schedule, branch: _BranchState) -> List[_BranchState]:
    """Symbolically execute one reaction segment: from the node after the
    await node's source edge to the next await node, fanning out at choices
    that do not fold statically.  Mirrors the stop condition of
    :meth:`repro.codegen.task.ExecutableTask.react`."""
    uncontrollable = set(schedule.net.uncontrollable_sources())
    frontier = [branch]
    done: List[_BranchState] = []
    while frontier:
        current = frontier.pop()
        node = schedule.node(current.node)
        outgoing = node.edges
        if set(outgoing) & uncontrollable:
            done.append(current)
            continue
        if not outgoing:
            current.truncated = True
            current.exact_ops = False
            current.exact_comm = False
            done.append(current)
            continue
        if node.index in current.visited:
            # a data-dependent cycle not passing through an await node; the
            # static walk cannot bound its iteration count
            current.truncated = True
            current.exact_ops = False
            current.exact_comm = False
            done.append(current)
            continue
        current.visited.add(node.index)
        if len(outgoing) == 1:
            chosen = [next(iter(outgoing))]
        else:
            chosen = _resolve_choice(schedule, node, current)
        if len(chosen) > 1 and len(frontier) + len(done) + len(chosen) > MAX_SEGMENT_PATHS:
            chosen = chosen[:1]
            current.exact_ops = False
            current.exact_comm = False
        branches = [current] if len(chosen) == 1 else [current.clone() for _ in chosen]
        for transition, child in zip(chosen, branches):
            _execute_transition(schedule, transition, child)
            child.node = outgoing[transition]
            frontier.append(child)
    return done


def _fresh_branch(schedule: Schedule, node_index: int, *, default_unknown: bool) -> _BranchState:
    branch = _BranchState(states={}, default_unknown=default_unknown)
    branch.node = node_index
    return branch


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


@dataclass
class SegmentCost:
    """Cost summary of one await segment (max over its paths)."""

    await_node: int
    paths: int
    cycles: int
    steps: int
    latencies: Tuple[int, ...]
    exact: bool


@dataclass
class ScheduleCostBreakdown:
    """The additive terms behind :func:`score_schedule`."""

    score: int
    base_cycles: int
    context_switch_cycles: int
    latency: int
    jitter: int
    await_nodes: int
    segments: List[SegmentCost] = field(default_factory=list)

    @property
    def exact(self) -> bool:
        return all(segment.exact for segment in self.segments)


def _path_cycles(branch: _BranchState, model: CostModel) -> int:
    profile = PROFILES[SCORE_PROFILE]
    return int(
        round(
            model.execution_cycles(
                branch.counter,
                branch.comm,
                profile=profile,
                isr_dispatches=1,
                state_updates=branch.steps,
            )
        )
    )


def cost_breakdown(schedule: Schedule, *, cost_model: Optional[CostModel] = None) -> ScheduleCostBreakdown:
    """Statically predicted cost of executing ``schedule`` as a single task.

    Deterministic in the schedule value: segments are visited in ascending
    await-node index, paths fan out in sorted-edge order, and every term is
    an integer under the ``pfc`` profile.
    """
    model = cost_model or CostModel()
    await_nodes = sorted(node.index for node in schedule.await_nodes())
    source = schedule.source_transition
    segments: List[SegmentCost] = []
    latencies: List[int] = []
    base = 0
    for index in await_nodes:
        node = schedule.node(index)
        if source not in node.edges:
            # await node of a foreign source (non-SS schedule): it still
            # bounds the segment walked from our own await nodes, but we do
            # not originate a reaction here
            continue
        branch = _fresh_branch(schedule, node.edges[source], default_unknown=True)
        _execute_transition(schedule, source, branch)
        branch.steps -= 1  # the source edge itself is fired without execution
        paths = _walk_segment(schedule, branch)
        cycles = max(_path_cycles(path, model) for path in paths)
        steps = max(path.steps for path in paths)
        segment_latencies = tuple(
            sorted(path.latency for path in paths if path.latency is not None)
        )
        latencies.extend(segment_latencies)
        segments.append(
            SegmentCost(
                await_node=index,
                paths=len(paths),
                cycles=cycles,
                steps=steps,
                latencies=segment_latencies,
                exact=all(path.exact_ops and path.exact_comm for path in paths),
            )
        )
        base += cycles
    switch_cycles = max(0, len(await_nodes) - 1) * model.scheduling_costs.context_switch
    latency = max(latencies) if latencies else 0
    jitter = (max(latencies) - min(latencies)) if latencies else 0
    score = base + switch_cycles + LATENCY_WEIGHT * latency + JITTER_WEIGHT * jitter
    return ScheduleCostBreakdown(
        score=score,
        base_cycles=base,
        context_switch_cycles=switch_cycles,
        latency=latency,
        jitter=jitter,
        await_nodes=len(await_nodes),
        segments=segments,
    )


def score_schedule(schedule: Schedule, *, cost_model: Optional[CostModel] = None) -> int:
    """The integer objective value minimised by ``objective="cost"``."""
    return cost_breakdown(schedule, cost_model=cost_model).score


# ---------------------------------------------------------------------------
# simulation prediction (checked by the corpus differential harness)
# ---------------------------------------------------------------------------


@dataclass
class SingleTaskPrediction:
    """Statically predicted :class:`SimulationResult` counterpart."""

    operations: OperationCounter
    communication: CommunicationStats
    isr_dispatches: int
    state_updates: int
    transitions_executed: int
    context_switches: int = 0
    scheduler_decisions: int = 0
    exact_operations: bool = True
    exact_communication: bool = True

    def cycles(self, profile, cost_model: Optional[CostModel] = None) -> float:
        if isinstance(profile, str):
            profile = PROFILES[profile]
        model = cost_model or CostModel()
        return model.execution_cycles(
            self.operations,
            self.communication,
            profile=profile,
            context_switches=self.context_switches,
            scheduler_decisions=self.scheduler_decisions,
            isr_dispatches=self.isr_dispatches,
            state_updates=self.state_updates,
        )


def predict_single_task(
    system,
    schedules: Mapping[str, Schedule],
    stimulus: Mapping[str, Sequence[Any] | int],
) -> SingleTaskPrediction:
    """Predict the :class:`SingleTaskSimulation` cost counters statically.

    ``system`` is the :class:`~repro.flowc.linker.LinkedSystem` the schedules
    were computed for (supplies the hoisted declarations and the port-to-task
    mapping); ``stimulus`` maps environment input port names to the stimulus
    values (or just their count).  Context switches are always zero in the
    single-task implementation; communication and step counts are derived
    from arcs and schedule structure, so they match the simulation exactly
    whenever ``exact_communication`` holds.
    """
    branch = _BranchState(states={}, default_unknown=False)
    # each ExecutableTask replays every process's declarations at
    # construction time through the shared counter
    for _ in range(len(schedules)):
        for process_name, declarations in system.declarations.items():
            interpreter = _StaticInterpreter(branch, process_name)
            for declaration in declarations:
                interpreter.execute(declaration)
    task_of_port: Dict[str, str] = {}
    for ref, transition in system.environment_transitions.items():
        if transition in schedules:
            task_of_port[ref.port] = transition
    current_node: Dict[str, int] = {
        source: schedule.root for source, schedule in schedules.items()
    }
    isr_dispatches = 0
    exact_ops = True
    exact_comm = True
    for port, values in stimulus.items():
        events = values if isinstance(values, int) else len(values)
        source = task_of_port.get(port)
        if source is None:
            raise KeyError(f"no synthesized task serves input port {port!r}")
        schedule = schedules[source]
        for _ in range(events):
            isr_dispatches += 1
            node = schedule.node(current_node[source])
            if source not in node.edges:
                raise ValueError(
                    f"schedule for {source!r} cannot serve an event at node {node.index}"
                )
            before = branch.clone()
            branch.node = node.edges[source]
            branch.visited = set()
            branch.wcet_prefix = 0
            branch.latency = None
            _execute_transition(schedule, source, branch)
            branch.steps -= 1  # the source edge is fired without execution
            paths = _walk_segment(schedule, branch)
            deltas = [_counter_delta(path.counter, before.counter) for path in paths]
            best = 0
            best_weight = _cycle_weight(deltas[0])
            for i in range(1, len(paths)):
                weight = _cycle_weight(deltas[i])
                if weight > best_weight:
                    best, best_weight = i, weight
            winner = paths[best]
            if any(not _counters_equal(d, deltas[best]) for d in deltas):
                winner.exact_ops = False
            if any(
                not _stats_equal(path.comm, winner.comm) or path.steps != winner.steps
                for path in paths
            ):
                winner.exact_comm = False
            if any(path.node != winner.node for path in paths):
                winner.exact_ops = False
                winner.exact_comm = False
            # poison variables that differ across surviving paths
            for process, winner_state in winner.states.items():
                for name in list(winner_state.variables):
                    value = winner_state.variables[name]
                    for other in paths:
                        other_value = other.state_of(process).variables.get(name, UNKNOWN)
                        if not _known(other_value) or not _known(value) or other_value != value:
                            winner_state.variables[name] = _poison_value(value)
                            break
            exact_ops = exact_ops and winner.exact_ops
            exact_comm = exact_comm and winner.exact_comm
            branch.adopt(winner)
            current_node[source] = winner.node
    return SingleTaskPrediction(
        operations=branch.counter,
        communication=branch.comm,
        isr_dispatches=isr_dispatches,
        state_updates=branch.steps,
        transitions_executed=branch.steps,
        context_switches=0,
        scheduler_decisions=0,
        exact_operations=exact_ops,
        exact_communication=exact_comm,
    )
