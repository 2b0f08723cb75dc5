"""Interpreter for FlowC statements and expressions.

The interpreter executes the code fragments attached to Petri net transitions
and evaluates the condition expressions attached to choice places.  It is used
by both execution substrates:

* the baseline multi-task simulator (one task per process, round-robin), and
* the synthesized single-task executor produced by code generation.

Communication is delegated to a :class:`CommunicationHandler`, so the same
interpreter works against real FIFO channels (baseline), intra-task circular
buffers (synthesized task) and latched environment arrays (Section 8.1).

The interpreter also counts abstract operations so the cost model can convert
an execution into clock cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
)


class InterpreterError(Exception):
    """Raised on run-time errors (unknown variable, bad operand...)."""


class WouldBlock(Exception):
    """Raised by a communication handler when a port operation cannot proceed."""

    def __init__(self, port: str, needed: int, available: int):
        super().__init__(f"port {port!r}: needed {needed}, available {available}")
        self.port = port
        self.needed = needed
        self.available = available


@dataclass
class OperationCounter:
    """Counts of abstract operations executed, consumed by the cost model."""

    arithmetic: int = 0
    comparisons: int = 0
    assignments: int = 0
    memory: int = 0  # array index accesses
    branches: int = 0  # control-flow decisions taken
    calls: int = 0
    reads: int = 0  # port read operations
    writes: int = 0  # port write operations
    items_read: int = 0
    items_written: int = 0
    selects: int = 0

    def merge(self, other: "OperationCounter") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def total(self) -> int:
        return (
            self.arithmetic
            + self.comparisons
            + self.assignments
            + self.memory
            + self.branches
            + self.calls
            + self.reads
            + self.writes
            + self.selects
        )

    def copy(self) -> "OperationCounter":
        clone = OperationCounter()
        clone.merge(self)
        return clone


class Environment:
    """Variable environment of one process (flat scope, like the generated C)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: Dict[str, Any] = {}

    def declare(self, name: str, value: Any = 0) -> None:
        self.variables[name] = value

    def declare_array(self, name: str, size: int, fill: Any = 0) -> None:
        self.variables[name] = [fill] * size

    def get(self, name: str) -> Any:
        if name not in self.variables:
            # C semantics for our purposes: uninitialised variables read as 0.
            self.variables[name] = 0
        return self.variables[name]

    def set(self, name: str, value: Any) -> None:
        self.variables[name] = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            key: list(value) if isinstance(value, list) else value
            for key, value in self.variables.items()
        }


class CommunicationHandler:
    """Interface between the interpreter and the communication substrate."""

    def read(self, port: str, nitems: int) -> List[Any]:
        """Return ``nitems`` data items from ``port`` or raise :class:`WouldBlock`."""
        raise NotImplementedError

    def write(self, port: str, values: List[Any], nitems: int) -> None:
        """Write ``nitems`` data items to ``port`` or raise :class:`WouldBlock`."""
        raise NotImplementedError

    def available(self, port: str) -> int:
        """Number of items currently readable on ``port``."""
        raise NotImplementedError

    def space(self, port: str) -> Optional[int]:
        """Free positions on ``port`` (``None`` when unbounded)."""
        raise NotImplementedError

    def select(self, entries: Sequence[Tuple[str, int]]) -> int:
        """Resolve a SELECT: return the index of a ready entry.

        The default implementation picks the first ready entry (priority =
        textual order), matching the deterministic priority semantics of
        Section 7.1; it raises :class:`WouldBlock` when none is ready.
        """
        for index, (port, needed) in enumerate(entries):
            if self.available(port) >= needed:
                return index
        port, needed = entries[0]
        raise WouldBlock(port, needed, self.available(port))


class NullCommunicationHandler(CommunicationHandler):
    """Handler for code fragments that perform no communication."""

    def read(self, port: str, nitems: int) -> List[Any]:
        raise InterpreterError(f"unexpected READ_DATA on port {port!r}")

    def write(self, port: str, values: List[Any], nitems: int) -> None:
        raise InterpreterError(f"unexpected WRITE_DATA on port {port!r}")

    def available(self, port: str) -> int:
        return 0

    def space(self, port: str) -> Optional[int]:
        return None


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any = None):
        self.value = value


# Built-in pure functions available to FlowC programs.  They model the opaque
# computations of the industrial example (filtering, image generation...).
BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "min": min,
    "max": max,
    "clip255": lambda x: max(0, min(255, int(x))),
}


class Interpreter:
    """Executes FlowC statements against an :class:`Environment`."""

    def __init__(
        self,
        environment: Environment,
        communication: Optional[CommunicationHandler] = None,
        *,
        counter: Optional[OperationCounter] = None,
        max_loop_iterations: int = 1_000_000,
    ):
        self.env = environment
        self.comm = communication or NullCommunicationHandler()
        self.counter = counter if counter is not None else OperationCounter()
        self.max_loop_iterations = max_loop_iterations

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
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
            if self._truth(self.evaluate(statement.condition)):
                self.execute_block(statement.then_body)
            elif statement.else_body is not None:
                self.execute_block(statement.else_body)
        elif isinstance(statement, While):
            self._execute_while(statement)
        elif isinstance(statement, For):
            self._execute_for(statement)
        elif isinstance(statement, Switch):
            self._execute_switch(statement)
        elif isinstance(statement, Break):
            raise _BreakSignal()
        elif isinstance(statement, Continue):
            raise _ContinueSignal()
        elif isinstance(statement, Return):
            value = self.evaluate(statement.value) if statement.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(statement, ReadData):
            self._execute_read(statement)
        elif isinstance(statement, WriteData):
            self._execute_write(statement)
        else:
            raise InterpreterError(f"unsupported statement: {statement!r}")

    def run(self, statements: Sequence[Statement]) -> None:
        """Execute a code fragment, swallowing a top-level return."""
        try:
            self.execute_block(statements)
        except _ReturnSignal:
            pass
        except (_BreakSignal, _ContinueSignal):
            raise InterpreterError("break/continue outside of a loop")

    def _execute_declaration(self, statement: Declaration) -> None:
        for declarator in statement.declarators:
            if declarator.array_size is not None:
                size = int(self.evaluate(declarator.array_size))
                self.env.declare_array(declarator.name, size)
            elif declarator.init is not None:
                self.env.declare(declarator.name, self.evaluate(declarator.init))
                self.counter.assignments += 1
            else:
                self.env.declare(declarator.name, 0)

    def _execute_while(self, statement: While) -> None:
        iterations = 0
        while True:
            self.counter.branches += 1
            if not self._truth(self.evaluate(statement.condition)):
                break
            iterations += 1
            if iterations > self.max_loop_iterations:
                raise InterpreterError("while loop exceeded the iteration limit")
            try:
                self.execute_block(statement.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _execute_for(self, statement: For) -> None:
        if statement.init is not None:
            self.evaluate(statement.init)
        iterations = 0
        while True:
            if statement.condition is not None:
                self.counter.branches += 1
                if not self._truth(self.evaluate(statement.condition)):
                    break
            iterations += 1
            if iterations > self.max_loop_iterations:
                raise InterpreterError("for loop exceeded the iteration limit")
            try:
                self.execute_block(statement.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if statement.update is not None:
                self.evaluate(statement.update)

    def _execute_switch(self, statement: Switch) -> None:
        subject = self.evaluate(statement.subject)
        self.counter.branches += 1
        default_case = None
        for case in statement.cases:
            if case.value is None:
                default_case = case
                continue
            if self.evaluate(case.value) == subject:
                self._run_case(case.body)
                return
        if default_case is not None:
            self._run_case(default_case.body)

    def _run_case(self, body: Sequence[Statement]) -> None:
        try:
            self.execute_block(body)
        except _BreakSignal:
            pass

    def _execute_read(self, statement: ReadData) -> None:
        nitems = int(self.evaluate(statement.nitems))
        values = self.comm.read(statement.port, nitems)
        self.counter.reads += 1
        self.counter.items_read += nitems
        self._store_read_values(statement.target, values, nitems)

    def _store_read_values(self, target: Expression, values: List[Any], nitems: int) -> None:
        # `&x` and `x` both denote the destination variable; `buf` receives a
        # block of items; `buf[i]` receives a single item.
        if isinstance(target, UnaryOp) and target.op == "&":
            target = target.operand
        if isinstance(target, Identifier):
            current = self.env.get(target.name)
            if isinstance(current, list) and nitems >= 1:
                for offset in range(min(nitems, len(current))):
                    current[offset] = values[offset] if offset < len(values) else 0
                self.counter.memory += nitems
            else:
                self.env.set(target.name, values[0] if values else 0)
            self.counter.assignments += 1
            return
        if isinstance(target, Index):
            if nitems != 1:
                # write a block starting at the given index
                base, start = self._resolve_index(target)
                for offset in range(nitems):
                    base[start + offset] = values[offset]
                self.counter.memory += nitems
                return
            base, index = self._resolve_index(target)
            base[index] = values[0]
            self.counter.assignments += 1
            self.counter.memory += 1
            return
        raise InterpreterError(f"unsupported READ_DATA target: {target}")

    def _execute_write(self, statement: WriteData) -> None:
        nitems = int(self.evaluate(statement.nitems))
        value = self.evaluate(statement.value)
        if isinstance(value, list):
            values = list(value[:nitems])
            while len(values) < nitems:
                values.append(0)
        elif nitems == 1:
            values = [value]
        else:
            values = [value] * nitems
        self.comm.write(statement.port, values, nitems)
        self.counter.writes += 1
        self.counter.items_written += nitems

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
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
            return base[index]
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
            if self._truth(self.evaluate(expr.condition)):
                return self.evaluate(expr.then)
            return self.evaluate(expr.other)
        if isinstance(expr, Call):
            return self._evaluate_call(expr)
        if isinstance(expr, SelectExpr):
            return self._evaluate_select(expr)
        raise InterpreterError(f"unsupported expression: {expr!r}")

    def _truth(self, value: Any) -> bool:
        if isinstance(value, list):
            return bool(value)
        return bool(value)

    def _resolve_index(self, expr: Index) -> Tuple[List[Any], int]:
        base = self.evaluate(expr.base)
        index = int(self.evaluate(expr.index))
        if not isinstance(base, list):
            raise InterpreterError(f"indexing a non-array value in {expr}")
        if index < 0 or index >= len(base):
            raise InterpreterError(f"index {index} out of bounds for {expr}")
        return base, index

    def _evaluate_unary(self, expr: UnaryOp) -> Any:
        if expr.op == "&":
            # address-of: the interpreter treats it as the variable itself
            return self.evaluate(expr.operand)
        if expr.op in ("++", "--"):
            delta = 1 if expr.op == "++" else -1
            value = self.evaluate(expr.operand) + delta
            self._assign_to(expr.operand, value)
            self.counter.arithmetic += 1
            self.counter.assignments += 1
            return value
        operand = self.evaluate(expr.operand)
        self.counter.arithmetic += 1
        if expr.op == "-":
            return -operand
        if expr.op == "+":
            return operand
        if expr.op == "!":
            return 0 if self._truth(operand) else 1
        if expr.op == "~":
            return ~int(operand)
        if expr.op == "*":
            # pointer dereference degenerates to the value itself
            return operand
        raise InterpreterError(f"unsupported unary operator {expr.op!r}")

    def _evaluate_postfix(self, expr: PostfixOp) -> Any:
        value = self.evaluate(expr.operand)
        delta = 1 if expr.op == "++" else -1
        self._assign_to(expr.operand, value + delta)
        self.counter.arithmetic += 1
        self.counter.assignments += 1
        return value

    def _evaluate_binary(self, expr: BinaryOp) -> Any:
        left = self.evaluate(expr.left)
        # short-circuit logical operators
        if expr.op == "&&":
            self.counter.comparisons += 1
            if not self._truth(left):
                return 0
            return 1 if self._truth(self.evaluate(expr.right)) else 0
        if expr.op == "||":
            self.counter.comparisons += 1
            if self._truth(left):
                return 1
            return 1 if self._truth(self.evaluate(expr.right)) else 0
        right = self.evaluate(expr.right)
        op = expr.op
        if op in ("==", "!=", "<", ">", "<=", ">="):
            self.counter.comparisons += 1
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
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpreterError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return int(left / right) if (left < 0) != (right < 0) else left // right
            return left / right
        if op == "%":
            if right == 0:
                raise InterpreterError("modulo by zero")
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
        raise InterpreterError(f"unsupported binary operator {op!r}")

    def _evaluate_assignment(self, expr: Assignment) -> Any:
        value = self.evaluate(expr.value)
        if expr.op != "=":
            current = self.evaluate(expr.target)
            value = self._apply_binary_value(expr.op[0], current, value)
        self._assign_to(expr.target, value)
        self.counter.assignments += 1
        return value

    def _apply_binary_value(self, op: str, left: Any, right: Any) -> Any:
        self.counter.arithmetic += 1
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpreterError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return int(left / right) if (left < 0) != (right < 0) else left // right
            return left / right
        if op == "%":
            if right == 0:
                raise InterpreterError("modulo by zero")
            return left % right
        raise InterpreterError(f"unsupported compound assignment operator {op!r}=")

    def _assign_to(self, target: Expression, value: Any) -> None:
        if isinstance(target, UnaryOp) and target.op in ("&", "*"):
            target = target.operand
        if isinstance(target, Identifier):
            self.env.set(target.name, value)
            return
        if isinstance(target, Index):
            base, index = self._resolve_index(target)
            base[index] = value
            self.counter.memory += 1
            return
        raise InterpreterError(f"invalid assignment target: {target}")

    def _evaluate_call(self, expr: Call) -> Any:
        args = [self.evaluate(arg) for arg in expr.args]
        self.counter.calls += 1
        function = BUILTIN_FUNCTIONS.get(expr.name)
        if function is None:
            raise InterpreterError(f"unknown function {expr.name!r}")
        return function(*args)

    def _evaluate_select(self, expr: SelectExpr) -> int:
        entries = [(port, int(self.evaluate(count))) for port, count in expr.entries]
        self.counter.selects += 1
        return self.comm.select(entries)
