"""Interpreter for FlowC statements and expressions.

The interpreter executes the code fragments attached to Petri net transitions
and evaluates the condition expressions attached to choice places.  It is used
by both execution substrates:

* the baseline multi-task simulator (one task per process, round-robin), and
* the synthesized single-task executor produced by code generation.

Each process's interpreter reads and writes its ports through that
process's own :class:`~repro.runtime.channels.PortBinding`, which binds them
to FIFO channels (baseline), intra-task buffers (synthesized task) or latched
environment ports (Section 8.1).

Two tables, ``_STATEMENTS`` and ``_EXPRESSIONS``, are the one evaluation rule
for code fragments, choice conditions and hoisted initialisation: they map
each node class of :mod:`repro.flowc.ast_nodes` (exact, not subclasses) to the
:class:`Interpreter` method that runs it, which looks its children up in them.
A node of any other class, at any depth, is refused as a bare one is.

The interpreter also counts abstract operations so the cost model can convert
an execution into clock cycles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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

if TYPE_CHECKING:  # pragma: no cover - the binding lives in the runtime layer
    from repro.runtime.channels import PortBinding

#: Iterations after which a ``while`` or ``for`` loop is taken to diverge.
MAX_LOOP_ITERATIONS = 1_000_000


class InterpreterError(Exception):
    """Raised on run-time errors (unknown variable, bad operand...)."""


class WouldBlock(Exception):
    """Raised when a port operation cannot proceed (the port would block)."""

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
        # C semantics for our purposes: uninitialised variables read as 0.
        return self.variables.setdefault(name, 0)


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any = None):
        self.value = value


def _c_divide(left: Any, right: Any) -> Any:
    """C ``/``: an integer quotient truncates toward zero."""
    if right == 0:
        raise InterpreterError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return -quotient if (left < 0) != (right < 0) else quotient
    return left / right


def _c_remainder(left: Any, right: Any) -> Any:
    """C ``%``: an integer remainder takes the dividend's sign."""
    if right == 0:
        raise InterpreterError("modulo by zero")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return left % right


#: What C's binary arithmetic and bitwise operators compute (see ``arithmetic``)
_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _c_divide,
    "%": _c_remainder,
    "&": lambda left, right: int(left) & int(right),
    "|": lambda left, right: int(left) | int(right),
    "^": lambda left, right: int(left) ^ int(right),
    "<<": lambda left, right: int(left) << int(right),
    ">>": lambda left, right: int(left) >> int(right),
}

#: C's relational operators; a comparison evaluates to the int 1 or 0.
_COMPARISONS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def arithmetic(op: str, left: Any, right: Any) -> Any:
    """``left op right`` as C computes it, for a binary arithmetic or bitwise ``op``.

    Expression evaluation, compound assignment (``a op= b``) and the
    compiler's constant folding all apply it, so they agree with the emitted C:

    >>> arithmetic("/", -7, 2), arithmetic("%", -7, 2), arithmetic("%", 7, -2)
    (-3, -1, 1)
    """
    function = _ARITHMETIC.get(op)
    if function is None:
        raise InterpreterError(f"unsupported binary operator {op!r}")
    return function(left, right)


# Built-in pure functions available to FlowC programs.  They model the opaque
# computations of the industrial example (filtering, image generation...).
BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "min": min,
    "max": max,
    "clip255": lambda x: max(0, min(255, int(x))),
}


class Interpreter:
    """Executes FlowC statements against an :class:`Environment`.

    ``ports`` is the process's port binding; code that reads or writes no
    port may run without one.
    """

    def __init__(
        self,
        environment: Environment,
        ports: Optional[PortBinding] = None,
        *,
        counter: Optional[OperationCounter] = None,
    ):
        self.env = environment
        self.ports = ports
        self.counter = counter if counter is not None else OperationCounter()

    def execute_block(self, statements: Sequence[Statement]) -> None:
        try:
            for statement in statements:
                _STATEMENTS[type(statement)](self, statement)
        except KeyError as error:
            _refuse_unknown_node(error, statements, "statement")
            raise

    def execute(self, statement: Statement) -> None:
        self.execute_block((statement,))

    def run(self, statements: Sequence[Statement]) -> None:
        """Execute a code fragment, swallowing a top-level return."""
        try:
            for statement in statements:
                _STATEMENTS[type(statement)](self, statement)
        except _ReturnSignal:
            pass
        except (_BreakSignal, _ContinueSignal):
            raise InterpreterError("break/continue outside of a loop")
        except KeyError as error:
            _refuse_unknown_node(error, statements, "statement")
            raise

    def evaluate(self, expr: Expression) -> Any:
        try:
            return _EXPRESSIONS.get(type(expr), Interpreter._refuse_expression)(self, expr)
        except KeyError as error:
            _refuse_unknown_node(error, expr, "expression")
            raise

    # ------------------------------------------------------------------
    # statement handlers (the values of _STATEMENTS)
    # ------------------------------------------------------------------
    def _refuse_statement(self, statement: Statement) -> None:
        raise InterpreterError(f"unsupported statement: {statement!r}")

    def _execute_declaration(self, statement: Declaration) -> None:
        for declarator in statement.declarators:
            size, init = declarator.array_size, declarator.init
            if size is not None:
                self.env.declare_array(declarator.name, int(_EXPRESSIONS[type(size)](self, size)))
            elif init is not None:
                self.env.declare(declarator.name, _EXPRESSIONS[type(init)](self, init))
                self.counter.assignments += 1
            else:
                self.env.declare(declarator.name)

    def _execute_expression(self, statement: ExprStatement) -> None:
        _EXPRESSIONS[type(statement.expr)](self, statement.expr)

    def _execute_compound(self, statement: Block) -> None:
        self.execute_block(statement.statements)

    def _execute_if(self, statement: If) -> None:
        self.counter.branches += 1
        if _EXPRESSIONS[type(statement.condition)](self, statement.condition):
            self.execute_block(statement.then_body)
        elif statement.else_body is not None:
            self.execute_block(statement.else_body)

    def _execute_while(self, statement: While) -> None:
        iterations = 0
        while True:
            self.counter.branches += 1
            if not _EXPRESSIONS[type(statement.condition)](self, statement.condition):
                break
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise InterpreterError("while loop exceeded the iteration limit")
            try:
                self.execute_block(statement.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _execute_for(self, statement: For) -> None:
        if statement.init is not None:
            _EXPRESSIONS[type(statement.init)](self, statement.init)
        iterations = 0
        while True:
            if statement.condition is not None:
                self.counter.branches += 1
                if not _EXPRESSIONS[type(statement.condition)](self, statement.condition):
                    break
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise InterpreterError("for loop exceeded the iteration limit")
            try:
                self.execute_block(statement.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if statement.update is not None:
                _EXPRESSIONS[type(statement.update)](self, statement.update)

    def _execute_switch(self, statement: Switch) -> None:
        subject = _EXPRESSIONS[type(statement.subject)](self, statement.subject)
        self.counter.branches += 1
        default_case = None
        for case in statement.cases:
            if case.value is None:
                default_case = case
            elif _EXPRESSIONS[type(case.value)](self, case.value) == subject:
                self._run_case(case.body)
                return
        if default_case is not None:
            self._run_case(default_case.body)

    def _run_case(self, body: Sequence[Statement]) -> None:
        try:
            self.execute_block(body)
        except _BreakSignal:
            pass

    def _execute_break(self, statement: Break) -> None:
        raise _BreakSignal()

    def _execute_continue(self, statement: Continue) -> None:
        raise _ContinueSignal()

    def _execute_return(self, statement: Return) -> None:
        value = statement.value
        raise _ReturnSignal(None if value is None else _EXPRESSIONS[type(value)](self, value))

    def _execute_read(self, statement: ReadData) -> None:
        nitems = int(_EXPRESSIONS[type(statement.nitems)](self, statement.nitems))
        values = self.ports.read(statement.port, nitems)
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
                self.env.variables[target.name] = values[0] if values else 0
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
        nitems = int(_EXPRESSIONS[type(statement.nitems)](self, statement.nitems))
        value = _EXPRESSIONS[type(statement.value)](self, statement.value)
        if isinstance(value, list):
            values = list(value[:nitems])
            while len(values) < nitems:
                values.append(0)
        elif nitems == 1:
            values = [value]
        else:
            values = [value] * nitems
        self.ports.write(statement.port, values, nitems)
        self.counter.writes += 1
        self.counter.items_written += nitems

    # ------------------------------------------------------------------
    # expression handlers (the values of _EXPRESSIONS)
    # ------------------------------------------------------------------
    def _refuse_expression(self, expr: Expression) -> Any:
        raise InterpreterError(f"unsupported expression: {expr!r}")

    def _evaluate_literal(self, expr: IntLiteral | FloatLiteral | StringLiteral) -> Any:
        return expr.value

    def _evaluate_identifier(self, expr: Identifier) -> Any:
        # C semantics for our purposes: uninitialised variables read as 0.
        return self.env.variables.setdefault(expr.name, 0)

    def _evaluate_index(self, expr: Index) -> Any:
        base, index = self._resolve_index(expr)
        self.counter.memory += 1
        return base[index]

    def _resolve_index(self, expr: Index) -> Tuple[List[Any], int]:
        base = _EXPRESSIONS[type(expr.base)](self, expr.base)
        index = int(_EXPRESSIONS[type(expr.index)](self, expr.index))
        if not isinstance(base, list):
            raise InterpreterError(f"indexing a non-array value in {expr}")
        if index < 0 or index >= len(base):
            raise InterpreterError(f"index {index} out of bounds for {expr}")
        return base, index

    def _evaluate_unary(self, expr: UnaryOp) -> Any:
        op, operand = expr.op, expr.operand
        value = _EXPRESSIONS[type(operand)](self, operand)
        if op == "&":
            # address-of: the interpreter treats it as the variable itself
            return value
        if op in ("++", "--"):
            value += 1 if op == "++" else -1
            self._assign_to(operand, value)
            self.counter.arithmetic += 1
            self.counter.assignments += 1
            return value
        self.counter.arithmetic += 1
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "!":
            return 0 if value else 1
        if op == "~":
            return ~int(value)
        if op == "*":
            # pointer dereference degenerates to the value itself
            return value
        raise InterpreterError(f"unsupported unary operator {op!r}")

    def _evaluate_postfix(self, expr: PostfixOp) -> Any:
        value = _EXPRESSIONS[type(expr.operand)](self, expr.operand)
        self._assign_to(expr.operand, value + (1 if expr.op == "++" else -1))
        self.counter.arithmetic += 1
        self.counter.assignments += 1
        return value

    def _evaluate_binary(self, expr: BinaryOp) -> Any:
        op, right = expr.op, expr.right
        left = _EXPRESSIONS[type(expr.left)](self, expr.left)
        # short-circuit logical operators
        if op == "&&":
            self.counter.comparisons += 1
            return 1 if left and _EXPRESSIONS[type(right)](self, right) else 0
        if op == "||":
            self.counter.comparisons += 1
            return 1 if left or _EXPRESSIONS[type(right)](self, right) else 0
        right = _EXPRESSIONS[type(right)](self, right)
        compare = _COMPARISONS.get(op)
        if compare is not None:
            self.counter.comparisons += 1
            return 1 if compare(left, right) else 0
        self.counter.arithmetic += 1
        return arithmetic(op, left, right)

    def _evaluate_assignment(self, expr: Assignment) -> Any:
        target = expr.target
        value = _EXPRESSIONS[type(expr.value)](self, expr.value)
        if expr.op != "=":
            current = _EXPRESSIONS[type(target)](self, target)
            self.counter.arithmetic += 1
            value = arithmetic(expr.op[:-1], current, value)
        if type(target) is Identifier:
            self.env.variables[target.name] = value
        else:
            self._assign_to(target, value)
        self.counter.assignments += 1
        return value

    def _assign_to(self, target: Expression, value: Any) -> None:
        if type(target) is UnaryOp and target.op in ("&", "*"):
            target = target.operand
        if type(target) is Identifier:
            self.env.variables[target.name] = value
        elif type(target) is Index:
            base, index = self._resolve_index(target)
            base[index] = value
            self.counter.memory += 1
        else:
            raise InterpreterError(f"invalid assignment target: {target}")

    def _evaluate_conditional(self, expr: Conditional) -> Any:
        self.counter.branches += 1
        if _EXPRESSIONS[type(expr.condition)](self, expr.condition):
            return _EXPRESSIONS[type(expr.then)](self, expr.then)
        return _EXPRESSIONS[type(expr.other)](self, expr.other)

    def _evaluate_call(self, expr: Call) -> Any:
        args = [_EXPRESSIONS[type(arg)](self, arg) for arg in expr.args]
        self.counter.calls += 1
        function = BUILTIN_FUNCTIONS.get(expr.name)
        if function is None:
            raise InterpreterError(f"unknown function {expr.name!r}")
        return function(*args)

    def _evaluate_select(self, expr: SelectExpr) -> int:
        entries = [
            (port, int(_EXPRESSIONS[type(count)](self, count))) for port, count in expr.entries
        ]
        self.counter.selects += 1
        return self.ports.select(entries)


def _refuse_unknown_node(error: KeyError, tree: Any, slot: str) -> None:
    """Refuse a node of ``tree`` as a bare ``Statement`` or ``Expression`` is,
    when ``error`` is a table lookup of its class and neither table holds it:
    handlers look children up without a default, so only this path pays."""
    missing = error.args[0] if error.args else None
    if isinstance(missing, type) and missing not in _STATEMENTS and missing not in _EXPRESSIONS:
        for node, where in _slots(tree, slot):
            if type(node) is missing and where:
                raise InterpreterError(f"unsupported {where}: {node!r}") from None


def _slots(tree: Any, slot: str) -> Iterator[Tuple[Any, str]]:
    """Pre-order ``(node, slot)`` pairs of a node or node sequence: the slot
    is ``"statement"`` or ``"expression"`` by the field's annotation, or
    ``""`` for a part of a node (a ``Declarator``, a ``CaseClause``)."""
    if isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _slots(item, slot)
        return
    yield tree, slot
    if is_dataclass(tree):
        for child in fields(tree):
            hint = str(child.type)
            kind = next((k.lower() for k in ("Statement", "Expression") if k in hint), "")
            yield from _slots(getattr(tree, child.name), kind)


#: The handler of each statement class, keyed on the node's exact class.
_STATEMENTS: Dict[type, Callable[[Interpreter, Any], None]] = {
    Statement: Interpreter._refuse_statement,
    Declaration: Interpreter._execute_declaration,
    ExprStatement: Interpreter._execute_expression,
    Block: Interpreter._execute_compound,
    If: Interpreter._execute_if,
    While: Interpreter._execute_while,
    For: Interpreter._execute_for,
    Switch: Interpreter._execute_switch,
    Break: Interpreter._execute_break,
    Continue: Interpreter._execute_continue,
    Return: Interpreter._execute_return,
    ReadData: Interpreter._execute_read,
    WriteData: Interpreter._execute_write,
}

#: The handler of each expression class, keyed on the node's exact class.
_EXPRESSIONS: Dict[type, Callable[[Interpreter, Any], Any]] = {
    Expression: Interpreter._refuse_expression,
    IntLiteral: Interpreter._evaluate_literal,
    FloatLiteral: Interpreter._evaluate_literal,
    StringLiteral: Interpreter._evaluate_literal,
    Identifier: Interpreter._evaluate_identifier,
    Index: Interpreter._evaluate_index,
    UnaryOp: Interpreter._evaluate_unary,
    PostfixOp: Interpreter._evaluate_postfix,
    BinaryOp: Interpreter._evaluate_binary,
    Assignment: Interpreter._evaluate_assignment,
    Conditional: Interpreter._evaluate_conditional,
    Call: Interpreter._evaluate_call,
    SelectExpr: Interpreter._evaluate_select,
}
