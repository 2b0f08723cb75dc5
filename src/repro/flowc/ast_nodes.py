"""Abstract syntax tree for the FlowC language.

FlowC is a C subset extended with the port primitives ``READ_DATA``,
``WRITE_DATA`` and ``SELECT`` (Sections 3 and 7.1 of the paper).  The AST is
shared by the leader computation, the process compiler (which attaches lists
of statements to Petri net transitions), the interpreter, and the code-size
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """Base class for expressions."""


@dataclass(frozen=True)
class IntLiteral(Expression):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatLiteral(Expression):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class StringLiteral(Expression):
    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class Identifier(Expression):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Prefix unary operator: ``-``, ``+``, ``!``, ``~``, ``&``, ``*``, ``++``, ``--``."""

    op: str
    operand: Expression

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class PostfixOp(Expression):
    """Postfix ``++`` / ``--``."""

    op: str
    operand: Expression

    def __str__(self) -> str:
        return f"{self.operand}{self.op}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Assignment(Expression):
    """Assignment expression ``target op value`` with op in {=, +=, -=, *=, /=, %=}."""

    target: Expression
    op: str
    value: Expression

    def __str__(self) -> str:
        return f"{self.target} {self.op} {self.value}"


@dataclass(frozen=True)
class Conditional(Expression):
    """Ternary conditional ``cond ? then : other``."""

    condition: Expression
    then: Expression
    other: Expression

    def __str__(self) -> str:
        return f"({self.condition} ? {self.then} : {self.other})"


@dataclass(frozen=True)
class Call(Expression):
    """Ordinary function call (treated as an opaque computation)."""

    name: str
    args: Tuple[Expression, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Index(Expression):
    """Array subscript ``base[index]``."""

    base: Expression
    index: Expression

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class SelectExpr(Expression):
    """``SELECT(p0, n0, p1, n1, ...)`` -- non-deterministic port readiness choice.

    Each entry is a pair (port name, required item count).  Evaluates to the
    index of the chosen entry (Section 7.1).
    """

    entries: Tuple[Tuple[str, Expression], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{port}, {count}" for port, count in self.entries)
        return f"SELECT({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """Base class for statements."""


@dataclass(frozen=True)
class Declarator:
    """One declared name: ``name``, ``name[size]`` or ``name = init``."""

    name: str
    array_size: Optional[Expression] = None
    init: Optional[Expression] = None

    def __str__(self) -> str:
        text = self.name
        if self.array_size is not None:
            text += f"[{self.array_size}]"
        if self.init is not None:
            text += f" = {self.init}"
        return text


@dataclass(frozen=True)
class Declaration(Statement):
    """Variable declaration such as ``int n, i;`` or ``int buf[10];``."""

    type_name: str
    declarators: Tuple[Declarator, ...]

    def __str__(self) -> str:
        return f"{self.type_name} {', '.join(str(d) for d in self.declarators)};"


@dataclass(frozen=True)
class ExprStatement(Statement):
    expr: Expression

    def __str__(self) -> str:
        return f"{self.expr};"


@dataclass(frozen=True)
class Block(Statement):
    statements: Tuple[Statement, ...]

    def __str__(self) -> str:
        return "{ " + " ".join(str(s) for s in self.statements) + " }"


@dataclass(frozen=True)
class If(Statement):
    condition: Expression
    then_body: Tuple[Statement, ...]
    else_body: Optional[Tuple[Statement, ...]] = None

    def __str__(self) -> str:
        text = f"if ({self.condition}) {{ ... }}"
        if self.else_body is not None:
            text += " else { ... }"
        return text


@dataclass(frozen=True)
class While(Statement):
    condition: Expression
    body: Tuple[Statement, ...]

    def __str__(self) -> str:
        return f"while ({self.condition}) {{ ... }}"


@dataclass(frozen=True)
class For(Statement):
    init: Optional[Expression]
    condition: Optional[Expression]
    update: Optional[Expression]
    body: Tuple[Statement, ...]

    def __str__(self) -> str:
        return f"for ({self.init}; {self.condition}; {self.update}) {{ ... }}"


@dataclass(frozen=True)
class CaseClause:
    """One ``case value:`` clause of a switch (``value is None`` for default)."""

    value: Optional[Expression]
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class Switch(Statement):
    """``switch`` statement; with a :class:`SelectExpr` subject it models the
    synchronization-dependent choice of Section 7.1."""

    subject: Expression
    cases: Tuple[CaseClause, ...]

    def __str__(self) -> str:
        return f"switch ({self.subject}) {{ ... }}"

    @property
    def is_select(self) -> bool:
        return isinstance(self.subject, SelectExpr)


@dataclass(frozen=True)
class Break(Statement):
    def __str__(self) -> str:
        return "break;"


@dataclass(frozen=True)
class Continue(Statement):
    def __str__(self) -> str:
        return "continue;"


@dataclass(frozen=True)
class Return(Statement):
    value: Optional[Expression] = None

    def __str__(self) -> str:
        return f"return {self.value};" if self.value is not None else "return;"


@dataclass(frozen=True)
class ReadData(Statement):
    """``READ_DATA(port, target, nitems)`` -- blocking multi-rate read."""

    port: str
    target: Expression
    nitems: Expression

    def __str__(self) -> str:
        return f"READ_DATA({self.port}, {self.target}, {self.nitems});"


@dataclass(frozen=True)
class WriteData(Statement):
    """``WRITE_DATA(port, value, nitems)`` -- blocking multi-rate write."""

    port: str
    value: Expression
    nitems: Expression

    def __str__(self) -> str:
        return f"WRITE_DATA({self.port}, {self.value}, {self.nitems});"


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortDecl:
    """Port declaration in a PROCESS header, e.g. ``In DPORT in``."""

    direction: str  # "In" or "Out"
    port_type: str  # e.g. "DPORT", "CPORT"
    name: str
    data_type: str = "int"

    @property
    def is_input(self) -> bool:
        return self.direction == "In"

    @property
    def is_output(self) -> bool:
        return self.direction == "Out"

    def __str__(self) -> str:
        return f"{self.direction} {self.port_type} {self.name}"


@dataclass(frozen=True)
class Process:
    """A FlowC process: header ports and a sequential statement body."""

    name: str
    ports: Tuple[PortDecl, ...]
    body: Tuple[Statement, ...]

    def port(self, name: str) -> PortDecl:
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"process {self.name!r} has no port {name!r}")

    def __str__(self) -> str:
        ports = ", ".join(str(p) for p in self.ports)
        return f"PROCESS {self.name}({ports}) {{ {len(self.body)} statements }}"


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


StatementSeq = Sequence[Statement]


def iter_statements(statements: StatementSeq) -> List[Statement]:
    """Flatten nested blocks one level (compiler convenience)."""
    result: List[Statement] = []
    for statement in statements:
        if isinstance(statement, Block):
            result.extend(iter_statements(statement.statements))
        else:
            result.append(statement)
    return result


def walk_expressions(expr: Expression) -> List[Expression]:
    """All sub-expressions of ``expr`` including itself (pre-order)."""
    result: List[Expression] = [expr]
    if isinstance(expr, (UnaryOp, PostfixOp)):
        result.extend(walk_expressions(expr.operand))
    elif isinstance(expr, BinaryOp):
        result.extend(walk_expressions(expr.left))
        result.extend(walk_expressions(expr.right))
    elif isinstance(expr, Assignment):
        result.extend(walk_expressions(expr.target))
        result.extend(walk_expressions(expr.value))
    elif isinstance(expr, Conditional):
        result.extend(walk_expressions(expr.condition))
        result.extend(walk_expressions(expr.then))
        result.extend(walk_expressions(expr.other))
    elif isinstance(expr, Call):
        for arg in expr.args:
            result.extend(walk_expressions(arg))
    elif isinstance(expr, Index):
        result.extend(walk_expressions(expr.base))
        result.extend(walk_expressions(expr.index))
    elif isinstance(expr, SelectExpr):
        for _port, count in expr.entries:
            result.extend(walk_expressions(count))
    return result


def statement_children(statement: Statement) -> List[Tuple[Statement, ...]]:
    """The nested statement sequences of a compound statement."""
    if isinstance(statement, Block):
        return [statement.statements]
    if isinstance(statement, If):
        children = [statement.then_body]
        if statement.else_body is not None:
            children.append(statement.else_body)
        return children
    if isinstance(statement, While):
        return [statement.body]
    if isinstance(statement, For):
        return [statement.body]
    if isinstance(statement, Switch):
        return [case.body for case in statement.cases]
    return []


def walk_statements(statements: StatementSeq) -> List[Statement]:
    """All statements in a sequence, recursively (pre-order)."""
    result: List[Statement] = []
    for statement in statements:
        result.append(statement)
        for child_seq in statement_children(statement):
            result.extend(walk_statements(child_seq))
    return result


def ports_referenced(statements: StatementSeq) -> List[str]:
    """All port names referenced by READ_DATA / WRITE_DATA / SELECT."""
    names: List[str] = []
    for statement in walk_statements(statements):
        if isinstance(statement, ReadData):
            names.append(statement.port)
        elif isinstance(statement, WriteData):
            names.append(statement.port)
        elif isinstance(statement, Switch) and isinstance(statement.subject, SelectExpr):
            names.extend(port for port, _count in statement.subject.entries)
        elif isinstance(statement, ExprStatement) and isinstance(statement.expr, SelectExpr):
            names.extend(port for port, _count in statement.expr.entries)
    return names
