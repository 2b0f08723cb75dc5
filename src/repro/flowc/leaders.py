"""Leader computation (Section 3.1 of the paper).

The granularity at which FlowC statements are mapped to Petri net transitions
is determined by *leaders*:

1. the first statement of the process is a leader;
2. a ``READ_DATA`` statement is a leader;
3. any statement immediately following a ``WRITE_DATA`` statement is a leader;
4. the first statement of a control flow statement that contains a leader
   (equivalently: that contains a port statement) is a leader;
5. any statement that immediately follows such a control flow statement is a
   leader.

Every portion of code consists of a leader and all statements up to the next
leader (or the end of the process); each portion becomes one transition.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.flowc.ast_nodes import (
    ExprStatement,
    ReadData,
    SelectExpr,
    Statement,
    Switch,
    WriteData,
    statement_children,
)


def is_port_statement(statement: Statement) -> bool:
    """True for READ_DATA / WRITE_DATA and SELECT-based switches."""
    if isinstance(statement, (ReadData, WriteData)):
        return True
    if isinstance(statement, Switch) and isinstance(statement.subject, SelectExpr):
        return True
    if isinstance(statement, ExprStatement) and isinstance(statement.expr, SelectExpr):
        return True
    return False


def contains_port_statement(statement: Statement) -> bool:
    """True if the statement is, or transitively contains, a port statement."""
    if is_port_statement(statement):
        return True
    for child_seq in statement_children(statement):
        for child in child_seq:
            if contains_port_statement(child):
                return True
    return False


def compute_leaders(body: Sequence[Statement]) -> Set[int]:
    """Compute the set of leader statements of a process body.

    Returns the set of ``id()`` values of the leader statement objects (AST
    nodes are frozen dataclasses whose value-equality would conflate repeated
    statements, so identity is used).
    """
    leaders: Set[int] = set()

    def mark(statement: Statement) -> None:
        leaders.add(id(statement))

    def visit_sequence(statements: Sequence[Statement], first_is_leader: bool) -> None:
        previous: Statement | None = None
        for index, statement in enumerate(statements):
            if index == 0 and first_is_leader and statements:
                mark(statement)
            if isinstance(statement, ReadData):
                mark(statement)  # rule 2
            if previous is not None:
                if isinstance(previous, WriteData):
                    mark(statement)  # rule 3
                if contains_port_statement(previous) and statement_children(previous):
                    mark(statement)  # rule 5 (previous is a control statement)
            if contains_port_statement(statement) and statement_children(statement):
                # rule 4: first statement of each nested sequence is a leader
                for child_seq in statement_children(statement):
                    visit_sequence(child_seq, first_is_leader=True)
            else:
                for child_seq in statement_children(statement):
                    visit_sequence(child_seq, first_is_leader=False)
            previous = statement

    visit_sequence(list(body), first_is_leader=True)
    return leaders


def leader_statements(body: Sequence[Statement]) -> List[Statement]:
    """The leader statements themselves, in source order."""
    leader_ids = compute_leaders(body)
    result: List[Statement] = []

    def visit(statements: Sequence[Statement]) -> None:
        for statement in statements:
            if id(statement) in leader_ids:
                result.append(statement)
            for child_seq in statement_children(statement):
                visit(child_seq)

    visit(list(body))
    return result


def split_into_portions(statements: Sequence[Statement]) -> List[List[Statement]]:
    """Split a flat statement sequence into leader-delimited portions.

    Only meaningful for sequences without port-containing control statements
    (those are refined structurally by the compiler); used by tests to check
    that portions align with the transitions the compiler creates.
    """
    portions: List[List[Statement]] = []
    current: List[Statement] = []
    for statement in statements:
        starts_new = isinstance(statement, ReadData) or (
            current and isinstance(current[-1], WriteData)
        )
        if starts_new and current:
            portions.append(current)
            current = []
        current.append(statement)
    if current:
        portions.append(current)
    return portions
