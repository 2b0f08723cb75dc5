"""Leaders and portions (Section 3.1 of the paper).

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
:func:`portions` is the one implementation of these rules: the compiler
emits one transition per run of statements it yields and compiles each
port-containing control statement structurally, splitting the nested
sequences with :func:`portions` again (rules 4 and 5).  A port-containing
``for`` loop with a constant trip count is unrolled first, and
:func:`portions` splits the unrolled statements: a copy of the body
continues the portion of the ``init`` or ``update`` statement before it
(PFC's ``line = 0;`` and ``line++;``) unless rule 2 or 3 splits it there.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union

from repro.flowc.ast_nodes import (
    ExprStatement,
    ReadData,
    SelectExpr,
    Statement,
    Switch,
    WriteData,
    iter_statements,
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


def portions(statements: Sequence[Statement]) -> Iterator[Union[Statement, List[Statement]]]:
    """The portions of a statement sequence, in order, with blocks flattened.

    Yields each port-containing control statement on its own, and every
    other run of statements as a list, split before each ``READ_DATA``
    (rule 2) and after each ``WRITE_DATA`` (rule 3).

    >>> from repro.flowc.parser import parse_statements
    >>> body = parse_statements("READ_DATA(i, &x, 1); x++; WRITE_DATA(o, x, 1); y = x;")
    >>> [[str(s) for s in portion] for portion in portions(body)]
    [['READ_DATA(i, &x, 1);', 'x++;', 'WRITE_DATA(o, x, 1);'], ['y = x;']]
    """
    run: List[Statement] = []
    for statement in iter_statements(statements):
        port = isinstance(statement, (ReadData, WriteData))
        control = not port and contains_port_statement(statement)
        if run and (control or isinstance(statement, ReadData) or isinstance(run[-1], WriteData)):
            yield run
            run = []
        if control:
            yield statement
        else:
            run.append(statement)
    if run:
        yield run
