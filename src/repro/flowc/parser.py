"""Recursive-descent parser for FlowC.

The grammar is the C subset used by the paper's examples plus the port
primitives:

``PROCESS name(In DPORT p, Out DPORT q) { ... }`` with bodies made of
declarations, expression statements, ``if``/``else``, ``while``, ``for``,
``switch``/``case`` (including ``switch (SELECT(...))``), ``break``,
``continue``, ``return``, ``READ_DATA(port, target, nitems);`` and
``WRITE_DATA(port, value, nitems);``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Break,
    Call,
    CaseClause,
    Conditional,
    Continue,
    Declaration,
    Declarator,
    Expression,
    ExprStatement,
    FloatLiteral,
    For,
    Identifier,
    If,
    Index,
    IntLiteral,
    PortDecl,
    PostfixOp,
    Process,
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
from repro.flowc.lexer import Token, position, scan


class FlowCParseError(Exception):
    """Raised on a syntax error, with the offending token position."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{message} (line {token.line}, column {token.column}, got {token.value!r})")
        self.token = token


TYPE_NAMES = {"int", "float", "double", "char", "void"}

# binary operator precedence (higher binds tighter)
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%="}

PREFIX_OPS = {"-", "+", "!", "~", "&", "*", "++", "--"}


class _Parser:
    """Recursive descent over the flat token lists of :func:`scan`.

    ``kinds[i]``, ``values[i]`` and ``offsets[i]`` describe token ``i``;
    ``position`` indexes the current token and never moves past the final
    ``eof``.  A :class:`Token` is built only for an error message.
    """

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.values, self.offsets = scan(source)
        self.position = 0

    # -- token helpers -----------------------------------------------------
    def token(self) -> Token:
        """The current token, with its position (for an error message)."""
        index = self.position
        line, column = position(self.source, self.offsets[index])
        return Token(self.kinds[index], self.values[index], line, column)

    def advance(self) -> str:
        """Consume the current token (unless it is ``eof``); its value."""
        index = self.position
        if self.kinds[index] != "eof":
            self.position = index + 1
        return self.values[index]

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        index = self.position
        if self.kinds[index] != kind:
            return False
        return value is None or self.values[index] == value

    def match(self, kind: str, value: Optional[str] = None) -> bool:
        """Consume the current token if it is ``kind`` (never ``eof``) with
        ``value``."""
        index = self.position
        if self.kinds[index] != kind or (value is not None and self.values[index] != value):
            return False
        self.position = index + 1
        return True

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        """Consume the current token, which must be ``kind`` with ``value``;
        its value."""
        index = self.position
        if self.kinds[index] != kind or (value is not None and self.values[index] != value):
            expectation = value if value is not None else kind
            raise FlowCParseError(f"expected {expectation!r}", self.token())
        if kind != "eof":
            self.position = index + 1
        return self.values[index]

    def error(self, message: str) -> FlowCParseError:
        return FlowCParseError(message, self.token())

    # -- program / process -------------------------------------------------
    def parse_program(self) -> List[Process]:
        processes: List[Process] = []
        while not self.check("eof"):
            processes.append(self.parse_process())
        return processes

    def parse_process(self) -> Process:
        self.expect("keyword", "PROCESS")
        name = self.expect("ident")
        self.expect("op", "(")
        ports: List[PortDecl] = []
        if not self.check("op", ")"):
            ports.append(self.parse_port_decl())
            while self.match("op", ","):
                ports.append(self.parse_port_decl())
        self.expect("op", ")")
        self.expect("op", "{")
        body = self.parse_statement_list_until("}")
        self.expect("op", "}")
        return Process(name=name, ports=tuple(ports), body=tuple(body))

    def parse_port_decl(self) -> PortDecl:
        direction = self.values[self.position]
        if direction not in ("In", "Out"):
            raise self.error("expected 'In' or 'Out' in port declaration")
        self.advance()
        port_type = self.expect("ident") if self.check("ident") else self.expect("keyword")
        name = self.expect("ident")
        return PortDecl(direction=direction, port_type=port_type, name=name)

    # -- statements ----------------------------------------------------------
    def parse_statement_list_until(self, closer: str) -> List[Statement]:
        statements: List[Statement] = []
        kinds, values = self.kinds, self.values
        while True:
            index = self.position
            kind = kinds[index]
            if kind == "eof" or (kind == "op" and values[index] == closer):
                return statements
            statements.append(self.parse_statement())

    def parse_statement(self) -> Statement:
        index = self.position
        kind = self.kinds[index]
        value = self.values[index]
        if kind == "op" and value == "{":
            self.position = index + 1
            body = self.parse_statement_list_until("}")
            self.expect("op", "}")
            return Block(tuple(body))
        if kind == "keyword":
            if value in TYPE_NAMES:
                return self.parse_declaration()
            if value == "if":
                return self.parse_if()
            if value == "while":
                return self.parse_while()
            if value == "for":
                return self.parse_for()
            if value == "switch":
                return self.parse_switch()
            if value == "break":
                self.position = index + 1
                self.expect("op", ";")
                return Break()
            if value == "continue":
                self.position = index + 1
                self.expect("op", ";")
                return Continue()
            if value == "return":
                self.position = index + 1
                result = None if self.check("op", ";") else self.parse_expression()
                self.expect("op", ";")
                return Return(result)
            if value == "READ_DATA":
                return self.parse_read_data()
            if value == "WRITE_DATA":
                return self.parse_write_data()
        if kind == "op" and value == ";":
            self.position = index + 1
            return Block(())
        expr = self.parse_expression()
        self.expect("op", ";")
        return ExprStatement(expr)

    def parse_declaration(self) -> Declaration:
        type_name = self.advance()
        declarators: List[Declarator] = [self.parse_declarator()]
        while self.match("op", ","):
            declarators.append(self.parse_declarator())
        self.expect("op", ";")
        return Declaration(type_name=type_name, declarators=tuple(declarators))

    def parse_declarator(self) -> Declarator:
        name = self.expect("ident")
        array_size: Optional[Expression] = None
        init: Optional[Expression] = None
        if self.match("op", "["):
            array_size = self.parse_expression()
            self.expect("op", "]")
        if self.match("op", "="):
            init = self.parse_assignment_expression()
        return Declarator(name=name, array_size=array_size, init=init)

    def parse_if(self) -> If:
        self.expect("keyword", "if")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        then_body = self._parse_branch_body()
        else_body: Optional[Tuple[Statement, ...]] = None
        if self.match("keyword", "else"):
            else_body = self._parse_branch_body()
        return If(condition=condition, then_body=then_body, else_body=else_body)

    def _parse_branch_body(self) -> Tuple[Statement, ...]:
        statement = self.parse_statement()
        if isinstance(statement, Block):
            return statement.statements
        return (statement,)

    def parse_while(self) -> While:
        self.expect("keyword", "while")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        body = self._parse_branch_body()
        return While(condition=condition, body=body)

    def parse_for(self) -> For:
        self.expect("keyword", "for")
        self.expect("op", "(")
        init = None if self.check("op", ";") else self.parse_expression()
        self.expect("op", ";")
        condition = None if self.check("op", ";") else self.parse_expression()
        self.expect("op", ";")
        update = None if self.check("op", ")") else self.parse_expression()
        self.expect("op", ")")
        body = self._parse_branch_body()
        return For(init=init, condition=condition, update=update, body=body)

    def parse_switch(self) -> Switch:
        self.expect("keyword", "switch")
        self.expect("op", "(")
        subject = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        cases: List[CaseClause] = []
        while not self.check("op", "}"):
            if self.match("keyword", "case"):
                value = self.parse_expression()
                self.expect("op", ":")
            elif self.match("keyword", "default"):
                value = None
                self.expect("op", ":")
            else:
                raise self.error("expected 'case' or 'default' inside switch")
            body: List[Statement] = []
            while not self.check("keyword", "case") and not self.check("keyword", "default") and not self.check("op", "}"):
                statement = self.parse_statement()
                body.append(statement)
            # a trailing `break;` just terminates the case; keep it in the body
            cases.append(CaseClause(value=value, body=tuple(body)))
        self.expect("op", "}")
        return Switch(subject=subject, cases=tuple(cases))

    def parse_read_data(self) -> ReadData:
        self.expect("keyword", "READ_DATA")
        self.expect("op", "(")
        port = self.expect("ident")
        self.expect("op", ",")
        target = self.parse_assignment_expression()
        self.expect("op", ",")
        nitems = self.parse_assignment_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ReadData(port=port, target=target, nitems=nitems)

    def parse_write_data(self) -> WriteData:
        self.expect("keyword", "WRITE_DATA")
        self.expect("op", "(")
        port = self.expect("ident")
        self.expect("op", ",")
        value = self.parse_assignment_expression()
        self.expect("op", ",")
        nitems = self.parse_assignment_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return WriteData(port=port, value=value, nitems=nitems)

    # -- expressions ---------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self.parse_assignment_expression()

    def parse_assignment_expression(self) -> Expression:
        left = self.parse_binary(0)
        if self.match("op", "?"):
            then = self.parse_assignment_expression()
            self.expect("op", ":")
            # ``other`` takes any assignment that follows
            other = self.parse_assignment_expression()
            return Conditional(condition=left, then=then, other=other)
        index = self.position
        if self.kinds[index] == "op" and self.values[index] in ASSIGNMENT_OPS:
            self.position = index + 1
            value = self.parse_assignment_expression()
            return Assignment(target=left, op=self.values[index], value=value)
        return left

    def parse_binary(self, min_precedence: int) -> Expression:
        left = self.parse_unary()
        kinds, values = self.kinds, self.values
        while True:
            index = self.position
            if kinds[index] != "op":
                return left
            op = values[index]
            precedence = BINARY_PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                return left
            self.position = index + 1
            right = self.parse_binary(precedence + 1)
            left = BinaryOp(op=op, left=left, right=right)

    def parse_unary(self) -> Expression:
        """Prefix operators, then a primary with its postfix operators."""
        index = self.position
        if self.kinds[index] == "op" and self.values[index] in PREFIX_OPS:
            self.position = index + 1
            operand = self.parse_unary()
            return UnaryOp(op=self.values[index], operand=operand)
        expr = self.parse_primary()
        kinds, values = self.kinds, self.values
        while True:
            index = self.position
            if kinds[index] != "op":
                return expr
            op = values[index]
            if op == "[":
                self.position = index + 1
                subscript = self.parse_expression()
                self.expect("op", "]")
                expr = Index(base=expr, index=subscript)
            elif op == "++" or op == "--":
                self.position = index + 1
                expr = PostfixOp(op=op, operand=expr)
            else:
                return expr

    def parse_primary(self) -> Expression:
        index = self.position
        kind = self.kinds[index]
        value = self.values[index]
        if kind == "ident":
            self.position = index + 1
            if self.match("op", "("):
                args: List[Expression] = []
                if not self.check("op", ")"):
                    args.append(self.parse_assignment_expression())
                    while self.match("op", ","):
                        args.append(self.parse_assignment_expression())
                self.expect("op", ")")
                return Call(name=value, args=tuple(args))
            return Identifier(value)
        if kind == "int":
            self.position = index + 1
            return IntLiteral(int(value))
        if kind == "op" and value == "(":
            self.position = index + 1
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        if kind == "float":
            self.position = index + 1
            return FloatLiteral(float(value))
        if kind == "string":
            self.position = index + 1
            return StringLiteral(value)
        if kind == "keyword" and value == "SELECT":
            return self.parse_select()
        raise self.error("expected an expression")

    def parse_select(self) -> SelectExpr:
        self.expect("keyword", "SELECT")
        self.expect("op", "(")
        entries: List[Tuple[str, Expression]] = []
        port = self.expect("ident")
        self.expect("op", ",")
        count = self.parse_assignment_expression()
        entries.append((port, count))
        while self.match("op", ","):
            port = self.expect("ident")
            self.expect("op", ",")
            count = self.parse_assignment_expression()
            entries.append((port, count))
        self.expect("op", ")")
        return SelectExpr(entries=tuple(entries))


def parse_program(source: str) -> List[Process]:
    """Parse FlowC source containing one or more PROCESS definitions."""
    return _Parser(source).parse_program()


def parse_process(source: str) -> Process:
    """Parse FlowC source containing exactly one PROCESS definition."""
    processes = parse_program(source)
    if len(processes) != 1:
        raise FlowCParseError(
            f"expected exactly one process, found {len(processes)}",
            Token("eof", "", 0, 0),
        )
    return processes[0]


def parse_expression(source: str) -> Expression:
    """Parse a single FlowC expression (used by tests and the builder API)."""
    parser = _Parser(source)
    expr = parser.parse_expression()
    parser.expect("eof")
    return expr


def parse_statements(source: str) -> Tuple[Statement, ...]:
    """Parse a sequence of FlowC statements (no surrounding process)."""
    parser = _Parser(source)
    statements = parser.parse_statement_list_until("\0")
    parser.expect("eof")
    return tuple(statements)
