"""FlowC front-end: language, compiler, linker, interpreter.

FlowC (Section 3 of the paper) is a C-based language extended with port
communication primitives.  A system function is a network of FlowC processes
connected by point-to-point channels.  This package provides:

* :mod:`repro.flowc.ast_nodes` -- the abstract syntax tree.
* :mod:`repro.flowc.lexer` / :mod:`repro.flowc.parser` -- FlowC parsing.
* :mod:`repro.flowc.leaders` -- the leader rule (granularity selection).
* :mod:`repro.flowc.compiler` -- per-process compilation to a Petri net.
* :mod:`repro.flowc.netlist` / :mod:`repro.flowc.linker` -- channel
  definitions and linking into a single net.
* :mod:`repro.flowc.interpreter` -- execution of transition code fragments.
"""

from repro.flowc.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Break,
    Call,
    CaseClause,
    Continue,
    Declaration,
    Declarator,
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
    StringLiteral,
    Switch,
    UnaryOp,
    While,
    WriteData,
)
from repro.flowc.lexer import FlowCLexError, Token, tokenize
from repro.flowc.parser import FlowCParseError, parse_process, parse_program
from repro.flowc.leaders import contains_port_statement
from repro.flowc.compiler import CompilationError, compile_process
from repro.flowc.netlist import Channel, EnvironmentPort, Network, PortRef
from repro.flowc.linker import link
from repro.flowc.interpreter import (
    Environment,
    Interpreter,
    InterpreterError,
    WouldBlock,
)

__all__ = [
    "Assignment",
    "BinaryOp",
    "Block",
    "Break",
    "Call",
    "CaseClause",
    "Channel",
    "CompilationError",
    "Continue",
    "Declaration",
    "Declarator",
    "Environment",
    "EnvironmentPort",
    "ExprStatement",
    "FloatLiteral",
    "FlowCLexError",
    "FlowCParseError",
    "For",
    "Identifier",
    "If",
    "Index",
    "IntLiteral",
    "Interpreter",
    "InterpreterError",
    "Network",
    "PortDecl",
    "PortRef",
    "PostfixOp",
    "Process",
    "ReadData",
    "Return",
    "SelectExpr",
    "StringLiteral",
    "Switch",
    "Token",
    "UnaryOp",
    "While",
    "WouldBlock",
    "WriteData",
    "compile_process",
    "contains_port_statement",
    "link",
    "parse_process",
    "parse_program",
    "tokenize",
]
