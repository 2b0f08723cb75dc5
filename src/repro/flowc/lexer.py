"""Tokenizer for the FlowC language.

FlowC syntax is a C subset.  One compiled master pattern scans the source:
each match skips whitespace and comments and then matches one token, and the
capturing group that matched names the token's kind.  :func:`scan` runs the
pattern into three flat lists (kinds, values and source offsets), which the
parser indexes directly.  Line and column are derived from an offset only
where they are shown: in one linear pass for the :func:`tokenize` view, and
on demand for :class:`FlowCLexError` and the parser's errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple


class FlowCLexError(Exception):
    """Raised on an unrecognised character or malformed literal."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


KEYWORDS = {
    "PROCESS",
    "In",
    "Out",
    "if",
    "else",
    "while",
    "for",
    "do",
    "switch",
    "case",
    "default",
    "break",
    "continue",
    "return",
    "int",
    "float",
    "double",
    "char",
    "void",
    "READ_DATA",
    "WRITE_DATA",
    "SELECT",
}

# Port type keywords are open-ended (DPORT, CPORT, ...), recognised contextually
# by the parser rather than the lexer.

# One token per match, after the whitespace and comments before it.  The
# alternatives are tried in order: the common kinds first, then the rare
# ones, then the error cases, so every position matches something and no
# character is ever skipped silently.  Operators take the longest match
# (``<<=`` before ``<<`` before ``<``); ``/`` never starts one before ``*``,
# since a ``/*`` that survives the comment skip is unterminated.  Numbers
# are ASCII digits; identifiers start with a letter (``str.isalpha``) or
# ``_`` and continue with ``\w`` (``str.isalnum`` or ``_``).
_PATTERN = re.compile(
    r"""
    [ \t\r\n]*(?:(?://[^\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*
    (?:
        ([A-Za-z_]\w*)                                  # identifier or keyword
      | ([0-9]+)(?![0-9.eE])                            # integer
      | ([(),;{}\[\]~?:.^]|<<=?|>>=?|&&|\|\||\+\+|--|[-+*%=!<>]=?|/(?!\*)=?|[&|])  # operator
      | ([0-9]+(?:\.[0-9]*)?)                           # float: mantissa,
        (?:([eE][+-]?[0-9]+)|(\.)|([eE][+-]?))?        # exponent, 2nd dot, bad exponent
      | "((?:[^"\\\n]|\\[\s\S])*)"                      # string literal
      | '([\s\S])'                                      # character literal
      | ([^\W\d]\w*)                                    # non-ASCII identifier start
      | (/\*)                                           # unterminated block comment
      | (["'])                                          # unterminated string, bad char
      | (\Z)                                            # end of input
      | ([\s\S])                                        # unexpected character
    )
    """,
    re.VERBOSE,
)

(
    _IDENT,
    _INT,
    _OP,
    _MANTISSA,
    _EXPONENT,
    _SECOND_DOT,
    _BAD_EXPONENT,
    _STRING,
    _CHAR,
    _UNICODE_IDENT,
    _OPEN_COMMENT,
    _OPEN_QUOTE,
    _END,
) = range(1, 14)  # group 14 is the unexpected character

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "0": "\0"}
_ESCAPE = re.compile(r"\\([\s\S])")
_STRING_BODY = re.compile(r'(?:[^"\\\n]|\\[\s\S])*')


@dataclass(frozen=True)
class Token:
    """A lexical token."""

    kind: str  # 'ident', 'keyword', 'int', 'float', 'string', 'op', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def position(source: str, offset: int) -> Tuple[int, int]:
    """1-based ``(line, column)`` of ``offset`` in ``source``."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _error(message: str, source: str, offset: int) -> FlowCLexError:
    return FlowCLexError(message, *position(source, offset))


def _rare_token(source: str, match: "re.Match[str]", group: int) -> Tuple[str, str, int]:
    """``(kind, value, offset)`` of a match outside the three common kinds,
    or the :class:`FlowCLexError` it stands for."""
    if group == _MANTISSA or group == _EXPONENT:
        start = match.start(_MANTISSA)
        value = source[start : match.end()]
        kind = "int" if group == _MANTISSA and "." not in value else "float"
        return kind, value, start
    if group == _END:
        return "eof", "", match.start(group)
    if group == _STRING:
        value = _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), match.group(group))
        return "string", value, match.start(group) - 1
    if group == _CHAR:
        return "int", str(ord(match.group(group))), match.start(group) - 1
    if group == _UNICODE_IDENT:
        value = match.group(group)
        if value[0].isalpha():
            return "ident", value, match.start(group)
        raise _error(f"unexpected character {value[0]!r}", source, match.start(group))
    if group == _SECOND_DOT:
        raise _error("malformed number", source, match.start(group))
    if group == _BAD_EXPONENT:
        raise _error("malformed exponent", source, match.end())
    if group == _OPEN_COMMENT:
        # the error points at the last character (or past the opener)
        raise _error("unterminated block comment", source, max(match.end(), len(source) - 1))
    offset = match.start(group)
    if group != _OPEN_QUOTE:
        raise _error(f"unexpected character {source[offset]!r}", source, offset)
    if source[offset] == "'":
        raise _error("malformed character literal", source, offset)
    # an unterminated string: at its first raw newline, else at the end
    stop = _STRING_BODY.match(source, offset + 1).end()
    if stop < len(source) and source[stop] == "\n":
        raise _error("unterminated string literal", source, stop)
    raise _error("unterminated string literal", source, len(source))


def scan(source: str) -> Tuple[List[str], List[str], List[int]]:
    """Scan FlowC source into flat ``(kinds, values, offsets)`` lists.

    Entry ``i`` of each list describes token ``i``; the last token is
    ``eof`` at offset ``len(source)``.  Raises :class:`FlowCLexError` on
    the first malformed token.
    """
    kinds: List[str] = []
    values: List[str] = []
    offsets: List[int] = []
    add_kind, add_value, add_offset = kinds.append, values.append, offsets.append
    keywords = KEYWORDS
    for match in _PATTERN.finditer(source):
        group = match.lastindex
        if group == _IDENT:
            value = match.group(group)
            add_kind("keyword" if value in keywords else "ident")
            add_value(value)
            add_offset(match.start(group))
        elif group == _OP:
            add_kind("op")
            add_value(match.group(group))
            add_offset(match.start(group))
        elif group == _INT:
            add_kind("int")
            add_value(match.group(group))
            add_offset(match.start(group))
        else:
            kind, value, offset = _rare_token(source, match, group)
            add_kind(kind)
            add_value(value)
            add_offset(offset)
            if group == _END:
                break
    return kinds, values, offsets


def tokenize(source: str) -> List[Token]:
    """Tokenize FlowC source text into a list of tokens ending with ``eof``."""
    kinds, values, offsets = scan(source)
    tokens: List[Token] = []
    line, line_start = 1, 0
    newline = source.find("\n")
    for kind, value, offset in zip(kinds, values, offsets):
        while 0 <= newline < offset:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
        tokens.append(Token(kind, value, line, offset - line_start + 1))
    return tokens
