"""Reference FlowC scanner: the character loop the master pattern replaced.

Kept as the oracle of ``tests/test_flowc_frontend.py``: the production
lexer (:mod:`repro.flowc.lexer`) must give the same ``(kind, value, line,
column)`` stream, or the same :class:`FlowCLexError` message, on every
input.  It is the original scanner with four fixes applied:

1. a ``//`` comment advances the column, so an ``eof`` after a trailing
   comment sits past the comment, not at its start;
2. a backslash-newline inside a string literal starts a new line, and the
   string token carries the line it starts on;
3. a raw newline inside a character literal starts a new line;
4. number literals are ASCII ``0-9`` only (``str.isdigit`` also accepted
   ``²`` and ``٣``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.flowc.lexer import KEYWORDS, FlowCLexError, Token

MULTI_CHAR_OPERATORS = [
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "<<",
    ">>",
]

SINGLE_CHAR_TOKENS = set("+-*/%<>=!&|^~(){}[];,?:.")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize FlowC source text into a list of tokens ending with ``eof``."""
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    length = len(source)

    def error(message: str) -> FlowCLexError:
        return FlowCLexError(message, line, column)

    while i < length:
        ch = source[i]

        # whitespace
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue

        # comments
        if ch == "/" and i + 1 < length and source[i + 1] == "/":
            while i < length and source[i] != "\n":
                i += 1
                column += 1
            continue
        if ch == "/" and i + 1 < length and source[i + 1] == "*":
            i += 2
            column += 2
            while i + 1 < length and not (source[i] == "*" and source[i + 1] == "/"):
                if source[i] == "\n":
                    line += 1
                    column = 1
                else:
                    column += 1
                i += 1
            if i + 1 >= length:
                raise error("unterminated block comment")
            i += 2
            column += 2
            continue

        # identifiers / keywords
        if _is_ident_start(ch):
            start = i
            start_col = column
            while i < length and _is_ident_char(source[i]):
                i += 1
                column += 1
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, start_col))
            continue

        # numbers
        if _is_digit(ch):
            start = i
            start_col = column
            is_float = False
            while i < length and (_is_digit(source[i]) or source[i] == "."):
                if source[i] == ".":
                    if is_float:
                        raise error("malformed number")
                    is_float = True
                i += 1
                column += 1
            if i < length and source[i] in "eE":
                is_float = True
                i += 1
                column += 1
                if i < length and source[i] in "+-":
                    i += 1
                    column += 1
                if i >= length or not _is_digit(source[i]):
                    raise error("malformed exponent")
                while i < length and _is_digit(source[i]):
                    i += 1
                    column += 1
            text = source[start:i]
            tokens.append(Token("float" if is_float else "int", text, line, start_col))
            continue

        # string literals
        if ch == '"':
            start_line = line
            start_col = column
            i += 1
            column += 1
            chars: List[str] = []
            while i < length and source[i] != '"':
                if source[i] == "\\" and i + 1 < length:
                    escape = source[i + 1]
                    mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "0": "\0"}
                    chars.append(mapping.get(escape, escape))
                    i += 2
                    if escape == "\n":
                        line += 1
                        column = 1
                    else:
                        column += 2
                    continue
                if source[i] == "\n":
                    raise error("unterminated string literal")
                chars.append(source[i])
                i += 1
                column += 1
            if i >= length:
                raise error("unterminated string literal")
            i += 1
            column += 1
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            continue

        # character literals are treated as int tokens with their ordinal value
        if ch == "'":
            start_col = column
            if i + 2 < length and source[i + 2] == "'":
                tokens.append(Token("int", str(ord(source[i + 1])), line, start_col))
                if source[i + 1] == "\n":
                    line += 1
                    column = 2
                else:
                    column += 3
                i += 3
                continue
            raise error("malformed character literal")

        # operators / punctuation
        matched: Optional[str] = None
        for operator in MULTI_CHAR_OPERATORS:
            if source.startswith(operator, i):
                matched = operator
                break
        if matched is not None:
            tokens.append(Token("op", matched, line, column))
            i += len(matched)
            column += len(matched)
            continue
        if ch in SINGLE_CHAR_TOKENS:
            tokens.append(Token("op", ch, line, column))
            i += 1
            column += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line, column))
    return tokens
