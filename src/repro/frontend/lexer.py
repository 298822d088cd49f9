"""Tokenizer for the OpenCL-C subset the paper's listings use.

Covers exactly what Listings 1-11 need: C-style declarations and control
flow, the AOCL ``channel`` keyword and ``__attribute__`` syntax, kernel
qualifiers, integer literals, and comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import ReproError


class FrontendError(ReproError):
    """Raised for lexical, syntactic, or semantic errors in kernel source.

    When the offending source location is known the error carries it as
    ``line``/``column`` (1-based) and the message is prefixed with
    ``"line L:C: "`` so diagnostics name the spot in the ``.cl`` text.
    Errors raised for programmatically built ASTs (no parser positions)
    keep the bare message.
    """

    def __init__(self, message: str, line: "int | None" = None,
                 column: "int | None" = None) -> None:
        if line:
            location = f"line {line}:{column}" if column else f"line {line}"
            message = f"{location}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def error_at(message: str, node=None) -> FrontendError:
    """Build a :class:`FrontendError` located at ``node``'s source position.

    ``node`` is any AST node (or None); nodes created outside the parser
    carry position 0, which suppresses the location prefix.
    """
    line = getattr(node, "line", 0)
    column = getattr(node, "column", 0)
    return FrontendError(message, line=line or None, column=column or None)


#: Keywords recognized by the parser (everything else is an identifier).
KEYWORDS = {
    "channel", "__kernel", "kernel", "__attribute__", "__global", "global",
    "__local", "local", "__private",
    "void", "if", "else", "for", "while", "return", "break", "continue",
    "switch", "case", "default", "true", "false",
}

#: Type names of the subset; all integral, all modelled as Python ints.
TYPE_NAMES = {
    "int", "uint", "long", "ulong", "short", "ushort", "char", "uchar",
    "bool", "size_t", "float", "double",
}

_TOKEN_RE = re.compile(r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<number>0[xX][0-9a-fA-F]+|\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\+\+|--|\+=|-=|\*=|/=|%=|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%<>=!&|^~?:;,(){}\[\].])
    | (?P<ws>\s+)
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position."""

    kind: str      # "number" | "ident" | "keyword" | "type" | "op" | "eof"
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind} {self.text!r} @{self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into tokens (comments and whitespace dropped)."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:  # pragma: no cover - regex covers everything
            raise FrontendError(f"cannot tokenize at offset {position}")
        kind = match.lastgroup
        text = match.group()
        column = position - line_start + 1
        if kind == "bad":
            raise FrontendError(f"unexpected character {text!r}",
                                line=line, column=column)
        if kind in ("ws", "comment"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = position + text.rfind("\n") + 1
        elif kind == "ident":
            if text in KEYWORDS:
                tokens.append(Token("keyword", text, line, column))
            elif text in TYPE_NAMES:
                tokens.append(Token("type", text, line, column))
            else:
                tokens.append(Token("ident", text, line, column))
        else:
            tokens.append(Token(kind, text, line, column))
        position = match.end()
    tokens.append(Token("eof", "", line, 0))
    return tokens
