"""Lexer for the mini-C input language.

The subset is what the paper's running example (Figure 1) and SPEC-style
integer kernels need: ``int`` scalars and array parameters, ``if``/
``else``/``while``/``for``, the usual integer operators with C precedence,
short-circuit ``&&``/``||``, calls, and ``//`` and ``/* */`` comments.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return",
    "break", "continue",
}

#: one alternative per token class, tried in order: the unterminated
#: forms follow their complete ones, and each multi-character operator
#: precedes its one-character prefix
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
  | (?P<open_comment>/\*)
  | (?P<num>0[xX][0-9a-fA-F]*|\d+)
  | (?P<word>[^\W\d]\w*)
  | (?P<str>"(?:[^"\\]|\\.)*")
  | (?P<open_str>")
  | (?P<op><<=|>>=|[=!<>]=|&&|\|\||<<|>>|[-+*/%&|^]=|\+\+|--
         |[-+*/%&|^~!<>=(){}\[\];,])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class LexError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str  # "ident" | "num" | "kw" | "op" | "str" | "eof"
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line})"


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`LexError` on bad input."""
    tokens: list[Token] = []
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "skip":
            # newlines inside a string token do not advance the count
            line += text.count("\n")
        elif kind == "word":
            tokens.append(Token("kw" if text in KEYWORDS else "ident",
                                text, line))
        elif kind == "num" or kind == "op":
            tokens.append(Token(kind, text, line))
        elif kind == "str":
            tokens.append(Token("str", text[1:-1], line))
        elif kind == "open_comment":
            raise LexError(line, "unterminated /* comment")
        elif kind == "open_str":
            raise LexError(line, "unterminated string literal")
        else:
            raise LexError(line, f"unexpected character {text!r}")
    tokens.append(Token("eof", "", line))
    return tokens
