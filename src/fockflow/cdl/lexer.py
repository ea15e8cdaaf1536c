"""Tokenizer for the circuit description language.

Source is plain UTF-8 text. ``#`` starts a comment running to end of line.
Tokens carry 1-based line/column positions pointing at their first
character. A single ``end`` token is appended after the last real token.

One pattern, ``_TOKEN``, is matched once per token at the current
offset. Its prefix skips the run of blanks and ``#`` comments before the
token; its one optional named group then says what starts there: a
``$name`` parameter, the punctuation ``->``, ``=`` or ``:``, the start of a
number (a digit, ``.``, ``-`` or the whole word ``pi``), a word, or any
other character. At the end of input the group is empty, and the ``end``
token goes there. Only the skipped prefix holds newlines, so the line
count and the offset where the current line starts move over that span
alone (only ``\n`` starts a line), and a token's column is its offset
minus that line start, plus 1.

Numbers are constant expressions folded at lex time: a chain of terms
joined by ``*`` or ``/``, each term an optionally negated decimal literal
or the word ``pi``. The chain must be written without internal whitespace
(``pi/4``, ``-3*pi/2``, ``0.25``, ``1e-3``). Because ``pi`` always lexes
as a number, it is not available as a label name.
"""

from __future__ import annotations

import math
import re

KEYWORDS = frozenset(
    "internal external statistics particle hbs bs phase sorter exchange measure bin".split()
)

_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    r"(?:\s|#[^\n]*)*"
    rf"(?:(?P<param>\$(?:{_WORD})?)"
    r"|(?P<punctuation>->|[=:])"
    r"|(?P<number>[\d.-]|pi(?![A-Za-z0-9_]))"
    rf"|(?P<word>{_WORD})"
    r"|(?P<other>.))?"
)
# a term of a constant: minus signs, then a decimal literal or a word
_TERM = re.compile(rf"(-*)(?:({_FLOAT})|({_WORD}))?")


class CdlError(ValueError):
    """A fault in circuit source, placed at its 1-based ``line`` and ``col``."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class LexError(CdlError):
    """Text that does not split into tokens."""


class Token:
    """A lexed token: mutable and unhashable; equality ignores ``value``, the repr shows it."""

    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind: str, text: str, line: int, col: int, value: float | None = None):
        self.kind = kind  # keyword | identifier | number | punctuation | end
        self.text = text
        self.line = line
        self.col = col
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.text, self.line, self.col) == (
            other.kind, other.text, other.line, other.col
        )

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, text={self.text!r}, line={self.line!r}, "
            f"col={self.col!r}, value={self.value!r})"
        )


def tokenize(source: str) -> list[Token]:
    out: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while True:
        m = _TOKEN.match(source, pos)
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        newlines = source.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", pos, start) + 1
        col = start - line_start + 1
        if kind is None:
            break
        text = m.group(kind)
        if kind == "param":
            if text == "$":
                raise LexError("'$' must introduce a parameter name", line, col)
            out.append(Token("identifier", text, line, col))
        elif kind == "punctuation":
            out.append(Token(kind, text, line, col))
        elif kind == "number":
            value, end = _constant(source, start, line, col)
            out.append(Token(kind, source[start:end], line, col, value=value))
            pos = end
            continue
        elif kind == "word":
            out.append(Token("keyword" if text in KEYWORDS else "identifier", text, line, col))
        elif text.isdigit():  # a digit that is not decimal, such as "²"
            raise LexError("expected a number", line, col)
        else:
            raise LexError(f"illegal character {text!r}", line, col)
        pos = m.end()
    out.append(Token("end", "", line, col))
    return out


def _constant(source: str, pos: int, line: int, col: int) -> tuple[float, int]:
    """Fold the ``*``/``/`` chain of terms that starts at ``pos``.

    Returns (value, end offset). A malformed term is reported at its first
    minus sign; division by zero and a non-finite result at ``col``.
    """
    start, value, op = pos, 1.0, "*"
    while True:
        m = _TERM.match(source, pos)
        minus, literal, word = m.groups()
        if literal is None and word != "pi":
            found = f", found {word!r}" if word else ""
            raise LexError(f"expected a number{found}", line, col + pos - start)
        term = float(literal) if literal else math.pi
        if len(minus) % 2:
            term = -term
        if op == "*":
            value *= term
        elif term == 0.0:
            raise LexError("division by zero in constant", line, col)
        else:
            value /= term
        pos = m.end()
        op = source[pos : pos + 1]
        if op not in ("*", "/"):
            break
        pos += 1
    if not math.isfinite(value):
        raise LexError("number is not finite", line, col)
    return value, pos
