"""Tokenizer for the extended-SQL dialect.

Handles the syntax used throughout the paper: single- or double-quoted
string literals (with doubled-quote escapes), ``--`` line comments, host
variables ``@name``, qualified identifiers, and numeric literals
(integers and decimals).  Also accepts the Unicode "smart" quotes that
the paper's typesetting uses in some listings, normalizing them to plain
quotes, so examples can be pasted verbatim.

The lexer is the one stage of the statement pipeline that runs in full
for every submitted script — the parser keys its template table on the
token stream (see :mod:`repro.sql.parser`) — so it is a single compiled
regular expression: one match per token, with the whitespace and
comments before it consumed by the same match.  Only what the ASCII
rules of that expression cannot decide (a word starting with a
non-ASCII letter, every lexical error) drops to :func:`_irregular`.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.sql.tokens import KEYWORDS, Token, TokenType

_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_HOSTVAR = TokenType.HOSTVAR
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_EOF = TokenType.EOF

_PUNCTUATION = {
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ".": TokenType.DOT,
    ";": TokenType.SEMICOLON,
    "*": TokenType.STAR,
}

#: Opening quote -> closing quote.  Doubling the closer escapes it.
_QUOTE_PAIRS = {
    "'": "'",
    '"': '"',
    "‘": "’",
    "“": "”",
    "`": "'",            # the paper writes `125' in one listing
}

# Group numbers are the dispatch in tokenize(); keep them in step.
_WORD, _NUM, _PUNCT, _OP, _VAR, _OTHER = 1, 2, 3, 4, 5, 10
_SCAN = re.compile(
    r"""
    \s*(?:--[^\n]*\s*)*                 # whitespace and -- comments
    (?: ([A-Za-z_]\w*)                  # 1 keyword or identifier
      | (\d+(?:\.\d*)?)(?![\d.])        # 2 number: digits [. digits], no second dot
      | ([,().;*])                      # 3 punctuation
      | (<=|>=|<>|!=|[=<>+\-/])         # 4 operator
      | @(\w+)                          # 5 host variable
      | ['`]([^']*(?:''[^']*)*)'(?!')   # 6 '...' and `...'; a closing quote
      | "([^"]*(?:""[^"]*)*)"(?!")      # 7 "..."      is never followed by
      | ‘([^’]*(?:’’[^’]*)*)’(?!’)      # 8 ‘...’      itself (that is the
      | “([^”]*(?:””[^”]*)*)”(?!”)      # 9 “...”      doubled-quote escape)
      | \Z
      | (.)                             # 10 none of the above: _irregular
    )""",
    re.VERBOSE | re.DOTALL,
)
#: Closing quote of string groups 6..9.
_CLOSERS = {6: "'", 7: '"', 8: "’", 9: "”"}
_WORD_TAIL = re.compile(r"\w*")
_NUMBER_RUN = re.compile(r"[\d.]*")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`LexError` on unexpected input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    start = 0
    while start is not None:
        matches = _SCAN.finditer(text, start)
        start = None
        for m in matches:
            group = m.lastindex
            if group == _WORD:
                word = m[_WORD]
                upper = word.upper()
                if upper in KEYWORDS:
                    append(new(Token, (_KEYWORD, upper, m.end() - len(word))))
                else:
                    append(new(Token, (_IDENTIFIER, word, m.end() - len(word))))
            elif group == _PUNCT:
                value = m[_PUNCT]
                append(new(Token, (_PUNCTUATION[value], value, m.end() - 1)))
            elif group == _NUM:
                value = m[_NUM]
                append(new(Token, (_NUMBER, value, m.end() - len(value))))
            elif group == _OP:
                value = m[_OP]
                append(new(Token, (
                    _OPERATOR, "<>" if value == "!=" else value,
                    m.end() - len(value),
                )))
            elif group == _VAR:
                name = m[_VAR]
                append(new(Token, (_HOSTVAR, name, m.end() - len(name) - 1)))
            elif group == _OTHER:
                # Rescan from where the irregular token ends.
                start = _irregular(text, m.start(_OTHER), tokens)
                break
            elif group is not None:
                value = m[group]
                closer = _CLOSERS[group]
                if closer in value:
                    value = value.replace(closer + closer, closer)
                # A string's position is the index after its closing quote.
                append(new(Token, (_STRING, value, m.end())))
    append(new(Token, (_EOF, "", len(text))))
    return tokens


def _irregular(text: str, i: int, tokens: list[Token]) -> int:
    """The character at ``i`` starts no token by the ASCII rules of
    :data:`_SCAN`: a word whose first letter is not ASCII is appended to
    ``tokens`` (returns the index after it); anything else is an error.
    """
    ch = text[i]
    if ch in _QUOTE_PAIRS:
        raise LexError(f"unterminated string starting with {ch!r}", i)
    if ch.isdigit():
        # "1.2.3", or a digit float()/int() do not read (superscripts).
        literal = _NUMBER_RUN.match(text, i).group() or ch
        raise LexError(f"malformed number {literal!r}", i)
    if ch == "@":
        raise LexError("'@' must be followed by a variable name", i)
    if ch.isalpha():
        end = _WORD_TAIL.match(text, i + 1).end()
        word = text[i:end]
        upper = word.upper()
        if upper in KEYWORDS:
            tokens.append(Token(_KEYWORD, upper, i))
        else:
            tokens.append(Token(_IDENTIFIER, word, i))
        return end
    raise LexError(f"unexpected character {ch!r}", i)
