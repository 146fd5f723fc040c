"""Tokenizer for the extended-SQL dialect.

Handles the syntax used throughout the paper: single- or double-quoted
string literals (with doubled-quote escapes), ``--`` line comments, host
variables ``@name``, qualified identifiers, and numeric literals
(integers and decimals).  Also accepts the Unicode "smart" quotes that
the paper's typesetting uses in some listings, normalizing them to plain
quotes, so examples can be pasted verbatim.

The lexer runs for every submitted script, and a workload submits a
handful of script shapes over and over with new literals, so
:func:`tokenize` builds no token: one C-level match checks the text by
the ASCII rules of the token scanner (:data:`_VALID`), and one C-level
split (:data:`_SKELETON`) lifts every number and string literal out of
it.  That yields the script's *skeleton* — the runs between its literals
joined by ``"\x00"``, a string's opening quote ending the run before it,
so the skeleton also tells a number from a string — and the vector of
the literals, which is all the parser's template table needs to
recognise a known shape (see :mod:`repro.sql.parser`).  Any other text —
a word starting with a non-ASCII letter, every lexical error — is
tokenized at once, so a :class:`LexError` still comes from
:func:`tokenize` itself.

The token list is built only when a parser asks for it (a skeleton the
template table does not know, or an error position to quote): one match
of :data:`_SCAN` per token, with the whitespace and comments before it
consumed by the same match.  Only what the ASCII rules of that
expression cannot decide drops to :func:`_irregular`.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

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

# Group numbers are the dispatch in _scan(); keep them in step.
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


#: The non-literal lexemes, by the ASCII rules of :data:`_SCAN`, each
#: spelled so that no backtracking can split it: whitespace and a word or
#: host variable end where they end, a comment where its line ends, and
#: no one-character operator is the first half of a two-character one or
#: of ``--``.  So a run of them lexes one way only, every literal the
#: pass reports is one :data:`_SCAN` reports, and a failing match costs
#: the length of the run, not the ways to split it.
_RUN = r"""(?: \s+(?!\s) | --[^\n]*(?![^\n]) | [A-Za-z_]\w*(?!\w) | @\w+(?!\w)
           | [<>!]= | <> | <(?![=>]) | >(?!=) | -(?!-) | [=+/,().;*] )*"""
#: A literal, as :data:`_SCAN` reads one.
_ANY_LITERAL = r"""(?: ['`][^']*(?:''[^']*)*'(?!') | "[^"]*(?:""[^"]*)*"(?!")
                     | ‘[^’]*(?:’’[^’]*)*’(?!’) | “[^”]*(?:””[^”]*)*”(?!”)
                     | \d+(?:\.\d*)?(?![\d.]) )"""
#: The check: runs and literals up to the end of the text; group 1 ends
#: where the last literal does.
_VALID = re.compile(
    r"((?:" + _RUN + _ANY_LITERAL + r")*)" + _RUN, re.VERBOSE)
#: The skeleton pass, one match per literal: the run before it and, for a
#: string, its opening quote (group 1: the skeleton's piece), then a
#: string's body (groups 6..9, by opening quote 2..5) or a number (10).
#: (A conditional reads the opening quote of its own match: ``re.split``
#: starts each match afresh, which a repeated group would not.)
_SKELETON = re.compile(
    r"""
    ( """ + _RUN + r"""
      (?: (?P<q1>['`]) | (?P<q2>") | (?P<q3>‘) | (?P<q4>“) )? )
    (?(q1) ([^']*(?:''[^']*)*)'(?!')
    | (?(q2) ([^"]*(?:""[^"]*)*)"(?!")
    | (?(q3) ([^’]*(?:’’[^’]*)*)’(?!’)
    | (?(q4) ([^”]*(?:””[^”]*)*)”(?!”)
    | (\d+(?:\.\d*)?)(?![\d.]) ))))""",
    re.VERBOSE,
)
#: ``re.split`` yields, per match, the text before it and the 10 groups.
STRIDE = 11
NUMBER_GROUP = 10
#: Group of a string's body -> its closing quote.
BODY_GROUPS = {6: "'", 7: '"', 8: "’", 9: "”"}


class Lexed(Sequence):
    """What :func:`tokenize` returns.  ``skeleton`` is the text with each
    literal lifted out (None when the text needed the token scanner):
    the runs between literals joined by ``"\x00"``, a string's opening
    quote ending the run before it.  ``parts`` is the pass's raw
    ``re.split`` list, from which a recipe reads literal ``i`` at
    ``STRIDE * i`` plus its group; ``literals`` are their token values.
    As a sequence it is the token list, built on first use, EOF last."""

    __slots__ = ("text", "skeleton", "parts", "_tokens")

    def __init__(self, text: str, skeleton, parts, tokens=None):
        self.text = text
        self.skeleton = skeleton
        self.parts = parts
        self._tokens = tokens

    @property
    def tokens(self) -> list[Token]:
        if self._tokens is None:
            self._tokens = _scan(self.text)
        return self._tokens

    @property
    def literals(self) -> list[str]:
        """The token value of each lifted literal, in order."""
        out = []
        for start in range(0, len(self.parts) - 1, STRIDE):
            number = self.parts[start + NUMBER_GROUP]
            if number is not None:
                out.append(number)
                continue
            for group, closer in BODY_GROUPS.items():
                body = self.parts[start + group]
                if body is not None:
                    out.append(body.replace(closer + closer, closer))
        return out

    def __getitem__(self, index):
        return self.tokens[index]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __eq__(self, other) -> bool:
        if isinstance(other, Lexed):
            other = other.tokens
        return self.tokens == other

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self.tokens)


def tokenize(text: str) -> Lexed:
    """Lex ``text`` (see the module docstring); raises :class:`LexError`
    on unexpected input."""
    valid = _VALID.fullmatch(text)
    if valid is None:
        # Not the ASCII rules alone: the scanner decides, and raises.
        return Lexed(text, None, None, _scan(text))
    end = valid.end(1)
    parts = _SKELETON.split(text[:end])
    runs = parts[1::STRIDE]
    runs.append(text[end:])
    return Lexed(text, "\x00".join(runs), parts)


def _scan(text: str) -> list[Token]:
    """The token list of ``text``; raises :class:`LexError`."""
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
