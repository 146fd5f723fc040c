"""Token definitions for the extended-SQL dialect of the paper.

The dialect is standard SQL plus the entangled extensions of Sections 2
and 3.1: ``INTO ANSWER``, ``CHOOSE n``, ``BEGIN TRANSACTION WITH TIMEOUT``
and host variables ``@name`` (bound with ``AS @name`` or ``SET``).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    HOSTVAR = "hostvar"          # @name
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"        # = <> < <= > >= + - * /
    COMMA = ","
    LPAREN = "("
    RPAREN = ")"
    DOT = "."
    SEMICOLON = ";"
    STAR = "*"
    EOF = "eof"


#: Reserved words, uppercase.  Everything else is an identifier.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE",
        "SET", "DELETE", "AND", "OR", "NOT", "IN", "AS", "IS", "NULL",
        "BEGIN", "TRANSACTION", "COMMIT", "ROLLBACK", "WITH", "TIMEOUT",
        "ANSWER", "CHOOSE", "LIMIT", "DISTINCT", "TRUE", "FALSE",
        "ORDER", "BY", "ASC", "DESC",
        "DAYS", "DAY", "HOURS", "HOUR", "MINUTES", "MINUTE", "SECONDS",
        "SECOND",
    }
)


class Token(NamedTuple):
    """A lexed token with its source position (for error messages).

    A named tuple because the lexer makes one per token of every
    submitted script: construction is a third of a frozen dataclass's.
    """

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.value}:{self.value!r}@{self.position}"
