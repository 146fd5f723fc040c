"""TEST-ONLY ORACLE: the SQL front end as it stood before the prepared-statement pipeline.

A verbatim copy of ``src/repro/sql/lexer.py`` (the char-by-char tokenizer),
the ``Token`` dataclass of ``src/repro/sql/tokens.py`` and
``src/repro/sql/parser.py`` (the uncached recursive-descent parser that
builds a literal AST per script) at the parent of that change.  Slow but
obviously correct, which is what a reference is for: ``test_prepared.py``
feeds it and the production front end the same text and requires identical
tokens (type, value, position), identical literal ASTs and identical error
class/message/position.  It shares ``TokenType``/``KEYWORDS`` and the AST
node classes with ``src/`` on purpose, so results compare with ``==``.  One
known divergence, deliberate: malformed numbers (``1.2.3``, ``LIMIT 1.5``)
leak a bare ``ValueError`` from here and are ``LexError``/``ParseError`` in
production.  Never import this from ``src/``.

Original lexer docstring follows.

Tokenizer for the extended-SQL dialect.

Handles the syntax used throughout the paper: single- or double-quoted
string literals (with backslash and doubled-quote escapes), ``--`` line
comments, host variables ``@name``, qualified identifiers, and numeric
literals (integers and decimals).  Also accepts the Unicode "smart"
quotes that the paper's typesetting uses in some listings, normalizing
them to plain quotes, so examples can be pasted verbatim.

Original parser docstring follows.

Recursive-descent parser for the extended-SQL dialect.

Grammar (informally; [] optional, {} repetition):

    script      := { transaction | statement ";" }
    transaction := BEGIN TRANSACTION [WITH TIMEOUT number unit] ";"
                   { statement ";" } COMMIT ";"
    statement   := select | entangled_select | insert | update | delete
                   | set | ROLLBACK
    select      := SELECT [DISTINCT] items [FROM sources] [WHERE expr]
                   [LIMIT number]
    entangled_select := SELECT items INTO ANSWER name {, ANSWER name}
                        [WHERE expr] CHOOSE number
    insert      := INSERT INTO name ["(" cols ")"] VALUES "(" exprs ")"
    update      := UPDATE name SET col "=" expr {, col "=" expr}
                   [WHERE expr]
    delete      := DELETE FROM name [WHERE expr]
    set         := SET @var "=" expr

Expressions use the usual precedence (OR < AND < NOT < comparison/IN/IS <
additive < multiplicative < primary) and include the entangled forms
``(items) IN (SELECT ...)`` and ``(items) IN ANSWER Name``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LexError, ParseError
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    InAnswer,
    InSelect,
    InsertStmt,
    RollbackStmt,
    SelectItem,
    SelectStmt,
    SetStmt,
    Statement,
    TableSource,
    TransactionProgram,
    UpdateStmt,
)
from repro.sql.tokens import KEYWORDS, TokenType
from repro.storage.expressions import (
    And,
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    Const,
    Expr,
    InList,
    IsNull,
    Not,
    Or,
)


# ---------------------------------------------------------------------------
# tokens.py: the Token dataclass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    """A lexed token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def matches_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type.value}:{self.value!r}@{self.position}"


# ---------------------------------------------------------------------------
# lexer.py
# ---------------------------------------------------------------------------

_QUOTE_PAIRS = {
    "'": "'",
    '"': '"',
    "‘": "’",  # ' '
    "“": "”",  # " "
    "`": "'",            # the paper writes `125' in one listing
}

_TWO_CHAR_OPERATORS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPERATORS = "=<>+-/"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`LexError` on unexpected input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch in _QUOTE_PAIRS:
            closer = _QUOTE_PAIRS[ch]
            value, i = _read_string(text, i + 1, closer, ch)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch.isdigit():
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            tokens.append(Token(TokenType.NUMBER, text[start:i], start))
            continue
        if ch == "@":
            start = i
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            name = text[start + 1: i]
            if not name:
                raise LexError("'@' must be followed by a variable name", start)
            tokens.append(Token(TokenType.HOSTVAR, name, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start))
            continue
        two = text[i: i + 2]
        if two in _TWO_CHAR_OPERATORS:
            canonical = "<>" if two == "!=" else two
            tokens.append(Token(TokenType.OPERATOR, canonical, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        simple = {
            ",": TokenType.COMMA,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
            ".": TokenType.DOT,
            ";": TokenType.SEMICOLON,
            "*": TokenType.STAR,
        }.get(ch)
        if simple is not None:
            tokens.append(Token(simple, ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(text: str, start: int, closer: str, opener: str) -> tuple[str, int]:
    """Read a quoted string starting after the opening quote.

    Doubling the closing quote escapes it (SQL style).  Returns the
    string value and the index after the closing quote.
    """
    out: list[str] = []
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == closer:
            if i + 1 < n and text[i + 1] == closer:
                out.append(closer)
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise LexError(f"unterminated string starting with {opener!r}", start - 1)


# ---------------------------------------------------------------------------
# parser.py
# ---------------------------------------------------------------------------

_TIME_UNITS = {
    "SECOND": 1.0,
    "SECONDS": 1.0,
    "MINUTE": 60.0,
    "MINUTES": 60.0,
    "HOUR": 3600.0,
    "HOURS": 3600.0,
    "DAY": 86400.0,
    "DAYS": 86400.0,
}


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers -------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> Token | None:
        if self.peek().matches_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, *words: str) -> Token:
        token = self.accept_keyword(*words)
        if token is None:
            raise ParseError(
                f"expected {' or '.join(words)}, found {self.peek()}",
                self.peek().position,
            )
        return token

    def accept(self, type_: TokenType, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.type is type_ and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, type_: TokenType, value: str | None = None) -> Token:
        token = self.accept(type_, value)
        if token is None:
            raise ParseError(
                f"expected {type_.value}{f' {value!r}' if value else ''}, "
                f"found {self.peek()}",
                self.peek().position,
            )
        return token

    def expect_identifier(self) -> str:
        return self.expect(TokenType.IDENTIFIER).value

    # -- entry points ----------------------------------------------------------------

    def parse_script(self) -> list:
        """Parse a whole script: transactions and standalone statements."""
        units = []
        while self.peek().type is not TokenType.EOF:
            if self.peek().matches_keyword("BEGIN"):
                units.append(self.parse_transaction())
            else:
                units.append(self.parse_statement())
                self.accept(TokenType.SEMICOLON)
        return units

    def parse_transaction(self) -> TransactionProgram:
        self.expect_keyword("BEGIN")
        self.expect_keyword("TRANSACTION")
        timeout = None
        if self.accept_keyword("WITH"):
            self.expect_keyword("TIMEOUT")
            amount = float(self.expect(TokenType.NUMBER).value)
            unit = self.expect_keyword(*_TIME_UNITS)
            timeout = amount * _TIME_UNITS[unit.value]
        self.expect(TokenType.SEMICOLON)
        statements: list[Statement] = []
        while not self.peek().matches_keyword("COMMIT"):
            if self.peek().type is TokenType.EOF:
                raise ParseError("transaction not closed by COMMIT",
                                 self.peek().position)
            statements.append(self.parse_statement())
            self.expect(TokenType.SEMICOLON)
        self.expect_keyword("COMMIT")
        self.accept(TokenType.SEMICOLON)
        return TransactionProgram(tuple(statements), timeout)

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.matches_keyword("SELECT"):
            return self.parse_select()
        if token.matches_keyword("INSERT"):
            return self.parse_insert()
        if token.matches_keyword("UPDATE"):
            return self.parse_update()
        if token.matches_keyword("DELETE"):
            return self.parse_delete()
        if token.matches_keyword("SET"):
            return self.parse_set()
        if token.matches_keyword("ROLLBACK"):
            self.advance()
            return RollbackStmt()
        raise ParseError(f"unexpected token {token}", token.position)

    # -- SELECT (classical and entangled) ----------------------------------------------

    def parse_select(self) -> Statement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        star = False
        items: list[SelectItem] = []
        if self.accept(TokenType.STAR):
            star = True
        else:
            items.append(self.parse_select_item())
            while self.accept(TokenType.COMMA):
                items.append(self.parse_select_item())

        if self.peek().matches_keyword("INTO"):
            return self.parse_entangled_tail(items)

        tables: list[TableSource] = []
        if self.accept_keyword("FROM"):
            tables.append(self.parse_table_source())
            while self.accept(TokenType.COMMA):
                tables.append(self.parse_table_source())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        order_by: list[tuple[str, bool]] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept(TokenType.COMMA):
                order_by.append(self.parse_order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            limit = int(self.expect(TokenType.NUMBER).value)
        return SelectStmt(
            tuple(items), tuple(tables), where, distinct, limit, star,
            tuple(order_by),
        )

    def parse_order_item(self) -> tuple[str, bool]:
        name = self.expect_identifier()
        if self.accept(TokenType.DOT):
            name = f"{name}.{self.expect_identifier()}"
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return name, descending

    def parse_entangled_tail(self, items: list[SelectItem]) -> EntangledSelectStmt:
        self.expect_keyword("INTO")
        self.expect_keyword("ANSWER")
        relations = [self.expect_identifier()]
        while self.accept(TokenType.COMMA):
            self.expect_keyword("ANSWER")
            relations.append(self.expect_identifier())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        self.expect_keyword("CHOOSE")
        choose = int(self.expect(TokenType.NUMBER).value)
        return EntangledSelectStmt(tuple(items), tuple(relations), where, choose)

    def parse_select_item(self) -> SelectItem:
        if self.peek().type is TokenType.HOSTVAR:
            # Bare @var item: binds from the like-named column (Appendix D).
            var = self.advance().value
            if self.accept(TokenType.OPERATOR, "="):
                # MySQL-ish "@var = expr" is not in the paper; reject.
                raise ParseError("use SET @var = expr for assignments",
                                 self.peek().position)
            return SelectItem(expr=None, bind_var=var)
        expr = self.parse_expr()
        bind_var = None
        alias = None
        if self.accept_keyword("AS"):
            if self.peek().type is TokenType.HOSTVAR:
                bind_var = self.advance().value
            else:
                alias = self.expect_identifier()
        return SelectItem(expr=expr, bind_var=bind_var, alias=alias)

    def parse_table_source(self) -> TableSource:
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableSource(name, alias)

    # -- other statements ----------------------------------------------------------------

    def parse_insert(self) -> InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: list[str] = []
        if self.accept(TokenType.LPAREN):
            columns.append(self.expect_identifier())
            while self.accept(TokenType.COMMA):
                columns.append(self.expect_identifier())
            self.expect(TokenType.RPAREN)
        self.expect_keyword("VALUES")
        self.expect(TokenType.LPAREN)
        values = [self.parse_expr()]
        while self.accept(TokenType.COMMA):
            values.append(self.parse_expr())
        self.expect(TokenType.RPAREN)
        return InsertStmt(table, tuple(columns), tuple(values))

    def parse_update(self) -> UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.accept(TokenType.COMMA):
            assignments.append(self.parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return UpdateStmt(table, tuple(assignments), where)

    def parse_assignment(self) -> tuple[str, Expr]:
        column = self.expect_identifier()
        self.expect(TokenType.OPERATOR, "=")
        return column, self.parse_expr()

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return DeleteStmt(table, where)

    def parse_set(self) -> SetStmt:
        self.expect_keyword("SET")
        var = self.expect(TokenType.HOSTVAR).value
        self.expect(TokenType.OPERATOR, "=")
        return SetStmt(var, self.parse_expr())

    # -- expressions ------------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = And(left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expr:
        """Comparisons, IN (subquery | ANSWER | list), IS [NOT] NULL."""
        left = self.parse_tuple_or_additive()

        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT") is not None
            self.expect_keyword("NULL")
            return IsNull(_single(left), negated)

        negate = False
        if self.peek().matches_keyword("NOT") and self.peek(1).matches_keyword("IN"):
            self.advance()
            negate = True
        if self.accept_keyword("IN"):
            inner = self.parse_in_rhs(left)
            return Not(inner) if negate else inner

        op_token = self.accept(TokenType.OPERATOR)
        if op_token is not None:
            op = {
                "=": CmpOp.EQ, "<>": CmpOp.NE, "<": CmpOp.LT,
                "<=": CmpOp.LE, ">": CmpOp.GT, ">=": CmpOp.GE,
            }.get(op_token.value)
            if op is None:
                raise ParseError(
                    f"unexpected operator {op_token.value!r}", op_token.position
                )
            right = self.parse_additive()
            return Cmp(op, _single(left), right)
        return _single(left)

    def parse_in_rhs(self, left: list[Expr]) -> Expr:
        """The right-hand side of IN: ANSWER name, subquery, or list."""
        if self.accept_keyword("ANSWER"):
            relation = self.expect_identifier()
            return InAnswer(tuple(left), relation)
        self.expect(TokenType.LPAREN)
        if self.peek().matches_keyword("SELECT"):
            sub = self.parse_select()
            if not isinstance(sub, SelectStmt):
                raise ParseError("entangled SELECT cannot appear in IN (...)",
                                 self.peek().position)
            self.expect(TokenType.RPAREN)
            return InSelect(tuple(left), sub)
        options = [self.parse_expr()]
        while self.accept(TokenType.COMMA):
            options.append(self.parse_expr())
        self.expect(TokenType.RPAREN)
        return InList(_single(left), tuple(options))

    def parse_tuple_or_additive(self) -> list[Expr]:
        """Either a parenthesized tuple (for tuple-IN) or one additive
        expression.  Returns a list of one or more expressions."""
        if self.peek().type is TokenType.LPAREN and self._looks_like_tuple():
            self.advance()
            items = [self.parse_expr()]
            while self.accept(TokenType.COMMA):
                items.append(self.parse_expr())
            self.expect(TokenType.RPAREN)
            if len(items) == 1:
                # Not a tuple after all — an ordinary parenthesized
                # expression; arithmetic may continue after it:
                # "(1 + 2) * 3".
                return [self._continue_additive(
                    self._continue_multiplicative(items[0]))]
            return items
        # Unparenthesized comma-tuple before IN ("fno, fdate IN (SELECT
        # ...)") — the paper writes this form in Section 2.
        first = self.parse_additive()
        items = [first]
        while (
            self.peek().type is TokenType.COMMA
            and self._comma_starts_tuple_in()
        ):
            self.advance()
            items.append(self.parse_additive())
        return items

    def _looks_like_tuple(self) -> bool:
        """Heuristic: an LPAREN opens a tuple when a comma appears before
        its matching RPAREN at depth 1 and no SELECT follows directly."""
        if self.peek(1).matches_keyword("SELECT"):
            return False
        depth = 0
        offset = 0
        while True:
            token = self.peek(offset)
            if token.type is TokenType.EOF:
                return False
            if token.type is TokenType.LPAREN:
                depth += 1
            elif token.type is TokenType.RPAREN:
                depth -= 1
                if depth == 0:
                    return True  # parenthesized single expr is fine too
            elif token.type is TokenType.COMMA and depth == 1:
                return True
            offset += 1

    def _comma_starts_tuple_in(self) -> bool:
        """After ``expr ,`` — scan ahead to see whether this comma belongs
        to a tuple that ends with IN (the Section 2 unparenthesized
        form), rather than a select-list/argument comma."""
        offset = 1  # the token after the comma
        depth = 0
        while True:
            token = self.peek(offset)
            if token.type is TokenType.EOF or token.type is TokenType.SEMICOLON:
                return False
            if token.type is TokenType.LPAREN:
                depth += 1
            elif token.type is TokenType.RPAREN:
                if depth == 0:
                    return False
                depth -= 1
            elif depth == 0:
                if token.matches_keyword("IN"):
                    return True
                if token.type is TokenType.COMMA:
                    offset += 1
                    continue
                if token.matches_keyword(
                    "FROM", "WHERE", "INTO", "AND", "OR", "CHOOSE", "AS",
                    "LIMIT", "ORDER",
                ):
                    return False
            offset += 1

    def parse_additive(self) -> Expr:
        return self._continue_additive(self.parse_multiplicative())

    def _continue_additive(self, left: Expr) -> Expr:
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                self.advance()
                op = ArithOp.ADD if token.value == "+" else ArithOp.SUB
                left = Arith(op, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        return self._continue_multiplicative(self.parse_primary())

    def _continue_multiplicative(self, left: Expr) -> Expr:
        while True:
            token = self.peek()
            if token.type is TokenType.STAR:
                self.advance()
                left = Arith(ArithOp.MUL, left, self.parse_primary())
            elif token.type is TokenType.OPERATOR and token.value == "/":
                self.advance()
                left = Arith(ArithOp.DIV, left, self.parse_primary())
            else:
                return left

    def parse_primary(self) -> Expr:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            # Unary minus: negate number literals directly, otherwise
            # desugar to (0 - expr).
            self.advance()
            operand = self.parse_primary()
            if isinstance(operand, Const) and isinstance(
                    operand.value, (int, float)) and not isinstance(
                    operand.value, bool):
                return Const(-operand.value)
            return Arith(ArithOp.SUB, Const(0), operand)
        if token.type is TokenType.NUMBER:
            self.advance()
            if "." in token.value:
                return Const(float(token.value))
            return Const(int(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return Const(token.value)
        if token.matches_keyword("NULL"):
            self.advance()
            return Const(None)
        if token.matches_keyword("TRUE"):
            self.advance()
            return Const(True)
        if token.matches_keyword("FALSE"):
            self.advance()
            return Const(False)
        if token.type is TokenType.HOSTVAR:
            self.advance()
            return Col(f"@{token.value}")
        if token.type is TokenType.IDENTIFIER:
            name = self.advance().value
            if self.accept(TokenType.DOT):
                name = f"{name}.{self.expect_identifier()}"
            return Col(name)
        if token.type is TokenType.LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(TokenType.RPAREN)
            return expr
        raise ParseError(f"unexpected token {token}", token.position)


def _single(items: list[Expr]) -> Expr:
    if len(items) != 1:
        raise ParseError("tuple expression is only allowed before IN")
    return items[0]


def parse_script(text: str) -> list:
    """Parse a script of transactions and statements."""
    return Parser(text).parse_script()


def parse_transaction(text: str) -> TransactionProgram:
    """Parse exactly one ``BEGIN TRANSACTION ... COMMIT`` unit."""
    units = parse_script(text)
    programs = [u for u in units if isinstance(u, TransactionProgram)]
    if len(programs) != 1 or len(units) != 1:
        raise ParseError(
            f"expected exactly one transaction, found {len(units)} units"
        )
    return programs[0]


def parse_statement(text: str) -> Statement:
    """Parse exactly one standalone statement."""
    units = parse_script(text)
    if len(units) != 1 or not isinstance(units[0], Statement):
        raise ParseError("expected exactly one statement")
    return units[0]
