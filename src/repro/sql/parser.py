"""Recursive-descent parser for the extended-SQL dialect.

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

**Parse once per shape.**  The scripts of a workload differ only in their
literals, so :func:`parse_script`, :func:`parse_transaction` and
:func:`parse_statement` run the recursive descent once per *shape* and
keep the result in one bounded, process-wide template table:

* The **shape key** is the token stream with every NUMBER and STRING in
  expression position replaced by its token type; keywords, identifiers,
  host variables, operators and punctuation stay verbatim.  Numbers the
  grammar consumes as syntax — after ``LIMIT``, ``CHOOSE``, ``TIMEOUT`` —
  are part of the shape and stay in the key (``LIMIT 1`` and ``LIMIT 2``
  are two templates).  The lifted values, in token order, are the
  script's **parameters**; ``1`` and ``1.0`` share a shape and differ in
  the parameter.
* A script of a known shape is found without its tokens: the lexer's
  one-pass **skeleton** (the text with its literals lifted, see
  :mod:`repro.sql.lexer`) leads to the template entry, together with the
  entry's **recipe** for that skeleton — per lifted literal, "parameter"
  (converted as the token path converts it) or "shape literal, must
  read exactly so" (the ``2`` of ``LIMIT 2``).  One skeleton may lead to
  several shapes (``LIMIT 1``, ``LIMIT 2``); a shape keeps the skeleton
  of its newest spelling only (case, spacing and comments vary it; a
  workload builds each script from one format string, so it has one).
  A script in a spelling the shape no longer keeps takes the token path
  below and becomes the kept spelling.  The skeleton index has no bound
  of its own: it holds skeletons of entries in the table only, one per
  entry, and an entry evicted from the table is gone under both keys.
  Such a **hit** is a dictionary lookup and one pass over the literals,
  and builds no token.
* A skeleton **miss** takes the token path: the shape key is computed
  from the tokens, and a shape **miss** runs the parser below with
  ``lift=True``: each literal it meets becomes a
  :class:`~repro.sql.ast.Param` leaf numbered in the order met — the
  parser consumes tokens left to right, so that *is* token order — and a
  unary minus folds into a numeric parameter (``Param(i, negate=True)``),
  as it folds into a numeric literal.  There is no uncached mode: the
  miss path is the parser.
* **Errors are never cached**: a miss parses the script's own tokens
  (lifting is a decision at the leaf, not a rewritten token stream), so
  a ``ParseError`` quotes the right token value and position and
  propagates before anything is stored; a literal the recipe cannot
  convert sends the script down the token path to raise there.
* The table holds :data:`TEMPLATE_CAP` shapes, least recently used out
  first.  It takes no latch: every step is one dict operation under the
  GIL, and the worst a race does is parse a shape twice.

:func:`parse_transaction` returns the shared template with the script's
parameters (``TransactionProgram.template`` / ``.params``; the literal
``.statements`` is materialised on demand); :func:`parse_statement` and
:func:`parse_script` return literal statements.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ParseError
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    InAnswer,
    InSelect,
    InsertStmt,
    Param,
    Params,
    RollbackStmt,
    SelectItem,
    SelectStmt,
    SetStmt,
    Statement,
    TableSource,
    TransactionProgram,
    UpdateStmt,
    bind_statement,
)
from repro.sql.lexer import BODY_GROUPS, NUMBER_GROUP, STRIDE, tokenize
from repro.sql.tokens import Token, TokenType
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


_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING

#: Keywords whose following NUMBER is syntax, not an expression literal.
_NUMBER_CLAUSES = frozenset({"LIMIT", "CHOOSE", "TIMEOUT"})


def _number(token: Token, integer: bool = False) -> int | float:
    """The value of a NUMBER token (``integer``: LIMIT and CHOOSE counts)."""
    try:
        if integer or "." not in token.value:
            return int(token.value)
        return float(token.value)
    except ValueError:
        kind = "an integer" if integer else "a number"
        raise ParseError(
            f"expected {kind}, found {token}", token.position) from None


class Parser:
    """One-pass recursive-descent parser over a token list.

    ``source`` is SQL text or its tokens.  With ``lift=True`` the result
    is a template: number and string literals become ``Param`` leaves,
    numbered in the order the parser meets them.
    """

    def __init__(self, source: str | list[Token], lift: bool = False):
        self.tokens = tokenize(source).tokens if isinstance(source, str) else source
        self.pos = 0
        self.lift = lift
        #: one entry per parameter lifted so far: is it a number (the
        #: kind a unary minus folds into)?
        self.lifted: list[bool] = []

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
            amount = float(_number(self.expect(TokenType.NUMBER)))
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
            limit = _number(self.expect(TokenType.NUMBER), integer=True)
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
        choose = _number(self.expect(TokenType.NUMBER), integer=True)
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
            if isinstance(operand, Param) and self.lifted[operand.index]:
                return Param(operand.index, not operand.negate)
            return Arith(ArithOp.SUB, Const(0), operand)
        if token.type is _NUMBER or token.type is _STRING:
            self.advance()
            if self.lift:
                self.lifted.append(token.type is _NUMBER)
                return Param(len(self.lifted) - 1)
            return Const(
                _number(token) if token.type is _NUMBER else token.value)
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


# ---------------------------------------------------------------------------
# The template table
# ---------------------------------------------------------------------------

#: Shapes kept; the least recently used goes first.  A workload has a
#: handful of shapes, an application some dozens; a template is a few KB.
TEMPLATE_CAP = 512


class _Template:
    """One entry of the table: a shape's template units, and the
    skeleton of its newest spelling (None before one is known)."""

    __slots__ = ("key", "units", "skeleton")

    def __init__(self, key: tuple, units: tuple):
        self.key = key
        #: the parsed script template (a tuple of units: template
        #: Statements and parameterless template TransactionPrograms).
        self.units = units
        self.skeleton: str | None = None


#: shape key -> its entry, least recently used first.
_templates: OrderedDict[tuple, _Template] = OrderedDict()
#: skeleton -> ``(entry, recipe)`` per shape spelled that way (``LIMIT 1``
#: and ``LIMIT 2`` are one skeleton, two shapes).  Not a table of its
#: own: it holds entries of ``_templates`` under their ``skeleton`` only.
_skeletons: dict[str, list] = {}


def _shape(tokens: list[Token]) -> tuple[tuple, Params, list]:
    """Split a token stream into its shape key, its parameters and, per
    literal, what it is: ``_NUMBER`` or ``_STRING`` for a parameter, or
    the text of a number consumed as syntax."""
    key: list = []
    params: list = []
    rules: list = []
    previous = None
    for token in tokens:
        kind = token[0]
        if kind is _NUMBER:
            if previous in _NUMBER_CLAUSES:
                element = token[1]
                rules.append(element)
            else:
                element = _NUMBER
                params.append(_number(token))
                rules.append(_NUMBER)
        elif kind is _STRING:
            element = _STRING
            params.append(token[1])
            rules.append(_STRING)
        elif kind is TokenType.HOSTVAR:
            # The one token type whose value alone is ambiguous: @x vs x.
            element = "@" + token[1]
        else:
            element = token[1]
        key.append(element)
        previous = element
    return tuple(key), tuple(params), rules


def _recipe(rules: list, parts: list) -> tuple:
    """How to read the parameters off the skeleton pass of any script
    spelled like the one ``parts`` came from: ``(checks, reads)``, the
    ``(index, text)`` of each number consumed as syntax, and per
    parameter the ``(index, rule)`` of its literal — ``_NUMBER``, or a
    string's doubled closing quote (its escape)."""
    checks, reads = [], []
    for i, rule in enumerate(rules):
        start = STRIDE * i
        if rule is _STRING:
            for group, closer in BODY_GROUPS.items():
                if parts[start + group] is not None:
                    reads.append((start + group, closer + closer))
        elif rule is _NUMBER:
            reads.append((start + NUMBER_GROUP, _NUMBER))
        else:
            checks.append((start + NUMBER_GROUP, rule))
    return tuple(checks), tuple(reads)


def _bind(recipe: tuple, parts: list) -> "Params | None":
    """The parameters ``recipe`` reads off ``parts``; None when a number
    consumed as syntax differs, or a number does not convert."""
    checks, reads = recipe
    for index, text in checks:
        if parts[index] != text:
            return None
    params = []
    append = params.append
    try:
        for index, rule in reads:
            literal = parts[index]
            if rule is _NUMBER:
                append(int(literal) if "." not in literal else float(literal))
            elif rule in literal:
                append(literal.replace(rule, rule[0]))
            else:
                append(literal)
    except ValueError:
        return None  # the token path raises the ParseError
    return tuple(params)


def _prepare(text: str) -> tuple[tuple, Params]:
    """The template units of ``text``'s shape and ``text``'s parameters."""
    lexed = tokenize(text)
    skeleton = lexed.skeleton
    if skeleton is not None:
        for entry, recipe in _skeletons.get(skeleton, ()):
            params = _bind(recipe, lexed.parts)
            if params is not None and _templates.get(entry.key) is entry:
                try:
                    _templates.move_to_end(entry.key)
                except KeyError:
                    pass  # evicted by another thread since; still valid
                return entry.units, params
    # A skeleton miss: the token path.
    tokens = lexed.tokens
    key, params, rules = _shape(tokens)
    entry = _templates.get(key)
    if entry is None:
        # Parsed from this script's own tokens, so a ParseError quotes the
        # right values and positions; it propagates before anything is kept.
        entry = _templates[key] = _Template(
            key, tuple(Parser(tokens, lift=True).parse_script()))
        while len(_templates) > TEMPLATE_CAP:
            try:
                _key, evicted = _templates.popitem(last=False)
            except KeyError:
                break  # another thread emptied it first
            if evicted.skeleton is not None:
                _forget(evicted.skeleton)
    else:
        try:
            _templates.move_to_end(key)
        except KeyError:
            pass
    if skeleton is not None:
        _spell(entry, skeleton, _recipe(rules, lexed.parts))
    return entry.units, params


def _spell(entry: _Template, skeleton: str, recipe: tuple) -> None:
    """Make ``skeleton`` lead to ``entry`` by ``recipe``, in place of the
    spelling the entry kept before."""
    previous, entry.skeleton = entry.skeleton, skeleton
    if previous is not None and previous != skeleton:
        _forget(previous)
    pairs = [pair for pair in _live(skeleton) if pair[0] is not entry]
    pairs.append((entry, recipe))
    _skeletons[skeleton] = pairs


def _live(skeleton: str) -> list:
    """The ``(entry, recipe)`` pairs of ``skeleton`` whose entry is in the
    table and still spelled that way."""
    return [
        (entry, recipe) for entry, recipe in _skeletons.get(skeleton, ())
        if entry.skeleton == skeleton and _templates.get(entry.key) is entry
    ]


def _forget(skeleton: str) -> None:
    """Drop the pairs of ``skeleton`` that no longer hold (see :func:`_live`)."""
    live = _live(skeleton)
    if live:
        _skeletons[skeleton] = live
    else:
        _skeletons.pop(skeleton, None)


def parse_script(text: str) -> list:
    """Parse a script of transactions and statements."""
    units, params = _prepare(text)
    return [
        unit.bind(params) if isinstance(unit, TransactionProgram)
        else bind_statement(unit, params)
        for unit in units
    ]


def parse_transaction(text: str) -> TransactionProgram:
    """Parse exactly one ``BEGIN TRANSACTION ... COMMIT`` unit."""
    units, params = _prepare(text)
    if len(units) != 1 or not isinstance(units[0], TransactionProgram):
        raise ParseError(
            f"expected exactly one transaction, found {len(units)} units"
        )
    return units[0].bind(params)


def parse_statement(text: str) -> Statement:
    """Parse exactly one standalone statement."""
    units = parse_script(text)
    if len(units) != 1 or not isinstance(units[0], Statement):
        raise ParseError("expected exactly one statement")
    return units[0]
