"""``str()`` of a statement is its SQL: the unparser's output, which
parses back to the statement (the hand-written ``__str__`` it replaced
dropped DISTINCT, ``AS @var``, ORDER BY and LIMIT)."""

import pytest
from test_prepared import STATEMENTS, TRANSACTIONS
from test_unparse import ENTANGLED, EXAMPLES

from repro.sql import parse_statement, parse_transaction, unparse_statement


def _literal_statements():
    """Every statement of tests/sql's hand cases that parses."""
    out = []
    for text in STATEMENTS + EXAMPLES + [ENTANGLED]:
        try:
            out.append(parse_statement(text))
        except Exception:  # noqa: BLE001 - the error cases are not statements
            pass
    for text in TRANSACTIONS:
        try:
            out.extend(parse_transaction(text).statements)
        except Exception:  # noqa: BLE001
            pass
    return out


@pytest.mark.parametrize("stmt", _literal_statements(), ids=str)
def test_str_of_a_statement_is_its_sql(stmt):
    assert str(stmt) == unparse_statement(stmt)
    assert parse_statement(str(stmt)) == stmt


def test_str_keeps_every_select_clause():
    stmt = parse_statement("SELECT DISTINCT a AS @x FROM T ORDER BY a LIMIT 3")
    assert str(stmt) == "SELECT DISTINCT a AS @x FROM T ORDER BY a LIMIT 3"
    nested = parse_statement(
        "SELECT b FROM U WHERE (b, c) IN (SELECT DISTINCT a, d AS @y FROM T "
        "ORDER BY a LIMIT 3)")
    assert "SELECT DISTINCT a, d AS @y FROM T ORDER BY a LIMIT 3" in str(nested.where)
