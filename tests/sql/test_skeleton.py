"""The skeleton is the token shape.

A script of a known shape is recognised by its *skeleton* — one regular
expression pass that lifts every number and string literal out of the
text — and bound by the recipe its template recorded, without a token
being built (``repro.sql.lexer.tokenize``, ``repro.sql.parser._prepare``).
The token path stays as the miss path.  Over generated scripts full of
what could confuse a regular expression — comments holding quotes and
digits, words ending in digits, every quote kind with doubled closers,
``1.``, ``0003``, ``-5``, 25-digit integers, counts after ``LIMIT``,
``CHOOSE`` and ``TIMEOUT`` — the two paths must agree per skeleton: the
skeleton's own template, equal to the one the script's tokens parse to,
and parameters equal in value and in type; and text the lexer rejects
fails from ``tokenize()`` exactly as the reference front end's lexer
does.
"""

from __future__ import annotations

import _reference_frontend as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.sql import parser as parser_module
from repro.sql import tokenize
from repro.sql.parser import Parser, _bind, _shape
from repro.sql.tokens import TokenType

WORDS = ["t1", "a", "uid", "é1", "Tábla", "x_2"]
HOSTVARS = ["@v2", "@uid", "@x"]
NUMBERS = ["1", "1.", "0003", "5", "2.50", "1" * 25, "0"]
QUOTES = [("'", "'"), ('"', '"'), ("‘", "’"), ("“", "”"), ("`", "'")]
COMMENTS = ["-- it's 42", "-- \"q\" 1.2.3 ‘x’", "-- 7", "--", "-- -- 'a"]
BODIES = ["", "LA", "it", "x y", "0", "é"]


@st.composite
def strings(draw) -> str:
    opener, closer = draw(st.sampled_from(QUOTES))
    body = draw(st.sampled_from(BODIES))
    # A doubled closer is the escape for one closing quote.
    body = draw(st.sampled_from([body, body + closer * 2, closer * 2 + body]))
    return f"{opener}{body}{closer}"


@st.composite
def values(draw) -> str:
    kind = draw(st.sampled_from(["number", "negative", "string", "word", "var"]))
    if kind == "number":
        return draw(st.sampled_from(NUMBERS))
    if kind == "negative":
        return "-" + draw(st.sampled_from(NUMBERS))
    if kind == "string":
        return draw(strings())
    if kind == "word":
        return draw(st.sampled_from(WORDS))
    return draw(st.sampled_from(HOSTVARS))


def gap(draw) -> str:
    """Whitespace, sometimes with a comment (which ends its line)."""
    if draw(st.booleans()):
        return " "
    return " " + draw(st.sampled_from(COMMENTS)) + "\n "


@st.composite
def statements(draw) -> str:
    kind = draw(st.sampled_from(["select", "entangled", "insert", "update"]))
    conditions = [
        f"{draw(st.sampled_from(WORDS))} = {draw(values())}"
        for _ in range(draw(st.integers(1, 3)))
    ]
    where = (" AND" + gap(draw)).join(conditions)
    if kind == "select":
        limit = draw(st.sampled_from(["", " LIMIT 1", " LIMIT 2", " LIMIT 0003"]))
        return f"SELECT {draw(values())}{gap(draw)}FROM T WHERE {where}{limit}"
    if kind == "entangled":
        choose = draw(st.sampled_from(["1", "2"]))
        return (f"SELECT {draw(values())} INTO ANSWER R WHERE {where}"
                f"{gap(draw)}CHOOSE {choose}")
    if kind == "insert":
        row = ", ".join(draw(values()) for _ in range(draw(st.integers(1, 3))))
        return f"INSERT INTO T VALUES ({row})"
    return f"UPDATE T SET a = {draw(values())} WHERE {where}"


@st.composite
def scripts(draw) -> str:
    timeout = draw(st.sampled_from(["", " WITH TIMEOUT 1 DAYS", " WITH TIMEOUT 2 DAYS",
                                    " WITH TIMEOUT 1.5 HOURS"]))
    body = ";".join(gap(draw) + s for s in draw(st.lists(statements(), min_size=1,
                                                         max_size=3)))
    return f"BEGIN TRANSACTION{timeout};{body};{gap(draw)}COMMIT;"


def token_path(text: str):
    """The template ``text``'s tokens parse to, and the parameters the
    token path reads."""
    tokens = tokenize(text).tokens
    params, _rules = _shape(tokens)
    return tuple(Parser(tokens, lift=True).parse_script()), params


def kept(text: str):
    """The template the table keeps for ``text``: of its skeleton's
    shapes, the one whose recipe reads ``text``."""
    lexed = tokenize(text)
    (units,) = [units for recipe, units in parser_module._table[lexed.skeleton]
                if _bind(recipe, lexed.parts) is not None]
    return units


def shapes_kept() -> int:
    return sum(len(shapes) for shapes in parser_module._table.values())


def typed(params) -> list:
    return [(type(p), p) for p in params]


def skeleton_path(text: str):
    """``_prepare(text)`` with the token path made unreachable."""
    shape = parser_module._shape
    parser_module._shape = None
    try:
        return parser_module._prepare(text)
    finally:
        parser_module._shape = shape


def assert_paths_agree(text: str) -> None:
    parser_module._table.clear()
    units, params = parser_module._prepare(text)  # a miss: the token path
    want_units, want_params = token_path(text)
    assert units == want_units and typed(params) == typed(want_params)
    lexed = tokenize(text)
    if lexed.skeleton is None:
        # Text the skeleton pass cannot split is kept nowhere.
        assert not parser_module._table
        return
    # The one pass lifts exactly the scanner's literals.
    assert lexed.literals == [
        t.value for t in lexed.tokens
        if t.type in (TokenType.NUMBER, TokenType.STRING)]
    again, again_params = skeleton_path(text)
    assert again is units is kept(text)
    assert typed(again_params) == typed(params)


@settings(max_examples=300, deadline=None)
@given(script=scripts())
def test_skeleton_path_and_token_path_agree(script):
    assert_paths_agree(script)


@settings(max_examples=200, deadline=None)
@given(first=scripts(), second=scripts())
def test_a_second_script_of_a_known_skeleton_binds_its_own_literals(first, second):
    """``second`` may share ``first``'s skeleton (same words, other
    literals) or not; either way it gets the template its skeleton keeps
    for its shape, and its own parameters."""
    for text in (first, second):
        try:
            parser_module._prepare(text)
        except Exception:  # noqa: BLE001 - a ParseError is cached nowhere
            return
    for text in (second, first):
        units, params = parser_module._prepare(text)
        want_units, want_params = token_path(text)
        assert units == want_units and typed(params) == typed(want_params)
        if tokenize(text).skeleton is not None:
            assert units is kept(text)


@pytest.mark.parametrize("clause", ["LIMIT {}", "CHOOSE {}"])
def test_a_count_is_shape_not_parameter(clause):
    def template(n):
        text = (f"SELECT a FROM T WHERE a = 5 {clause.format(n)}"
                if clause.startswith("LIMIT")
                else f"SELECT a INTO ANSWER R WHERE a = 5 {clause.format(n)}")
        return parser_module._prepare(text)

    for _ in range(2):  # the second round takes the skeleton path
        one, two, padded = template(1), template(2), template("01")
        assert one[0] is not two[0] and one[0] is not padded[0]
        assert one[1] == two[1] == padded[1] == (5,)
    assert template(1)[0] is one[0] and template(2)[0] is two[0]


def test_eviction_counts_shapes(monkeypatch):
    """The cap bounds shapes, not skeletons: the least recently used
    skeleton goes with all its shapes, and one skeleton with ever-new
    ``LIMIT`` counts keeps its newest shapes only."""
    monkeypatch.setattr(parser_module, "TEMPLATE_CAP", 3)
    parser_module._table.clear()
    first = parser_module._prepare("SELECT a FROM T WHERE a = 1 LIMIT 1")[0]
    parser_module._prepare("SELECT a FROM T WHERE a = 1 LIMIT 2")
    parser_module._prepare("SELECT b FROM T WHERE a = 1")
    assert shapes_kept() == 3 and len(parser_module._table) == 2
    parser_module._prepare("SELECT c FROM T WHERE a = 1")
    assert shapes_kept() == 2
    assert tokenize("SELECT a FROM T WHERE a = 2 LIMIT 1").skeleton not in (
        parser_module._table)
    assert parser_module._prepare(
        "SELECT a FROM T WHERE a = 2 LIMIT 1")[0] is not first
    parser_module._table.clear()
    for n in range(10):
        parser_module._prepare(f"SELECT a FROM T WHERE a = 1 LIMIT {n}")
        assert shapes_kept() <= 3
    newest = parser_module._prepare("SELECT a FROM T WHERE a = 5 LIMIT 9")[0]
    assert shapes_kept() == 3
    assert newest is kept("SELECT a FROM T WHERE a = 3 LIMIT 9")


def test_each_spelling_is_its_own_template(monkeypatch):
    """Case, spacing and comments make another skeleton: each spelling of
    one shape walks the tokens once, then is kept beside the others as a
    template of its own, equal to theirs, with the parameters the token
    path reads."""
    parser_module._table.clear()
    token_walks = []
    shape = parser_module._shape
    monkeypatch.setattr(parser_module, "_shape",
                        lambda tokens: token_walks.append(1) or shape(tokens))
    spellings = [
        "SELECT a FROM T WHERE a = {} AND b = '{}' LIMIT 2",
        "select a from T where a = {} and b = '{}' limit 2",
        "SELECT a FROM T -- it's 9\n WHERE a={} AND b='{}' LIMIT 2",
    ]
    templates = {}
    for round_ in range(2):
        for number, spelling in enumerate(spellings):
            for value in (number + round_, 7.5):
                text = spelling.format(value, f"q{number}")
                token_walks.clear()
                units, params = parser_module._prepare(text)
                assert typed(params) == typed((value, f"q{number}"))
                # A new spelling walks the tokens once; then it is kept.
                assert len(token_walks) == (0 if number in templates else 1)
                assert templates.setdefault(number, units) is units
    assert len(parser_module._table) == shapes_kept() == 3
    one, two, three = templates.values()
    assert one == two == three
    assert one is not two and two is not three and one is not three


@st.composite
def damaged(draw) -> str:
    text = draw(scripts())
    position = draw(st.integers(0, len(text)))
    junk = draw(st.sampled_from(
        ["'", '"', "‘", "“", "`", "@", "#", "1.2.3", "5²", "é", "--", "!", "1..2"]))
    return text[:position] + junk + text[position:]


def outcome(fn, text):
    try:
        return ("ok", [(t.type, t.value, t.position) for t in fn(text)])
    except LexError as exc:
        return ("error", type(exc).__name__, str(exc), exc.position)
    except ValueError:
        return ("ValueError",)  # the reference's malformed-number leak


@settings(max_examples=400, deadline=None)
@given(text=damaged())
def test_malformed_text_raises_from_tokenize_like_the_reference(text):
    expected = outcome(reference.tokenize, text)
    got = outcome(tokenize, text)
    if expected == ("ValueError",) or (
            got[0] == "error" and "malformed number" in got[2]):
        # The one deliberate divergence (see test_prepared.py): the
        # reference leaks ValueError for a malformed number.
        assert got[0] == "error", (text, got)
    else:
        assert got == expected, text
