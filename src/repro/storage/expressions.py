"""Expression AST and evaluator shared by the query layer and SQL compiler.

Expressions evaluate against an *environment*: a mapping from qualified
column names (``"alias.column"`` and the bare ``"column"`` when
unambiguous) to values, plus host variables (``"@name"``).  The evaluator
implements SQL-flavoured three-valued logic for NULL: comparisons with NULL
are unknown (treated as not satisfied), ``AND``/``OR`` propagate unknowns
the SQL way.

**One walk per tree.**  A node declares its children once, in
:meth:`Expr.map`: a leaf returns itself; a compound node rebuilds itself
from ``f`` applied to each child, left to right, and returns itself when
``f`` returned every child unchanged, so a rewrite shares every subtree
it did not touch.  Every walker — :func:`names`, :func:`substitute`, the
SQL compiler's qualification and binding, grounding's renaming — answers
the node kinds it cares about and hands the rest to ``map`` with itself
bound to its other arguments (``expr.map(lambda node: walker(node,
...))``).  It recurses through its module-level name, never through a
nested function that refers to itself: such a closure is a reference
cycle per call, garbage only the cyclic collector frees, and on the
statement path its extra passes cost more than the walk.  A new node
type is one class with one ``map``.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Iterable, Mapping

from repro.errors import CompileError, TypeMismatchError, UnknownColumnError
from repro.storage.types import SQLValue, comparable

#: Evaluation environment: names to values. NULL is None; "unknown" truth
#: values from 3VL are represented as None when a predicate is evaluated.
Env = Mapping[str, "SQLValue | None"]


class Expr:
    """Base class for all expressions."""

    def eval(self, env: Env) -> "SQLValue | None":
        raise NotImplementedError

    def map(self, f: Callable[["Expr"], "Expr"]) -> "Expr":
        """This node with ``f`` applied to each child, left to right —
        itself when ``f`` returned every child unchanged.  A leaf has no
        children."""
        return self

    def columns(self) -> set[str]:
        """All column/variable names referenced by this expression."""
        found: list = []
        names(self, found)
        return set(found)


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (or NULL when value is None)."""

    value: "SQLValue | None"

    def eval(self, env: Env) -> "SQLValue | None":
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Col(Expr):
    """A column (or host-variable) reference by name.

    Names may be qualified (``F.fno``), bare (``fno``), or host variables
    (``@ArrivalDay``); resolution is the environment's concern.
    """

    name: str

    def eval(self, env: Env) -> "SQLValue | None":
        if self.name in env:
            return env[self.name]
        # Fall back to the unqualified suffix: "F.fno" -> "fno".
        if "." in self.name:
            bare = self.name.rsplit(".", 1)[1]
            if bare in env:
                return env[bare]
        raise UnknownColumnError(f"unbound name {self.name!r}")

    def __str__(self) -> str:
        return self.name


class CmpOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Cmp(Expr):
    """A binary comparison with SQL NULL semantics (NULL -> unknown)."""

    op: CmpOp
    left: Expr
    right: Expr

    def eval(self, env: Env) -> bool | None:
        lhs = self.left.eval(env)
        rhs = self.right.eval(env)
        if lhs is None or rhs is None:
            return None
        if self.op is CmpOp.EQ:
            return lhs == rhs
        if self.op is CmpOp.NE:
            return lhs != rhs
        if not comparable(lhs, rhs):
            raise TypeMismatchError(
                f"cannot order {lhs!r} against {rhs!r} with {self.op.value}"
            )
        if self.op is CmpOp.LT:
            return lhs < rhs
        if self.op is CmpOp.LE:
            return lhs <= rhs
        if self.op is CmpOp.GT:
            return lhs > rhs
        return lhs >= rhs

    def map(self, f):
        left, right = f(self.left), f(self.right)
        if left is self.left and right is self.right:
            return self
        return Cmp(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def eval(self, env: Env) -> bool | None:
        lhs = _as_bool(self.left.eval(env))
        if lhs is False:
            return False
        rhs = _as_bool(self.right.eval(env))
        if rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def map(self, f):
        left, right = f(self.left), f(self.right)
        if left is self.left and right is self.right:
            return self
        return And(left, right)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def eval(self, env: Env) -> bool | None:
        lhs = _as_bool(self.left.eval(env))
        if lhs is True:
            return True
        rhs = _as_bool(self.right.eval(env))
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def map(self, f):
        left, right = f(self.left), f(self.right)
        if left is self.left and right is self.right:
            return self
        return Or(left, right)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def eval(self, env: Env) -> bool | None:
        val = _as_bool(self.operand.eval(env))
        if val is None:
            return None
        return not val

    def map(self, f):
        operand = f(self.operand)
        return self if operand is self.operand else Not(operand)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def eval(self, env: Env) -> bool:
        is_null = self.operand.eval(env) is None
        return not is_null if self.negated else is_null

    def map(self, f):
        operand = f(self.operand)
        return self if operand is self.operand else IsNull(operand, self.negated)

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {suffix})"


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic over numbers, plus date-difference (date - date -> days)
    and date-shift (date +/- int -> date), which the travel workload's
    ``SET @StayLength = '2011-05-06' - @ArrivalDay`` requires."""

    op: ArithOp
    left: Expr
    right: Expr

    def eval(self, env: Env) -> "SQLValue | None":
        lhs = self.left.eval(env)
        rhs = self.right.eval(env)
        if lhs is None or rhs is None:
            return None
        if isinstance(lhs, datetime.date) and isinstance(rhs, datetime.date):
            if self.op is ArithOp.SUB:
                return (lhs - rhs).days
            raise TypeMismatchError(f"cannot {self.op.value} two dates")
        if isinstance(lhs, datetime.date) and isinstance(rhs, int):
            if self.op is ArithOp.ADD:
                return lhs + datetime.timedelta(days=rhs)
            if self.op is ArithOp.SUB:
                return lhs - datetime.timedelta(days=rhs)
            raise TypeMismatchError(f"cannot {self.op.value} date and int")
        for side in (lhs, rhs):
            if isinstance(side, bool) or not isinstance(side, (int, float)):
                raise TypeMismatchError(
                    f"cannot {self.op.value} {lhs!r} and {rhs!r}"
                )
        if self.op is ArithOp.ADD:
            return lhs + rhs
        if self.op is ArithOp.SUB:
            return lhs - rhs
        if self.op is ArithOp.MUL:
            return lhs * rhs
        if rhs == 0:
            raise TypeMismatchError("division by zero")
        return lhs / rhs

    def map(self, f):
        left, right = f(self.left), f(self.right)
        if left is self.left and right is self.right:
            return self
        return Arith(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over a literal list."""

    operand: Expr
    options: tuple[Expr, ...]

    def eval(self, env: Env) -> bool | None:
        value = self.operand.eval(env)
        if value is None:
            return None
        saw_null = False
        for option in self.options:
            candidate = option.eval(env)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return True
        return None if saw_null else False

    def map(self, f):
        operand, options = f(self.operand), map_items(f, self.options)
        if operand is self.operand and options is self.options:
            return self
        return InList(operand, options)

    def __str__(self) -> str:
        inner = ", ".join(str(o) for o in self.options)
        return f"({self.operand} IN ({inner}))"


def map_items(f: Callable[[Expr], Expr], items: tuple) -> tuple:
    """``tuple(map(f, items))`` — ``items`` itself when ``f`` returned
    every item unchanged (the tuple half of the :meth:`Expr.map` rule)."""
    mapped = tuple(map(f, items))
    return items if all(map(is_, mapped, items)) else mapped


#: The node kinds a rewrite below the SQL layer takes.  The SQL front
#: end's ``InSelect`` and ``InAnswer`` are compiled away before a plan
#: sees them; its ``Param`` reaches a prepared statement's plan as a leaf
#: that reads its execution's values, and is rewritten by the front end
#: only — so such a rewrite rejects all three by this.
STORAGE_NODES = frozenset({Const, Col, Cmp, And, Or, Not, IsNull, Arith, InList})

#: The boolean skeleton of a predicate: the only positions where a
#: WHERE clause's ``IN (SELECT ...)`` may stand.
CONNECTIVES = (And, Or, Not)


def _as_bool(value: Any) -> bool | None:
    """Interpret an expression result as a 3VL truth value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise TypeMismatchError(f"expected a boolean predicate result, got {value!r}")


def is_satisfied(predicate: Expr | None, env: Env) -> bool:
    """True when ``predicate`` evaluates to TRUE under ``env``.

    ``None`` predicates (absent WHERE clause) are trivially satisfied; 3VL
    unknown counts as not satisfied, per SQL.
    """
    if predicate is None:
        return True
    return _as_bool(predicate.eval(env)) is True


@dataclass(slots=True)
class RowPredicate:
    """A row predicate as data: ``where`` over a table's bare column
    names.  Callable like the closure it replaces, and picklable, so a
    predicate write can cross to a shard worker as one frame."""

    columns: tuple[str, ...]
    where: Expr | None

    def __call__(self, row) -> bool:
        return is_satisfied(self.where, dict(zip(self.columns, row.values)))


@dataclass(slots=True)
class RowAssignments:
    """An UPDATE's SET list as data: ``(column position, expression)``
    pairs evaluated over the old row; calling it gives the new values."""

    columns: tuple[str, ...]
    assignments: tuple[tuple[int, Expr], ...]

    def __call__(self, row) -> list:
        env = dict(zip(self.columns, row.values))
        out = list(row.values)
        for position, expr in self.assignments:
            out[position] = expr.eval(env)
        return out

    def assigned_columns(self) -> set[str]:
        return {self.columns[position] for position, _expr in self.assignments}


def conjoin(parts: Iterable[Expr]) -> Expr | None:
    """AND together a sequence of predicates (None when empty)."""
    result: Expr | None = None
    for part in parts:
        result = part if result is None else And(result, part)
    return result


def split_conjuncts(predicate: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        return split_conjuncts(predicate.left) + split_conjuncts(predicate.right)
    return [predicate]


def names(expr: Expr, out: list) -> None:
    """Append every column / host-variable name under ``expr`` to
    ``out``, left to right, repeats included."""
    if type(expr) is Col:
        out.append(expr.name)
    else:
        expr.map(lambda node: names(node, out) or node)


def substitute(expr: Expr, bindings: Mapping[str, "SQLValue | None"]) -> Expr:
    """Replace :class:`Col` references found in ``bindings`` with constants
    (the front end's own binding walk is ``sql.ast.inline_hostvars``)."""
    kind = type(expr)
    if kind is Col:
        return Const(bindings[expr.name]) if expr.name in bindings else expr
    if kind not in STORAGE_NODES:
        raise CompileError(f"cannot substitute into {kind.__name__}")
    return expr.map(lambda node: substitute(node, bindings))
