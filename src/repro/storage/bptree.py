"""An ordered B+ tree index: key tuples -> rid postings, leaf-linked.

The hash indexes in :mod:`repro.storage.table` answer equality probes in
O(1) but cannot serve a range predicate — before this module, every
``<``/``>=``-shaped WHERE clause degraded to a full scan under a table S
lock.  :class:`BPlusTree` is the ordered twin every primary key and
secondary index now keeps in sync: internal nodes route by separator
keys, leaves hold ``key -> {rids}`` postings and are doubly linked, so an
in-order (or reverse) range walk touches exactly the qualifying leaves.

Ordering is total across SQL value types via :func:`sort_key`: NULLs
first, then numbers (bools as 0/1), then strings, then dates, then
anything else by repr.  Keys of mixed types therefore never raise on
comparison inside the tree — type errors remain the WHERE clause's
concern (the planner uses the tree as a *candidate generator* and
re-checks conjuncts, so index-range results always match a filtered
full scan).

Deletion is lazy: a posting's rid set shrinks, an emptied key leaves its
leaf, and an emptied leaf simply stays linked (skipped by iteration)
rather than triggering rebalancing — the classical simplification for
workloads where deletes are a minority and vacuum churn dominates.

:data:`SUPREMUM` is the right-fencepost sentinel for **next-key
locking**: a range scan with no existing key to its right locks
``SUPREMUM`` instead, and an insert beyond every existing key locks the
same sentinel — which is how phantom inserts at the high end collide
with range readers.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from typing import AbstractSet, Iterator, Sequence

from repro.errors import StorageError


class _Supremum:
    """The lock-vocabulary sentinel for "past every key" (singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SUPREMUM"

    def __reduce__(self) -> str:
        # By name: a fence that crosses a pipe unpickles as the one sentinel.
        return "_SUPREMUM"


_SUPREMUM = _Supremum()

#: The right fencepost of every ordered index, as an index-key tuple:
#: next-key locks on open-ended ranges (and inserts past the last key)
#: name this resource.
SUPREMUM: tuple = (_SUPREMUM,)


def value_sort_key(value) -> tuple:
    """A total-order surrogate for one SQL value.

    Rank buckets keep incomparable types apart (NULL < numbers <
    strings < dates < other); within a bucket native ordering applies,
    falling back to ``repr`` for exotic types.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return (3, type(value).__name__, value)
    return (4, type(value).__name__, repr(value))


def sort_key(key: Sequence) -> tuple:
    """The total-order surrogate for a whole index-key tuple."""
    return tuple(value_sort_key(v) for v in key)


class _Leaf:
    __slots__ = ("skeys", "keys", "rids", "next", "prev")

    def __init__(self):
        self.skeys: list[tuple] = []
        self.keys: list[tuple] = []
        self.rids: list[set[int]] = []
        self.next: "_Leaf | None" = None
        self.prev: "_Leaf | None" = None


class _Internal:
    __slots__ = ("skeys", "children")

    def __init__(self, skeys, children):
        #: child ``i`` holds keys < skeys[i]; the last child the rest.
        self.skeys: list[tuple] = skeys
        self.children: list = children


class BPlusTree:
    """Ordered index: key tuple -> set of rids, with linked leaves.

    ``order`` is the maximum entry count per node before a split.
    """

    def __init__(self, order: int = 32):
        if order < 4:
            raise StorageError(f"b+ tree order must be >= 4, got {order}")
        self._order = order
        self._root: "_Leaf | _Internal" = _Leaf()
        self._count = 0  # total (key, rid) postings

    def __len__(self) -> int:
        return self._count

    # -- descent helpers ------------------------------------------------------------

    def _leaf_for(self, skey: tuple) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect_right(node.skeys, skey)]
        return node

    def _leftmost(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def _rightmost(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node

    # -- mutation --------------------------------------------------------------------

    def add(self, key: Sequence, rid: int) -> None:
        """Add ``rid`` to ``key``'s postings (creating the key if new)."""
        key = tuple(key)
        split = self._insert(self._root, sort_key(key), key, rid)
        if split is not None:
            sep, right = split
            self._root = _Internal([sep], [self._root, right])

    def _insert(self, node, skey: tuple, key: tuple, rid: int):
        """Insert into the subtree; returns ``(separator, new right node)``
        when the child split, else None."""
        if isinstance(node, _Leaf):
            i = bisect_left(node.skeys, skey)
            if i < len(node.skeys) and node.skeys[i] == skey:
                if rid not in node.rids[i]:
                    node.rids[i].add(rid)
                    self._count += 1
                return None
            node.skeys.insert(i, skey)
            node.keys.insert(i, key)
            node.rids.insert(i, {rid})
            self._count += 1
            if len(node.skeys) <= self._order:
                return None
            return self._split_leaf(node)
        child_idx = bisect_right(node.skeys, skey)
        split = self._insert(node.children[child_idx], skey, key, rid)
        if split is None:
            return None
        sep, right = split
        node.skeys.insert(child_idx, sep)
        node.children.insert(child_idx + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.skeys) // 2
        right = _Leaf()
        right.skeys = leaf.skeys[mid:]
        right.keys = leaf.keys[mid:]
        right.rids = leaf.rids[mid:]
        del leaf.skeys[mid:], leaf.keys[mid:], leaf.rids[mid:]
        right.next = leaf.next
        right.prev = leaf
        if leaf.next is not None:
            leaf.next.prev = right
        leaf.next = right
        return right.skeys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.children) // 2
        sep = node.skeys[mid - 1]
        right = _Internal(node.skeys[mid:], node.children[mid:])
        del node.skeys[mid - 1:], node.children[mid:]
        return sep, right

    def remove(self, key: Sequence, rid: int) -> None:
        """Drop ``rid`` from ``key``'s postings (lazy: no rebalancing)."""
        key = tuple(key)
        skey = sort_key(key)
        leaf = self._leaf_for(skey)
        i = bisect_left(leaf.skeys, skey)
        if i >= len(leaf.skeys) or leaf.skeys[i] != skey or rid not in leaf.rids[i]:
            raise StorageError(
                f"ordered-index corruption: rid {rid} missing for key {key!r}"
            )
        leaf.rids[i].discard(rid)
        self._count -= 1
        if not leaf.rids[i]:
            del leaf.skeys[i], leaf.keys[i], leaf.rids[i]

    def clear(self) -> None:
        self._root = _Leaf()
        self._count = 0

    # -- reads -----------------------------------------------------------------------

    def get(self, key: Sequence) -> frozenset[int]:
        """``key``'s posting (a copy; empty when absent).  An empty tree
        — a table's history between vacuums, mostly — answers without
        keying or descending."""
        if not self._count:
            return frozenset()
        skey = sort_key(tuple(key))
        leaf = self._leaf_for(skey)
        i = bisect_left(leaf.skeys, skey)
        if i < len(leaf.skeys) and leaf.skeys[i] == skey:
            return frozenset(leaf.rids[i])
        return frozenset()

    def walk(
        self,
        lo: "Sequence | None" = None,
        hi: "Sequence | None" = None,
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[tuple, tuple, AbstractSet[int]]]:
        """Yield ``(sort key, key, rids)`` for keys within the bounds, in
        order — the one leaf-chain walk every read below is a view of.

        ``None`` bounds are open ends.  ``reverse=True`` walks the leaf
        chain right-to-left (DESC index scans).  ``rids`` is the posting
        itself, not a copy: every caller consumes it before the tree's
        next mutation (tables are read and written under one engine
        mutex), and the key-only reads never look at it.
        """
        slo = sort_key(tuple(lo)) if lo is not None else None
        shi = sort_key(tuple(hi)) if hi is not None else None
        # Either way: bisect to the near bound once, then only the far
        # bound is left to check per key.
        if not reverse:
            if slo is None:
                leaf, start = self._leftmost(), 0
            else:
                leaf = self._leaf_for(slo)
                start = (bisect_left if lo_inc else bisect_right)(leaf.skeys, slo)
            while leaf is not None:
                skeys = leaf.skeys
                for i in range(start, len(skeys)):
                    if shi is not None and not (
                        skeys[i] <= shi if hi_inc else skeys[i] < shi
                    ):
                        return
                    yield skeys[i], leaf.keys[i], leaf.rids[i]
                leaf, start = leaf.next, 0
            return
        leaf = self._leaf_for(shi) if shi is not None else self._rightmost()
        # The descent for ``shi`` may land one leaf left of keys equal to
        # it when ``shi`` sits exactly on a separator; step right first.
        while leaf.next is not None and (
            shi is None or (leaf.next.skeys and leaf.next.skeys[0] <= shi)
        ):
            leaf = leaf.next
        skeys = leaf.skeys
        end = len(skeys) if shi is None else (
            bisect_right if hi_inc else bisect_left)(skeys, shi)
        while True:
            for i in range(end - 1, -1, -1):
                if slo is not None and not (
                    skeys[i] >= slo if lo_inc else skeys[i] > slo
                ):
                    return
                yield skeys[i], leaf.keys[i], leaf.rids[i]
            leaf = leaf.prev
            if leaf is None:
                return
            skeys = leaf.skeys
            end = len(skeys)

    def items(self, lo=None, hi=None, **bounds):
        """``(key, rids)`` per key within the bounds, in order — bounds
        and ``rids`` as for :meth:`walk` (valid until the next mutation)."""
        return ((key, rids) for _skey, key, rids in self.walk(lo, hi, **bounds))

    def keys_in_range(self, lo=None, hi=None, **bounds) -> list[tuple]:
        return [key for _skey, key, _rids in self.walk(lo, hi, **bounds)]

    def successor(
        self, bound: "Sequence | None", *, strict: bool = True
    ) -> tuple:
        """The first existing key right of ``bound`` — the next-key lock
        target.  ``strict=True`` means strictly greater; ``bound=None``
        (an open-ended range) and "no key to the right" both answer
        :data:`SUPREMUM`."""
        if bound is None:
            return SUPREMUM
        # Once per ordered index per INSERT (the inserter's gap lock), so
        # a bisect and at most a hop over emptied leaves, not a walk.
        skey = sort_key(tuple(bound))
        leaf = self._leaf_for(skey)
        i = (bisect_right if strict else bisect_left)(leaf.skeys, skey)
        while leaf is not None:
            if i < len(leaf.skeys):
                return leaf.keys[i]
            leaf, i = leaf.next, 0
        return SUPREMUM

    def min_key(self) -> "tuple | None":
        return next((key for _skey, key, _rids in self.walk()), None)

    def max_key(self) -> "tuple | None":
        return next(
            (key for _skey, key, _rids in self.walk(reverse=True)), None)
