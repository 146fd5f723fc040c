"""Property tests: the B+ tree against a sorted-dict reference model.

Every public operation — ``add``/``remove``/``get``/``items`` with
arbitrary bounds, inclusivity and direction, ``successor``, ``min_key``/
``max_key`` — is cross-checked against a plain ``dict`` model ordered by
:func:`sort_key`.  A small node order forces real splits at test sizes,
so the leaf-link maintenance and internal routing are exercised, not
just the single-leaf fast path.
"""

import datetime
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bptree import (
    SUPREMUM,
    BPlusTree,
    sort_key,
    value_sort_key,
)

#: single-column integer keys from a small domain so add/remove collide.
key_values = st.integers(-20, 20)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        key_values,
        st.integers(0, 5),  # rid
    ),
    max_size=120,
)
bounds = st.one_of(st.none(), key_values)


def apply_ops(ops):
    """Run one op sequence on a tight-order tree and the dict model."""
    tree = BPlusTree(order=4)
    model: dict[tuple, set[int]] = {}
    for op, value, rid in ops:
        key = (value,)
        if op == "add":
            tree.add(key, rid)
            model.setdefault(key, set()).add(rid)
        elif key in model and rid in model[key]:
            tree.remove(key, rid)
            model[key].discard(rid)
            if not model[key]:
                del model[key]
    return tree, model


def model_sorted(model):
    return sorted(model.items(), key=lambda kv: sort_key(kv[0]))


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy)
def test_full_iteration_matches_model(ops):
    tree, model = apply_ops(ops)
    assert [(k, set(r)) for k, r in tree.items()] == [
        (k, r) for k, r in model_sorted(model)
    ]
    assert len(tree) == sum(len(r) for r in model.values())
    expected_keys = [k for k, _ in model_sorted(model)]
    assert tree.min_key() == (expected_keys[0] if expected_keys else None)
    assert tree.max_key() == (expected_keys[-1] if expected_keys else None)


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, probe=key_values)
def test_get_matches_model(ops, probe):
    tree, model = apply_ops(ops)
    assert tree.get((probe,)) == frozenset(model.get((probe,), set()))


@settings(max_examples=200, deadline=None)
@given(
    ops=ops_strategy,
    lo=bounds,
    hi=bounds,
    lo_inc=st.booleans(),
    hi_inc=st.booleans(),
    reverse=st.booleans(),
)
def test_range_items_match_model(ops, lo, hi, lo_inc, hi_inc, reverse):
    tree, model = apply_ops(ops)

    def within(key):
        skey = sort_key(key)
        if lo is not None:
            slo = sort_key((lo,))
            if skey < slo or (not lo_inc and skey == slo):
                return False
        if hi is not None:
            shi = sort_key((hi,))
            if skey > shi or (not hi_inc and skey == shi):
                return False
        return True

    expected = [(k, r) for k, r in model_sorted(model) if within(k)]
    if reverse:
        expected.reverse()
    got = list(tree.items(
        (lo,) if lo is not None else None,
        (hi,) if hi is not None else None,
        lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse,
    ))
    assert [(k, set(r)) for k, r in got] == expected
    if not reverse:
        assert tree.keys_in_range(
            (lo,) if lo is not None else None,
            (hi,) if hi is not None else None,
            lo_inc=lo_inc, hi_inc=hi_inc,
        ) == [k for k, _ in expected]


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, bound=key_values, strict=st.booleans())
def test_successor_matches_model(ops, bound, strict):
    tree, model = apply_ops(ops)
    sbound = sort_key((bound,))
    candidates = [
        k for k, _ in model_sorted(model)
        if sort_key(k) > sbound or (not strict and sort_key(k) == sbound)
    ]
    expected = candidates[0] if candidates else SUPREMUM
    assert tree.successor((bound,), strict=strict) == expected


def test_open_bound_successor_is_supremum():
    tree = BPlusTree()
    tree.add((1,), 0)
    assert tree.successor(None) is SUPREMUM
    assert tree.successor((1,), strict=True) is SUPREMUM
    assert tree.successor((1,), strict=False) == (1,)


def test_supremum_survives_pickling():
    """A fence a shard worker returns is the sentinel itself, so it equals
    (and hashes like) every local next-key lock on ``SUPREMUM``."""
    crossed = pickle.loads(pickle.dumps(SUPREMUM))
    assert crossed == SUPREMUM
    assert crossed[0] is SUPREMUM[0]
    assert {("Flights", crossed)} == {("Flights", SUPREMUM)}


def test_mixed_type_keys_never_raise():
    """NULLs, bools, numbers, strings and dates share one total order."""
    tree = BPlusTree(order=4)
    values = [
        None, True, False, -3, 2.5, 7, "apple", "zebra", "",
        datetime.date(2011, 5, 6), datetime.date(1999, 1, 1),
    ]
    for rid, value in enumerate(values):
        tree.add((value,), rid)
    keys = [k for k, _ in tree.items()]
    assert keys == sorted(keys, key=sort_key)
    assert keys[0] == (None,)  # NULLs first
    # rank buckets: NULL < numbers (bools included) < strings < dates
    ranks = [value_sort_key(k[0])[0] for k in keys]
    assert ranks == sorted(ranks)
    # bounded walk across type buckets stays consistent too
    numbers = [k for k, _ in tree.items(lo=(False,), hi=(100,))]
    assert all(isinstance(k[0], (bool, int, float)) for k in numbers)


def test_sequential_inserts_split_and_stay_linked():
    tree = BPlusTree(order=4)
    for i in range(500):
        tree.add((i,), i)
    assert len(tree) == 500
    assert [k for k, _ in tree.items()] == [(i,) for i in range(500)]
    assert [k for k, _ in tree.items(reverse=True)] == [
        (i,) for i in reversed(range(500))
    ]
    assert tree.keys_in_range((100,), (110,), hi_inc=False) == [
        (i,) for i in range(100, 110)
    ]


def test_remove_unknown_posting_raises():
    tree = BPlusTree()
    tree.add((1,), 7)
    with pytest.raises(StorageError):
        tree.remove((1,), 8)
    with pytest.raises(StorageError):
        tree.remove((2,), 7)


def test_clear_resets():
    tree = BPlusTree(order=4)
    for i in range(50):
        tree.add((i,), i)
    tree.clear()
    assert len(tree) == 0
    assert list(tree.items()) == []
    tree.add((3,), 1)
    assert tree.keys_in_range() == [(3,)]


def test_order_below_minimum_rejected():
    with pytest.raises(StorageError):
        BPlusTree(order=3)
