"""What a script of a known shape does not do, counted.

The deterministic companion of ``benchmarks/test_bench_micro.py``'s
``test_frontend_prepared_hit`` (a host-timing ratio): the paper's travel
workload — an Entangled-T pair and a Social-T script — runs once to
prepare every shape, then a second round with other literals runs with
counting wrappers around every step a hit must skip.  It builds no token
(``_scan`` is the only place tokens are made), parses nothing, binds no
copy of a statement's tree, splits and re-keys no WHERE clause, resolves
no SELECT against the catalog and unifies no entangled query.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro
from repro.workloads import (
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    generate_workload,
)

#: (module, attribute): the steps a hit must not take.
SKIPPED = [
    ("repro.sql.lexer", "_scan"),
    ("repro.sql.parser", "_shape"),
    ("repro.sql.parser", "Parser"),
    ("repro.sql.ast", "inline_hostvars"),
    ("repro.storage.expressions", "split_conjuncts"),
    ("repro.storage.planner", "_conjunct_shape"),
    ("repro.sql.compiler", "_resolve_select"),
    ("repro.sql.compiler", "_UnionFind"),
]


def _counting(name: str, original, calls: Counter):
    if isinstance(original, type):
        class Counted(original):
            def __init__(self, *args, **kwargs):
                calls[name] += 1
                super().__init__(*args, **kwargs)

        return Counted

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts per step, once installed (patched in every ``repro`` module
    that holds the object, as ``from x import f`` copies the binding)."""
    counts: Counter = Counter()

    def install():
        for module_name, attr in SKIPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _counting(attr, original, counts)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original):
                    monkeypatch.setattr(module, attr, wrapper)

    counts.install = install
    return counts


def _rounds(seed: int):
    travel = TravelDatabase(SocialNetwork(60, seed=seed), seed=seed)
    entangled = generate_workload(WorkloadKind.ENTANGLED_T, travel, 4)
    social = generate_workload(WorkloadKind.SOCIAL_T, travel, 2)
    return travel, [
        [entangled[0].program, entangled[1].program, social[0].program],
        [entangled[2].program, entangled[3].program, social[1].program],
    ]


def _run(client, scripts) -> None:
    handles = [client.session(f"s{i}").run_script(text)
               for i, text in enumerate(scripts)]
    client.drain()
    assert all(h.succeeded for h in handles)


def test_a_second_script_of_a_known_shape_skips_every_step(calls):
    travel, (first, second) = _rounds(seed=5)
    assert first != second
    with repro.connect() as client:
        travel.populate(client.store.db)
        _run(client, first)
        calls.install()
        _run(client, second)
        assert dict(calls) == {}
        # The control: the same scripts as new shapes take every step but
        # the binding copy, which only UPDATE and DELETE still make.
        _run(client, [text.replace("2 DAYS", "3 DAYS").replace("LIMIT 1", "LIMIT 2")
                      for text in first]
             + ["BEGIN TRANSACTION; UPDATE Reserve SET fid = 1 WHERE uid = -1; COMMIT;"])
    assert set(calls) == {attr for _module, attr in SKIPPED}
