"""Shared helpers for the test suite: random stream/query factories with
deterministic seeds, and an agreement checker between engines and the
brute-force oracle."""
from __future__ import annotations

import dataclasses
import math
import random

from repro.core.brute import brute_results
from repro.core.events import Event
from repro.core.queries import (
    AggSpec,
    Atom,
    EdgePred,
    Kleene,
    Neg,
    Pred,
    Query,
    seq,
)

PATTERNS = {
    "prefix": seq(Atom("A"), Kleene("B")),
    "prefix2": seq(Atom("C"), Kleene("B")),
    "suffix": seq(Atom("A"), Kleene("B"), Atom("C")),
    "bare": seq(Kleene("B")),
    "kleene_start": seq(Kleene("B"), Atom("D")),
    "neg_mid": seq(Atom("A"), Neg("N"), Kleene("B")),
    "neg_trail": seq(Atom("A"), Kleene("B"), Neg("N")),
}


def random_events(seed: int, n_max: int = 16, types: str = "ABCDN") -> list[Event]:
    rng = random.Random(seed)
    n = rng.randint(0, n_max)
    return [
        Event(
            i + rng.random() * 0.4,
            rng.choice(types),
            {"v": rng.randint(0, 9), "w": rng.randint(0, 5)},
        )
        for i in range(n)
    ]


def random_query(seed: int, qid: str = "q", patterns=None) -> Query:
    rng = random.Random(seed)
    pat = rng.choice(list((patterns or PATTERNS).values()))
    return Query(
        qid=qid,
        elems=pat,
        aggs=(
            AggSpec("COUNT_STAR"),
            AggSpec("SUM", "B", "v"),
            AggSpec("COUNT_E", "B"),
            AggSpec("AVG", "B", "v"),
        ),
        where={"B": (Pred("v", ">=", rng.choice([0, 2, 4])),)} if rng.random() < 0.6 else {},
        edge_pred=rng.choice([None, None, EdgePred("v", "<=")]),
    )


def assert_close(expected: float, got: float, label: str = "") -> None:
    if math.isnan(expected):
        assert math.isnan(got), f"{label}: want NaN got {got}"
        return
    assert abs(expected - got) < 1e-6 * max(1.0, abs(expected)), (
        f"{label}: want {expected} got {got}"
    )


def assert_matches_brute(events, query, results: dict) -> None:
    want = brute_results(events, query)
    for key, val in want.items():
        assert_close(val, results[key], f"{query.qid}.{key}")


def windowed(queries, pane: float) -> list[Query]:
    """``queries`` with window = slide = ``pane``: a plan's pane is the gcd
    of its queries' windows and slides."""
    return [dataclasses.replace(q, window=pane, slide=pane) for q in queries]
