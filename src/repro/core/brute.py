"""Exhaustive ground-truth trend enumeration (exponential — tests only).

The online engines (GRETA, Hamlet) must never construct trends; this
module deliberately does, on tiny inputs, to serve as the correctness
oracle for every aggregate and pattern feature. A trend is a path in the
match DAG (see DESIGN.md §2: skip-till-any-match semantics) from a
start-type event to an end-type event, each edge through the template's
one transition between the two events' types.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

from .events import Event
from .queries import Query
from .template import Template, build_template


def _matched(events: Sequence[Event], q: Query, tpl: Template) -> list[Event]:
    return [e for e in events if e.etype in tpl.types and e.etype not in tpl.neg_types and q.matches(e)]


def _blocker_times(events: Sequence[Event], q: Query, tpl: Template) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {n: [] for n in tpl.neg_types}
    for e in events:
        if e.etype in tpl.neg_types and q.matches(e):
            out[e.etype].append(e.time)
    return out


def enumerate_trends(events: Sequence[Event], q: Query, tpl: Optional[Template] = None) -> list[tuple[Event, ...]]:
    """All trends matched by ``q`` in ``events`` (one window instance)."""
    tpl = tpl or build_template(q)
    nodes = _matched(events, q, tpl)
    nodes.sort(key=lambda e: e.time)
    blockers = _blocker_times(events, q, tpl)

    def edge_ok(prev: Event, cur: Event) -> bool:
        edges = tpl.pt.get(cur.etype, {})
        if prev.time >= cur.time or prev.etype not in edges:
            return False
        blocker = edges[prev.etype]
        if blocker is not None and any(prev.time < t < cur.time for t in blockers.get(blocker, ())):
            return False
        return (
            q.edge_pred is None
            or cur.etype not in tpl.kleene
            or prev.etype != cur.etype
            or q.edge_pred.ok(prev, cur)
        )

    def end_ok(e: Event) -> bool:
        if e.etype not in tpl.end:
            return False
        if tpl.trailing_neg is not None and any(
            t > e.time for t in blockers.get(tpl.trailing_neg, ())
        ):
            return False
        return True

    trends: list[tuple[Event, ...]] = []

    def dfs(path: list[Event]) -> None:
        cur = path[-1]
        if end_ok(cur):
            trends.append(tuple(path))
        for nxt in nodes:
            if nxt.time > cur.time and edge_ok(cur, nxt):
                path.append(nxt)
                dfs(path)
                path.pop()

    for s in nodes:
        if s.etype in tpl.start:
            dfs([s])
    return trends


def brute_results(events: Sequence[Event], q: Query) -> dict[str, float]:
    """Aggregate values per Definition 2/§2.1, computed from enumerated trends."""
    trends = enumerate_trends(events, q)
    out: dict[str, float] = {}
    for a in q.aggs:
        if a.fn == "COUNT_STAR":
            out[a.name] = float(len(trends))
            continue
        vals = [
            e.attrs.get(a.attr, 0.0) if a.attr else 0.0
            for tr in trends
            for e in tr
            if e.etype == a.etype
        ]
        n_e = sum(1 for tr in trends for e in tr if e.etype == a.etype)
        if a.fn == "COUNT_E":
            out[a.name] = float(n_e)
        elif a.fn == "SUM":
            out[a.name] = float(sum(vals))
        elif a.fn == "AVG":
            out[a.name] = float(sum(vals) / n_e) if n_e else math.nan
        elif a.fn == "MIN":
            out[a.name] = float(min(vals)) if vals else math.nan
        elif a.fn == "MAX":
            out[a.name] = float(max(vals)) if vals else math.nan
    return out
