"""MCEP baseline [22]: shared two-step trend aggregation (paper §6.1).

MCEP *shares the construction of event trends* across queries, then
aggregates them as a post-processing step. The shared construction is
a DFS over the match graph that carries, per path, the set of queries
the path is valid for (shared prefix validation — the optimization the
paper credits MCEP with); every constructed trend is then counted for
each query it matches. The cost is proportional to the number of
trends — exponential in the events per window (§1: "even if trend
construction is shared, its exponential complexity is not avoided").

Because full enumeration is physically impossible above tiny windows,
the runner enumerates up to ``max_trends`` trends; beyond that the
latency is *modelled* as (measured seconds/trend × the largest exact
per-query trend count from the GRETA DP — a lower bound on the shared
enumeration size), carried as ``BufferedEngine.modelled_s`` and flagged
in ``RunResult.modelled``. Aggregates are then computed exactly by the
per-query DP, the GRETA states of the plan's :class:`GretaPlan`, whose
templates the construction reads too, so correctness tests hold at any
scale. See DESIGN.md substitutions.
"""
from __future__ import annotations

import time
from typing import Optional, Sequence

from ..core.events import Event
from ..core.hamlet import Metrics
from ..core.queries import Query
from ..core.template import Template, edge_ok, end_ok
from . import BufferedEngine, GretaPlan


class _QueryCtx:
    """Per-query match/edge validation over one window instance."""

    def __init__(self, q: Query, tpl: Template, events: Sequence[Event]):
        self.q = q
        self.tpl = tpl
        self.blockers = {
            n: [e.time for e in events if e.etype == n and q.matches(e)]
            for n in self.tpl.neg_types
        }

    def node_ok(self, e: Event) -> bool:
        return (
            e.etype in self.tpl.types
            and e.etype not in self.tpl.neg_types
            and self.q.matches(e)
        )

    def start_ok(self, e: Event) -> bool:
        return self.node_ok(e) and e.etype in self.tpl.start

    def edge_ok(self, prev: Event, cur: Event) -> bool:
        return self.node_ok(cur) and edge_ok(self.q, self.tpl, prev, cur, self.blockers)


class McepPlan:
    """MCEP over one (window, slide) signature: its COUNT(*) queries and
    ``max_trends``, the enumeration budget of one window instance."""

    def __init__(self, queries: Sequence[Query], *, max_trends: int = 200_000):
        self.qs = tuple(queries)
        for q in self.qs:
            for a in q.aggs:
                if a.fn != "COUNT_STAR":
                    raise ValueError("MCEP reproduction evaluates COUNT(*) workloads")
        self.max_trends = max_trends
        self.greta = GretaPlan(self.qs)  # templates, and the exact counts past the budget

    def new_engine(self) -> BufferedEngine:
        return BufferedEngine(self)

    def evaluate(self, evs: Sequence[Event]) -> tuple[dict, Metrics, Optional[float]]:
        """Each query's COUNT(*), the counters, and the modelled latency of
        a window past the trend budget (else ``None``)."""
        t0 = time.perf_counter()
        qs, max_trends, modelled_s = self.qs, self.max_trends, None
        ctxs = [_QueryCtx(q, self.greta.tpls[q.qid], evs) for q in qs]
        nodes = [e for e in evs if any(c.node_ok(e) for c in ctxs)]
        counts = {q.qid: 0 for q in qs}
        enumerated = 0
        budget_hit = False

        def dfs(path: list, mask: list) -> None:
            """Shared construction: mask[i] = path valid so far for
            query i. A path is a trend for query i when mask[i] and
            its last event is an end for i."""
            nonlocal enumerated, budget_hit
            if budget_hit:
                return
            cur = path[-1]
            ended = False
            for i, c in enumerate(ctxs):
                if mask[i] and end_ok(c.tpl, cur, c.blockers):
                    counts[c.q.qid] += 1  # aggregation step
                    ended = True
            if ended:
                enumerated += 1
                if enumerated >= max_trends:
                    budget_hit = True
                    return
            for nxt in nodes:
                if nxt.time <= cur.time:
                    continue
                nmask = [m and c.edge_ok(cur, nxt) for m, c in zip(mask, ctxs)]
                if any(nmask):
                    path.append(nxt)
                    dfs(path, nmask)
                    path.pop()
                    if budget_hit:
                        return

        for s in nodes:
            smask = [c.start_ok(s) for c in ctxs]
            if any(smask):
                dfs([s], smask)
            if budget_hit:
                break
        if budget_hit:
            # model full-enumeration latency from the measured per-trend
            # cost and the exact trend counts (per-query DP); the max
            # per-query count lower-bounds the shared enumeration size.
            per_trend = (time.perf_counter() - t0) / max(enumerated, 1)
            exact = {st.q.qid: st.exact_count() for st in self.greta.states(evs)}
            modelled_s = per_trend * float(max(exact.values(), default=0))
            counts = exact
        m = Metrics(events=len(evs), stored_events=len(nodes), ops=enumerated)
        m.peak_mem_bytes = len(nodes) * 32 + 64  # shared graph + trend buffer
        return {qid: {"COUNT(*)": float(n)} for qid, n in counts.items()}, m, modelled_s
