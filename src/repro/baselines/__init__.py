"""Baselines reproduced for the §6 comparison: GRETA (non-shared online
trend aggregation, §3.2), SHARON (shared online fixed-length sequence
aggregation) and MCEP (shared two-step trend construction +
aggregation), each of which evaluates one whole window instance at a
time. SHARON and MCEP evaluate COUNT(*) workloads."""
from __future__ import annotations

from typing import Sequence

from ..core.events import Event
from ..core.greta import GretaState
from ..core.hamlet import Metrics
from ..core.queries import Query
from ..core.template import build_template


class BufferedEngine:
    """One window instance of a baseline plan: ``on_event`` buffers the
    events, and ``end_window`` evaluates them with ``plan.evaluate``."""

    def __init__(self, plan):
        self.plan = plan
        self.evs: list = []
        self.m = Metrics()

    def on_event(self, e) -> None:
        self.evs.append(e)

    def end_window(self) -> None:
        self.res, self.m, self.modelled_s = self.plan.evaluate(self.evs)

    def results(self) -> dict[str, dict[str, float]]:
        return self.res


class GretaPlan:
    """Non-shared GRETA (§3.2) over one (window, slide) signature: its
    queries and their templates. A window instance is the k independent
    per-query graphs that Eq. 4 prices, one :class:`GretaState` per query
    fed every event, so ``m.events`` counts ``k`` per event and peak memory
    is the k graphs' stored events (each query replicates its matches)."""

    def __init__(self, queries: Sequence[Query]):
        self.qs = tuple(queries)
        self.tpls = {q.qid: build_template(q) for q in self.qs}

    def new_engine(self) -> BufferedEngine:
        return BufferedEngine(self)

    def states(self, evs: Sequence[Event]) -> list[GretaState]:
        """One state per query, fed ``evs`` online in arrival order."""
        states = [GretaState(q, self.tpls[q.qid]) for q in self.qs]
        for st in states:
            for e in evs:
                st.on_event(e)
        return states

    def evaluate(self, evs: Sequence[Event]) -> tuple[dict, Metrics, None]:
        """Each query's aggregates, the counters, and no modelled latency."""
        states = self.states(evs)
        stored = sum(st.n_stored for st in states)
        m = Metrics(events=len(states) * len(evs), stored_events=stored,
                    ops=sum(st.ops for st in states), peak_mem_bytes=stored * 32)
        return {st.q.qid: st.results() for st in states}, m, None
