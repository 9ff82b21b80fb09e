"""Workload-level execution facade: windows, systems, metrics.

``run_system(events, workload, system)`` evaluates a whole workload of
trend aggregation queries over one group's event stream under a chosen
system:

- ``hamlet``            — sharable sets + dynamic per-burst optimizer (§4)
- ``hamlet-static``     — sharable sets, compile-time always-share (§6.2)
- ``hamlet-nonshared``  — Hamlet executor, sharing disabled
- ``greta``             — the non-shared GRETA baseline (§3.2, Eq. 4 loop)
- ``sharon`` / ``mcep`` — baselines (repro.baselines)

``window_executors`` is the one map from a system to the engines that
evaluate a window instance: it builds each entry's static plan once, and
``run_system`` and the Spark streaming operator both drive the plans'
engines.

Windows: each (window, slide) signature is evaluated per window
*instance* (DESIGN.md substitution: cross-window pane sharing is prior
work, not the contribution). Latency is the wall-clock to process a
window instance; throughput is events/second over the whole run —
matching the paper's metric definitions (§6.1).
"""
from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .events import Event
from .greta import GretaState
from .hamlet import HamletPlan, Metrics
from .queries import Query
from .template import build_template, pane_size, sharable_sets

SYSTEMS = ("hamlet", "hamlet-static", "hamlet-nonshared", "greta", "sharon", "mcep")


@dataclass
class RunResult:
    """Outcome of one system over one group's stream."""

    system: str
    results: dict = field(default_factory=dict)  # (qid, window_start) -> {agg: value}
    metrics: Metrics = field(default_factory=Metrics)
    window_wall: dict = field(default_factory=dict)  # window_start -> seconds
    total_wall: float = 0.0
    n_events: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Average per-window processing latency in seconds (§6.1)."""
        if not self.window_wall:
            return 0.0
        return sum(self.window_wall.values()) / len(self.window_wall)

    @property
    def throughput(self) -> float:
        """Events processed per second across the run."""
        return self.n_events / self.total_wall if self.total_wall > 0 else 0.0

    def record(self, start: float, results: dict, dt: float, metrics: Metrics) -> None:
        """Book one evaluation of window instance ``start`` (§6.1): its
        per-query results, ``dt`` seconds of latency and its counters."""
        for qid, aggs in results.items():
            self.results[(qid, start)] = aggs
        self.window_wall[start] = self.window_wall.get(start, 0.0) + dt
        self.total_wall += dt
        self.metrics.absorb(metrics)

    def merge(self, other: "RunResult") -> None:
        """Combine results from another group's run (Spark partitions)."""
        self.results.update(other.results)
        self.metrics.absorb(other.metrics)
        for w, s in other.window_wall.items():
            self.window_wall[w] = self.window_wall.get(w, 0.0) + s
        self.total_wall += other.total_wall
        self.n_events += other.n_events


def window_instances(events: Sequence[Event], window: float, slide: float):
    """Yield ``(window_start, events_in_window)`` for every non-empty
    instance ``[start, start + window)`` of a sliding window over a
    time-sorted event list."""
    if not events:
        return
    times = [e.time for e in events]
    t_max = times[-1]
    m = 0
    while m * slide <= t_max:
        start = m * slide
        lo = bisect_left(times, start)
        hi = bisect_left(times, start + window)
        if hi > lo:
            yield start, events[lo:hi]
        m += 1


def _engine_groups(workload: Sequence[Query]):
    """Partition the workload into sharable sets and singleton queries
    (workload analysis, §3.1)."""
    sets, singles = sharable_sets(workload)
    groups: list[tuple] = []
    for s in sets:
        groups.append((s.queries, s.etype, s.pane))
    for q in singles:
        kts = sorted(q.kleene_types())
        groups.append(((q,), kts[0] if kts else None, pane_size([q.window, q.slide])))
    return groups


class GretaPlan:
    """The static part of a non-shared GRETA entry: its queries and their
    templates, shared by the engines of every window instance."""

    def __init__(self, queries: Sequence[Query]):
        self.qs = tuple(queries)
        self.tpls = {q.qid: build_template(q) for q in self.qs}

    def new_engine(self) -> "GretaSetEngine":
        """A fresh engine for one window instance of these queries."""
        return GretaSetEngine(self)


class GretaSetEngine:
    """Non-shared GRETA (§3.2) over one window instance of a query set.

    Eq. 4 prices non-shared execution as k independent per-query graphs;
    this engine holds exactly those (one :class:`GretaState` per query of
    its :class:`GretaPlan`) behind the :class:`HamletSetEngine` interface.
    Each event is offered to every query, so ``m.events`` counts ``k`` per
    event, and peak memory is the k concurrently-live graphs (each query
    replicates its matched events)."""

    def __init__(self, plan: GretaPlan):
        self.plan = plan
        self.states = [GretaState(q, plan.tpls[q.qid]) for q in plan.qs]
        self.m = Metrics()

    def on_event(self, e: Event) -> None:
        self.m.events += len(self.states)
        for st in self.states:
            st.on_event(e)

    def end_window(self) -> None:
        self.m.stored_events = sum(st.n_stored for st in self.states)
        self.m.ops = sum(st.ops for st in self.states)
        self.m.peak_mem_bytes = self.m.stored_events * 32

    def results(self) -> dict[str, dict[str, float]]:
        return {st.q.qid: st.results() for st in self.states}


_MODES = {"hamlet": "dynamic", "hamlet-static": "static", "hamlet-nonshared": "nonshared"}


def window_executors(workload: Sequence[Query], system: str) -> list[tuple]:
    """The per-window executors that evaluate ``workload`` under ``system``.

    Returns ``(window, slide, plan)`` entries. ``plan`` is the entry's
    static analysis (a :class:`HamletPlan` or :class:`GretaPlan`, with its
    queries in ``plan.qs``), built here once; ``plan.new_engine()`` builds a
    fresh engine (``on_event``, ``end_window``, ``results``, ``.m``) for one
    window instance. ``greta`` gets one entry per (window, slide)
    signature; the Hamlet systems get one per engine group, and a
    non-Kleene singleton runs on GRETA.
    """
    if system == "greta":
        sigs: dict[tuple, list[Query]] = {}
        for q in workload:
            sigs.setdefault((q.window, q.slide), []).append(q)
        return [(w, s, GretaPlan(qs)) for (w, s), qs in sigs.items()]
    if system not in _MODES:
        raise ValueError(
            f"unknown system {system!r}: window executors exist for "
            f"{', '.join(('greta', *_MODES))}"
        )
    entries = []
    for queries, ketype, pane in _engine_groups(workload):
        if ketype is None:
            plan = GretaPlan(queries)
        else:
            mode = _MODES[system] if len(queries) > 1 else "nonshared"
            plan = HamletPlan(queries, ketype, mode=mode, pane=pane)
        entries.append((queries[0].window, queries[0].slide, plan))
    return entries


def run_system(
    events: Sequence[Event],
    workload: Sequence[Query],
    system: str = "hamlet",
    *,
    sharon_l: Optional[int] = None,
    mcep_max_trends: int = 200_000,
) -> RunResult:
    """Evaluate ``workload`` over one group's time-sorted ``events``."""
    if system in ("sharon", "mcep"):
        from ..baselines import mcep as _mcep
        from ..baselines import sharon as _sharon

        if system == "sharon":
            return _sharon.run_sharon(events, workload, l_max=sharon_l)
        return _mcep.run_mcep(events, workload, max_trends=mcep_max_trends)

    executors = window_executors(workload, system)
    events = sorted(events, key=lambda e: e.time)
    rr = RunResult(system=system, n_events=len(events))
    for window, slide, plan in executors:
        for start, evs in window_instances(events, window, slide):
            t0 = time.perf_counter()
            eng = plan.new_engine()
            for e in evs:
                eng.on_event(e)
            eng.end_window()
            rr.record(start, eng.results(), time.perf_counter() - t0, eng.m)
    return rr
