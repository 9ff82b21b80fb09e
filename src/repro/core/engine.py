"""Workload-level execution facade: windows, systems, metrics.

``run_system(events, workload, system)`` evaluates a whole workload of
trend aggregation queries over one group's event stream under a chosen
system:

- ``hamlet``            — sharable sets + dynamic per-burst optimizer (§4)
- ``hamlet-static``     — sharable sets, compile-time always-share (§6.2)
- ``hamlet-nonshared``  — Hamlet executor, sharing disabled
- ``greta`` / ``sharon`` / ``mcep`` — the baselines (repro.baselines):
  non-shared GRETA (§3.2, Eq. 4 loop), SHARON and MCEP

``window_executors`` is the one map from a system to the engines that
evaluate a window instance: it builds each entry's static plan once per
workload (the same ``Query`` objects get the same plans back, call after
call), and ``run_system`` and the Spark streaming operator both drive the
plans' engines, the same way for all six systems. Under the three Hamlet
systems every query runs on a ``HamletPlan`` (one per sharable set); a
baseline has one plan per (window, slide) signature, whose engine buffers
a window instance and evaluates it whole.

Windows: each (window, slide) signature is evaluated per window
*instance* (DESIGN.md substitution: cross-window pane sharing is prior
work, not the contribution). Latency is the wall-clock to process a
window instance; throughput is events/second over the whole run —
matching the paper's metric definitions (§6.1).
"""
from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..baselines import GretaPlan
from ..baselines.mcep import McepPlan
from ..baselines.sharon import SharonPlan
from .events import Event
from .hamlet import HamletPlan, Metrics
from .queries import Query
from .template import sharable_sets


@dataclass
class RunResult:
    """Outcome of one system over one group's stream."""

    system: str
    results: dict = field(default_factory=dict)  # (qid, window_start) -> {agg: value}
    metrics: Metrics = field(default_factory=Metrics)
    window_wall: dict = field(default_factory=dict)  # window_start -> seconds
    total_wall: float = 0.0
    n_events: int = 0
    modelled: bool = False  # some window's latency is modelled, not measured (MCEP)

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
        self.modelled |= other.modelled


def window_instances(events: Sequence[Event], window: float, slide: float):
    """Yield ``(window_start, events_in_window)`` for every non-empty
    instance ``[m·slide, m·slide + window)``, ``m`` any integer, of a
    sliding window over a time-sorted event list. The walk jumps over the
    gaps between events, so its cost follows the non-empty instances, not
    the span of the times."""
    times = [e.time for e in events]
    m, lo = -math.inf, 0
    while lo < len(times):
        # skip to the instance before the first that can hold times[lo], so
        # that rounding cannot overshoot; the events before lo precede it
        m = max(m + 1, math.floor((times[lo] - window) / slide))
        start = m * slide
        lo = bisect_left(times, start, lo)
        hi = bisect_left(times, start + window, lo)
        if hi > lo:
            yield start, events[lo:hi]


_MODES = {"hamlet": "dynamic", "hamlet-static": "static", "hamlet-nonshared": "nonshared"}
# a baseline's plan for one (window, slide) signature's queries
_BASELINES = {
    "greta": lambda qs, sharon_l, mcep_max_trends: GretaPlan(qs),
    "sharon": lambda qs, sharon_l, mcep_max_trends: SharonPlan(qs, l_max=sharon_l),
    "mcep": lambda qs, sharon_l, mcep_max_trends: McepPlan(qs, max_trends=mcep_max_trends),
}
SYSTEMS = (*_MODES, *_BASELINES)


def window_executors(
    workload: Sequence[Query],
    system: str,
    *,
    sharon_l: Optional[int] = None,
    mcep_max_trends: int = 200_000,
) -> list[tuple]:
    """The per-window executors that evaluate ``workload`` under ``system``.

    Returns ``(window, slide, plan)`` entries. ``plan`` is the entry's
    static analysis (its queries in ``plan.qs``); ``plan.new_engine()``
    builds a fresh engine (``on_event``, ``end_window``, ``results``,
    ``.m``) for one window instance. The baselines get one plan per
    (window, slide) signature; the Hamlet systems one :class:`HamletPlan`
    per sharable set (§3.1), a query that shares with no other being a set
    of one.

    The analysis runs once per workload (§3.1: at compile time): a later
    call with the same ``Query`` objects, in the same order and with the
    same arguments, returns the same plans. The plans of up to
    ``_MAX_PLANS`` workloads are kept; one more empties the table.
    """
    # by identity: Query equality compares qids only, and two workloads may
    # reuse qids with other patterns, predicates or windows
    key = (system, sharon_l, mcep_max_trends, *map(id, workload))
    hit = _PLANS.get(key)
    if hit is None:
        if len(_PLANS) >= _MAX_PLANS:
            _PLANS.clear()
        # the entry holds the queries, so their ids stay theirs while it lives
        hit = _PLANS[key] = (
            tuple(workload),
            _build_executors(workload, system, sharon_l, mcep_max_trends),
        )
    return list(hit[1])


_MAX_PLANS = 16  # workloads whose executors are kept
_PLANS: dict[tuple, tuple] = {}


def _build_executors(workload, system, sharon_l, mcep_max_trends) -> list[tuple]:
    if system not in SYSTEMS:
        raise ValueError(
            f"unknown system {system!r}: window executors exist for {', '.join(SYSTEMS)}"
        )
    dups = sorted(qid for qid, n in Counter(q.qid for q in workload).items() if n > 1)
    if dups:
        raise ValueError(f"duplicate query id {', '.join(map(repr, dups))}")
    if system in _BASELINES:
        sigs: dict[tuple, list[Query]] = {}
        for q in workload:
            sigs.setdefault((q.window, q.slide), []).append(q)
        plan = _BASELINES[system]
        return [(w, s, plan(qs, sharon_l, mcep_max_trends)) for (w, s), qs in sigs.items()]
    mode = _MODES[system]
    return [(qs[0].window, qs[0].slide, HamletPlan(qs, mode=mode)) for qs in sharable_sets(workload)]


def run_system(
    events: Sequence[Event],
    workload: Sequence[Query],
    system: str = "hamlet",
    *,
    sharon_l: Optional[int] = None,
    mcep_max_trends: int = 200_000,
) -> RunResult:
    """Evaluate ``workload`` over one group's time-sorted ``events``, one
    fresh engine per window instance of each ``window_executors`` entry."""
    executors = window_executors(
        workload, system, sharon_l=sharon_l, mcep_max_trends=mcep_max_trends
    )
    events = sorted(events, key=lambda e: e.time)
    rr = RunResult(system=system, n_events=len(events))
    for window, slide, plan in executors:
        for start, evs in window_instances(events, window, slide):
            t0 = time.perf_counter()
            eng = plan.new_engine()
            for e in evs:
                eng.on_event(e)
            eng.end_window()
            results = eng.results()
            # an engine whose latency is modelled, not measured, carries it
            modelled = getattr(eng, "modelled_s", None)
            rr.modelled |= modelled is not None
            dt = time.perf_counter() - t0 if modelled is None else modelled
            rr.record(start, results, dt, eng.m)
    return rr
