"""Non-shared online trend aggregation — the GRETA baseline (paper §3.2).

One :class:`GretaState` evaluates one query over one (group, window
instance): every matched event is inserted into the query graph, its
intermediate trend count (Eq. 2) is computed by iterating over its
predecessor events, each predecessor type of its template once, and final aggregates accumulate over end-type events
(Eq. 3). A predecessor is strictly earlier (DESIGN.md §2's edge rule
``e'.time < e.time``), so events of one timestamp never precede each
other. The per-event predecessor iteration is deliberate — it is the
O(n) inner loop that makes non-shared execution ``k × n²`` (Eq. 4) and
is exactly the cost Hamlet's shared graphlets avoid.

Besides COUNT(*), linear channels propagate COUNT(E)/SUM/AVG through the
same recurrence, so an event's value is one vector ``[count, channel_1,
..., channel_m]`` (``zero``; Hamlet uses the same layout).
MIN/MAX use a finalize-time reachability pass (an event contributes iff
it participates in at least one complete trend).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .events import Event
from .queries import Query
from .template import Template, build_template, edge_ok, end_ok


@dataclass(frozen=True)
class Channel:
    """One linear aggregate channel over events of ``etype`` (attr=None for
    COUNT(E); otherwise SUM of ``attr``)."""

    etype: str
    attr: Optional[str]


def channels_for(q: Query) -> tuple[Channel, ...]:
    chans: list[Channel] = []
    for a in q.aggs:
        if a.fn == "COUNT_E":
            c = Channel(a.etype, None)
        elif a.fn in ("SUM", "AVG"):
            c = Channel(a.etype, a.attr)
            if a.fn == "AVG":  # AVG needs COUNT(E) too
                c2 = Channel(a.etype, None)
                if c2 not in chans:
                    chans.append(c2)
        else:
            continue
        if c not in chans:
            chans.append(c)
    return tuple(chans)


CNT = 0  # index of the trend count in every value vector


def zero(m: int) -> list:
    """The zero value vector ``[count, channel_1, ..., channel_m]`` of Eq. 2
    and Eq. 3: the count at index ``CNT`` is an exact int, the ``m``
    channels are floats."""
    return [0] + [0.0] * m


def reader(q: Query, channels: Sequence[Channel]) -> tuple:
    """What :func:`aggregates` reads for each aggregate of ``q``, resolved
    once per query: ``(name, index, divisor index)`` over a value vector
    laid out as ``[count, *channels, *extremes]``, the extremes being
    ``q``'s MIN/MAX values in the order of its aggregates. The divisor is
    AVG's COUNT(E) channel, and ``None`` for the other five functions."""
    at = {c: i for i, c in enumerate(channels, CNT + 1)}
    extreme = CNT + 1 + len(channels)
    out = []
    for a in q.aggs:
        if a.fn in ("MIN", "MAX"):
            out.append((a.name, extreme, None))
            extreme += 1
        elif a.fn == "COUNT_STAR":
            out.append((a.name, CNT, None))
        elif a.fn == "COUNT_E":
            out.append((a.name, at[Channel(a.etype, None)], None))
        else:  # SUM, AVG = SUM / COUNT(E)
            n_e = at[Channel(a.etype, None)] if a.fn == "AVG" else None
            out.append((a.name, at[Channel(a.etype, a.attr)], n_e))
    return tuple(out)


def aggregates(read: Sequence[tuple], vals: Sequence) -> dict[str, float]:
    """Eq. 3: a query's final aggregates, read by ``read``, its
    :func:`reader`, from ``vals``: the value vector summed over its end
    events (the trend count, then each channel's sum), then its MIN/MAX
    values (NaN when no event takes part in a trend). An AVG over no event
    is NaN."""
    out: dict[str, float] = {}
    for name, i, n_e in read:
        if n_e is None:
            out[name] = float(vals[i])
        else:
            out[name] = float(vals[i] / vals[n_e]) if vals[n_e] else math.nan
    return out


class _Rec:
    """Graph node: one matched event with its intermediate aggregates."""

    __slots__ = ("event", "vals")

    def __init__(self, event: Event, vals: list):
        self.event = event
        self.vals = vals  # Eq. 2 value vector: [count, channels...]


class GretaState:
    """Online non-shared trend aggregation for one query on one window."""

    def __init__(self, q: Query, tpl: Optional[Template] = None):
        self.q = q
        self.tpl = tpl or build_template(q)
        self.channels = channels_for(q)
        # in sorted type order, so that a pickled state does not depend on
        # the string hash seed
        self.recs: dict[str, list[_Rec]] = {t: [] for t in sorted(self.tpl.types)}
        self.blocker_times: dict[str, list[float]] = {n: [] for n in sorted(self.tpl.neg_types)}
        # the Eq. 3 sum over end events; under a trailing negation it is
        # pending, and a later matched negative event voids it
        self.res = zero(len(self.channels))
        self.ops = 0  # predecessor accesses — the model's n factor
        self.n_stored = 0

    # -- online processing --------------------------------------------------
    def on_event(self, e: Event) -> None:
        tpl = self.tpl
        if e.etype in tpl.neg_types:
            if self.q.matches(e):
                self.blocker_times[e.etype].append(e.time)
                if tpl.trailing_neg == e.etype:
                    # trends ending before this negative match are voided
                    self.res = zero(len(self.channels))
            return
        if e.etype not in tpl.types or not self.q.matches(e):
            return
        vals = [1 if e.etype in tpl.start else 0] + [0.0] * len(self.channels)
        # in the template's (sorted) predecessor type order
        for ptype in tpl.pt.get(e.etype, {}):
            for rec in self.recs.get(ptype, ()):  # THE O(n) loop (Eq. 4)
                self.ops += 1
                if rec.event.time < e.time and edge_ok(self.q, tpl, rec.event, e, self.blocker_times):
                    for i, v in enumerate(rec.vals):
                        vals[i] += v
        for i, c in enumerate(self.channels, CNT + 1):
            if e.etype == c.etype:
                vals[i] += vals[CNT] * (1 if c.attr is None else e.attrs.get(c.attr, 0.0))
        self.recs[e.etype].append(_Rec(e, vals))
        self.n_stored += 1
        if e.etype in tpl.end:
            for i, v in enumerate(vals):
                self.res[i] += v

    # -- finalize -----------------------------------------------------------
    def _participants(self) -> list[_Rec]:
        """Events participating in >=1 complete trend (for MIN/MAX).

        Reverse pass: an event participates iff its count > 0 and it
        reaches a valid end event through the match DAG.
        """
        all_recs = sorted(
            (r for recs in self.recs.values() for r in recs), key=lambda r: r.event.time
        )
        reach: dict[int, bool] = {}
        for i in range(len(all_recs) - 1, -1, -1):
            r = all_recs[i]
            ok = end_ok(self.tpl, r.event, self.blocker_times)
            if not ok:
                for j in range(i + 1, len(all_recs)):
                    r2 = all_recs[j]
                    if (
                        reach[id(r2)]
                        and r2.event.time > r.event.time
                        and edge_ok(self.q, self.tpl, r.event, r2.event, self.blocker_times)
                    ):
                        ok = True
                        break
            reach[id(r)] = ok
        return [r for r in all_recs if r.vals[CNT] > 0 and reach[id(r)]]

    def results(self) -> dict[str, float]:
        """Final aggregates for this window instance (Eq. 3 + channels)."""
        mm = [a for a in self.q.aggs if a.fn in ("MIN", "MAX")]
        parts = self._participants() if mm else []
        extremes = []
        for a in mm:
            vals = [r.event.attrs.get(a.attr, 0.0) for r in parts if r.event.etype == a.etype]
            extremes.append((min if a.fn == "MIN" else max)(vals, default=math.nan))
        return aggregates(reader(self.q, self.channels), [*self.res, *extremes])

    def exact_count(self) -> int:
        """COUNT(*) as an exact integer (may exceed float precision)."""
        return self.res[CNT]


def run_greta(events: Sequence[Event], q: Query) -> dict[str, float]:
    """Convenience: evaluate ``q`` over one window instance of events."""
    st = GretaState(q)
    for e in sorted(events, key=lambda x: x.time):
        st.on_event(e)
    return st.results()
