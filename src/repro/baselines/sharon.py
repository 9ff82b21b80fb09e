"""SHARON baseline [35] applied to Kleene workloads (paper §6.1).

SHARON aggregates *fixed-length* event sequences online (A-Seq style
prefix counters) and does not support Kleene closure. Following the
paper's methodology, each Kleene pattern ``E+`` is flattened into the
set of fixed-length sequence queries of Kleene length 1..l, where l
bounds the longest possible match. The per-event cost is then
Σ_{j=1..l} (prefix+j) ≈ l²/2 counter updates per original query — the
blow-up that makes SHARON 3–5 orders of magnitude slower on trend
workloads. Sharing = identical flattened patterns are computed once.

Correctness: with skip-till-any-match semantics the number of matches of
the flattened length-j pattern equals the number of trends with j Kleene
events, so the sum over j equals the trend count exactly (tested against
brute force / GRETA). Events of one timestamp are not ordered (DESIGN.md
§2's edge rule ``e'.time < e.time``): each extends only the matches
before their time.
"""
from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Optional, Sequence

from ..core.events import Event
from ..core.hamlet import Metrics
from . import BufferedEngine
from ..core.queries import Atom, Kleene, Query
from ..core.template import build_template


def _flatten_steps(q: Query) -> tuple[list, str, list]:
    """Split ``SEQ(prefix..., E+, suffix...)`` into (prefix, E, suffix).

    SHARON supports neither negation nor nested Kleene nor edge
    predicates; the §6 workloads used with it comply.
    """
    if q.edge_pred is not None:
        raise ValueError(f"{q.qid}: SHARON flattening does not support edge predicates")
    prefix: list[str] = []
    suffix: list[str] = []
    ketype: Optional[str] = None
    for el in q.elems:
        if isinstance(el, Atom):
            (suffix if ketype is not None else prefix).append(el.etype)
        elif isinstance(el, Kleene):
            if ketype is not None:
                raise ValueError(f"{q.qid}: multiple Kleene not supported by SHARON flattening")
            ketype = el.etype
        else:
            raise ValueError(f"{q.qid}: SHARON flattening supports SEQ of atoms + one Kleene")
    if ketype is None:
        raise ValueError(f"{q.qid}: no Kleene to flatten")
    return prefix, ketype, suffix


class SharonPlan:
    """SHARON over one (window, slide) signature: its COUNT(*) queries,
    their flattened steps, and ``l_max``, the compile-time estimate of the
    longest match (``None``: each window's exact Kleene count)."""

    def __init__(self, queries: Sequence[Query], *, l_max: Optional[int] = None):
        self.qs = tuple(queries)
        for q in self.qs:
            build_template(q)  # rejects what every other system's template rejects
            for a in q.aggs:
                if a.fn != "COUNT_STAR":
                    raise ValueError("SHARON reproduction evaluates COUNT(*) workloads")
        self.flat = {q.qid: _flatten_steps(q) for q in self.qs}
        self.l_max = l_max

    def new_engine(self) -> BufferedEngine:
        return BufferedEngine(self)

    def evaluate(self, evs: Sequence[Event]) -> tuple[dict, Metrics, None]:
        """Each query's COUNT(*), the counters, and no modelled latency."""
        qs = self.qs
        # bound l by the number of Kleene-type events in this window
        # (SHARON would need a compile-time estimate at least this big
        # to be complete — smaller l loses matches)
        per_pattern: dict[tuple, list] = {}
        owners: dict[tuple, list[str]] = {}
        for q in qs:
            prefix, ketype, suffix = self.flat[q.qid]
            # l is SHARON's compile-time estimate of the longest match;
            # l_max models the static global estimate (flattened queries
            # beyond the actual run length still cost counter scans every
            # event). Default: exact per-window Kleene count.
            n_k = sum(1 for e in evs if e.etype == ketype)
            l = self.l_max if self.l_max is not None else n_k
            for j in range(1, max(l, 0) + 1):
                steps = tuple(prefix) + (ketype,) * j + tuple(suffix)
                key = (q.qid if q.where else "", steps)  # share only same-predicate patterns
                if key not in per_pattern:
                    per_pattern[key] = [0] * (len(steps) + 1)
                    per_pattern[key][0] = 1
                    owners[key] = []
                owners[key].append(q.qid)
        ops = 0
        q_by_id = {q.qid: q for q in qs}
        for _, tied in groupby(evs, key=attrgetter("time")):
            tied = list(tied)
            for (owner, steps), arr in per_pattern.items():
                # events of one time extend only strictly earlier matches, so
                # two or more read the counters as they were before them
                prior = arr[:] if len(tied) > 1 else arr
                for e in tied:
                    # predicate context: shared patterns ('' owner) come from
                    # queries without predicates and match every event; owned
                    # patterns use their query's where, once per (event, pattern)
                    matched = not owner or q_by_id[owner].matches(e)
                    for j in range(len(steps), 0, -1):
                        ops += 1
                        if matched and steps[j - 1] == e.etype:
                            arr[j] += prior[j - 1]
        counts = {q.qid: 0 for q in qs}
        for key, arr in per_pattern.items():
            for qid in set(owners[key]):
                counts[qid] += arr[-1]
        m = Metrics(events=len(evs), ops=ops)
        m.peak_mem_bytes = sum(len(v) for v in per_pattern.values()) * 8
        return {qid: {"COUNT(*)": float(n)} for qid, n in counts.items()}, m, None
