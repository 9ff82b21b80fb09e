"""Hamlet shared online trend aggregation executor (paper §3.3 + §4.2).

One :class:`HamletSetEngine` runs a *sharable set* of queries (same
Kleene type, window, group-by, compatible aggregates — Definition 5)
over one (group, window instance). Events of the shared Kleene type are
buffered into *bursts* (Definition 10); per complete burst the dynamic
optimizer picks the sharing plan (``optimizer.choose_plan``); shared
bursts extend a *shared graphlet* whose per-event intermediate
aggregates are snapshot coefficient vectors (``snapshots.Vec``), while
non-shared members fall back to per-query propagation (Eq. 2). Graphlet
*split* and *merge* (§4.2) happen implicitly when consecutive bursts
choose different sharer sets: the active graphlet is resolved
(collapsed) and a new one opens with a fresh entry snapshot — the
paper's consolidation snapshot ``z``.

Correctness contract (enforced by tests): for every query the final
aggregates equal GRETA's and the brute-force enumeration's, for any
interleaving of sharing decisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .events import Event
from .greta import CNT, Channel, add_into, aggregates, channels_for, zero
from .optimizer import BurstStats, choose_plan
from .queries import Query
from .snapshots import ONE_ID, SnapshotTable, Vec, vadd
from .template import Template, build_template


@dataclass
class Metrics:
    """Execution counters backing the paper's latency/memory discussion."""

    events: int = 0
    stored_events: int = 0  # graph nodes (shared: once; non-shared: per query)
    ops: int = 0  # predecessor/total accesses (Eq. 4 / Eq. 6 work)
    coeff_ops: int = 0  # sparse vector term updates (snapshot propagation)
    snapshots_created: int = 0
    bursts: int = 0
    shared_bursts: int = 0
    decisions: int = 0
    plans_considered: int = 0
    splits: int = 0
    merges: int = 0
    peak_mem_bytes: int = 0

    def absorb(self, other: "Metrics") -> None:
        """Add ``other``'s counters into these; the memory peak is a max."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(
                self,
                f.name,
                max(mine, theirs) if f.name == "peak_mem_bytes" else mine + theirs,
            )


class HamletSetEngine:
    """Algorithm 1 over one sharable set, one group, one window instance."""

    def __init__(
        self,
        queries: Sequence[Query],
        kleene_type: str,
        *,
        mode: str = "dynamic",
        pane: float = 60.0,
    ):
        if mode not in ("dynamic", "static", "nonshared"):
            raise ValueError(mode)
        self.qs = list(queries)
        self.by_qid = {q.qid: q for q in self.qs}
        self.E = kleene_type
        self.mode = mode
        self.pane = pane
        self.tpls: dict[str, Template] = {q.qid: build_template(q) for q in self.qs}
        for q in self.qs:
            if kleene_type not in self.tpls[q.qid].kleene:
                raise ValueError(f"{q.qid} lacks Kleene {kleene_type}+")
        self._validate_minmax()
        # set-level aggregate channels = union over member queries
        chans: list[Channel] = []
        for q in self.qs:
            for c in channels_for(q):
                if c not in chans:
                    chans.append(c)
        self.channels = tuple(chans)
        self.nch = len(chans)
        self.S = SnapshotTable(self.nch)
        self.S.set_one(
            {q.qid: (1 if self.E in self.tpls[q.qid].start else 0) for q in self.qs}
        )
        self._any_kleene_start = any(
            self.E in self.tpls[q.qid].start for q in self.qs
        )
        self.edge_pred_qids = frozenset(q.qid for q in self.qs if q.edge_pred)
        # per-query state: value vectors [count, channels...] -------------
        self._zero = tuple(zero(self.nch))
        self.totals: dict[str, dict[str, list]] = {
            q.qid: {t: zero(self.nch) for t in self.tpls[q.qid].types} for q in self.qs
        }
        self.cuts: dict[tuple, list] = {}  # (qid, ptype, blocker) -> totals copy
        # an edge-predicate query's stored (event, values) records per Kleene
        # type: its same-type predecessors are checked pairwise (Eq. 2)
        self.krecs: dict[tuple, list] = {
            (q.qid, t): [] for q in self.qs if q.edge_pred for t in self.tpls[q.qid].kleene
        }
        # the Eq. 3 sum over end events; under a trailing negation it is
        # pending, and a later matched negative event voids it
        self.res: dict[str, list] = {q.qid: zero(self.nch) for q in self.qs}
        self.mm: dict[str, dict[str, list]] = {
            q.qid: {
                a.name: [math.inf, -math.inf]
                for a in q.aggs
                if a.fn in ("MIN", "MAX")
            }
            for q in self.qs
        }
        # shared graphlet state --------------------------------------------
        self.shared: Optional[dict] = None
        self.burst: list[Event] = []
        self._pane_idx: Optional[int] = None
        self.n_so_far = 0
        self.p_avg = sum(
            len(self.tpls[q.qid].pt.get(self.E, ())) for q in self.qs
        ) / max(len(self.qs), 1)
        self.m = Metrics()
        # fast paths: event-type -> member queries, and the queries whose
        # Kleene-type match is non-trivial (predicates on E or edge preds) —
        # for all others the burst match vector is constant-true and needs
        # no per-event evaluation (workload-1 style fully-sharable queries)
        self._type_members: dict[str, list[str]] = {}
        for q in self.qs:
            for t in self.tpls[q.qid].types:
                self._type_members.setdefault(t, []).append(q.qid)
        self._kleene_pred_qids = frozenset(
            q.qid
            for q in self.qs
            if q.where.get(self.E) or q.edge_pred is not None
        )

    # ------------------------------------------------------------------
    def _validate_minmax(self) -> None:
        for q in self.qs:
            tpl = self.tpls[q.qid]
            for a in q.aggs:
                if a.fn in ("MIN", "MAX"):
                    if a.etype not in tpl.end or tpl.trailing_neg is not None or (
                        q.edge_pred is not None and a.etype in tpl.kleene
                    ):
                        raise ValueError(
                            f"{q.qid}: MIN/MAX supported on end types without "
                            "trailing negation/edge predicates (see DESIGN.md)"
                        )

    # -- bookkeeping helpers -------------------------------------------
    def _pred_totals(self, qid: str, etype: str, skip: Optional[str] = None) -> list:
        """The sum of the per-type totals of ``etype``'s predecessor types
        for query ``qid`` (Eq. 2), each less its negation cut. ``skip`` is a
        predecessor type whose values come from elsewhere."""
        vals = list(self._zero)
        totals = self.totals[qid]
        for edge in self.tpls[qid].pt.get(etype, ()):
            if edge.ptype == skip:
                continue
            self.m.ops += 1
            tot = totals[edge.ptype]
            cut = None
            if edge.blocker is not None:
                cut = self.cuts.get((qid, edge.ptype, edge.blocker))
            add_into(vals, tot if cut is None else [a - b for a, b in zip(tot, cut)])
        return vals

    def _update_minmax(self, qid: str, e: Event) -> None:
        q = self.by_qid[qid]
        for a in q.aggs:
            if a.fn in ("MIN", "MAX") and a.etype == e.etype:
                v = e.attrs.get(a.attr, 0.0)
                slot = self.mm[qid][a.name]
                slot[0] = min(slot[0], v)
                slot[1] = max(slot[1], v)

    # -- event routing --------------------------------------------------
    def on_event(self, e: Event) -> None:
        self.m.events += 1
        pidx = int(e.time // self.pane)
        if self._pane_idx is None:
            self._pane_idx = pidx
        elif pidx != self._pane_idx:
            # pane boundary completes the burst (Definition 10) but does not
            # close the graphlet (Definition 6 closes on other-type matches)
            self._flush_burst()
            self._pane_idx = pidx
        if e.etype == self.E:
            self.burst.append(e)
            return
        matched_by = [
            qid
            for qid in self._type_members.get(e.etype, ())
            if self.by_qid[qid].matches(e)
        ]
        if not matched_by:
            return
        self._flush_burst()
        self._close_graphlet()
        for qid in matched_by:
            tpl = self.tpls[qid]
            if e.etype in tpl.neg_types:
                self._on_negative(qid, e)
            else:
                self._store(qid, e, self._value(qid, e))

    def _on_negative(self, qid: str, e: Event) -> None:
        tpl = self.tpls[qid]
        for etype, edges in tpl.pt.items():
            for edge in edges:
                if edge.blocker == e.etype:
                    self.cuts[(qid, edge.ptype, e.etype)] = list(
                        self.totals[qid][edge.ptype]
                    )
        if tpl.trailing_neg == e.etype:
            self.res[qid] = list(self._zero)

    def _value(self, qid: str, e: Event) -> list:
        """Eq. 2: ``[count, channel values...]`` of matched event ``e`` for
        query ``qid``: the start term, plus the values of ``e``'s
        predecessors, plus ``e``'s own channel terms ``attr(e)·count``.

        The predecessors' values come from the per-type totals, less the
        negation cuts. An edge-predicate query's same-type Kleene
        predecessors come instead from its stored records, checked pairwise.
        A sharer of the open graphlet resolves the graphlet's entry snapshot
        plus its events so far."""
        recs = self.krecs.get((qid, e.etype))
        sh = self.shared
        if recs is None and sh is not None and qid in sh["sharers"]:
            vals = []
            for c, run in enumerate(sh["run"]):
                pv: Vec = {(sh["entry"], c): 1 if c == CNT else 1.0}
                vadd(pv, run)
                vals.append(self.S.resolve(pv, qid))
                if c == CNT:
                    self.m.ops += len(pv)
        else:
            vals = self._pred_totals(qid, e.etype, None if recs is None else e.etype)
            for pev, pvals in recs or ():
                self.m.ops += 1
                if self.by_qid[qid].edge_pred.ok(pev, e):
                    add_into(vals, pvals)
        if e.etype in self.tpls[qid].start:
            vals[CNT] += 1
        for i, c in enumerate(self.channels, CNT + 1):
            if c.etype == e.etype:
                vals[i] += vals[CNT] * (1.0 if c.attr is None else e.attrs.get(c.attr, 0.0))
        return vals

    def _store(self, qid: str, e: Event, vals: list) -> None:
        """Keep the Eq. 2 value of an event outside a shared graphlet: in its
        type's total and stored records, the result (end types) and MIN/MAX."""
        recs = self.krecs.get((qid, e.etype))
        if recs is not None:
            recs.append((e, tuple(vals)))
        add_into(self.totals[qid][e.etype], vals)
        self.m.stored_events += 1
        if e.etype in self.tpls[qid].end:
            add_into(self.res[qid], vals)
            if vals[CNT] > 0:
                self._update_minmax(qid, e)

    # -- Kleene burst handling -----------------------------------------
    def _flush_burst(self) -> None:
        if not self.burst:
            return
        burst, self.burst = self.burst, []
        all_true = (True,) * len(burst)
        stats = BurstStats(
            b=len(burst),
            match_vectors={
                q.qid: (
                    tuple(q.matches(ev) for ev in burst)
                    if q.qid in self._kleene_pred_qids
                    else all_true
                )
                for q in self.qs
            },
            edge_pred_qids=self.edge_pred_qids,
        )
        cur = self.shared["sharers"] if self.shared else frozenset()
        plan = choose_plan(
            stats,
            mode=self.mode,
            n_so_far=self.n_so_far,
            g_active=self.shared["g"] if self.shared else 0,
            s_p_live=self._live_snapshots(),
            p_avg=self.p_avg,
        )
        self.m.bursts += 1
        self.m.decisions += 1
        self.m.plans_considered += plan.plans_considered
        if plan.shared:
            self.m.shared_bursts += 1
        if plan.shared != cur:
            if cur:
                self.m.splits += 1  # resolve current sharers (split/collapse)
            self._close_graphlet()
            if len(plan.shared) >= 2:
                self.m.merges += 1 if cur else 0
                self._open_shared(plan.shared)
        for ev in burst:
            if self.shared is not None:
                self._process_shared_event(ev)
            for q in self.qs:
                if (self.shared is None or q.qid not in self.shared["sharers"]) and q.matches(ev):
                    self._store(q.qid, ev, self._value(q.qid, ev))
        self.n_so_far += len(burst)
        self._note_memory()

    def _live_snapshots(self) -> int:
        if self.shared is None:
            return 0
        return len({sid for run in self.shared["run"] for sid, _ in run})

    def _open_shared(self, sharers: frozenset) -> None:
        per_query: dict[str, tuple] = {}
        for qid in sharers:
            per_query[qid] = tuple(self._pred_totals(qid, self.E))
        sid = self.S.create(per_query)
        self.m.snapshots_created += 1
        self.shared = {
            "sharers": sharers,
            "entry": sid,
            # the events so far, one coefficient vector per value index
            "run": [{} for _ in range(1 + self.nch)],
            "g": 0,
            # MIN/MAX participation gate per query (entry count > 0 or start)
            "gate": {
                qid: per_query[qid][CNT] > 0
                or self.E in self.tpls[qid].start
                for qid in sharers
            },
        }

    def _close_graphlet(self) -> None:
        sh = self.shared
        if sh is None:
            return
        for qid in sh["sharers"]:
            vals = [self.S.resolve(run, qid) for run in sh["run"]]
            self.m.ops += len(sh["run"][CNT])
            add_into(self.totals[qid][self.E], vals)
            if self.E in self.tpls[qid].end:
                add_into(self.res[qid], vals)
        self.shared = None
        self.S.gc()

    def _process_shared_event(self, e: Event) -> None:
        sh = self.shared
        sharers = sh["sharers"]
        if sharers & self._kleene_pred_qids:
            M = frozenset(qid for qid in sharers if self.by_qid[qid].matches(e))
        else:
            M = sharers
        if not M:
            return
        uniform = M == sharers and not (sharers & self.edge_pred_qids)
        run = sh["run"]
        if uniform:
            # Eq. 2 over coefficient vectors: the entry snapshot, the events
            # so far, the start term, then each channel's own attr·count term
            entry = sh["entry"]
            cnt: Vec = {(entry, CNT): 1}
            vadd(cnt, run[CNT])
            if self._any_kleene_start:
                cnt[(ONE_ID, CNT)] = cnt.get((ONE_ID, CNT), 0) + 1
            vecs = [cnt]
            for i, c in enumerate(self.channels, CNT + 1):
                v: Vec = {(entry, i): 1.0}
                vadd(v, run[i])
                if c.etype == self.E:
                    vadd(v, cnt, 1.0 if c.attr is None else e.attrs.get(c.attr, 0.0))
                vecs.append(v)
            self.m.coeff_ops += sum(len(v) for v in vecs)
        else:
            per_query: dict[str, tuple] = {}
            for qid in sharers:
                if qid not in M:
                    per_query[qid] = self._zero
                    continue
                per_query[qid] = tuple(self._value(qid, e))
                recs = self.krecs.get((qid, self.E))
                if recs is not None:
                    recs.append((e, per_query[qid]))
            y = self.S.create(per_query)
            self.m.snapshots_created += 1
            vecs = [{(y, c): 1 if c == CNT else 1.0} for c in range(len(run))]
        for dst, v in zip(run, vecs):
            vadd(dst, v)
        sh["g"] += 1
        self.m.stored_events += 1
        for qid in M:
            if sh["gate"][qid] and self.mm[qid]:
                self._update_minmax(qid, e)

    # -- window close ----------------------------------------------------
    def end_window(self) -> None:
        self._flush_burst()
        self._close_graphlet()
        self._note_memory()

    def _note_memory(self) -> None:
        """Analytic peak-memory estimate (bytes) — DESIGN.md substitutions."""
        coeffs = 0
        if self.shared is not None:
            coeffs = sum(len(run) for run in self.shared["run"])
        snap_entries = sum(len(v) for v in self.S.vals.values())
        krec = sum(len(v) for v in self.krecs.values())
        totals_entries = sum(len(v) for v in self.totals.values())
        mem = (
            self.m.stored_events * 32
            + snap_entries * 16 * (1 + self.nch)
            + coeffs * 16
            + krec * 32
            + totals_entries * 24
        )
        self.m.peak_mem_bytes = max(self.m.peak_mem_bytes, mem)

    def results(self) -> dict[str, dict[str, float]]:
        """Final aggregates per member query for this window instance."""
        out: dict[str, dict[str, float]] = {}
        for q in self.qs:
            qid = q.qid
            extremes = {}
            for a in q.aggs:
                if a.fn in ("MIN", "MAX"):
                    lo, hi = self.mm[qid][a.name]
                    v = lo if a.fn == "MIN" else hi
                    extremes[a.name] = v if math.isfinite(v) else math.nan
            out[qid] = aggregates(q, self.channels, self.res[qid], extremes)
        return out

    def exact_counts(self) -> dict[str, int]:
        return {q.qid: self.res[q.qid][CNT] for q in self.qs}


def run_hamlet_set(
    events: Sequence[Event],
    queries: Sequence[Query],
    kleene_type: str,
    *,
    mode: str = "dynamic",
    pane: float = 60.0,
) -> dict[str, dict[str, float]]:
    """Convenience: one window instance over a sharable set."""
    eng = HamletSetEngine(queries, kleene_type, mode=mode, pane=pane)
    for e in sorted(events, key=lambda x: x.time):
        eng.on_event(e)
    eng.end_window()
    return eng.results()
