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
from .greta import Channel, aggregates, channels_for
from .optimizer import BurstStats, choose_plan
from .queries import Query
from .snapshots import CNT, ONE_ID, SnapshotTable, Vec, vadd
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
        # per-query state ---------------------------------------------------
        z = lambda: [0] + [0.0] * self.nch
        self.totals: dict[str, dict[str, list]] = {
            q.qid: {t: z() for t in self.tpls[q.qid].types} for q in self.qs
        }
        self.cuts: dict[tuple, list] = {}  # (qid, ptype, blocker) -> totals copy
        # an edge-predicate query's stored (event, values) records per Kleene
        # type: its same-type predecessors are checked pairwise (Eq. 2)
        self.krecs: dict[tuple, list] = {
            (q.qid, t): [] for q in self.qs if q.edge_pred for t in self.tpls[q.qid].kleene
        }
        self.r_cnt: dict[str, int] = {q.qid: 0 for q in self.qs}
        self.r_chan: dict[str, list] = {q.qid: [0.0] * self.nch for q in self.qs}
        self.p_cnt: dict[str, int] = {q.qid: 0 for q in self.qs}
        self.p_chan: dict[str, list] = {q.qid: [0.0] * self.nch for q in self.qs}
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
    def _eff_total(self, qid: str, ptype: str, blocker: Optional[str]) -> list:
        tot = self.totals[qid][ptype]
        self.m.ops += 1
        if blocker is None:
            return tot
        cut = self.cuts.get((qid, ptype, blocker))
        if cut is None:
            return tot
        return [a - b for a, b in zip(tot, cut)]

    def _add_into(self, dst: list, src: Sequence) -> None:
        dst[0] += src[0]
        for i in range(1, 1 + self.nch):
            dst[i] += src[i]

    def _accum_result(self, qid: str, vals: Sequence) -> None:
        tpl = self.tpls[qid]
        if tpl.trailing_neg is not None:
            self.p_cnt[qid] += vals[0]
            for i in range(self.nch):
                self.p_chan[qid][i] += vals[1 + i]
        else:
            self.r_cnt[qid] += vals[0]
            for i in range(self.nch):
                self.r_chan[qid][i] += vals[1 + i]

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
            self.p_cnt[qid] = 0
            self.p_chan[qid] = [0.0] * self.nch

    def _value(self, qid: str, e: Event) -> list:
        """Eq. 2: ``[count, channel values...]`` of matched event ``e`` for
        query ``qid``: the start term, plus the values of ``e``'s
        predecessors, plus ``e``'s own channel terms ``attr(e)·count``.

        The predecessors' values come from the per-type totals, less the
        negation cuts. An edge-predicate query's same-type Kleene
        predecessors come instead from its stored records, checked pairwise.
        A sharer of the open graphlet resolves the graphlet's entry snapshot
        plus its events so far."""
        tpl = self.tpls[qid]
        vals = [1 if e.etype in tpl.start else 0] + [0.0] * self.nch
        recs = self.krecs.get((qid, e.etype))
        sh = self.shared
        if recs is None and sh is not None and qid in sh["sharers"]:
            pe: Vec = {(sh["entry"], CNT): 1}
            vadd(pe, sh["run_cnt"])
            vals[0] += self.S.resolve(pe, qid)
            self.m.ops += len(pe)
            for i in range(self.nch):
                pv: Vec = {(sh["entry"], i): 1.0}
                vadd(pv, sh["run_chan"][i])
                vals[1 + i] = float(self.S.resolve(pv, qid))
        else:
            for edge in tpl.pt.get(e.etype, ()):
                if recs is None or edge.ptype != e.etype:
                    self._add_into(vals, self._eff_total(qid, edge.ptype, edge.blocker))
            for pev, pvals in recs or ():
                self.m.ops += 1
                if self.by_qid[qid].edge_pred.ok(pev, e):
                    self._add_into(vals, pvals)
        for i, c in enumerate(self.channels):
            if c.etype == e.etype:
                scale = 1.0 if c.attr is None else e.attrs.get(c.attr, 0.0)
                vals[1 + i] += vals[0] * scale
        return vals

    def _store(self, qid: str, e: Event, vals: list) -> None:
        """Keep the Eq. 2 value of an event outside a shared graphlet: in its
        type's total and stored records, the result (end types) and MIN/MAX."""
        recs = self.krecs.get((qid, e.etype))
        if recs is not None:
            recs.append((e, tuple(vals)))
        self._add_into(self.totals[qid][e.etype], vals)
        self.m.stored_events += 1
        if e.etype in self.tpls[qid].end:
            self._accum_result(qid, vals)
            if vals[0] > 0:
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
        ids = {k[0] for k in self.shared["run_cnt"]}
        for v in self.shared["run_chan"]:
            ids.update(k[0] for k in v)
        return len(ids)

    def _open_shared(self, sharers: frozenset) -> None:
        per_query: dict[str, tuple] = {}
        for qid in sharers:
            tpl = self.tpls[qid]
            vals = [0] + [0.0] * self.nch
            for edge in tpl.pt.get(self.E, ()):
                self._add_into(vals, self._eff_total(qid, edge.ptype, edge.blocker))
            per_query[qid] = (vals[0], *vals[1:])
        sid = self.S.create(per_query)
        self.m.snapshots_created += 1
        self.shared = {
            "sharers": sharers,
            "entry": sid,
            "run_cnt": {},
            "run_chan": [dict() for _ in range(self.nch)],
            "g": 0,
            # MIN/MAX participation gate per query (entry count > 0 or start)
            "gate": {
                qid: per_query[qid][0] > 0
                or self.E in self.tpls[qid].start
                for qid in sharers
            },
        }

    def _close_graphlet(self) -> None:
        sh = self.shared
        if sh is None:
            return
        for qid in sh["sharers"]:
            c = self.S.resolve(sh["run_cnt"], qid)
            self.m.ops += len(sh["run_cnt"])
            vals = [c] + [
                float(self.S.resolve(sh["run_chan"][i], qid)) for i in range(self.nch)
            ]
            self._add_into(self.totals[qid][self.E], vals)
            if self.E in self.tpls[qid].end:
                self._accum_result(qid, vals)
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
        entry = sh["entry"]
        if uniform:
            vec_cnt: Vec = {(entry, CNT): 1}
            vadd(vec_cnt, sh["run_cnt"])
            if self._any_kleene_start:
                vec_cnt[(ONE_ID, CNT)] = vec_cnt.get((ONE_ID, CNT), 0) + 1
            vec_chan: list[Vec] = []
            for i, c in enumerate(self.channels):
                v: Vec = {(entry, i): 1.0}
                vadd(v, sh["run_chan"][i])
                if c.etype == self.E:
                    scale = 1.0 if c.attr is None else e.attrs.get(c.attr, 0.0)
                    vadd(v, vec_cnt, scale)
                vec_chan.append(v)
            self.m.coeff_ops += len(vec_cnt) + sum(len(v) for v in vec_chan)
        else:
            per_query: dict[str, tuple] = {}
            for qid in sharers:
                if qid not in M:
                    per_query[qid] = (0, *([0.0] * self.nch))
                    continue
                per_query[qid] = tuple(self._value(qid, e))
                recs = self.krecs.get((qid, self.E))
                if recs is not None:
                    recs.append((e, per_query[qid]))
            y = self.S.create(per_query)
            self.m.snapshots_created += 1
            vec_cnt = {(y, CNT): 1}
            vec_chan = [{(y, i): 1.0} for i in range(self.nch)]
        vadd(sh["run_cnt"], vec_cnt)
        for i in range(self.nch):
            vadd(sh["run_chan"][i], vec_chan[i])
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
            coeffs = len(self.shared["run_cnt"]) + sum(
                len(v) for v in self.shared["run_chan"]
            )
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
            out[qid] = aggregates(
                q,
                self.channels,
                self.r_cnt[qid] + self.p_cnt[qid],
                [a + b for a, b in zip(self.r_chan[qid], self.p_chan[qid])],
                extremes,
            )
        return out

    def exact_counts(self) -> dict[str, int]:
        return {q.qid: self.r_cnt[q.qid] + self.p_cnt[q.qid] for q in self.qs}


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
