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

The set's static analysis (templates, channels, per-type tables) is a
:class:`HamletPlan`, built once; each window instance's engine shares it
and allocates only runtime state (totals, snapshots, the open graphlet,
results).

The runtime state is columnar. Every per-query quantity (per-type totals,
negation cuts, Eq. 3 results, snapshot values) holds one *column* per
value index ``c``, with query ``i``'s entry at position ``i``
(``HamletPlan.pos``). Opening a shared graphlet computes its entry
snapshot for all sharers in one pass per predecessor type over the
positions that have it; closing it resolves each coefficient vector for
all sharers at once (``SnapshotTable.resolve``) and adds the result to
``E``'s totals and to the results of the positions whose templates end at
``E``. Event-level snapshots (a burst event the sharers do not all match)
resolve the graphlet once for all sharers too. Per-event work outside a
shared graphlet stays per query: it reads and writes the same columns at
the query's position.

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


class HamletPlan:
    """The static part of one sharable set's execution: the workload
    analysis of §3.1 plus the lookup tables every window instance reads.

    It holds the queries, their templates, the set's aggregate channels,
    each query's position in the runtime columns, the ONE snapshot's
    columns, the per-type member lists, the position tables of the graphlet
    kernels and the optimizer's constant inputs. A plan
    is built once per executor entry and never changed afterwards, so all
    the :class:`HamletSetEngine` instances of an entry share one plan and
    each holds only its own window's runtime state."""

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
        self.qs = tuple(queries)
        self.by_qid = {q.qid: q for q in self.qs}
        # each query's position in every runtime column
        self.pos = {q.qid: i for i, q in enumerate(self.qs)}
        self.k = len(self.qs)
        self.qids = tuple(sorted(self.by_qid))
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
        self.zero = tuple(zero(self.nch))
        # the ONE snapshot's columns: the start term of a Kleene event. They
        # are the plan's, shared by every engine and never in its runtime
        # state
        self.one = (
            tuple(1 if self.E in self.tpls[q.qid].start else 0 for q in self.qs),
            *((z,) * self.k for z in self.zero[CNT + 1:]),
        )
        self.any_kleene_start = any(self.one[CNT])
        self.types = frozenset().union(*(t.types for t in self.tpls.values()))
        # a graphlet's entry snapshot is the Eq. 2 predecessor sum of E for
        # every sharer: per predecessor edge (type and blocker), the
        # positions whose template has it, in each template's own edge order
        edges: dict[tuple, list[int]] = {}
        for i, q in enumerate(self.qs):
            for j, edge in enumerate(self.tpls[q.qid].pt.get(self.E, ())):
                edges.setdefault((j, edge.ptype, edge.blocker), []).append(i)
        self.e_preds = tuple(
            (ptype, blocker, tuple(idx))
            for (_, ptype, blocker), idx in sorted(edges.items(), key=lambda kv: kv[0][0])
        )
        # the positions whose templates end at E (a closed graphlet's results)
        self.e_end = tuple(
            i for i, q in enumerate(self.qs) if self.E in self.tpls[q.qid].end
        )
        self.edge_pred_qids = frozenset(q.qid for q in self.qs if q.edge_pred)
        # an edge-predicate query's stored records, one list per Kleene type
        self.krec_keys = tuple(
            (q.qid, t) for q in self.qs if q.edge_pred for t in self.tpls[q.qid].kleene
        )
        # the MIN/MAX aggregates of each query that has any
        self.minmax_names = {
            q.qid: names
            for q in self.qs
            if (names := tuple(a.name for a in q.aggs if a.fn in ("MIN", "MAX")))
        }
        # the per-type totals never gain a key, so the memory estimate counts
        # them once
        self.totals_entries = sum(len(t.types) for t in self.tpls.values())
        self.p_avg = sum(
            len(self.tpls[q.qid].pt.get(self.E, ())) for q in self.qs
        ) / max(len(self.qs), 1)
        # fast paths: event type -> member queries, and per type the members
        # with a unary predicate on it; every other member matches every
        # event of the type without a call to ``Query.matches``
        members: dict[str, list[str]] = {}
        with_pred: dict[str, set[str]] = {}
        for q in self.qs:
            for t in self.tpls[q.qid].types:
                members.setdefault(t, []).append(q.qid)
                if q.where.get(t):
                    with_pred.setdefault(t, set()).add(q.qid)
        self.type_members = {t: tuple(qids) for t, qids in members.items()}
        self.type_pred_qids = {t: frozenset(qids) for t, qids in with_pred.items()}
        # the queries whose Kleene-type match varies (predicates on E or edge
        # predicates); for all others the burst match vector is constant-true
        # and needs no per-event evaluation (workload-1 style queries)
        self.kleene_pred_qids = self.type_pred_qids.get(self.E, frozenset()) | self.edge_pred_qids

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

    def by_query(self, cols: Sequence[Sequence]) -> dict[str, tuple]:
        """Columns (one per value index) as each query's value vector."""
        return {qid: tuple(col[i] for col in cols) for qid, i in self.pos.items()}

    def zero_columns(self) -> list[list]:
        """A fresh zero value, one column of ``k`` entries per value index."""
        return [[z] * self.k for z in self.zero]

    def new_engine(self) -> "HamletSetEngine":
        """A fresh engine for one window instance of this set: it shares
        this plan and allocates only runtime state."""
        eng = HamletSetEngine.__new__(HamletSetEngine)
        eng._start(self)
        return eng


class HamletSetEngine:
    """Algorithm 1 over one sharable set, one group, one window instance.

    ``plan`` is the set's shared :class:`HamletPlan`; every other attribute
    is this window instance's runtime state."""

    def __init__(
        self,
        queries: Sequence[Query],
        kleene_type: str,
        *,
        mode: str = "dynamic",
        pane: float = 60.0,
    ):
        self._start(HamletPlan(queries, kleene_type, mode=mode, pane=pane))

    def _start(self, plan: HamletPlan) -> None:
        self.plan = plan
        self.S = SnapshotTable()
        # per-query state, columnar: one column per value index [count,
        # channels...], the query at position plan.pos[qid] -----------------
        self.totals: dict[str, list[list]] = {t: plan.zero_columns() for t in plan.types}
        # (ptype, blocker) -> each query's copy of its ptype totals at its
        # last matched blocker (zero for a query that has seen none)
        self.cuts: dict[tuple, list[list]] = {}
        # an edge-predicate query's stored (event, values) records per Kleene
        # type: its same-type predecessors are checked pairwise (Eq. 2)
        self.krecs: dict[tuple, list] = {key: [] for key in plan.krec_keys}
        self.n_krecs = 0
        # the Eq. 3 sum over end events; under a trailing negation it is
        # pending, and a later matched negative event voids it
        self.res: list[list] = plan.zero_columns()
        self.mm: dict[str, dict[str, list]] = {
            qid: {name: [math.inf, -math.inf] for name in names}
            for qid, names in plan.minmax_names.items()
        }
        # shared graphlet state --------------------------------------------
        self.shared: Optional[dict] = None
        self.burst: list[Event] = []
        self._pane_idx: Optional[int] = None
        self.n_so_far = 0
        self.m = Metrics()

    # -- bookkeeping helpers -------------------------------------------
    def _pred_totals(self, qid: str, etype: str, skip: Optional[str] = None) -> list:
        """The sum of the per-type totals of ``etype``'s predecessor types
        for query ``qid`` (Eq. 2), each less its negation cut. ``skip`` is a
        predecessor type whose values come from elsewhere."""
        p = self.plan
        i = p.pos[qid]
        vals = list(p.zero)
        for edge in p.tpls[qid].pt.get(etype, ()):
            if edge.ptype == skip:
                continue
            self.m.ops += 1
            tot = self.totals[edge.ptype]
            cut = None
            if edge.blocker is not None:
                cut = self.cuts.get((edge.ptype, edge.blocker))
            if cut is None:
                for c, col in enumerate(tot):
                    vals[c] += col[i]
            else:
                for c, (col, cc) in enumerate(zip(tot, cut)):
                    vals[c] += col[i] - cc[i]
        return vals

    def _update_minmax(self, qid: str, e: Event) -> None:
        q = self.plan.by_qid[qid]
        for a in q.aggs:
            if a.fn in ("MIN", "MAX") and a.etype == e.etype:
                v = e.attrs.get(a.attr, 0.0)
                slot = self.mm[qid][a.name]
                slot[0] = min(slot[0], v)
                slot[1] = max(slot[1], v)

    # -- event routing --------------------------------------------------
    def on_event(self, e: Event) -> None:
        p = self.plan
        self.m.events += 1
        pidx = int(e.time // p.pane)
        if self._pane_idx is None:
            self._pane_idx = pidx
        elif pidx != self._pane_idx:
            # pane boundary completes the burst (Definition 10) but does not
            # close the graphlet (Definition 6 closes on other-type matches)
            self._flush_burst()
            self._pane_idx = pidx
        if e.etype == p.E:
            self.burst.append(e)
            return
        matched_by = p.type_members.get(e.etype, ())
        pred = p.type_pred_qids.get(e.etype)
        if pred:
            matched_by = [
                qid for qid in matched_by if qid not in pred or p.by_qid[qid].matches(e)
            ]
        if not matched_by:
            return
        self._flush_burst()
        self._close_graphlet()
        for qid in matched_by:
            if e.etype in p.tpls[qid].neg_types:
                self._on_negative(qid, e)
            else:
                self._store(qid, e, self._value(qid, e))

    def _on_negative(self, qid: str, e: Event) -> None:
        p = self.plan
        i = p.pos[qid]
        tpl = p.tpls[qid]
        for etype, edges in tpl.pt.items():
            for edge in edges:
                if edge.blocker == e.etype:
                    key = (edge.ptype, e.etype)
                    if key not in self.cuts:
                        self.cuts[key] = p.zero_columns()
                    for cc, col in zip(self.cuts[key], self.totals[edge.ptype]):
                        cc[i] = col[i]
        if tpl.trailing_neg == e.etype:
            for col, z in zip(self.res, p.zero):
                col[i] = z

    def _value(self, qid: str, e: Event, vals: Optional[list] = None) -> list:
        """Eq. 2: ``[count, channel values...]`` of matched event ``e`` for
        query ``qid``: the start term, plus the values of ``e``'s
        predecessors, plus ``e``'s own channel terms ``attr(e)·count``.

        The predecessors' values come from the per-type totals, less the
        negation cuts. An edge-predicate query's same-type Kleene
        predecessors come instead from its stored records, checked pairwise.
        A sharer of the open graphlet passes them in ``vals``: the
        graphlet's entry snapshot plus its events so far."""
        p = self.plan
        if vals is None:
            recs = self.krecs.get((qid, e.etype))
            vals = self._pred_totals(qid, e.etype, None if recs is None else e.etype)
            for pev, pvals in recs or ():
                self.m.ops += 1
                if p.by_qid[qid].edge_pred.ok(pev, e):
                    add_into(vals, pvals)
        if e.etype in p.tpls[qid].start:
            vals[CNT] += 1
        for i, c in enumerate(p.channels, CNT + 1):
            if c.etype == e.etype:
                vals[i] += vals[CNT] * (1.0 if c.attr is None else e.attrs.get(c.attr, 0.0))
        return vals

    def _store(self, qid: str, e: Event, vals: list) -> None:
        """Keep the Eq. 2 value of an event outside a shared graphlet: in its
        type's total and stored records, the result (end types) and MIN/MAX."""
        i = self.plan.pos[qid]
        recs = self.krecs.get((qid, e.etype))
        if recs is not None:
            recs.append((e, tuple(vals)))
            self.n_krecs += 1
        for col, v in zip(self.totals[e.etype], vals):
            col[i] += v
        self.m.stored_events += 1
        if e.etype in self.plan.tpls[qid].end:
            for col, v in zip(self.res, vals):
                col[i] += v
            if vals[CNT] > 0:
                self._update_minmax(qid, e)

    # -- Kleene burst handling -----------------------------------------
    def _flush_burst(self) -> None:
        if not self.burst:
            return
        p = self.plan
        burst, self.burst = self.burst, []
        stats = BurstStats(
            b=len(burst),
            qids=p.qids,
            match_vectors={
                qid: tuple(p.by_qid[qid].matches(ev) for ev in burst)
                for qid in p.kleene_pred_qids
            },
            edge_pred_qids=p.edge_pred_qids,
        )
        cur = self.shared["sharers"] if self.shared else frozenset()
        decision = choose_plan(
            stats,
            mode=p.mode,
            n_so_far=self.n_so_far,
            g_active=self.shared["g"] if self.shared else 0,
            # the snapshots the run references: its count vector has one
            # key per snapshot, and the channel vectors reference no others
            s_p_live=len(self.shared["run"][CNT]) if self.shared else 0,
            p_avg=p.p_avg,
        )
        self.m.bursts += 1
        self.m.decisions += 1
        self.m.plans_considered += decision.plans_considered
        if decision.shared:
            self.m.shared_bursts += 1
        if decision.shared != cur:
            if cur:
                self.m.splits += 1  # resolve current sharers (split/collapse)
            self._close_graphlet()
            if len(decision.shared) >= 2:
                self.m.merges += 1 if cur else 0
                self._open_shared(decision.shared)
        # the burst's non-sharers, each on its own totals (Eq. 2)
        shared = self.shared
        others = [
            q.qid for q in p.qs if shared is None or q.qid not in shared["sharers"]
        ]
        pred = p.type_pred_qids.get(p.E, frozenset())
        for ev in burst:
            if shared is not None:
                self._process_shared_event(ev)
            for qid in others:
                if qid not in pred or p.by_qid[qid].matches(ev):
                    self._store(qid, ev, self._value(qid, ev))
        self.n_so_far += len(burst)
        self._note_memory()

    def _open_shared(self, sharers: frozenset) -> None:
        """Open a shared graphlet: its entry snapshot holds each sharer's
        Eq. 2 predecessor sum for ``E``, one pass per predecessor edge over
        the sharers' positions."""
        p = self.plan
        if len(sharers) == p.k:
            idx = None
            ends = None if len(p.e_end) == p.k else p.e_end
            edges = p.e_preds
        else:
            at_set = {p.pos[qid] for qid in sharers}
            idx = tuple(sorted(at_set))
            ends = tuple(i for i in p.e_end if i in at_set)
            edges = [
                (ptype, blocker, tuple(i for i in at if i in at_set))
                for ptype, blocker, at in p.e_preds
            ]
        cols = p.zero_columns()
        for ptype, blocker, at in edges:
            self.m.ops += len(at)
            cut = None if blocker is None else self.cuts.get((ptype, blocker))
            for c, col in enumerate(self.totals[ptype]):
                dst = cols[c]
                if cut is None:
                    for i in at:
                        dst[i] += col[i]
                else:
                    cc = cut[c]
                    for i in at:
                        dst[i] += col[i] - cc[i]
        sid = self.S.create(cols)
        self.m.snapshots_created += 1
        self.shared = {
            "sharers": sharers,
            # the sharers' positions, and those whose templates end at E
            # (None: every position)
            "idx": idx,
            "ends": ends,
            "entry": sid,
            # the events so far, one coefficient vector per value index
            "run": [{} for _ in range(1 + p.nch)],
            "g": 0,
            # the sharers whose match varies per event, and whether any has
            # an edge predicate (each such event gets an event snapshot)
            "pred": sharers & p.type_pred_qids.get(p.E, frozenset()),
            "edge": not sharers.isdisjoint(p.edge_pred_qids),
            # the MIN/MAX sharers that take part (entry count > 0 or start)
            "mm": tuple(
                qid
                for qid in sharers
                if qid in p.minmax_names
                and (cols[CNT][p.pos[qid]] > 0 or p.E in p.tpls[qid].start)
            ),
        }

    def _close_graphlet(self) -> None:
        """Resolve the open graphlet for all sharers at once and add its
        events' values to ``E``'s totals and, where ``E`` ends the
        template, to the results."""
        sh = self.shared
        if sh is None:
            return
        p = self.plan
        run = sh["run"]
        vals = [self.S.resolve(v, p.one) for v in run]
        self.m.ops += len(sh["sharers"]) * len(run[CNT])
        _add_at(self.totals[p.E], vals, sh["idx"])
        _add_at(self.res, vals, sh["ends"])
        self.shared = None
        self.S.gc()

    def _process_shared_event(self, e: Event) -> None:
        p = self.plan
        sh = self.shared
        sharers = sh["sharers"]
        failed = [qid for qid in sh["pred"] if not p.by_qid[qid].matches(e)]
        M = sharers.difference(failed) if failed else sharers
        if not M:
            return
        run = sh["run"]
        if not failed and not sh["edge"]:
            # Eq. 2 over coefficient vectors: the entry snapshot, the events
            # so far, the start term, then each channel's own attr·count term
            entry = sh["entry"]
            cnt: Vec = {(entry, CNT): 1}
            vadd(cnt, run[CNT])
            if p.any_kleene_start:
                cnt[(ONE_ID, CNT)] = cnt.get((ONE_ID, CNT), 0) + 1
            vecs = [cnt]
            for i, c in enumerate(p.channels, CNT + 1):
                v: Vec = {(entry, i): 1.0}
                vadd(v, run[i])
                if c.etype == p.E:
                    vadd(v, cnt, 1.0 if c.attr is None else e.attrs.get(c.attr, 0.0))
                vecs.append(v)
            self.m.coeff_ops += sum(len(v) for v in vecs)
        else:
            # an event snapshot: each matching sharer's Eq. 2 value, zero
            # for the others. The graphlet so far (entry plus run) resolves
            # once for all sharers without an edge predicate.
            cols = p.zero_columns()
            so_far = None
            for qid in M:
                i = p.pos[qid]
                recs = self.krecs.get((qid, p.E))
                if recs is None:
                    if so_far is None:
                        so_far, terms = self._graphlet_so_far()
                    self.m.ops += terms
                    vals = self._value(qid, e, [col[i] for col in so_far])
                else:
                    vals = self._value(qid, e)
                    recs.append((e, tuple(vals)))
                    self.n_krecs += 1
                for col, v in zip(cols, vals):
                    col[i] = v
            y = self.S.create(cols)
            self.m.snapshots_created += 1
            vecs = [{(y, c): 1 if c == CNT else 1.0} for c in range(len(run))]
        for dst, v in zip(run, vecs):
            vadd(dst, v)
        sh["g"] += 1
        self.m.stored_events += 1
        for qid in sh["mm"]:
            if qid in M:
                self._update_minmax(qid, e)

    def _graphlet_so_far(self) -> tuple[list, int]:
        """The open graphlet's entry snapshot plus its events so far,
        resolved for every position, and the number of terms in its count
        vector."""
        sh = self.shared
        vecs = []
        for c, run in enumerate(sh["run"]):
            v: Vec = {(sh["entry"], c): 1 if c == CNT else 1.0}
            vadd(v, run)
            vecs.append(v)
        return [self.S.resolve(v, self.plan.one) for v in vecs], len(vecs[CNT])

    # -- window close ----------------------------------------------------
    def end_window(self) -> None:
        self._flush_burst()
        self._close_graphlet()
        self._note_memory()

    def _note_memory(self) -> None:
        """Analytic peak-memory estimate (bytes) — DESIGN.md substitutions."""
        # snapshot entries, one per (snapshot, query it covers): ONE covers
        # all k queries; every snapshot of the open graphlet, its sharers
        coeffs = 0
        snap_entries = self.plan.k
        if self.shared is not None:
            coeffs = sum(len(run) for run in self.shared["run"])
            snap_entries += len(self.S.vals) * len(self.shared["sharers"])
        mem = (
            self.m.stored_events * 32
            + snap_entries * 16 * (1 + self.plan.nch)
            + coeffs * 16
            + self.n_krecs * 32
            + self.plan.totals_entries * 24
        )
        self.m.peak_mem_bytes = max(self.m.peak_mem_bytes, mem)

    def results(self) -> dict[str, dict[str, float]]:
        """Final aggregates per member query for this window instance."""
        out: dict[str, dict[str, float]] = {}
        for i, q in enumerate(self.plan.qs):
            qid = q.qid
            extremes = {}
            for a in q.aggs:
                if a.fn in ("MIN", "MAX"):
                    lo, hi = self.mm[qid][a.name]
                    v = lo if a.fn == "MIN" else hi
                    extremes[a.name] = v if math.isfinite(v) else math.nan
            vals = [col[i] for col in self.res]
            out[qid] = aggregates(q, self.plan.channels, vals, extremes)
        return out

    def exact_counts(self) -> dict[str, int]:
        return {q.qid: self.res[CNT][i] for i, q in enumerate(self.plan.qs)}


def _add_at(dst: list[list], src: Sequence[Sequence], idx) -> None:
    """``dst[c][i] += src[c][i]`` for every value index ``c`` and every
    position ``i`` in ``idx`` (``None``: every position)."""
    for d, s in zip(dst, src):
        if idx is None:
            d[:] = [a + b for a, b in zip(d, s)]
        else:
            for i in idx:
                d[i] += s[i]


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
