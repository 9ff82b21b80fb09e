"""Hamlet shared online trend aggregation executor (paper §3.3 + §4.2).

One :class:`HamletSetEngine` runs a *sharable set* of queries (same
Kleene type, window, group-by, compatible aggregates — Definition 5)
over one (group, window instance). Events of the shared Kleene type are
buffered into *bursts* (Definition 10). A complete burst's sharers are
the plan's fixed decision where it has one (``optimizer.fixed_plan``,
taken once per plan) and otherwise the per-burst Thm 4.1/4.2 and Eq. 8
choice (``optimizer.choose_plan``). Shared
bursts extend a *shared graphlet* whose per-event intermediate
aggregates are coefficient vectors over snapshots, while
non-shared members propagate on their own totals (Eq. 2). Graphlet
*split* and *merge* (§4.2) happen implicitly when consecutive bursts
choose different sharer sets: the active graphlet is resolved
(collapsed) and a new one opens with a fresh entry snapshot — the
paper's consolidation snapshot ``z``. A burst that drops a sharer of the
open graphlet counts as a split, and one that adds a query to it as a
merge. The open graphlet, its snapshots and its vectors are one
``snapshots.Graphlet``, dropped when it closes.

The set's static analysis (templates, channels, per-type tables, result
readers) is a :class:`HamletPlan`, built once from the queries alone, and
once per workload (``engine.window_executors`` hands the same plans to
every run of the same queries); each window instance's engine shares it
and allocates only runtime state (totals, snapshots, the open graphlet,
results). The plan derives the shared
Kleene type ``E`` (the smallest one all its queries have) and the pane
(the gcd of their windows and slides). A set of one query, or of queries
without a common Kleene type, is a plan too: with ``E = None`` no burst
opens, and every event runs the non-shared Eq. 2 kernel.

The runtime state is columnar. Every per-query quantity (per-type totals,
negation cuts, pending Eq. 3 results, snapshot values) holds one *column* per
value index ``c``, with query ``i``'s entry at position ``i``
(``HamletPlan.pos``). Eq. 2 runs over positions, not queries: one kernel
(``_eq2``, ``_keep``), driven by the plan's per-type tables (``_Kernel``),
makes one pass per transition, adds the start and own-channel terms, and
stores the event into its type's totals. Eq. 3 sums over end events, so a
query's result is its end type's totals; only under a trailing negation,
which voids the sum so far, is it a separate pending column.
The tables are the paper's merged template (Fig. 3(b)): a transition is
one entry, labelled with the positions that share it, and a template has
one transition per predecessor type, so no position takes a predecessor
type twice. Non-Kleene events
and a burst's non-sharers run the kernel, and a negative event copies the
totals into the cuts at its positions. A shared graphlet's entry
snapshot is the same predecessor pass over the sharers; closing it
resolves each coefficient vector for all of them at once
(``Graphlet.resolve``). Only an edge-predicate query reads its
Kleene predecessors per query, from its stored records.

A pass that writes a whole column is one C-level pass where Python
allows it: a full-width add is ``map(operator.add, ...)``, a predecessor
sum starts from a copy of the totals of its first transition when that
transition is at every position (``_lead_first``), and a resolved vector
starts from its first term. A pass over some positions stays a loop over
them (they are in general no slice of the column). The results
read each position's value vector through the plan's readers
(``greta.reader``), resolved once per plan.

A burst event's unary predicates on the Kleene type are evaluated once,
as the positions that fail them: the optimizer's miss sets (each query's
failed events, ``BurstStats.misses``) and the cuts of the plan's cached
tables read them, and the open graphlet holds positions only.

Inside a shared graphlet a burst is cut at its divergent events: those a
sharer fails, and every event when a sharer has an edge predicate. Each
divergent event takes an event snapshot. Each gap between two of them,
``b`` uniform events, is one closed-form update of the graphlet's run
(``Graphlet.add_run``), with counts kept exact ints. A burst that no
sharer can diverge on (no unary predicate on ``E``, no edge-predicate
sharer) has no cut, so it is one such run, without a pass over its
events. ``coeff_ops`` counts the coefficient terms such an update
writes, so it does not grow with ``b``. The closed form encodes today's
tie rule: every event of the run counts as later than the ones before
it, equal times included (ROADMAP item 5a; with the tie fix, ``m``
same-time events multiply ``R`` by ``1 + m``, not ``2^m``).

Correctness contract (enforced by tests): for every query the final
aggregates equal GRETA's and the brute-force enumeration's, for any
interleaving of sharing decisions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import add
from typing import NamedTuple, Optional, Sequence

from .events import Event
from .greta import CNT, Channel, aggregates, channels_for, reader, zero
from .optimizer import BurstStats, choose_plan, fixed_plan
from .queries import Query
from .snapshots import Graphlet
from .template import Template, build_template, pane_size


@dataclass
class Metrics:
    """Execution counters backing the paper's latency/memory discussion."""

    events: int = 0
    stored_events: int = 0  # graph nodes (shared: once; non-shared: per query)
    ops: int = 0  # predecessor/total accesses (Eq. 4 / Eq. 6 work)
    coeff_ops: int = 0  # coefficient terms written by closed-form uniform runs
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
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.peak_mem_bytes = max(self.peak_mem_bytes, other.peak_mem_bytes)


_SUMMED = tuple(f.name for f in fields(Metrics) if f.name != "peak_mem_bytes")


_MAX_VIEWS = 32  # restricted copies kept per kernel table set


class _Kernel(NamedTuple):
    """One event type's Eq. 2 tables over a set of positions: what an
    event of the type computes and stores (``HamletSetEngine._eq2``,
    ``_keep``) and what a negative event of the type copies."""

    idx: tuple  # the positions that take the type as a pattern event
    edges: tuple  # (ptype, blocker, positions) per transition into the type
    recs: tuple  # (position, krecs key, edge predicate): same-type records
    starts: tuple  # the positions whose templates start at the type
    pend: tuple  # the positions that end at the type under a trailing negation
    own: tuple  # (value index, attr) of each channel on the type
    mm: tuple  # (position, qid, name, attr) of each MIN/MAX on the type
    checks: tuple  # (position, query) with a unary predicate on the type
    neg: tuple  # the positions that negate the type
    cuts: tuple  # (cut key, positions) that a negative event copies
    voids: tuple  # the positions whose trailing negation is the type
    # the restricted copies made so far, by dropped positions: the same
    # predicate failures and sharer sets recur from event to event
    views: dict

    def without(self, drop) -> "_Kernel":
        """These tables with the positions in the set ``drop`` left out."""
        if not drop:
            return self
        key = frozenset(drop)
        view = self.views.get(key)
        if view is None:
            if len(self.views) >= _MAX_VIEWS:
                self.views.clear()
            view = self.views[key] = self._without(key)
        return view

    def _without(self, drop: frozenset) -> "_Kernel":
        def keep(at):
            return tuple(i for i in at if i not in drop)

        def rows(rs):
            return tuple(r for r in rs if r[0] not in drop)

        def groups(gs):
            return tuple((*g[:-1], at) for g in gs if (at := keep(g[-1])))

        return _Kernel(
            keep(self.idx), groups(self.edges), rows(self.recs), keep(self.starts),
            keep(self.pend), self.own, rows(self.mm), rows(self.checks),
            keep(self.neg), groups(self.cuts), keep(self.voids), {},
        )


def _lead_first(edges: tuple, k: int) -> tuple:
    """``edges`` with the first full-width edge without a blocker moved to
    the front, so that ``_preds`` starts from a copy of its totals, where
    that leaves every position's sum unchanged: each takes at most one
    edge before it, and ``0 + a + b == b + a``. Otherwise ``edges``."""
    seen: set = set()
    for j, (_, blocker, at) in enumerate(edges):
        if blocker is None and len(at) == k:
            return (edges[j], *edges[:j], *edges[j + 1:])
        if not seen.isdisjoint(at):
            break
        seen.update(at)
    return edges


class HamletPlan:
    """The static part of one sharable set's execution: the workload
    analysis of §3.1 plus the lookup tables every window instance reads.

    It holds the queries, their templates, the set's aggregate channels,
    each query's position in the runtime columns, the ONE snapshot's
    count column, the Eq. 2 kernel tables of every event type, the entry
    snapshot's predecessor edges, each query's result source and reader,
    and the optimizer's constant inputs or its fixed decision. A plan is built once per executor entry
    of a workload and never changed afterwards
    (apart from the kernel tables' caches of restricted copies), so all
    the :class:`HamletSetEngine` instances of an entry share one plan and
    each holds only its own window's runtime state."""

    def __init__(self, queries: Sequence[Query], *, mode: str = "dynamic"):
        if mode not in ("dynamic", "static", "nonshared"):
            raise ValueError(mode)
        self.qs = tuple(queries)
        # each query's position in every runtime column
        self.pos = {q.qid: i for i, q in enumerate(self.qs)}
        self.k = len(self.qs)
        self.qids = tuple(sorted(self.pos))
        self.tpls: dict[str, Template] = {q.qid: build_template(q) for q in self.qs}
        # the smallest Kleene type every query has; without one no burst opens
        shared = frozenset.intersection(*(t.kleene for t in self.tpls.values()))
        self.E = min(shared, default=None)
        self.pane = pane_size({x for q in self.qs for x in (q.window, q.slide)})
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
        # per position: where its Eq. 3 sum over end events is (the end
        # type's totals, or ``None``: the pending column under a trailing
        # negation), the query's result reader (``greta.reader``) and its
        # MIN/MAX values' slots in an engine's ``mm``, in the reader's order
        self.readers = tuple(
            (
                q.qid,
                i,
                _result_source(self.tpls[q.qid]),
                reader(q, self.channels),
                tuple(((q.qid, a.name), int(a.fn == "MAX")) for a in q.aggs if a.fn in ("MIN", "MAX")),
            )
            for i, q in enumerate(self.qs)
        )
        # the distinct result sources, in position order
        self.sources = tuple(dict.fromkeys(r[2] for r in self.readers))
        # the ONE snapshot's count column (its channels are zero): the start
        # term of a Kleene event. It is the plan's, shared by every engine
        # and never in its runtime state
        self.one = tuple(1 if self.E in self.tpls[q.qid].start else 0 for q in self.qs)
        self.any_kleene_start = any(self.one)
        # sorted, as is every per-type dict built from them, so that a
        # pickled engine does not depend on the string hash seed
        self.types = tuple(sorted(frozenset().union(*(t.types for t in self.tpls.values()))))
        self.kernels = {t: self._kernel(t) for t in self.types}
        ker = self.kernels.get(self.E) or self._kernel(self.E)  # empty if E is None
        # a graphlet's entry snapshot: E's predecessor sums for every
        # sharer, edge-predicate queries included
        # (not ``kernels[E]``: edge-predicate sharers lose E -> E, and Table 5's y reads (34, 4), not (34, 15))
        self.e_open = self._kernel(self.E, records=False)
        # E's tables at the positions without and with stored records: in an
        # event snapshot the former take the graphlet so far as predecessors
        recd = frozenset(r[0] for r in ker.recs)
        self.e_plain = ker.without(recd)
        self.e_recd = ker.without(frozenset(ker.idx) - recd)
        self.edge_pred_qids = frozenset(q.qid for q in self.qs if q.edge_pred)
        # the sharing decision of every burst, where no burst can change it
        self.fixed = fixed_plan(
            mode=mode, all_qids=frozenset(self.qids), unary_on_kleene=bool(ker.checks),
            edge_preds=bool(self.edge_pred_qids),
        )
        # an edge-predicate query's stored records, one list per Kleene type
        self.krec_keys = tuple(r[1] for ker in self.kernels.values() for r in ker.recs)
        # the per-type totals never gain a key, so the memory estimate counts
        # them once
        self.totals_entries = sum(len(t.types) for t in self.tpls.values())
        self.p_avg = sum(len(self.tpls[q.qid].pt.get(self.E, {})) for q in self.qs) / self.k

    def _kernel(self, t: str, records: bool = True) -> _Kernel:
        """Event type ``t``'s kernel tables over every position whose
        template has it; with ``records``, an edge-predicate query's
        same-type predecessors are its stored records, not an edge."""
        mine = [(i, q, tpl) for i, q in enumerate(self.qs) if t in (tpl := self.tpls[q.qid]).types]
        pos = [m for m in mine if t not in m[2].neg_types]
        neg = [m for m in mine if t in m[2].neg_types]
        recs = tuple(
            (i, (q.qid, t), q.edge_pred)
            for i, q, tpl in pos
            if records and q.edge_pred and t in tpl.kleene
        )
        with_recs = {r[0] for r in recs}
        # one entry per transition (Fig. 3(b)), labelled with its positions
        edges: dict[tuple, list[int]] = {}
        for i, _, tpl in pos:
            for ptype, blocker in tpl.pt.get(t, {}).items():
                if i not in with_recs or ptype != t:
                    edges.setdefault((ptype, blocker), []).append(i)
        cuts: dict[tuple, list[int]] = {}
        for i, _, tpl in neg:
            for ptype in (p for es in tpl.pt.values() for p, b in es.items() if b == t):
                cuts.setdefault((ptype, t), []).append(i)
        return _Kernel(
            tuple(i for i, _, _ in pos),
            # by ptype, as ``build_template`` sorts ``pt``: each position sums in its own order
            _lead_first(
                tuple((pt, b, tuple(edges[pt, b])) for pt, b in sorted(edges, key=lambda e: (e[0], e[1] or ""))),
                self.k,
            ),
            recs,
            tuple(i for i, _, tpl in pos if t in tpl.start),
            tuple(i for i, _, tpl in pos if t in tpl.end and tpl.trailing_neg is not None),
            tuple((c, ch.attr) for c, ch in enumerate(self.channels, CNT + 1) if ch.etype == t),
            tuple(
                (i, q.qid, a.name, a.attr)
                for i, q, _ in pos
                for a in q.aggs
                if a.fn in ("MIN", "MAX") and a.etype == t
            ),
            tuple((i, q) for i, q, _ in mine if q.where.get(t)),
            tuple(i for i, _, _ in neg),
            tuple((key, tuple(at)) for key, at in cuts.items()),
            tuple(i for i, _, tpl in neg if tpl.trailing_neg == t),
            {},
        )

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
        return HamletSetEngine(self)


class HamletSetEngine:
    """Algorithm 1 over one sharable set, one group, one window instance.

    ``plan`` is the set's shared :class:`HamletPlan`; every other attribute
    is this window instance's runtime state."""

    def __init__(self, plan: HamletPlan):
        self.plan = plan
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
        # Eq. 3 sums over end events, so a position's result is its end
        # type's totals; under a trailing negation it is pending instead,
        # and a later matched negative event voids it (``None``: no such
        # position)
        self.pending: Optional[list[list]] = plan.zero_columns() if None in plan.sources else None
        # (qid, name) -> [min, max]: a MIN/MAX is on an end type, in one kernel
        self.mm: dict[tuple, list] = {
            (qid, name): [math.inf, -math.inf] for ker in plan.kernels.values() for _, qid, name, _ in ker.mm
        }
        # the open shared graphlet, if any ---------------------------------
        self.graphlet: Optional[Graphlet] = None
        self.burst: list[Event] = []
        self._pane_idx: Optional[int] = None
        self.n_so_far = 0
        self.m = Metrics()

    # -- the Eq. 2 kernel ------------------------------------------------
    def _preds(self, edges: Sequence) -> list[list]:
        """Eq. 2's predecessor sums at the edges' positions (zero
        elsewhere): one pass per transition over the positions that share
        it, each type's totals less their negation cut. A first edge at
        every position is the sums' start (``_lead_first``)."""
        k = self.plan.k
        cols = None
        for ptype, blocker, at in edges:
            self.m.ops += len(at)
            tot = self.totals[ptype]
            cut = None if blocker is None else self.cuts.get((ptype, blocker))
            if cut is not None:
                tot = [[a - b for a, b in zip(col, cc)] for col, cc in zip(tot, cut)]
            if cols is None:
                if len(at) == k:
                    cols = tot if cut is not None else [col.copy() for col in tot]
                    continue
                cols = self.plan.zero_columns()
            _add_at(cols, tot, at)
        return self.plan.zero_columns() if cols is None else cols

    def _eq2(self, e: Event, ker: _Kernel) -> list[list]:
        """Eq. 2: the ``[count, channel...]`` columns of matched event ``e``
        at ``ker``'s positions (zero elsewhere): the predecessors' values,
        then the start term and ``e``'s own channel terms. An edge-predicate
        position's same-type predecessors are its stored records, checked
        pairwise."""
        cols = self._preds(ker.edges)
        for i, key, edge_pred in ker.recs:
            recs = self.krecs[key]
            self.m.ops += len(recs)
            for pev, pvals in recs:
                if edge_pred.ok(pev, e):
                    for col, v in zip(cols, pvals):
                        col[i] += v
        self._own(e, cols, ker)
        return cols

    def _own(self, e: Event, cols: list[list], ker: _Kernel) -> None:
        """Add the start term and ``e``'s own channel terms
        ``attr(e)·count`` at ``ker``'s positions."""
        cnt = cols[CNT]
        for i in ker.starts:
            cnt[i] += 1
        for c, attr in ker.own:
            a = 1.0 if attr is None else e.attrs.get(attr, 0.0)
            col = cols[c]
            for i in ker.idx:
                col[i] += cnt[i] * a

    def _keep(self, e: Event, ker: _Kernel, cols: list[list]) -> None:
        """Keep an event's Eq. 2 columns outside a shared graphlet: in its
        type's totals and stored records, in the pending results, and in
        MIN/MAX."""
        if ker.recs:
            self._append_recs(e, ker, cols)
        _add_at(self.totals[e.etype], cols, ker.idx)
        self.m.stored_events += len(ker.idx)
        _add_at(self.pending, cols, ker.pend)
        if ker.mm:
            cnt = cols[CNT]
            self._minmax(e, [m for m in ker.mm if cnt[m[0]] > 0])

    def _append_recs(self, e: Event, ker: _Kernel, cols: list[list]) -> None:
        for i, key, _ in ker.recs:
            self.krecs[key].append((e, tuple(col[i] for col in cols)))
        self.n_krecs += len(ker.recs)

    def _minmax(self, e: Event, entries: Sequence) -> None:
        """Fold ``e`` into the MIN/MAX slots of the (position, qid, name,
        attr) entries."""
        for _, qid, name, attr in entries:
            v, slot = e.attrs.get(attr, 0.0), self.mm[qid, name]
            slot[:] = min(slot[0], v), max(slot[1], v)

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
        ker = p.kernels.get(e.etype)
        if ker is None:
            return
        # the positions whose unary predicates ``e`` fails are cut
        ker = ker.without({i for i, q in ker.checks if not q.matches(e)})
        if not ker.idx and not ker.neg:
            return
        self._flush_burst()
        self._close_graphlet()
        if ker.neg:
            self._on_negative(ker)
        if ker.idx:
            self._keep(e, ker, self._eq2(e, ker))

    def _on_negative(self, ker: _Kernel) -> None:
        """A matched negative event: at the positions it blocks, copy the
        predecessor totals into the cuts; at those whose trailing negation
        it is, void the pending results."""
        for key, at in ker.cuts:
            cut = self.cuts.get(key)
            if cut is None:
                cut = self.cuts[key] = self.plan.zero_columns()
            for cc, col in zip(cut, self.totals[key[0]]):
                for i in at:
                    cc[i] = col[i]
        if ker.voids:
            for col, z in zip(self.pending, self.plan.zero):
                for i in ker.voids:
                    col[i] = z

    # -- Kleene burst handling -----------------------------------------
    def _flush_burst(self) -> None:
        if not self.burst:
            return
        p = self.plan
        burst, self.burst = self.burst, []
        # each event's unary predicates on E, evaluated once: the positions
        # that fail them. Both cuts below read them, and so do the miss
        # sets of a decision the burst can change
        checks = p.kernels[p.E].checks
        if checks:
            fails = [frozenset(i for i, q in checks if not q.matches(ev)) for ev in burst]
        else:
            fails = [frozenset()] * len(burst)
        gr = self.graphlet
        decision = p.fixed
        if decision is None:
            stats = BurstStats(
                b=len(burst), qids=p.qids, edge_pred_qids=p.edge_pred_qids,
                misses={q.qid: frozenset(j for j, f in enumerate(fails) if i in f) for i, q in checks},
            )
            decision = choose_plan(
                stats, n_so_far=self.n_so_far, g_active=gr.g if gr else 0,
                s_p_live=gr.live() if gr else 0, p_avg=p.p_avg,
            )
        cur = gr.sharers if gr else frozenset()
        self.m.bursts += 1
        self.m.decisions += 1
        self.m.plans_considered += decision.plans_considered
        if decision.shared:
            self.m.shared_bursts += 1
        if decision.shared != cur:
            # §4.2: a split drops a sharer of the open graphlet, a merge adds
            # one to it
            self.m.splits += bool(cur - decision.shared)
            self.m.merges += bool(cur and decision.shared - cur)
            self._close_graphlet()
            if len(decision.shared) >= 2:
                self._open_shared(decision.shared)
        # E's kernel tables at the sharers' positions (without and with
        # stored records) and at the non-sharers', once per burst; each
        # event then cuts the positions it fails
        gr = self.graphlet
        rest = p.kernels[p.E]
        if gr is not None:
            out = gr.out
            plain, recd = p.e_plain.without(out), p.e_recd.without(out)
            rest = rest.without(p.e_open.without(out).idx) if out else None
            # the divergent events take event snapshots: every event when a
            # sharer has an edge predicate, else those a sharer fails (none
            # without a unary predicate on E); each gap between two is one
            # closed-form update
            if recd.idx:
                cut = range(len(burst))
            else:
                cut = [j for j, f in enumerate(fails) if not f <= out] if checks else ()
            start = 0
            for j in cut:
                self._uniform_run(burst[start:j])
                self._event_snapshot(burst[j], plain, recd, fails[j] - out)
                start = j + 1
            self._uniform_run(burst[start:])
        if rest is not None:
            # the non-sharers, each on its own totals (Eq. 2)
            for ev, failed in zip(burst, fails):
                ker = rest.without(failed)
                if ker.idx:
                    self._keep(ev, ker, self._eq2(ev, ker))
        self.n_so_far += len(burst)
        self._note_memory()

    def _open_shared(self, sharers: frozenset) -> None:
        """Open a shared graphlet: its entry snapshot holds each sharer's
        Eq. 2 predecessor sum for ``E``, one pass per transition over the
        sharers' positions."""
        p = self.plan
        out = frozenset()
        if len(sharers) < p.k:
            out = frozenset(range(p.k)).difference(p.pos[qid] for qid in sharers)
        cols = self._preds(p.e_open.without(out).edges)
        self.m.snapshots_created += 1
        # the MIN/MAX entries of the sharers that take part: entry count > 0
        # or E starts the template
        mm = tuple(
            j for j, (i, *_) in enumerate(p.e_open.mm) if i not in out and (cols[CNT][i] > 0 or p.one[i])
        )
        self.graphlet = Graphlet(sharers, out, cols, mm)

    def _close_graphlet(self) -> None:
        """Resolve the open graphlet for all sharers at once and add its
        events' values to ``E``'s totals and, where ``E`` ends the
        template under a trailing negation, to the pending results."""
        gr = self.graphlet
        if gr is None:
            return
        p = self.plan
        vals = gr.values(p.one)
        self.m.ops += len(gr.sharers) * gr.live()
        ker = p.e_open.without(gr.out)
        _add_at(self.totals[p.E], vals, ker.idx)
        _add_at(self.pending, vals, ker.pend)
        self.graphlet = None

    def _uniform_run(self, evs: Sequence[Event]) -> None:
        """A run of burst events that every sharer matches: one closed-form
        update of the open graphlet (``Graphlet.add_run``)."""
        if not evs:
            return
        p, gr = self.plan, self.graphlet
        sums = [
            sum(1.0 if ch.attr is None else e.attrs.get(ch.attr, 0.0) for e in evs) if ch.etype == p.E else None
            for ch in p.channels
        ]
        self.m.coeff_ops += gr.add_run(len(evs), sums, p.any_kleene_start)
        self.m.stored_events += len(evs)
        if gr.mm:
            mm = [p.e_open.mm[j] for j in gr.mm]
            for e in evs:
                self._minmax(e, mm)

    def _event_snapshot(self, e: Event, plain: _Kernel, recd: _Kernel, failed: frozenset) -> None:
        """A divergent burst event in the open graphlet: an event snapshot
        holds each matching sharer's Eq. 2 value, zero for the others.
        ``plain`` and ``recd`` are E's kernel tables at the sharers without
        and with stored records, and ``failed`` the sharers' positions whose
        unary predicates on E ``e`` fails. The edge-predicate sharers run
        the kernel; for the others the graphlet so far (entry plus run)
        resolves once and stands in for the predecessor sum."""
        p, gr = self.plan, self.graphlet
        if failed:
            plain, recd = plain.without(failed), recd.without(failed)
            if not plain.idx and not recd.idx:
                return
        cols = self._eq2(e, recd)
        if plain.idx:
            so_far, n = gr.so_far(p.one)
            self.m.ops += n * len(plain.idx)
            for col, src in zip(cols, so_far):
                for i in plain.idx:
                    col[i] = src[i]
            self._own(e, cols, plain)
        self._append_recs(e, recd, cols)
        gr.add_snapshot(cols)
        self.m.snapshots_created += 1
        self.m.stored_events += 1
        if gr.mm:
            mm = p.e_open.mm
            self._minmax(e, [mm[j] for j in gr.mm if mm[j][0] not in failed])

    # -- window close ----------------------------------------------------
    def end_window(self) -> None:
        self._flush_burst()
        self._close_graphlet()
        self._note_memory()

    def _note_memory(self) -> None:
        """Analytic peak-memory estimate (bytes) — DESIGN.md substitutions."""
        # snapshot entries, one per (snapshot, query it covers): ONE covers
        # all k queries; every snapshot of the open graphlet, its sharers
        coeffs, snaps = self.graphlet.size() if self.graphlet is not None else (0, 0)
        mem = (
            self.m.stored_events * 32
            + (self.plan.k + snaps) * 16 * (1 + self.plan.nch)
            + coeffs * 16
            + self.n_krecs * 32
            + self.plan.totals_entries * 24
        )
        self.m.peak_mem_bytes = max(self.m.peak_mem_bytes, mem)

    def results(self) -> dict[str, dict[str, float]]:
        """Final aggregates per member query for this window instance."""
        mm = self.mm
        out: dict[str, dict[str, float]] = {}
        # one value vector per position of each result column, read by the
        # plan's readers
        rows = {src: list(zip(*self._sums(src))) for src in self.plan.sources}
        for qid, i, src, rd, slots in self.plan.readers:
            vals = rows[src][i]
            if slots:
                extremes = (mm[key][hi] for key, hi in slots)
                vals = (*vals, *(v if math.isfinite(v) else math.nan for v in extremes))
            out[qid] = aggregates(rd, vals)
        return out

    def exact_counts(self) -> dict[str, int]:
        return {qid: self._sums(src)[CNT][i] for qid, i, src, *_ in self.plan.readers}

    def _sums(self, src: Optional[str]) -> list[list]:
        """The columns that hold Eq. 3's sums at the positions whose
        result source (``HamletPlan.readers``) is ``src``."""
        return self.pending if src is None else self.totals[src]


def _result_source(tpl: Template) -> Optional[str]:
    """Where a position's Eq. 3 sum over end events is: the totals of its
    one end type (``build_template`` gives each template one), or ``None``,
    the pending column, under a trailing negation: a voided total cannot be
    subtracted from a float channel without rounding."""
    (end,) = tpl.end
    return None if tpl.trailing_neg is not None else end


def _add_at(dst: list[list], src: Sequence[Sequence], idx) -> None:
    """``dst[c][i] += src[c][i]`` for every value index ``c`` and every
    position ``i`` in ``idx``."""
    if not idx:
        return
    if len(idx) == len(dst[CNT]):
        for d, s in zip(dst, src):
            d[:] = map(add, d, s)
    else:
        for d, s in zip(dst, src):
            for i in idx:
                d[i] += s[i]


def run_hamlet_set(
    events: Sequence[Event], queries: Sequence[Query], *, mode: str = "dynamic"
) -> dict[str, dict[str, float]]:
    """Convenience: one window instance over a sharable set."""
    eng = HamletPlan(queries, mode=mode).new_engine()
    for e in sorted(events, key=lambda x: x.time):
        eng.on_event(e)
    eng.end_window()
    return eng.results()
