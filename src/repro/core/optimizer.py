"""Dynamic sharing optimizer (paper §4).

Implements the two benefit models — Definition 11 (the simple form used
in the worked examples Eq. 9–11) and Definition 12 / Eq. 8 (the refined
form with ``log2(g)`` insertion cost and predecessor-type factor ``p``)
— plus the per-burst sharing decision with the pruning principles of
Theorems 4.1 and 4.2: queries that introduce no snapshots always share;
each snapshot-introducing query is included iff its marginal snapshot
cost is below its re-computation cost, so only the m+1 Level-1/2 plans
of the Fig. 7 lattice are ever evaluated. Where no burst can change the
decision (``fixed_plan``), the executor takes it once per plan.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional


@dataclass(frozen=True)
class CostModel:
    """Paper cost formulas. All arguments follow Table 2 notation."""

    # Definition 12 / Eq. 8 ------------------------------------------------
    def shared_cost(self, *, b: float, n: float, g: float, s_c: float, s_p: float, k: float, p: float) -> float:
        return s_c * k * g * p + b * (math.log2(max(g, 1.0) + 1e-12) + n * max(s_p, 1.0))

    def nonshared_cost(self, *, b: float, n: float, g: float, k: float) -> float:
        return k * b * (math.log2(max(g, 1.0) + 1e-12) + n)

    def benefit(self, *, b: float, n: float, g: float, s_c: float, s_p: float, k: float, p: float) -> float:
        return self.nonshared_cost(b=b, n=n, g=g, k=k) - self.shared_cost(
            b=b, n=n, g=g, s_c=s_c, s_p=s_p, k=k, p=p
        )

    # Definition 11 (simple model, used by the paper's Eq. 9–11 examples) --
    def shared_cost_simple(self, *, b: float, n: float, g: float, s_c: float, s_p: float, k: float, t: float) -> float:
        return b * n * s_p + s_c * k * g * t

    def nonshared_cost_simple(self, *, b: float, n: float, k: float) -> float:
        return k * b * n

    def benefit_simple(self, *, b: float, n: float, g: float, s_c: float, s_p: float, k: float, t: float) -> float:
        return self.nonshared_cost_simple(b=b, n=n, k=k) - self.shared_cost_simple(
            b=b, n=n, g=g, s_c=s_c, s_p=s_p, k=k, t=t
        )


_COST = CostModel()


@dataclass
class BurstStats:
    """Statistics of one complete burst, gathered by the executor before
    deciding (Definition 10/11): per-query match bit-vectors over the
    burst plus which queries carry Kleene edge predicates (those diverge
    on every event — Definition 9, so their vectors are never read). A
    query absent from ``match_vectors`` matches every event of the burst:
    Hamlet builds vectors only for the queries with a unary predicate on
    the Kleene type, from the same per-event predicate failures its burst
    execution reads. ``all_qids`` is ``frozenset(qids)``, the sharer set
    when every query shares; Hamlet passes its plan's, built once."""

    b: int
    qids: tuple  # every member query, sorted
    match_vectors: Mapping[str, tuple]  # qid -> tuple[bool, ...] length b
    edge_pred_qids: frozenset
    all_qids: Optional[frozenset] = None

    def __post_init__(self):
        if self.all_qids is None:
            self.all_qids = frozenset(self.qids)


@dataclass
class SharingPlan:
    """Outcome of one per-burst decision."""

    shared: frozenset  # qids sharing the burst's graphlet ('' empty = split)
    s_c_est: int = 0
    m_snapshot_queries: int = 0
    plans_considered: int = 1


def _divergent_events(stats: BurstStats) -> dict[str, int]:
    """Per query: number of burst events where its match vector differs from
    the reference vector (each such event forces an event-level snapshot).

    The reference is the majority vector among the queries without edge
    predicates; queries matching it introduce no snapshots (Thm 4.1)."""
    all_true = (True,) * stats.b
    vecs = {qid: stats.match_vectors.get(qid, all_true) for qid in stats.qids}
    vec_counts = Counter(
        mv for qid, mv in vecs.items() if qid not in stats.edge_pred_qids
    )
    reference = vec_counts.most_common(1)[0][0] if vec_counts else all_true
    out = {}
    for qid, mv in vecs.items():
        if qid in stats.edge_pred_qids:
            out[qid] = stats.b  # edge predicates diverge on every event
        else:
            out[qid] = sum(1 for a, r in zip(mv, reference) if a != r)
    return out


def fixed_plan(
    *, mode: str, all_qids: frozenset, unary_on_kleene: bool, edge_preds: bool
) -> Optional[SharingPlan]:
    """The decision :func:`choose_plan` returns for every burst of a set of
    queries ``all_qids``, where no burst can change it, and ``None`` where
    one can. ``unary_on_kleene``: some query has a unary predicate on the
    Kleene type; ``edge_preds``: some query has an edge predicate.

    Under 'static' and 'nonshared' the decision never reads the burst.
    Under 'dynamic' it is fixed when ``k >= 3`` queries have neither kind of
    predicate: by Thm 4.1 every query shares (no match vector to build, no
    snapshot, ``s_c = 0``), and since such a graphlet's run references only
    its entry and ONE (``s_p <= 2``), Eq. 8's benefit is
    ``b·((k - 1)·log2 g + n·(k - s_p)) >= b·n > 0``. With ``k = 2`` and
    ``s_p = 2`` it is ``b·log2 g``, which may round to 0, so such a pair
    decides per burst."""
    k = len(all_qids)
    if mode == "static":
        return SharingPlan(shared=all_qids if k > 1 else frozenset())
    if mode == "nonshared" or k < 2:
        return SharingPlan(shared=frozenset())
    if k >= 3 and not unary_on_kleene and not edge_preds:
        return SharingPlan(shared=all_qids)
    return None


def choose_plan(
    stats: BurstStats,
    *,
    mode: str,
    n_so_far: int,
    g_active: int,
    s_p_live: int,
    p_avg: float,
) -> SharingPlan:
    """Per-burst sharing decision (§4.2 + §4.3).

    ``mode``: 'dynamic' (Hamlet), 'static' (always share everything —
    the compile-time strawman of Figs. 12–13), 'nonshared' (GRETA path).
    """
    qids = stats.qids
    k_all = len(qids)
    if mode == "static":
        return SharingPlan(shared=stats.all_qids if k_all > 1 else frozenset())
    if mode == "nonshared" or k_all < 2 or stats.b == 0:
        return SharingPlan(shared=frozenset())
    assert mode == "dynamic", mode

    b, g = stats.b, max(g_active + stats.b, 1)
    n = max(n_so_far, 1)
    if stats.match_vectors or stats.edge_pred_qids:
        div = _divergent_events(stats)
        shared = [qid for qid in qids if div[qid] == 0]
        others = [qid for qid in qids if div[qid] > 0]
        # Thm 4.2 marginal test per snapshot-introducing query (Eq. 14):
        # share q iff the snapshots it introduces cost less than
        # recomputing it.
        for qid in others:
            snap_cost = div[qid] * g * max(p_avg, 1.0)
            recompute_cost = b * (math.log2(max(g, 1.0)) + n)
            if snap_cost <= recompute_cost:
                shared.append(qid)
        s_c = max((div[qid] for qid in shared), default=0)
    else:
        # Thm 4.1 fast path: every query matches every event, so none
        # introduces a snapshot and all of them are candidates; the
        # frozenset below returns this set itself
        shared, others, s_c = stats.all_qids, (), 0
    plans = 1 + len(others)
    if len(shared) < 2:
        return SharingPlan(
            shared=frozenset(), m_snapshot_queries=len(others), plans_considered=plans
        )
    # Overall share-vs-split decision for the chosen set (Eq. 8).
    ben = _COST.benefit(
        b=b, n=n, g=g, s_c=s_c, s_p=max(s_p_live, 1), k=len(shared), p=max(p_avg, 1.0)
    )
    if ben <= 0:
        return SharingPlan(
            shared=frozenset(), s_c_est=s_c, m_snapshot_queries=len(others), plans_considered=plans
        )
    return SharingPlan(
        shared=frozenset(shared), s_c_est=s_c, m_snapshot_queries=len(others), plans_considered=plans
    )
