"""Sharing decisions (paper §4).

The two benefit models are plain functions: Definition 11 (the simple
form of the worked examples Eq. 9–11) and Definition 12 / Eq. 8 (the
refined form with ``log2(g)`` insertion cost and predecessor-type factor
``p``). A sharable set's decision has one home per kind:

- ``fixed_plan`` takes, once per plan, every decision no burst can
  change: 'static' shares all, 'nonshared' and a single query share
  nothing, and under 'dynamic' three or more queries without a unary
  predicate on the Kleene type or an edge predicate all share (Thm 4.1,
  Eq. 8);
- ``choose_plan`` is the per-burst dynamic decision of every other set of
  two or more queries, with the pruning principles of Theorems 4.1 and
  4.2: queries that introduce no snapshots always share; each
  snapshot-introducing query is included iff its marginal snapshot cost
  is below its re-computation cost, so only the m+1 Level-1/2 plans of
  the Fig. 7 lattice are ever evaluated; Eq. 8 then decides whether the
  chosen set shares the burst.

Both theorems read a burst as each query's missed events, one set of
burst indexes (the complement of the paper's match bit vector): the same
per-event failures at which the executor cuts the shared graphlet.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional


# Definition 12 / Eq. 8 ----------------------------------------------------
# All arguments follow Table 2 notation.
def shared_cost(*, b: float, n: float, g: float, s_c: float, s_p: float, k: float, p: float) -> float:
    return s_c * k * g * p + b * (math.log2(max(g, 1.0) + 1e-12) + n * max(s_p, 1.0))


def nonshared_cost(*, b: float, n: float, g: float, k: float) -> float:
    return k * b * (math.log2(max(g, 1.0) + 1e-12) + n)


def benefit(*, b: float, n: float, g: float, s_c: float, s_p: float, k: float, p: float) -> float:
    return nonshared_cost(b=b, n=n, g=g, k=k) - shared_cost(b=b, n=n, g=g, s_c=s_c, s_p=s_p, k=k, p=p)


# Definition 11 (simple model, used by the paper's Eq. 9–11 examples) --------
def shared_cost_simple(*, b: float, n: float, g: float, s_c: float, s_p: float, k: float, t: float) -> float:
    return b * n * s_p + s_c * k * g * t


def nonshared_cost_simple(*, b: float, n: float, k: float) -> float:
    return k * b * n


def benefit_simple(*, b: float, n: float, g: float, s_c: float, s_p: float, k: float, t: float) -> float:
    return nonshared_cost_simple(b=b, n=n, k=k) - shared_cost_simple(
        b=b, n=n, g=g, s_c=s_c, s_p=s_p, k=k, t=t
    )


@dataclass
class BurstStats:
    """Statistics of one complete burst, gathered by the executor before
    deciding (Definitions 9–11): per query, the indexes of the burst events
    it fails, plus which queries carry Kleene edge predicates (those
    diverge on every event — Definition 9, so their miss sets are never
    read). A query absent from ``misses`` fails none: Hamlet builds miss
    sets only for the queries with a unary predicate on the Kleene type,
    from the same per-event predicate failures its burst execution reads."""

    b: int
    qids: tuple  # every member query, sorted
    misses: Mapping[str, frozenset]  # qid -> indexes in range(b) it fails
    edge_pred_qids: frozenset


@dataclass
class SharingPlan:
    """Outcome of one per-burst decision."""

    shared: frozenset  # qids sharing the burst's graphlet ('' empty = split)
    s_c_est: int = 0
    m_snapshot_queries: int = 0
    plans_considered: int = 1


def _divergent_events(stats: BurstStats) -> dict[str, int]:
    """Per query: the number of burst events where it diverges from the
    reference (each such event forces an event-level snapshot).

    The reference is the most common miss set among the queries without
    edge predicates, the first in ``qids`` order on a tie; queries that
    miss exactly its events introduce no snapshots (Thm 4.1). A query
    diverges on the events that it or the reference misses, but not both
    (the Hamming distance of the paper's bit vectors), and on every event
    under an edge predicate."""
    misses = {qid: stats.misses.get(qid, frozenset()) for qid in stats.qids}
    common = Counter(m for qid, m in misses.items() if qid not in stats.edge_pred_qids)
    reference = common.most_common(1)[0][0] if common else frozenset()
    return {
        qid: stats.b if qid in stats.edge_pred_qids else len(m ^ reference)
        for qid, m in misses.items()
    }


def fixed_plan(
    *, mode: str, all_qids: frozenset, unary_on_kleene: bool, edge_preds: bool
) -> Optional[SharingPlan]:
    """The decision of every burst of a set of queries ``all_qids``, where
    no burst can change it, and ``None`` where one can: then
    :func:`choose_plan` decides per burst. ``unary_on_kleene``: some query
    has a unary predicate on the Kleene type; ``edge_preds``: some query
    has an edge predicate.

    'static' (the compile-time strawman of Figs. 12–13) shares every burst
    among all queries and 'nonshared' (the GRETA path) none; neither reads
    the burst. A single query shares with no one. Under 'dynamic' the
    decision is fixed when ``k >= 3`` queries have neither kind of
    predicate: by Thm 4.1 every query shares (no miss set to build, no
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
    stats: BurstStats, *, n_so_far: int, g_active: int, s_p_live: int, p_avg: float
) -> SharingPlan:
    """The dynamic decision for one burst of a set of two or more queries
    whose plan has no fixed one (§4.2 + §4.3): Thm 4.1 puts every query
    that introduces no snapshot in the sharer set, Thm 4.2 adds each of the
    ``m`` others whose snapshots cost less than recomputing it, and Eq. 8
    decides whether the chosen set shares the burst at all."""
    qids = stats.qids
    b, g = stats.b, max(g_active + stats.b, 1)
    n = max(n_so_far, 1)
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
    m = len(others)
    if len(shared) < 2:
        return SharingPlan(shared=frozenset(), m_snapshot_queries=m, plans_considered=1 + m)
    # Overall share-vs-split decision for the chosen set (Eq. 8).
    ben = benefit(
        b=b, n=n, g=g, s_c=s_c, s_p=max(s_p_live, 1), k=len(shared), p=max(p_avg, 1.0)
    )
    return SharingPlan(
        shared=frozenset(shared) if ben > 0 else frozenset(), s_c_est=s_c,
        m_snapshot_queries=m, plans_considered=1 + m,
    )
