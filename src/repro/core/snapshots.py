"""Snapshot algebra for shared trend aggregation (paper §3.3).

A *snapshot* is a variable whose per-query values live in the snapshot
table ``S`` (paper data structure (3)). A value is the Eq. 2 vector
``(count, channel_1, ..., channel_m)`` of ``greta``: the trend count at
index ``CNT = 0``, then one entry per linear aggregate channel
(COUNT(E)/SUM).
Inside a shared graphlet, each event's intermediate aggregates are
sparse *coefficient vectors* over snapshots (data structure (2) — the
paper's example ``count(b6, Q) = 4x + z`` is the vector ``{x:4, z:1}``).

Vectors are dicts keyed by ``(snapshot_id, c)``, where ``c`` indexes the
snapshot's value vector. A SUM channel may reference the *count* value
of a snapshot (the ``attr(e)·count(e)`` term), which is why the index is
part of the key. Only :class:`Graphlet` reads or writes the keys: the
open graphlet holds its table ``S`` and vectors, and both die with it.

The table is columnar: a snapshot's value is one *column* per value
index ``c``, a sequence holding query ``i``'s entry at position ``i``
(the query's position in its ``HamletPlan``). So one pass over a
coefficient vector resolves it for every query of the sharable set at
once (``Graphlet.resolve``), in the manner of MonetDB/X100's
column-at-a-time primitives. The constant ONE snapshot (the start term)
is not a table entry: its one count column is the plan's, and
``resolve`` takes it as an argument.
"""
from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .greta import CNT

Vec = Dict[Tuple[int, int], float]  # (snapshot id, value index) -> coefficient
Columns = Sequence[Sequence]  # one column per value index, one entry per query

ONE_ID = -1  # the constant snapshot: count 1/0 per query, never in a table
ENTRY = 0  # a graphlet's entry snapshot; its event snapshots follow


def vadd(dst: Vec, src: Vec, scale: float = 1) -> None:
    """``dst += scale * src`` in place (sparse); an int scale keeps counts exact."""
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + scale * v


class Graphlet:
    """An open shared graphlet: its sharers, its snapshot table and the
    *run*, the summed coefficient vectors of its events so far (one per
    value index). It is dropped when it closes: no live vector references
    its snapshots any more (and the peak-memory estimate stays honest
    across graphlet closures).

    ``snaps[sid][c][i]`` is the value at index ``c`` of snapshot ``sid`` for
    the query at position ``i``, with the count (``c = 0``) kept as an
    exact Python int (trend counts are astronomically large — 2^g — and
    must not lose precision) and channels as floats. A position whose query
    the snapshot does not cover holds that index's zero."""

    __slots__ = ("sharers", "out", "mm", "g", "run", "snaps")

    def __init__(self, sharers: frozenset, out: frozenset, entry: Columns, mm: tuple):
        self.sharers = sharers
        # the non-sharers' positions: the plan's tables cut by them are
        # the graphlet's (kernel tables stay out of the runtime state)
        self.out = out
        # the taking-part sharers' MIN/MAX entries (indexes into ``e_open.mm``)
        self.mm = mm
        self.g = 0
        self.run: list[Vec] = [{} for _ in entry]
        self.snaps: list[Columns] = [entry]

    def __getstate__(self):
        # the sets sorted, so that a pickled graphlet does not depend on the
        # string hash seed
        return sorted(self.sharers), sorted(self.out), self.mm, self.g, self.run, self.snaps

    def __setstate__(self, state):
        sharers, out, self.mm, self.g, self.run, self.snaps = state
        self.sharers, self.out = frozenset(sharers), frozenset(out)

    def add_run(self, b: int, sums: Sequence, start: bool) -> int:
        """A run of ``b`` events that every sharer matches, as one update
        of the run; returns the coefficient terms written. Before the run,
        the count vector of its first event is ``base = entry + R + ONE``
        (the ONE term if ``start``: ``E`` starts a template), and each event
        doubles the run, so the run's count becomes ``R + (2^b - 1)·base``.
        A channel ``c`` becomes ``2^b·R_c + (2^b - 1)·entry_c``, plus
        ``2^(b-1)·(Σ attr)·base`` when its own term is on ``E`` (``sums``
        holds Σ attr there, attr 1 for COUNT(E), and None elsewhere): event
        ``j``'s count vector is ``2^j·base``, and the ``b - 1 - j`` events
        after it double its term."""
        run = self.run
        base: Vec = {(ENTRY, CNT): 1}
        vadd(base, run[CNT])
        if start:
            base[ONE_ID, CNT] = base.get((ONE_ID, CNT), 0) + 1
        grow = 2**b
        written = len(base)
        for c, total in enumerate(sums, CNT + 1):
            r = run[c] = {key: grow * v for key, v in run[c].items()}
            r[ENTRY, c] = r.get((ENTRY, c), 0) + float(grow - 1)
            written += len(r)
            if total is not None:
                vadd(r, base, 2 ** (b - 1) * total)
                written += len(base)
        vadd(run[CNT], base, grow - 1)
        self.g += b
        return written

    def add_snapshot(self, cols: Columns) -> None:
        """A divergent event's values become an event snapshot of the run."""
        sid = len(self.snaps)
        self.snaps.append(cols)
        for c, r in enumerate(self.run):
            r[sid, c] = 1 if c == CNT else 1.0
        self.g += 1

    def so_far(self, one: Sequence) -> tuple[list, int]:
        """The graphlet so far (entry plus run) resolved, and the snapshots it references."""
        vecs = [{(ENTRY, c): 1 if c == CNT else 1.0} for c in range(len(self.run))]
        for v, r in zip(vecs, self.run):
            vadd(v, r)
        return [self.resolve(v, one) for v in vecs], len(vecs[CNT])

    def values(self, one: Sequence) -> list:
        """The run resolved: its events' summed values, per value index."""
        return [self.resolve(v, one) for v in self.run]

    def resolve(self, vec: Vec, one: Sequence) -> list:
        """Evaluate a coefficient vector for every query position at once:
        entry ``i`` is Σ coeff · S[x][c][i] over the vector's ``(x, c)``
        keys, summed in the vector's order from its first term (zero for an
        empty vector). ``one`` is the ONE snapshot's count column."""
        total = None
        for (sid, c), coeff in vec.items():
            col = one if sid == ONE_ID else self.snaps[sid][c]
            if total is None:
                total = [coeff * v for v in col]
            else:
                total = [t + coeff * v for t, v in zip(total, col)]
        return [0] * len(one) if total is None else total

    def live(self) -> int:
        """The snapshots the run references (the optimizer's ``s_p``): its
        count vector has one key per snapshot, and the channel vectors
        reference no others."""
        return len(self.run[CNT])

    def size(self) -> tuple[int, int]:
        """The run's coefficient terms and the (snapshot, sharer) entries."""
        return sum(map(len, self.run)), len(self.snaps) * len(self.sharers)
