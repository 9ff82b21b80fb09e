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
part of the key.

The table is columnar: a snapshot's value is one *column* per value
index ``c``, a sequence holding query ``i``'s entry at position ``i``
(the query's position in its ``HamletPlan``). So one pass over a
coefficient vector resolves it for every query of the sharable set at
once (``resolve``), in the manner of MonetDB/X100's column-at-a-time
primitives. The constant ONE snapshot is not a table entry: its columns
are the plan's, and ``resolve`` takes them as an argument.
"""
from __future__ import annotations

from typing import Dict, Sequence, Tuple

Key = Tuple[int, int]  # (snapshot id, index into its value vector)
Vec = Dict[Key, float]
Columns = Sequence[Sequence]  # one column per value index, one entry per query

ONE_ID = 0  # reserved constant snapshot: count value 1/0 per query (start term)


def vadd(dst: Vec, src: Vec, scale: float = 1.0) -> None:
    """``dst += scale * src`` in place (sparse).

    Count-channel coefficients must stay exact Python ints (trend counts
    grow as 2^g), so the unscaled path avoids float contamination."""
    if scale == 1.0:
        for k, v in src.items():
            dst[k] = dst.get(k, 0) + v
    else:
        for k, v in src.items():
            dst[k] = dst.get(k, 0) + scale * v


class SnapshotTable:
    """Table ``S``: snapshot id -> its value columns.

    ``vals[sid][c][i]`` is the value at index ``c`` of snapshot ``sid`` for
    the query at position ``i``, with the count (``c = 0``) kept as an
    exact Python int (trend counts are astronomically large — 2^g — and
    must not lose precision) and channels as floats. A position whose query
    the snapshot does not cover holds that index's zero.
    """

    def __init__(self):
        self.vals: dict[int, Columns] = {}
        self._next_id = ONE_ID + 1

    def create(self, cols: Columns) -> int:
        """New snapshot with the given value columns."""
        sid = self._next_id
        self._next_id += 1
        self.vals[sid] = cols
        return sid

    def resolve(self, vec: Vec, one: Columns) -> list:
        """Evaluate a coefficient vector for every query position at once:
        entry ``i`` is Σ coeff · S[x][c][i] over the vector's ``(x, c)``
        keys, summed in the vector's order. ``one`` holds the ONE
        snapshot's columns."""
        total = [0] * len(one[0])
        for (sid, c), coeff in vec.items():
            col = one[c] if sid == ONE_ID else self.vals[sid][c]
            total = [t + coeff * v for t, v in zip(total, col)]
        return total

    def gc(self) -> None:
        """Drop every snapshot. Called when a graphlet closes: no live
        vector references its snapshots any more (keeps the peak-memory
        metric honest across graphlet closures)."""
        self.vals.clear()
