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
"""
from __future__ import annotations

from typing import Dict, Tuple

Key = Tuple[int, int]  # (snapshot id, index into its value vector)
Vec = Dict[Key, float]

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
    """Table ``S``: snapshot id -> qid -> value vector.

    Values are tuples ``(count, channel_1, ..., channel_m)`` with the
    count kept as an exact Python int (trend counts are astronomically
    large — 2^g — and must not lose precision) and channels as floats.
    """

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self.vals: dict[int, dict[str, tuple]] = {}
        self._next_id = ONE_ID + 1

    def set_one(self, per_query: dict[str, tuple]) -> None:
        """Install the constant ONE snapshot: per query, the value vector
        ``(start contribution, 0.0, ..., 0.0)``. The table never changes
        it, so one mapping may serve many tables."""
        self.vals[ONE_ID] = per_query

    def create(self, per_query: dict[str, tuple]) -> int:
        """New snapshot with the given per-query value vectors."""
        sid = self._next_id
        self._next_id += 1
        self.vals[sid] = per_query
        return sid

    def resolve(self, vec: Vec, qid: str):
        """Evaluate a coefficient vector for one query (Σ coeff · S[x][q][c]);
        a snapshot without a value for ``qid`` contributes 0."""
        total = 0
        for (sid, c), coeff in vec.items():
            v = self.vals[sid].get(qid)
            total += coeff * (0 if v is None else v[c])
        return total

    def gc(self) -> None:
        """Drop every snapshot but ONE. Called when a graphlet closes: no
        live vector references its snapshots any more (keeps the
        peak-memory metric honest across graphlet closures)."""
        for sid in list(self.vals):
            if sid != ONE_ID:
                del self.vals[sid]
