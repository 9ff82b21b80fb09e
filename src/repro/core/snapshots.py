"""Snapshot algebra for shared trend aggregation (paper §3.3).

A *snapshot* is a variable whose per-query (and per aggregate channel)
values live in the snapshot table ``S`` (paper data structure (3)).
Inside a shared graphlet, each event's intermediate aggregates are
sparse *coefficient vectors* over snapshots (data structure (2) — the
paper's example ``count(b6, Q) = 4x + z`` is the vector ``{x:4, z:1}``).

Vectors are dicts keyed by ``(snapshot_id, channel)`` where channel
``-1`` is the trend count and ``0..m-1`` are linear aggregate channels
(COUNT(E)/SUM). A SUM channel may reference the *count* value of a
snapshot (the ``attr(e)·count(e)`` term), which is why the channel is
part of the key.
"""
from __future__ import annotations

from typing import Dict, Tuple

Key = Tuple[int, int]  # (snapshot id, channel index; -1 = count)
Vec = Dict[Key, float]

CNT = -1
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
    """Table ``S``: snapshot id -> qid -> per-channel values.

    Values are tuples ``(cnt, chan_0, ..., chan_{m-1})`` with ``cnt`` kept
    as an exact Python int (trend counts are astronomically large — 2^g —
    and must not lose precision) and channels as floats.
    """

    def __init__(self, n_channels: int):
        self.n_channels = n_channels
        self.vals: dict[int, dict[str, tuple]] = {}
        self._next_id = ONE_ID + 1

    def set_one(self, per_query_start: dict[str, int]) -> None:
        """Install the constant ONE snapshot: per-query start contribution."""
        zeros = (0.0,) * self.n_channels
        self.vals[ONE_ID] = {qid: (s, *zeros) for qid, s in per_query_start.items()}

    def create(self, per_query: dict[str, tuple]) -> int:
        """New snapshot with the given per-query (cnt, chans...) values."""
        sid = self._next_id
        self._next_id += 1
        self.vals[sid] = per_query
        return sid

    def value(self, sid: int, qid: str, channel: int):
        v = self.vals[sid].get(qid)
        if v is None:
            return 0
        return v[0] if channel == CNT else v[1 + channel]

    def resolve(self, vec: Vec, qid: str):
        """Evaluate a coefficient vector for one query (Σ coeff · S[x][q])."""
        total = 0
        for (sid, ch), coeff in vec.items():
            total += coeff * self.value(sid, qid, ch)
        return total

    def gc(self) -> None:
        """Drop every snapshot but ONE. Called when a graphlet closes: no
        live vector references its snapshots any more (keeps the
        peak-memory metric honest across graphlet closures)."""
        for sid in list(self.vals):
            if sid != ONE_ID:
                del self.vals[sid]
