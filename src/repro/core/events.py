"""Event model shared by every engine in the reproduction.

An :class:`Event` is the unit of the stream (Definition in §2.1 of the
paper): a time stamp, an event type, and a flat attribute map. Engines
receive events already partitioned by group-by attributes (and by
equality predicates such as ``[driver, rider]``, which Hamlet pushes
into stream partitioning — see DESIGN.md §3), so the group key is not
stored on the event itself.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import pandas as pd


class Event:
    """A single stream event: ``time`` (float seconds), ``etype``, attrs."""

    __slots__ = ("time", "etype", "attrs")

    def __init__(self, time: float, etype: str, attrs: Mapping[str, float] | None = None):
        self.time = float(time)
        self.etype = etype
        self.attrs = dict(attrs) if attrs else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event(t={self.time}, {self.etype}, {self.attrs})"

    # __slots__ classes need explicit pickle support (Spark workers pickle
    # closures that may reference prototype events).
    def __getstate__(self):
        return (self.time, self.etype, self.attrs)

    def __setstate__(self, state):
        self.time, self.etype, self.attrs = state


def events_from_pandas(pdf: pd.DataFrame, attr_cols: Sequence[str]) -> list[Event]:
    """Convert a pandas frame (columns ``time``, ``etype``, *attr_cols*) to a
    time-ordered list of :class:`Event`.

    The conversion is the bridge between the Spark/pandas world and the
    per-partition Python engines; it is deliberately simple and allocation
    conscious (each column read once as a numpy array, then one pass by row).
    """
    pdf = pdf.sort_values("time", kind="mergesort")
    cols = [c for c in attr_cols if c in pdf.columns]
    times = pdf["time"].to_numpy()
    etypes = pdf["etype"].to_numpy()
    attr_arrays = {c: pdf[c].to_numpy() for c in cols}
    out: list[Event] = []
    for i in range(len(pdf)):
        out.append(
            Event(times[i], etypes[i], {c: float(attr_arrays[c][i]) for c in cols})
        )
    return out

