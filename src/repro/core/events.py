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
    time-ordered list of :class:`Event`: float times, the ``etype`` values
    as they are, and float attributes (an int column is cast; NaN stays).

    The conversion is the bridge between the Spark/pandas world and the
    per-partition Python engines. It runs a column at a time: a frame not
    yet in time order is sorted (stably), each column is read once as a
    list, and the attribute dicts are filled one column after another.
    """
    if not pdf["time"].is_monotonic_increasing:
        pdf = pdf.sort_values("time", kind="mergesort")
    times = pdf["time"].to_numpy(dtype=float).tolist()
    attrs: list[dict] = [{} for _ in times]
    for c in attr_cols:
        if c in pdf.columns:
            for a, v in zip(attrs, pdf[c].to_numpy(dtype=float).tolist()):
                a[c] = v
    # the dicts are fresh, so the events take them without ``__init__``'s copy
    out: list[Event] = []
    new = Event.__new__
    for t, et, a in zip(times, pdf["etype"].tolist(), attrs):
        e = new(Event)
        e.time, e.etype, e.attrs = t, et, a
        out.append(e)
    return out
