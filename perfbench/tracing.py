"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the repro package's public
functions, from the outside: :func:`install` swaps module attributes and
class methods for timing wrappers and :meth:`Tracer.uninstall` puts the
originals back. Nothing under ``src/`` knows about it.

- A span has an id, a name (``<layer>.<call>``), a parent id, a start and
  an end (``time.perf_counter`` seconds), and a self time: its duration
  minus the time of the spans nested synchronously inside it.
- Per-event calls (``HamletSetEngine.on_event`` and the ``choose_plan``
  it makes) are folded into one span per engine instance that carries a
  call count, so tracing a 10^4-event pass adds a few hundred spans.
- Spans from Spark (stages, micro-batches) are added after the fact with
  :meth:`Tracer.add`; they run in other threads or processes, so they do
  not subtract from their parent's self time.
- Spans stay in memory; :meth:`Tracer.dump` writes them out when the run
  ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "self_s", "busy", "calls", "attrs")

    def __init__(self, sid, name, parent, start, end=0.0, self_s=0.0, calls=1, attrs=None):
        self.sid, self.name, self.parent = sid, name, parent
        self.start, self.end, self.self_s = start, end, self_s
        self.busy = end - start if end else 0.0  # folded: summed over calls
        self.calls, self.attrs = calls, attrs or {}

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "busy_s": self.busy, "calls": self.calls, **self.attrs,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[list] = []  # frames: [span, child_seconds]
        self._folded: dict[tuple, Span] = {}
        self._undo: list[tuple] = []
        self.enabled = False

    # -- recording ------------------------------------------------------
    def _parent(self):
        return self._stack[-1][0].sid if self._stack else None

    def _new(self, name, start, **attrs) -> Span:
        sp = Span(len(self.spans), name, self._parent(), start, attrs=attrs)
        self.spans.append(sp)
        return sp

    @contextmanager
    def span(self, name: str, **attrs):
        """A synchronous span; nests under whatever span is open."""
        if not self.enabled:
            yield None
            return
        sp = self._new(name, time.perf_counter(), **attrs)
        frame = [sp, 0.0]
        self._stack.append(frame)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            dur = sp.busy = sp.end - sp.start
            sp.self_s = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def folded(self, key, name: str) -> Span:
        """The folded span ``(key, name)``, created on first use."""
        sp = self._folded.get((key, name))
        if sp is None:
            sp = self._new(name, time.perf_counter())
            sp.calls = 0
            self._folded[(key, name)] = sp
        return sp

    def folded_call(self, sp: Span, fn, *args, **kwargs):
        """Run ``fn`` inside folded span ``sp``, which accumulates busy
        time, self time and a call count over all its calls."""
        frame = [sp, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            sp.end = t1
            sp.calls += 1
            sp.busy += t1 - t0
            sp.self_s += (t1 - t0) - frame[1]
            if self._stack:
                self._stack[-1][1] += t1 - t0

    def add(self, name: str, start: float, end: float, parent, **attrs) -> Span:
        """Record a span measured elsewhere (Spark stages, micro-batches)."""
        sp = Span(len(self.spans), name, parent, start, end, end - start, 1, attrs)
        self.spans.append(sp)
        return sp

    # -- summaries ------------------------------------------------------
    def busy(self, name: str, since: int = 0) -> float:
        """Total time spent in spans called ``name`` (folded: busy time)."""
        return sum(sp.busy for sp in self.spans[since:] if sp.name == name)

    def self_time(self, name: str, since: int = 0) -> float:
        return sum(sp.self_s for sp in self.spans[since:] if sp.name == name)

    def calls(self, name: str, since: int = 0) -> int:
        return sum(sp.calls for sp in self.spans[since:] if sp.name == name)

    def layer_self(self, since: int = 0) -> dict[str, float]:
        """Self time per layer, the layer being the span name's prefix."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans[since:]:
            out[sp.name.split(".", 1)[0]] += sp.self_s
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(sp.as_dict()) + "\n")

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        self.enabled = False


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries the benchmark does not call itself.

    - ``repro.streams.events_from_pandas`` (called by ``group_events``),
      one span per group;
    - ``repro.core.engine.window_instances`` (window slicing), folded per
      ``run_system`` call;
    - ``HamletSetEngine.on_event`` / ``end_window`` / ``results``, folded
      per engine instance;
    - ``repro.core.hamlet.choose_plan``, the name ``hamlet`` imported,
      folded per engine instance under whichever engine call made it.
    """
    import repro.core.engine as engine_mod
    import repro.core.hamlet as hamlet_mod
    import repro.streams as streams_mod

    convert = streams_mod.events_from_pandas

    @wraps(convert)
    def events_from_pandas(pdf, attr_cols):
        with tr.span("events.convert", rows=len(pdf)):
            return convert(pdf, attr_cols)

    slicer = engine_mod.window_instances

    @wraps(slicer)
    def window_instances(events, window, slide):
        sp = tr.folded(("slice", tr._parent()), "engine.slice")
        it = slicer(events, window, slide)
        while True:
            try:
                item = tr.folded_call(sp, next, it)
            except StopIteration:
                return
            yield item

    chooser = hamlet_mod.choose_plan

    @wraps(chooser)
    def choose_plan(stats, **kw):
        sp = tr.folded(("plan", tr._parent()), "optimizer.choose_plan")
        return tr.folded_call(sp, chooser, stats, **kw)

    tr._patch(streams_mod, "events_from_pandas", events_from_pandas)
    tr._patch(engine_mod, "window_instances", window_instances)
    tr._patch(hamlet_mod, "choose_plan", choose_plan)
    cls = hamlet_mod.HamletSetEngine
    for meth, name in (
        ("on_event", "hamlet.on_event"),
        ("end_window", "hamlet.end_window"),
        ("results", "hamlet.results"),
    ):
        orig = cls.__dict__[meth]

        def wrapper(self, *a, _orig=orig, _name=name, **kw):
            # the engine's own folded span, cached on the instance (ids of
            # dead engines are reused, so they cannot key the span)
            slot = "_trace_" + _name
            sp = self.__dict__.get(slot)
            if sp is None:
                sp = self.__dict__[slot] = tr.folded((slot, len(tr.spans)), _name)
            return tr.folded_call(sp, _orig, self, *a, **kw)

        tr._patch(cls, meth, wraps(orig)(wrapper))
    tr.enabled = True
