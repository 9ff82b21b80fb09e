"""State-of-the-art baselines reproduced for the §6 comparison:
SHARON (shared online fixed-length sequence aggregation) and MCEP
(shared two-step trend construction + aggregation), each of which
evaluates a COUNT(*) workload one whole window instance at a time."""
from __future__ import annotations

from ..core.hamlet import Metrics


class BufferedEngine:
    """One window instance of a baseline plan: ``on_event`` buffers the
    events, and ``end_window`` evaluates them with ``plan.evaluate``."""

    def __init__(self, plan):
        self.plan = plan
        self.evs: list = []
        self.m = Metrics()

    def on_event(self, e) -> None:
        self.evs.append(e)

    def end_window(self) -> None:
        self.counts, self.m, self.modelled_s = self.plan.evaluate(self.evs)

    def results(self) -> dict[str, dict[str, float]]:
        return {q.qid: {"COUNT(*)": float(self.counts[q.qid])} for q in self.plan.qs}
