"""DuckDB SQL oracle for trend counts — an independent implementation.

Builds a recursive-CTE query that counts event trends for patterns of
the family ``SEQ(P, K+)`` / ``SEQ(P, K+, S)`` over tumbling windows,
entirely inside DuckDB: in a window, a Kleene event at the i-th distinct
Kleene time ends ``a_i + Σ_{j<i} cnt_j`` trends (``a_i`` = prefix events
before it, ``cnt_j`` = trends ending at the ``m_j`` Kleene events of the
j-th time), since events of one time never precede each other (DESIGN.md
§2's edge rule ``e'.time < e.time``). The CTE evaluates the linear
recurrence ``cnt_i = m_i·(a_i + cum_{i-1})``, ``cum_i = cum_{i-1} +
cnt_i`` in HUGEINT. Used with ``repro.oracle.assert_equivalent`` so Spark
results are validated against a different engine via a different
algorithm (path counting in SQL vs online propagation in Python).

Keep per-group-per-window Kleene event counts ≤ ~40 so the count is
exactly representable when cast to DOUBLE.
"""
from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .core.queries import Pred

_OPSQL = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "=", "!=": "<>"}


def _pred_sql(alias: str, preds: Sequence[Pred]) -> str:
    clauses = [f"{alias}.{p.attr} {_OPSQL[p.op]} {p.value}" for p in preds]
    return (" AND " + " AND ".join(clauses)) if clauses else ""


def trend_count_sql(
    *,
    prefix_type: str,
    kleene_type: str,
    suffix_type: Optional[str] = None,
    window: float,
    where: Mapping[str, Sequence[Pred]] | None = None,
    table: str = "events",
) -> str:
    """COUNT(*) per (gkey, window_start) for SEQ(prefix, K+ [, suffix])."""
    where = where or {}
    pk = _pred_sql("p", where.get(prefix_type, ()))
    kk = _pred_sql("e", where.get(kleene_type, ()))
    sk = _pred_sql("s", where.get(suffix_type, ())) if suffix_type else ""
    base = f"""
WITH RECURSIVE ev AS (
  SELECT gkey, time, etype, v, w,
         CAST(FLOOR(time / {window}) AS BIGINT) AS win
  FROM {table}
),
b AS (
  SELECT e.gkey, e.win, e.time, COUNT(*) AS m,
         ROW_NUMBER() OVER (PARTITION BY e.gkey, e.win ORDER BY e.time) AS rn
  FROM ev e WHERE e.etype = '{kleene_type}'{kk}
  GROUP BY e.gkey, e.win, e.time
),
a AS (
  SELECT b.gkey, b.win, b.rn, b.time, CAST(b.m AS HUGEINT) AS m,
         (SELECT COUNT(*) FROM ev p
           WHERE p.etype = '{prefix_type}'{pk}
             AND p.gkey = b.gkey AND p.win = b.win AND p.time < b.time) AS ac
  FROM b
),
dp AS (
  SELECT gkey, win, rn, m * ac AS cnt, m * ac AS cum
  FROM a WHERE rn = 1
  UNION ALL
  SELECT a.gkey, a.win, a.rn, a.m * (a.ac + d.cum), d.cum + a.m * (a.ac + d.cum)
  FROM dp d JOIN a ON a.gkey = d.gkey AND a.win = d.win AND a.rn = d.rn + 1
)"""
    if suffix_type is None:
        return (
            base
            + f"""
SELECT gkey, win * {window} AS window_start,
       CAST(SUM(cnt) AS DOUBLE) AS value
FROM dp GROUP BY gkey, win HAVING SUM(cnt) > 0
ORDER BY gkey, window_start"""
        )
    return (
        base
        + f""",
suf AS (
  SELECT s.gkey, s.win, s.time FROM ev s
  WHERE s.etype = '{suffix_type}'{sk}
),
per_suffix AS (
  SELECT s.gkey, s.win,
         COALESCE((
           SELECT d.cum FROM dp d JOIN b ON b.gkey = d.gkey AND b.win = d.win AND b.rn = d.rn
            WHERE d.gkey = s.gkey AND d.win = s.win AND b.time < s.time
            ORDER BY d.rn DESC LIMIT 1
         ), 0) AS c
  FROM suf s
)
SELECT gkey, win * {window} AS window_start,
       CAST(SUM(c) AS DOUBLE) AS value
FROM per_suffix GROUP BY gkey, win HAVING SUM(c) > 0
ORDER BY gkey, window_start"""
    )
