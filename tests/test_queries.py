"""Unit tests for the query model (Definitions 1–3)."""
import pytest

from repro.core.events import Event
from repro.core.queries import (
    AggSpec,
    Atom,
    EdgePred,
    GroupKleene,
    Kleene,
    Neg,
    Pred,
    Query,
    seq,
)
from repro.core.template import build_template


@pytest.mark.parametrize(
    "op,val,attr_val,expected",
    [
        ("<", 5, 4, True),
        ("<", 5, 5, False),
        ("<=", 5, 5, True),
        (">", 5, 6, True),
        (">", 5, 5, False),
        (">=", 5, 5, True),
        ("==", 5, 5, True),
        ("==", 5, 4, False),
        ("!=", 5, 4, True),
        ("!=", 5, 5, False),
    ],
)
def test_pred_ops(op, val, attr_val, expected):
    p = Pred("v", op, val)
    assert p.ok(Event(0.0, "A", {"v": attr_val})) is expected


def test_pred_missing_attr_defaults_to_zero():
    assert Pred("missing", "<", 1).ok(Event(0.0, "A", {})) is True
    assert Pred("missing", ">", 1).ok(Event(0.0, "A", {})) is False


@pytest.mark.parametrize(
    "op,prev,cur,expected",
    [("<=", 3, 3, True), ("<=", 4, 3, False), (">", 4, 3, True), ("<", 3, 4, True)],
)
def test_edge_pred(op, prev, cur, expected):
    ep = EdgePred("v", op)
    assert ep.ok(Event(0, "B", {"v": prev}), Event(1, "B", {"v": cur})) is expected


def test_query_matches_applies_per_type_predicates():
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", ">", 2),)})
    assert q.matches(Event(0, "B", {"v": 3}))
    assert not q.matches(Event(0, "B", {"v": 2}))
    assert q.matches(Event(0, "A", {"v": 0}))  # no predicate on A


def test_kleene_types_simple_and_nested():
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")))
    assert build_template(q).kleene == frozenset({"B"})
    q2 = Query(qid="q2", elems=seq(GroupKleene(seq(Atom("A"), Kleene("B")))))
    assert build_template(q2).kleene == frozenset({"B"})


def test_query_identity_is_qid():
    a = Query(qid="x", elems=seq(Kleene("B")))
    b = Query(qid="x", elems=seq(Atom("A"), Kleene("B")))
    assert a == b and hash(a) == hash(b)
    assert a != Query(qid="y", elems=seq(Kleene("B")))


@pytest.mark.parametrize(
    "spec,name",
    [
        (AggSpec("COUNT_STAR"), "COUNT(*)"),
        (AggSpec("COUNT_E", "B"), "COUNT(B)"),
        (AggSpec("SUM", "B", "v"), "SUM(B.v)"),
        (AggSpec("AVG", "T", "speed"), "AVG(T.speed)"),
        (AggSpec("MIN", "B", "v"), "MIN(B.v)"),
        (AggSpec("MAX", "B", "v"), "MAX(B.v)"),
    ],
)
def test_aggspec_names(spec, name):
    assert spec.name == name


def test_aggspec_validation():
    with pytest.raises(ValueError):
        AggSpec("MEDIAN")
    with pytest.raises(ValueError):
        AggSpec("SUM")  # needs an event type
    for fn in ("SUM", "AVG", "MIN", "MAX"):  # need an attribute
        with pytest.raises(ValueError, match=fn):
            AggSpec(fn, "B")
    AggSpec("COUNT_E", "B")


def test_event_pickle_roundtrip():
    import pickle

    e = Event(1.5, "B", {"v": 2.0})
    e2 = pickle.loads(pickle.dumps(e))
    assert (e2.time, e2.etype, e2.attrs) == (1.5, "B", {"v": 2.0})


def test_query_pickle_roundtrip():
    import pickle

    q = Query(
        qid="q",
        elems=seq(Atom("A"), Neg("N"), Kleene("B")),
        where={"B": (Pred("v", ">", 1),)},
        edge_pred=EdgePred("v", "<="),
    )
    q2 = pickle.loads(pickle.dumps(q))
    assert q2.qid == "q" and q2.edge_pred == q.edge_pred and q2.elems == q.elems


@pytest.mark.parametrize(
    "field,value",
    [
        ("slide", -60.0),  # would never advance the window instances
        ("slide", 0.0),
        ("window", 0.0),
        ("window", -60.0),
        ("window", float("nan")),
        ("slide", float("inf")),
        ("window", float("-inf")),
    ],
)
def test_query_rejects_bad_window_or_slide(field, value):
    kw = {"window": 60.0, "slide": 60.0, field: value}
    with pytest.raises(ValueError, match=f"qx: {field}"):
        Query(qid="qx", elems=seq(Atom("A"), Kleene("B")), **kw)


def test_query_slide_above_window_is_valid():
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=30.0)
    assert (q.window, q.slide) == (10.0, 30.0)


@pytest.mark.parametrize("op", ["=<", "=>", "=", "<>", ""])
def test_predicates_reject_unknown_operators(op):
    with pytest.raises(ValueError, match="unknown operator"):
        Pred("v", op, 3)
    with pytest.raises(ValueError, match="unknown operator"):
        EdgePred("v", op)
