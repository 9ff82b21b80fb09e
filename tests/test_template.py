"""Template construction, the merged template as a plan's kernel tables,
workload analysis (paper §3.1, Examples 2/3/10, Definitions 4/5)."""
import pytest

from repro.core.hamlet import HamletPlan
from repro.core.queries import (
    AggSpec,
    Atom,
    GroupKleene,
    Kleene,
    Neg,
    Pred,
    Query,
    seq,
)
from repro.core.template import (
    agg_signature,
    build_template,
    pane_size,
    sharable_sets,
)


def _pt_types(tpl, etype):
    return set(tpl.pt.get(etype, {}))


def test_example2_seq_a_bplus():
    """Paper Example 2: pt(B)={A,B}, pt(A)=∅, start={A}, end={B}."""
    q = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    tpl = build_template(q)
    assert _pt_types(tpl, "B") == {"A", "B"}
    assert _pt_types(tpl, "A") == set()
    assert tpl.start == frozenset({"A"})
    assert tpl.end == frozenset({"B"})
    assert tpl.kleene == frozenset({"B"})


def test_suffix_pattern_end_type():
    tpl = build_template(Query(qid="q", elems=seq(Atom("A"), Kleene("B"), Atom("C"))))
    assert tpl.end == frozenset({"C"})
    assert _pt_types(tpl, "C") == {"B"}


def test_bare_kleene_is_start_and_end():
    tpl = build_template(Query(qid="q", elems=seq(Kleene("B"))))
    assert tpl.start == tpl.end == frozenset({"B"})
    assert _pt_types(tpl, "B") == {"B"}


def test_multi_atom_prefix():
    tpl = build_template(Query(qid="q", elems=seq(Atom("A"), Atom("C"), Kleene("B"))))
    assert _pt_types(tpl, "C") == {"A"}
    assert _pt_types(tpl, "B") == {"C", "B"}
    assert tpl.start == frozenset({"A"})


def test_negation_blocks_transition():
    tpl = build_template(Query(qid="q", elems=seq(Atom("A"), Neg("N"), Kleene("B"))))
    assert tpl.pt["B"] == {"A": "N", "B": None}
    assert "N" in tpl.neg_types and tpl.trailing_neg is None


def test_trailing_negation_detected():
    tpl = build_template(Query(qid="q", elems=seq(Atom("A"), Kleene("B"), Neg("N"))))
    assert tpl.trailing_neg == "N"
    assert tpl.end == frozenset({"B"})


def test_nested_kleene_example10():
    """Paper Example 10: (SEQ(A,B+))+ adds pt(A)={B} back-loop."""
    q = Query(qid="q1", elems=seq(GroupKleene(seq(Atom("A"), Kleene("B")))))
    tpl = build_template(q)
    assert _pt_types(tpl, "A") == {"B"}
    assert _pt_types(tpl, "B") == {"A", "B"}
    assert tpl.start == frozenset({"A"})
    assert tpl.end == frozenset({"B"})


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        build_template(Query(qid="q", elems=seq(Neg("N"))))


@pytest.mark.parametrize(
    "elems",
    [
        seq(Neg("N"), Atom("A"), Kleene("B")),
        seq(Atom("X"), GroupKleene(seq(Neg("N"), Atom("A"))), Atom("Y")),
        seq(Atom("A"), Neg("N"), Neg("M"), Kleene("B")),
        seq(Atom("X"), GroupKleene(seq(Atom("A"), Neg("N"))), Atom("Y")),
        seq(Atom("X"), GroupKleene(seq(Atom("A"), Neg("N")))),
    ],
    ids=["first-in-seq", "first-in-group", "after-neg", "last-in-group", "last-in-last-group"],
)
def test_negation_without_a_transition_rejected(elems):
    """A negation guards the transition between the positive elements
    around it, or every earlier end when it ends the pattern. One first in
    a sequence or a group, one right after another, or one last in a
    Kleene group has no such place, and the template would drop it (of
    NOT N, NOT M only M would block; a group's last NOT N would vanish, or
    become the pattern's trailing negation), so each raises, naming the
    query."""
    with pytest.raises(ValueError, match="bad"):
        build_template(Query(qid="bad", elems=elems))


@pytest.mark.parametrize(
    "elems",
    [
        seq(Atom("A"), Kleene("B"), Neg("N"), Atom("B")),
        seq(Atom("A"), Atom("B"), Atom("C"), Atom("B")),
        seq(Atom("A"), GroupKleene(seq(Atom("B"), Atom("C"))), Kleene("B")),
        seq(Kleene("A"), GroupKleene(seq(GroupKleene(seq(Atom("B"), Atom("C"))), Atom("A")))),
    ],
    ids=["across-negation", "atoms", "in-group", "nested-group"],
)
def test_type_matched_twice_rejected(elems):
    """A template has one state per matched type (Example 2), so a second
    position of one type would merge into the first, and trends could
    skip the required positions. Over A(1), B(2), N(3), B(4), B(5), SEQ(A,
    B+, NOT N, B) has two trends, A1 B4 B5 and A1 B2 B4 B5; read at the
    type level it counted 7, one per nonempty set of the B's. The
    template rejects it instead, naming the query."""
    with pytest.raises(ValueError, match="bad: [AB] is matched twice"):
        build_template(Query(qid="bad", elems=elems))


@pytest.mark.parametrize(
    "elems",
    [
        seq(Atom("A"), Neg("N"), Kleene("B"), Atom("A"), Neg("M"), Atom("B")),
        seq(Atom("A"), Neg("N"), GroupKleene(seq(Atom("B"), Atom("C"))), Atom("A"), Neg("M"), Atom("B")),
    ],
    ids=["seq", "into-group"],
)
def test_two_negations_on_one_transition_rejected(elems):
    """A → B guarded by NOT N in one place and NOT M in another needs A
    and B matched twice, which the template rejects first."""
    with pytest.raises(ValueError, match="bad: A is matched twice"):
        build_template(Query(qid="bad", elems=elems))


@pytest.mark.parametrize(
    "elems",
    [
        seq(Atom("A"), Kleene("B"), Neg("B"), Atom("C")),
        seq(Atom("A"), Neg("C"), Atom("B"), Atom("C")),
        seq(Kleene("A"), Neg("N"), GroupKleene(seq(Atom("B"), Neg("A"), Atom("C")))),
    ],
    ids=["kleene", "atom", "in-group"],
)
def test_negated_and_matched_type_rejected(elems):
    """Brute force and GRETA drop a negated type's matched role, where
    Hamlet's kernel would keep a Kleene one: a type is one or the other."""
    with pytest.raises(ValueError, match="bad: [ABC] is both negated and matched"):
        build_template(Query(qid="bad", elems=elems))


@pytest.mark.parametrize(
    "elems",
    [seq(Atom("A"), GroupKleene(seq(Neg("N")))), seq(Atom("A"), GroupKleene(()))],
    ids=["negation-only", "empty"],
)
def test_group_without_positive_element_names_query(elems):
    with pytest.raises(ValueError, match="qX: pattern group has no positive element"):
        build_template(Query(qid="qX", elems=elems))


def test_merged_template_example3():
    """Fig. 3(b): the plan's B table is the merged template. Each transition
    into B is one edge, labelled with the queries that share it; B→B is
    labelled by both."""
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")))
    plan = HamletPlan([q1, q2])
    ker = plan.kernels["B"]
    labels = {(pt, b): {plan.qs[i].qid for i in at} for pt, b, at in ker.edges}
    assert len(ker.edges) == len(labels) == 3
    assert labels == {("A", None): {"q1"}, ("B", None): {"q1", "q2"}, ("C", None): {"q2"}}
    assert {plan.qs[i].qid for i in ker.idx} == {"q1", "q2"}


@pytest.mark.parametrize(
    "vals,expected",
    [
        ([600.0, 300.0], 300.0),
        ([600.0, 900.0, 300.0], 300.0),
        ([60.0, 90.0], 30.0),
        ([1.5, 1.0], 0.5),
        ([10.0], 10.0),
    ],
)
def test_pane_size_gcd(vals, expected):
    assert pane_size(vals) == pytest.approx(expected)


def _q(qid, window=60.0, aggs=(AggSpec("COUNT_STAR"),), kleene="B", prefix="A"):
    return Query(qid=qid, elems=seq(Atom(prefix), Kleene(kleene)), aggs=aggs, window=window, slide=window)


def test_sharable_sets_groups_same_signature():
    qs = [_q("a"), _q("b", prefix="C"), _q("c", prefix="D")]
    sets = sharable_sets(qs)
    assert [[q.qid for q in s] for s in sets] == [["a", "b", "c"]]
    assert HamletPlan(sets[0]).E == "B"


def test_sharable_sets_split_by_window():
    qs = [_q("a", window=60.0), _q("b", window=120.0), _q("c", window=60.0)]
    sets = sharable_sets(qs)
    assert [[q.qid for q in s] for s in sets] == [["a", "c"], ["b"]]


def test_sharable_sets_split_by_aggregate_class():
    """Definition 5: COUNT(*) does not share with MAX; SUM/AVG/COUNT(E) do."""
    qs = [
        _q("cnt1"), _q("cnt2"),
        _q("sum1", aggs=(AggSpec("SUM", "B", "v"),)),
        _q("avg1", aggs=(AggSpec("AVG", "B", "v"),)),
        _q("max1", aggs=(AggSpec("MAX", "B", "v"),)),
        _q("max2", aggs=(AggSpec("MAX", "B", "v"),)),
    ]
    by_members = {frozenset(q.qid for q in s) for s in sharable_sets(qs)}
    assert by_members == {
        frozenset({"cnt1", "cnt2"}), frozenset({"sum1", "avg1"}), frozenset({"max1", "max2"})
    }


def test_agg_signature_avg_shares_with_sum_and_count_e():
    s1 = agg_signature(_q("x", aggs=(AggSpec("AVG", "B", "v"),)))
    s2 = agg_signature(_q("y", aggs=(AggSpec("SUM", "B", "v"),)))
    s3 = agg_signature(_q("z", aggs=(AggSpec("COUNT_E", "B"),)))
    assert s1 == s2 == s3
    s4 = agg_signature(_q("w", aggs=(AggSpec("COUNT_STAR"),)))
    assert s4 != s1


def test_no_kleene_queries_are_singletons():
    q = Query(qid="nk", elems=seq(Atom("A"), Atom("B")))
    sets = sharable_sets([_q("a"), q, _q("b", prefix="C")])
    assert [[x.qid for x in s] for s in sets] == [["nk"], ["a", "b"]]


def test_plan_derives_kleene_type_and_pane():
    """A plan's E is the smallest Kleene type all its queries have (None
    without one), and its pane the gcd of their windows and slides."""
    two = Query(qid="ab", elems=seq(Kleene("A"), Kleene("B")))
    cb = Query(qid="cb", elems=seq(Atom("C"), Kleene("B")))
    ba = Query(qid="ba", elems=seq(Kleene("B"), Kleene("A")))
    nk = Query(qid="nk", elems=seq(Atom("A"), Atom("B")))
    assert HamletPlan([two, cb]).E == "B"
    assert HamletPlan([two, ba]).E == "A"
    assert HamletPlan([nk]).E is None
    assert HamletPlan([nk, cb]).E is None
    a = _q("a", window=120.0)
    a.slide = 60.0
    b = _q("b", window=90.0)
    assert HamletPlan([a]).pane == pytest.approx(60.0)
    assert HamletPlan([a, b]).pane == pytest.approx(30.0)
