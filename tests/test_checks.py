"""The check driver: `drain` and `drain_each` stop at the first failure, `collect` keeps all."""

import pytest

from qsheaf.checks import CheckEntry, collect, drain, drain_each


def instances(outcomes, seen):
    """Yield each outcome in turn, logging every instance that was reached."""
    for i, witness in enumerate(outcomes):
        seen.append(i)
        yield witness


def test_drain_counts_the_failing_instance_and_stops_there():
    seen = []
    entry = drain("law", instances([None, None, "w2", "w3", None], seen))
    assert entry == CheckEntry("law", False, 3, "w2")
    assert seen == [0, 1, 2]


def test_drain_counts_every_instance_that_holds():
    assert drain("law", iter([None] * 4)) == CheckEntry("law", True, 4)


def test_drain_lets_an_exception_propagate():
    def broken():
        yield None
        raise ValueError("bad instance")

    with pytest.raises(ValueError, match="bad instance"):
        drain("law", broken())


def test_collect_returns_every_witness_in_order_uncounted():
    seen = []
    entries = collect("law", instances([None, "w1", None, "w3", "w4"], seen))
    assert entries == [
        CheckEntry("law", False, None, "w1"),
        CheckEntry("law", False, None, "w3"),
        CheckEntry("law", False, None, "w4"),
    ]
    assert seen == [0, 1, 2, 3, 4]


def test_collect_is_empty_when_every_instance_holds():
    assert collect("law", iter([None, None])) == []


def test_drain_each_stops_each_law_at_its_own_first_failure():
    seen = []
    rows = [(None, None), (None, "b1"), (None, "b2"), ("a3", None), (None, None)]
    assert drain_each(("a", "b"), instances(rows, seen)) == [
        CheckEntry("a", False, 4, "a3"),
        CheckEntry("b", False, 2, "b1"),
    ]
    # not resumed once every law has failed
    assert seen == [0, 1, 2, 3]


def test_drain_each_counts_every_instance_for_a_law_that_holds():
    rows = iter([(None, None), ("a1", None), (None, None)])
    assert drain_each(("a", "b"), rows) == [
        CheckEntry("a", False, 2, "a1"),
        CheckEntry("b", True, 3),
    ]
