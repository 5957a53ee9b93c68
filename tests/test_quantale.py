"""Quantale validation, classification and the bundled families.

Oracles: the three-element tables are recomputed literally inside the
tests; ideals_zmod is cross-checked against honest subset arithmetic
in Z/n.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsheaf import quantale as qt
from qsheaf.checks import CheckReport
from qsheaf.errors import InternalDefect, InvalidSpec
from qsheaf.quantale import Quantale


def build(raw):
    out = qt.validate_quantale(raw)
    assert isinstance(out, Quantale), getattr(out, "summary", lambda: out)()
    return out


def test_lukasiewicz_3_table_matches_independent_arithmetic():
    q = build(qt.lukasiewicz_chain(3))
    idx = {"0": 0, "h": 1, "1": 2}
    names = {v: k for k, v in idx.items()}
    for a, b in itertools.product(idx, repeat=2):
        expected = names[max(idx[a] + idx[b] - 2, 0)]
        assert q.mul(a, b) == expected
    assert q.mul("h", "h") == "0"
    assert q.leq("0", "h") and q.leq("h", "1") and not q.leq("1", "h")
    assert q.top == "1" and q.bottom == "0" and q.unit == "1"


def test_truncated_nat_reversed_order():
    q = build(qt.truncated_nat(3))
    assert q.top == "0" and q.bottom == "3" and q.unit == "0"
    assert q.leq("2", "1") and not q.leq("1", "2")
    assert q.mul("1", "2") == "3" and q.mul("3", "3") == "3"
    # join is numeric min
    assert q.join(["1", "2"]) == "1"


def test_ideals_zmod4_is_three_chain_with_nilpotent_middle():
    q = build(qt.ideals_zmod(4))
    assert set(q.elements) == {"(0)", "(2)", "(1)"}
    assert q.mul("(2)", "(2)") == "(0)"
    assert q.leq("(0)", "(2)") and q.leq("(2)", "(1)")
    assert q.unit == "(1)" and q.top == "(1)"


def zmod_ideal_oracle(n):
    """Ideals of Z/n as literal subsets, with honest sum and product."""
    ring = range(n)
    ideals = {}
    for d in range(1, n + 1):
        if n % d == 0:
            members = frozenset(x for x in ring if x % d == 0)
            ideals["(0)" if d == n else f"({d})"] = members
    return ideals


def subset_product(n, one, two):
    return frozenset((a * b) % n for a in one for b in two)


def subset_sum(n, one, two):
    return frozenset((a + b) % n for a in one for b in two)


@pytest.mark.parametrize("n", [4, 12])
def test_ideals_zmod_matches_subset_arithmetic(n):
    q = build(qt.ideals_zmod(n))
    ideals = zmod_ideal_oracle(n)
    assert set(q.elements) == set(ideals)
    by_set = {v: k for k, v in ideals.items()}
    for a, b in itertools.product(q.elements, repeat=2):
        # order is inclusion
        assert q.leq(a, b) == (ideals[a] <= ideals[b])
        # multiplication is the ideal generated by pointwise products;
        # the ideal generated by a subset of Z/n is (gcd of it and n)
        prod = subset_product(n, ideals[a], ideals[b])
        gen = n
        for x in prod:
            gen = math.gcd(gen, x)
        lab = "(0)" if gen == n else f"({gen})"
        assert q.mul(a, b) == lab
        # join is ideal sum
        assert q.join([a, b]) == by_set[subset_sum(n, ideals[a], ideals[b])]


def test_powerset_locale_is_intersection():
    q = build(qt.powerset_locale(2))
    assert set(q.elements) == {"{}", "{x}", "{y}", "{xy}"}
    assert q.mul("{x}", "{y}") == "{}"
    assert q.meet("{x}", "{xy}") == "{x}"
    assert q.join(["{x}", "{y}"]) == "{xy}"


def test_classification_flags():
    flags = {
        name: qt.classify_quantale(qt.build_standard(name, p))
        for name, p in [
            ("powerset_locale", 2),
            ("chain_locale", 3),
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("ideals_zmod", 4),
            ("ideals_zmod", 12),
        ]
    }
    assert flags["powerset_locale"].locale and flags["powerset_locale"].idempotent
    assert flags["chain_locale"].locale and flags["chain_locale"].integral
    luk = flags["lukasiewicz_chain"]
    assert luk.commutative and not luk.idempotent and not luk.locale
    assert luk.integral and luk.semicartesian and luk.unital
    tn = flags["truncated_nat"]
    assert tn.commutative and not tn.locale and tn.integral
    for key in ("ideals_zmod",):
        assert flags[key].commutative and flags[key].integral
    # every bundled instance is semicartesian and unital
    for f in flags.values():
        assert f.semicartesian and f.unital


def test_right_sided_flag():
    q = build(qt.powerset_locale(1))
    assert qt.classify_quantale(q).right_sided
    tn = build(qt.truncated_nat(2))
    # a * top = a * 0 = a under truncated addition, so right-sided holds
    assert qt.classify_quantale(tn).right_sided


def test_leq_closure_at_parse_time():
    raw = {
        "elements": ["0", "1", "2"],
        "leq": [["0", "1"], ["1", "2"]],
        "mul": {f"{a},{b}": str(min(int(a), int(b))) for a in "012" for b in "012"},
        "unit": "2",
    }
    q = build(raw)
    assert q.leq("0", "2")


def test_validation_witnesses():
    chain = qt.chain_locale(3)

    bad = dict(chain)
    bad["leq"] = chain["leq"] + [["2", "0"]]
    rep = qt.validate_quantale(bad)
    assert isinstance(rep, CheckReport) and not rep.ok
    assert any(e.name == "NotAPoset" for e in rep.failures())

    incomparable = {
        "elements": ["a", "b"],
        "leq": [],
        "mul": {"a,a": "a", "a,b": "a", "b,a": "a", "b,b": "b"},
    }
    rep = qt.validate_quantale(incomparable)
    assert any(e.name == "NotComplete" for e in rep.failures())

    bad = dict(chain)
    bad["mul"] = dict(chain["mul"])
    bad["mul"]["1,1"] = "2"  # min broken: (1*1)*0 vs 1*(1*0) both fine, but laws break
    rep = qt.validate_quantale(bad)
    assert isinstance(rep, CheckReport)
    kinds = {e.name for e in rep.failures()}
    assert kinds & {"NotAssociative", "NotDistributive", "UnitLawFails"}

    bad = dict(chain)
    bad["unit"] = "0"
    rep = qt.validate_quantale(bad)
    assert any(e.name == "UnitLawFails" for e in rep.failures())
    witness = [e for e in rep.failures() if e.name == "UnitLawFails"][0]
    assert witness.witness == "declared unit 0 does not absorb at 1"


def test_distributivity_witness_subset():
    # mul that ignores joins: constant top except on bottom
    raw = {
        "elements": ["0", "1", "2"],
        "leq": [["0", "1"], ["1", "2"]],
        "mul": {
            f"{a},{b}": "2" for a in "012" for b in "012"
        },
    }
    rep = qt.validate_quantale(raw)
    assert isinstance(rep, CheckReport)
    dist = [e for e in rep.failures() if e.name == "NotDistributive"]
    assert dist and all("join{" in e.witness for e in dist)
    # the empty-join (bottom) case must be among the witnesses
    assert any("join{}" in e.witness for e in dist)


def test_structural_errors_raise():
    with pytest.raises(InvalidSpec):
        qt.validate_quantale({"elements": []})
    with pytest.raises(InvalidSpec):
        qt.validate_quantale({"elements": ["a"], "mul": {}})
    with pytest.raises(InvalidSpec):
        qt.validate_quantale({"elements": ["a"], "mul": {"a,a": "b"}})
    with pytest.raises(InvalidSpec):
        qt.validate_quantale(
            {"elements": ["a"], "leq": [["a"]], "mul": {"a,a": "a"}}
        )
    for leq in (5, None, True, {}, "ab"):
        with pytest.raises(InvalidSpec):
            qt.validate_quantale({"elements": ["a"], "leq": leq, "mul": {"a,a": "a"}})
    with pytest.raises(InvalidSpec):
        qt.build_standard("nope", 3)


def test_classify_raises_internal_defect_when_integral_and_semicartesian_disagree():
    # built directly, past validation: 0*0 = 1 is not below 0, yet unit = top
    q = Quantale(
        ["0", "1"],
        {("0", "0"), ("0", "1"), ("1", "1")},
        {("0", "0"): "1", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "1"},
        unit="1",
    )
    with pytest.raises(InternalDefect):
        qt.classify_quantale(q)


def test_roundtrip_raw():
    q = qt.build_standard("lukasiewicz_chain", 3)
    again = build(q.to_raw())
    assert again == q


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(
        [
            ("powerset_locale", 2),
            ("chain_locale", 3),
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 2),
            ("ideals_zmod", 4),
        ]
    ),
    st.data(),
)
def test_single_cell_mutations_are_caught_or_lawful(bundle, data):
    """Flipping one mul cell either breaks a law (reported) or stays lawful."""
    name, param = bundle
    raw = qt.STANDARD[name](param)
    els = raw["elements"]
    key = data.draw(st.sampled_from(sorted(raw["mul"])))
    val = data.draw(st.sampled_from(els))
    mutated = dict(raw)
    mutated["mul"] = dict(raw["mul"])
    old = mutated["mul"][key]
    mutated["mul"][key] = val
    out = qt.validate_quantale(mutated)
    if val == old:
        assert isinstance(out, Quantale)
    elif isinstance(out, CheckReport):
        assert out.failures()
    else:
        # a lawful variant; verify unit laws really hold for it
        assert all(out.mul(out.unit, a) == a for a in out.elements)
