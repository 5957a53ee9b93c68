"""Finite-set constructions and their universal properties.

`qsheaf.finset` holds the equalizer and the product object the program
uses; the coequalizer, product with projections, pullback, coproduct
and inverse live in `finset_oracles`, beside these tests, as reference
implementations for other test modules.

Expected values are computed by independent oracles inside the tests
(plain comprehensions and naive fixpoint closures), never by calling
the code under test twice.
"""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finset_oracles as oracles
from qsheaf import finset
from qsheaf.errors import CodomainMismatch, DomainMismatch, InvalidSpec
from qsheaf.finset import FinMap, FinSetObj


def fmap(dom, cod, pairs):
    return FinMap(FinSetObj(dom), FinSetObj(cod), dict(pairs))


# deterministic small-instance strategies

labels = st.sampled_from(["a", "b", "c", "d", 0, 1, 2])


@st.composite
def objects(draw, max_size=4):
    return FinSetObj(draw(st.sets(labels, min_size=0, max_size=max_size)))


@st.composite
def parallel_pairs(draw):
    dom = draw(objects(max_size=3))
    cod = draw(objects(max_size=3))
    maps = list(finset.all_maps(dom, cod))
    if not maps:
        cod = FinSetObj(set(cod.elements) | {"z"})
        maps = list(finset.all_maps(dom, cod))
    f = draw(st.sampled_from(maps))
    g = draw(st.sampled_from(maps))
    return f, g


def test_obj_canonical_order_and_equality():
    a = FinSetObj(["b", "a", 2, 0])
    assert a.elements == (0, 2, "a", "b")
    assert a == FinSetObj([0, "a", 2, "b"])
    assert len(a) == 4 and "a" in a and 1 not in a


def test_obj_rejects_duplicates_and_bad_labels():
    with pytest.raises(InvalidSpec):
        FinSetObj(["a", "a"])
    with pytest.raises(InvalidSpec):
        finset.label_key(1.5)


def test_map_validation_errors():
    a, b = FinSetObj(["x", "y"]), FinSetObj(["u"])
    with pytest.raises(DomainMismatch):
        FinMap(a, b, {"x": "u"})
    with pytest.raises(CodomainMismatch):
        FinMap(a, b, {"x": "u", "y": "v"})
    f = FinMap(a, b, {"x": "u", "y": "u"})
    with pytest.raises(DomainMismatch):
        f("z")


@pytest.mark.parametrize("size", [1, 8, 9, 40])
def test_map_codomain_check_on_small_and_large_codomains(size):
    """Values are checked against a set of the codomain, and a stray is
    named by a scan: the same verdicts and messages at every codomain
    size, unhashable values included."""
    a, b = FinSetObj(["x", "y"]), FinSetObj(range(size))
    ends = {"x": 0, "y": size - 1}
    assert FinMap(a, b, ends).assignment == ends
    for stray in (size, "0", ["0"], {"k": 0}):
        message = re.escape(f"value {stray!r} at 'y'")
        with pytest.raises(CodomainMismatch, match=message):
            FinMap(a, b, {"x": 0, "y": stray})


def test_compose_and_identity():
    f = fmap(["a", "b"], ["x", "y"], [("a", "x"), ("b", "y")])
    g = fmap(["x", "y"], [0, 1], [("x", 0), ("y", 1)])
    gf = finset.compose(g, f)
    assert gf("a") == 0 and gf("b") == 1
    ida = finset.identity(f.dom)
    assert finset.compose(f, ida) == f
    with pytest.raises(DomainMismatch):
        finset.compose(f, g)


def test_equalizer_example():
    # f(a)=x f(b)=x, g(a)=x g(b)=y: only a agrees
    f = fmap(["a", "b"], ["x", "y"], [("a", "x"), ("b", "x")])
    g = fmap(["a", "b"], ["x", "y"], [("a", "x"), ("b", "y")])
    sub, incl = finset.equalizer(f, g)
    assert sub == FinSetObj(["a"])
    assert incl("a") == "a"


def test_coequalizer_chain_collapses_to_least_label():
    # relations x~y and y~z generated by two maps from a two-point set
    f = fmap([0, 1], ["x", "y", "z"], [(0, "x"), (1, "y")])
    g = fmap([0, 1], ["x", "y", "z"], [(0, "y"), (1, "z")])
    quo, proj = oracles.coequalizer(f, g)
    assert quo == FinSetObj(["x"])
    assert proj("x") == proj("y") == proj("z") == "x"


def test_product_and_pair_labels():
    a, b = FinSetObj(["a", "b"]), FinSetObj([0])
    obj, p1, p2 = oracles.product(a, b)
    assert obj == FinSetObj(["(a,0)", "(b,0)"])
    assert p1("(a,0)") == "a" and p2("(a,0)") == 0


def test_product_with_empty_is_empty():
    obj, _, _ = oracles.product(FinSetObj(["a"]), finset.EMPTY)
    assert len(obj) == 0


def test_pullback_example():
    f = fmap(["a", "b"], ["0", "1"], [("a", "0"), ("b", "1")])
    g = fmap(["u", "v"], ["0", "1"], [("u", "0"), ("v", "0")])
    obj, p1, p2 = oracles.pullback(f, g)
    assert obj == FinSetObj(["(a,u)", "(a,v)"])
    assert p1("(a,u)") == "a" and p2("(a,v)") == "v"
    with pytest.raises(CodomainMismatch):
        oracles.pullback(f, fmap(["u"], ["z"], [("u", "z")]))


def test_coproduct_tags():
    a, b = FinSetObj(["x"]), FinSetObj(["x", "y"])
    obj, (i0, i1) = oracles.coproduct([a, b])
    assert obj == FinSetObj(["0:x", "1:x", "1:y"])
    assert i0("x") == "0:x" and i1("x") == "1:x"


def test_empty_coproduct_is_initial():
    obj, injections = oracles.coproduct([])
    assert obj == finset.EMPTY and injections == []


def test_all_maps_count_and_order():
    a, b = FinSetObj(["p", "q"]), FinSetObj([0, 1, 2])
    maps = list(finset.all_maps(a, b))
    assert len(maps) == 9
    assert len(set(maps)) == 9
    assert list(finset.all_maps(b, finset.EMPTY)) == []
    assert len(list(finset.all_maps(finset.EMPTY, finset.EMPTY))) == 1


def test_bijectivity_and_inverse():
    f = fmap(["a", "b"], [0, 1], [("a", 1), ("b", 0)])
    assert f.is_bijective()
    assert oracles.inverse(f)(0) == "b"
    g = fmap(["a", "b"], [0, 1], [("a", 0), ("b", 0)])
    assert not g.is_injective() and not g.is_surjective()
    with pytest.raises(DomainMismatch):
        oracles.inverse(g)


@settings(max_examples=60, deadline=None)
@given(parallel_pairs())
def test_equalizer_universal_property(pair):
    f, g = pair
    sub, incl = finset.equalizer(f, g)
    # oracle: the agreement subset
    assert set(sub.elements) == {x for x in f.dom if f(x) == g(x)}
    assert finset.compose(f, incl) == finset.compose(g, incl)
    probe = FinSetObj(["t0", "t1"])
    for h in finset.all_maps(probe, f.dom):
        if finset.compose(f, h) != finset.compose(g, h):
            continue
        factorings = [
            u for u in finset.all_maps(probe, sub) if finset.compose(incl, u) == h
        ]
        assert len(factorings) == 1


@settings(max_examples=60, deadline=None)
@given(parallel_pairs())
def test_coequalizer_universal_property(pair):
    f, g = pair
    quo, proj = oracles.coequalizer(f, g)
    assert finset.compose(proj, f) == finset.compose(proj, g)
    # oracle: naive fixpoint closure, no union-find
    classes = {y: {y} for y in f.cod}
    changed = True
    while changed:
        changed = False
        for x in f.dom:
            cf, cg = classes[f(x)], classes[g(x)]
            if cf is not cg:
                merged = cf | cg
                for y in merged:
                    classes[y] = merged
                changed = True
    n_classes = len({id(c) for c in classes.values()})
    assert len(quo) == n_classes
    for y in f.cod:
        assert classes[y] == {z for z in f.cod if proj(z) == proj(y)}
    probe = FinSetObj([0, 1])
    for h in finset.all_maps(f.cod, probe):
        if finset.compose(h, f) != finset.compose(h, g):
            continue
        factorings = [
            u for u in finset.all_maps(quo, probe) if finset.compose(u, proj) == h
        ]
        assert len(factorings) == 1


@settings(max_examples=40, deadline=None)
@given(objects(max_size=3), objects(max_size=3))
def test_product_universal_property(a, b):
    obj, p1, p2 = oracles.product(a, b)
    assert len(obj) == len(a) * len(b)
    probe = FinSetObj(["t0", "t1"])
    for h1, h2 in itertools.product(
        finset.all_maps(probe, a), finset.all_maps(probe, b)
    ):
        mediating = [
            u
            for u in finset.all_maps(probe, obj)
            if finset.compose(p1, u) == h1 and finset.compose(p2, u) == h2
        ]
        assert len(mediating) == 1


@settings(max_examples=40, deadline=None)
@given(parallel_pairs())
def test_pullback_universal_property(pair):
    f, g = pair
    obj, p1, p2 = oracles.pullback(f, g)
    # oracle: agreement pairs
    assert len(obj) == sum(1 for x in f.dom for y in g.dom if f(x) == g(y))
    assert finset.compose(f, p1) == finset.compose(g, p2)
    probe = FinSetObj(["t0"])
    for h1 in finset.all_maps(probe, f.dom):
        for h2 in finset.all_maps(probe, g.dom):
            if finset.compose(f, h1) != finset.compose(g, h2):
                continue
            mediating = [
                u
                for u in finset.all_maps(probe, obj)
                if finset.compose(p1, u) == h1 and finset.compose(p2, u) == h2
            ]
            assert len(mediating) == 1


@settings(max_examples=40, deadline=None)
@given(objects(max_size=3), objects(max_size=2))
def test_coproduct_universal_property(a, b):
    obj, (i0, i1) = oracles.coproduct([a, b])
    assert len(obj) == len(a) + len(b)
    probe = FinSetObj([0, 1])
    for h0 in finset.all_maps(a, probe):
        for h1 in finset.all_maps(b, probe):
            mediating = [
                u
                for u in finset.all_maps(obj, probe)
                if finset.compose(u, i0) == h0 and finset.compose(u, i1) == h1
            ]
            assert len(mediating) == 1


def test_empty_set_cases():
    e = finset.EMPTY
    sub, _ = finset.equalizer(finset.identity(e), finset.identity(e))
    assert sub == e
    quo, _ = oracles.coequalizer(finset.identity(e), finset.identity(e))
    assert quo == e
    obj, _, _ = oracles.pullback(
        FinMap(e, FinSetObj(["x"]), {}), FinMap(e, FinSetObj(["x"]), {})
    )
    assert obj == e
