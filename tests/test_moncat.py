"""Monoidal instances, projections, pseudo-pullbacks, factorizations.

The l/r projection factorizations of the strong prelopology are asked
only of thin sites, where `ThinCategory.l_r_factor` answers them by an
order test; `tests/test_coverage.py` compares it with the generic search.
Whether tensoring preserves equalizers is asked only here, by
`tensor_preserves_equalizers` below.
"""

import itertools

import pytest

import finset_oracles as oracles
from monoidal_laws import is_iso
from qsheaf import finset
from qsheaf.errors import CodomainMismatch, DomainMismatch, InvalidSpec
from qsheaf.finset import FinMap, FinSetObj
from qsheaf.moncat import (
    FinSetCategory,
    Mor,
    ProductCategory,
    ThinCategory,
    is_semicartesian,
    projection1,
    projection2,
    pseudo_pullback,
    trivial_equalizer,
)
from qsheaf.quantale import build_standard


def luk3_site():
    return ThinCategory.from_quantale(build_standard("lukasiewicz_chain", 3))


def tnat3_site():
    return ThinCategory.from_quantale(build_standard("truncated_nat", 3))


def tensor_preserves_equalizers(c, u, f, g):
    """Compare u (x) Eq(f,g) with Eq(id_u (x) f, id_u (x) g).

    Returns (preserved, comparison morphism). The comparison is the
    unique factorization of id_u (x) e through the second equalizer;
    preservation means it is invertible.
    """
    _, e = c.equalizer(f, g)
    id_u = c.identity(u)
    _, e2 = c.equalizer(c.tensor_mor(id_u, f), c.tensor_mor(id_u, g))
    gamma = c.factor_through_mono(e2, c.tensor_mor(id_u, e))
    if gamma is None:
        return False, None
    return is_iso(c, gamma), gamma


# ---------------------------------------------------------------------------
# thin instances


class TestThin:
    def test_hom_sets_follow_order(self):
        c = luk3_site()
        assert len(c.hom("0", "h")) == 1
        assert len(c.hom("1", "h")) == 0
        assert len(c.hom("h", "h")) == 1

    def test_unit_is_terminal(self):
        assert is_semicartesian(luk3_site())
        assert is_semicartesian(tnat3_site())

    def test_not_semicartesian_when_unit_below_top(self):
        # additive 3-chain ordered upward: unit 0 is the bottom
        c = ThinCategory.from_ordered_monoid(
            elements=["0", "1", "2"],
            leq_pairs=[("0", "1"), ("1", "2")],
            mul={
                (a, b): str(min(int(a) + int(b), 2))
                for a in "012"
                for b in "012"
            },
            unit="0",
        )
        assert not is_semicartesian(c)

    def test_projections_are_the_unique_arrows(self):
        c = luk3_site()
        p1 = projection1(c, "h", "1")
        assert (p1.dom, p1.cod) == ("h", "h")
        p2 = projection2(c, "h", "h")
        assert (p2.dom, p2.cod) == ("0", "h")

    def test_ppb_apex_is_multiplication(self):
        c = luk3_site()
        ppb = pseudo_pullback(c, c.arrow("h", "1"), c.arrow("h", "1"))
        assert ppb.obj == "0"
        assert ppb.p1 == Mor("0", "h")
        assert ppb.p2 == Mor("0", "h")

    @pytest.mark.parametrize("site", [luk3_site(), tnat3_site()])
    def test_ppb_apex_is_multiplication_everywhere(self, site):
        for u in site.objects():
            for a in site.objects():
                for b in site.objects():
                    if not (site.leq(a, u) and site.leq(b, u)):
                        continue
                    ppb = pseudo_pullback(
                        site, site.arrow(a, u), site.arrow(b, u)
                    )
                    assert ppb.obj == site.tensor_obj(a, b)

    def test_ordered_monoid_closure_is_transitive(self):
        c = ThinCategory.from_ordered_monoid(
            elements=["a", "b", "c"],
            leq_pairs=[("a", "b"), ("b", "c")],
            mul={(x, y): max(x, y) for x in "abc" for y in "abc"},
            unit="a",
        )
        assert c.leq("a", "c")

    def test_rejects_non_associative_mul(self):
        # (aa)b = bb = a but a(ab) = aa = b
        mul = {(x, y): "a" for x in "ab" for y in "ab"}
        mul[("a", "a")] = "b"
        with pytest.raises(InvalidSpec):
            ThinCategory(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")], mul)

    def test_rejects_non_monotone_mul(self):
        # two-element group: associative, but b*a = b is not below b*b = a
        mul = {
            ("a", "a"): "a",
            ("a", "b"): "b",
            ("b", "a"): "b",
            ("b", "b"): "a",
        }
        with pytest.raises(InvalidSpec):
            ThinCategory(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")], mul)

    def test_product_of_thin_sites(self):
        p = ThinCategory.product(
            ThinCategory.from_quantale(build_standard("chain_locale", 2)),
            luk3_site(),
        )
        assert p.unit == ("1", "1")
        assert p.leq(("0", "h"), ("1", "1"))
        assert not p.leq(("1", "h"), ("0", "1"))
        assert p.tensor_obj(("1", "h"), ("1", "h")) == ("1", "0")
        assert is_semicartesian(p)

    def test_thin_equalizer_is_identity(self):
        c = luk3_site()
        f = c.arrow("h", "1")
        obj, e = c.equalizer(f, f)
        assert obj == "h"
        assert e == c.identity("h")

    def test_factor_through_mono_uses_order(self):
        c = luk3_site()
        m = c.arrow("h", "1")
        assert c.factor_through_mono(m, c.arrow("0", "1")) == Mor("0", "h")
        assert c.factor_through_mono(c.arrow("0", "1"), m) is None


# ---------------------------------------------------------------------------
# finite sets


def fs():
    return FinSetCategory(max_size=3)


class TestFinSet:
    def test_projections_select_components(self):
        c = fs()
        a = FinSetObj(["a1", "a2"])
        b = FinSetObj(["b1"])
        p1 = projection1(c, a, b)
        p2 = projection2(c, a, b)
        for x in a:
            for y in b:
                lab = finset.pair_label(x, y)
                assert p1.data(lab) == x
                assert p2.data(lab) == y

    def test_ppb_matches_pullback(self):
        c = fs()
        a = FinSetObj(["a1", "a2"])
        b = FinSetObj(["b1", "b2"])
        t = FinSetObj(["t1", "t2"])
        for fa in finset.all_maps(a, t):
            for gb in finset.all_maps(b, t):
                ppb = pseudo_pullback(c, Mor(a, t, fa), Mor(b, t, gb))
                pb_obj, pb1, pb2 = oracles.pullback(fa, gb)
                assert ppb.obj == pb_obj
                for z in ppb.obj:
                    assert ppb.p1.data(z) == pb1(z)
                    assert ppb.p2.data(z) == pb2(z)

    def test_ppb_universal_property(self):
        c = fs()
        a = FinSetObj(["a1", "a2"])
        t = FinSetObj(["t1", "t2"])
        f = Mor(a, t, FinMap(a, t, {"a1": "t1", "a2": "t2"}))
        g = Mor(a, t, FinMap(a, t, {"a1": "t1", "a2": "t1"}))
        ppb = pseudo_pullback(c, f, g)
        # any cone over the cospan factors uniquely through the apex
        w = FinSetObj(["w"])
        for q1 in finset.all_maps(w, a):
            for q2 in finset.all_maps(w, a):
                if finset.compose(f.data, q1) != finset.compose(g.data, q2):
                    continue
                mediators = [
                    m
                    for m in c.hom(w, ppb.obj)
                    if c.compose(ppb.p1, m) == Mor(w, a, q1)
                    and c.compose(ppb.p2, m) == Mor(w, a, q2)
                ]
                assert len(mediators) == 1

    def test_tensor_preserves_equalizers_everywhere(self):
        c = fs()
        sizes = [o for o in c.objects() if len(o) <= 2]
        count = 0
        for a, b in itertools.product(sizes, repeat=2):
            for fm in finset.all_maps(a, b):
                for gm in finset.all_maps(a, b):
                    for u in sizes:
                        ok, gamma = tensor_preserves_equalizers(
                            c, u, Mor(a, b, fm), Mor(a, b, gm)
                        )
                        assert ok
                        assert gamma is not None
                        count += 1
        assert count == 75  # 25 parallel pairs x 3 choices of U

    def test_factor_through_mono_finds_unique_map(self):
        c = fs()
        sub = FinSetObj(["a1"])
        amb = FinSetObj(["a1", "a2"])
        m = Mor(sub, amb, FinMap(sub, amb, {"a1": "a1"}))
        h_in = Mor(sub, amb, FinMap(sub, amb, {"a1": "a1"}))
        h_out = Mor(sub, amb, FinMap(sub, amb, {"a1": "a2"}))
        assert c.factor_through_mono(m, h_in) is not None
        assert c.factor_through_mono(m, h_out) is None

    def test_factor_through_mono_matches_the_composite_check(self):
        def checked(c, m, h):
            # the preimage factorization, kept only when m . u == h
            preimage = {}
            for y in m.dom:
                preimage.setdefault(m.data(y), y)
            if any(h.data(x) not in preimage for x in h.dom):
                return None
            u = Mor(h.dom, m.dom, FinMap(
                h.dom, m.dom, {x: preimage[h.data(x)] for x in h.dom}
            ))
            return u if c.compose(m, u) == h else None

        c = FinSetCategory(max_size=2)
        seen = set()
        for a, b, cod in itertools.product(c.objects(), repeat=3):
            for m, h in itertools.product(c.hom(a, cod), c.hom(b, cod)):
                expected = checked(c, m, h)
                assert c.factor_through_mono(m, h) == expected
                seen.add((m.data.is_injective(), expected is not None))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_empty_set_edge_cases(self):
        c = fs()
        empty = finset.EMPTY
        one = FinSetObj(["s0"])
        assert c.tensor_obj(empty, one) == empty
        p1 = projection1(c, one, empty)
        assert p1.dom == empty
        assert len(c.hom(empty, c.unit)) == 1

    def test_tensor_obj_is_the_product_built_once(self):
        c = FinSetCategory(max_size=2)
        gens = c.objects()
        objs = gens + [c.tensor_obj(a, b) for a in gens for b in gens]
        for a, b in itertools.product(objs, repeat=2):
            t = c.tensor_obj(a, b)
            assert t == oracles.product(a, b)[0]
            assert c.tensor_obj(a, b) is t

    def test_colliding_pair_labels_rejected(self):
        a = FinSetObj(["x,y", "x"])
        b = FinSetObj(["z", "y,z"])  # "(x,y,z)" arises from two pairs
        with pytest.raises(InvalidSpec, match="pair labels collide"):
            oracles.product(a, b)
        with pytest.raises(InvalidSpec, match="pair labels collide"):
            FinSetCategory().tensor_obj(a, b)


# ---------------------------------------------------------------------------
# componentwise products


class TestProduct:
    def test_hom_sizes_multiply(self):
        p = ProductCategory(fs(), luk3_site())
        a = (FinSetObj(["s0"]), "h")
        b = (FinSetObj(["s0", "s1"]), "1")
        assert len(p.hom(a, b)) == 2 * 1

    def test_ppb_is_componentwise(self):
        c1, c2 = fs(), luk3_site()
        p = ProductCategory(c1, c2)
        a = FinSetObj(["a1", "a2"])
        t = FinSetObj(["t1"])
        f1 = Mor(a, t, FinMap(a, t, {"a1": "t1", "a2": "t1"}))
        f = p._pair(f1, c2.arrow("h", "1"))
        g = p._pair(f1, c2.arrow("h", "1"))
        ppb = pseudo_pullback(p, f, g)
        left = pseudo_pullback(c1, f1, f1)
        right = pseudo_pullback(c2, c2.arrow("h", "1"), c2.arrow("h", "1"))
        assert ppb.obj == (left.obj, right.obj)
        assert ppb.p1.data[0] == left.p1
        assert ppb.p2.data[1] == right.p2

    def test_tensor_preservation_componentwise(self):
        p = ProductCategory(fs(), luk3_site())
        a = (FinSetObj(["a1"]), "h")
        b = (FinSetObj(["t1", "t2"]), "1")
        u = (FinSetObj(["s0", "s1"]), "h")
        f = p.hom(a, b)[0]
        ok, _ = tensor_preserves_equalizers(p, u, f, f)
        assert ok


# ---------------------------------------------------------------------------
# the factorization searches behind tensor-stability


class TestFactorizations:
    def test_thin_always_factors(self):
        c = luk3_site()
        legs = [c.arrow("h", "1"), c.arrow("1", "1")]
        for v in c.objects():
            for fi, fj in itertools.product(legs, repeat=2):
                assert c.l_r_factor(fi, fj, v)

    def test_mismatched_legs_rejected(self):
        c = luk3_site()
        with pytest.raises(CodomainMismatch, match="legs must share a codomain"):
            c.l_r_factor(c.arrow("h", "1"), c.arrow("h", "h"), c.unit)


class TestMorSanity:
    def test_compose_checks_chaining(self):
        c = luk3_site()
        with pytest.raises(DomainMismatch):
            c.compose(c.arrow("h", "1"), c.arrow("0", "0"))

    def test_mor_equality_and_hash(self):
        a = FinSetObj(["a1"])
        m1 = Mor(a, a, finset.identity(a))
        m2 = Mor(a, a, finset.identity(a))
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert len({m1, m2}) == 1
