"""The backtracking enumerators against brute force straight from the definitions.

Each enumerator built on `presheaf.backtrack` is compared with a search
over every candidate, filtered by the defining predicate, on the corpus
sites and presheaves. The per-site tables the enumerators read (the site
order, its Hasse lists, the arrows and the pseudo-pullbacks) are checked
the same way, and are shown to be built once per site and never handed
out mutable. Cover-family keys, built on demand, are checked against the
formula they were once built by eagerly, and the clamped domain multisets
that explicit membership compares against the clamp of the sorted keys.
A cover's compiled restriction keys are checked against the site's
overlaps, and the coverage checks are shown never to compile one.
"""

import functools
import itertools
import json

import pytest

import qsheaf.finset
import qsheaf.presheaf
import qsheaf.reflect
from qsheaf.cli import corpus_dir, main
from qsheaf.coverage import (
    CoverFamily,
    canonical_quantale_coverage,
    check_flavor,
    clamped_multiset,
    parse_coverage,
    product_coverage,
)
from qsheaf.finset import FinSetObj, all_maps
from qsheaf.errors import DomainMismatch, InvalidSpec
from qsheaf.moncat import Mor, ThinCategory, canon, pseudo_pullback
from qsheaf.moncat.core import _build_pseudo_pullback
from qsheaf.presheaf import (
    Presheaf,
    PresheafMorphism,
    hasse_edges,
    hom_presheaves,
    parse_presheaf,
    site_order,
    validate_presheaf,
)
from qsheaf.quantale import validate_quantale
from qsheaf.reflect import _subpresheaves, enumerate_sheaves
from qsheaf.sheaf import (
    _down_set_supports,
    _matching_families,
    check_sheaf_equalizer,
    compatible_families,
)

SITES = {
    "luk3": ("site_luk3.json", "coverage_trivial_luk3.json"),
    "chain3": ("site_chain3.json", "coverage_trivial_chain3.json"),
    "powerset2": ("site_powerset2.json", "coverage_trivial_powerset2.json"),
    "tnat3": ("site_tnat3.json", "coverage_trivial_tnat3.json"),
    "product": (
        "site_product_chain2_luk3.json",
        "coverage_trivial_product_chain2_luk3.json",
    ),
}


def corpus(name):
    return json.loads((corpus_dir() / name).read_text())


@functools.cache
def load(key):
    """(site, quantale or None, [canonical, trivial coverage], presheaves)."""
    site_file, trivial_file = SITES[key]
    raw = corpus(site_file)
    if "product" in raw:
        lq = validate_quantale(raw["product"]["left"])
        rq = validate_quantale(raw["product"]["right"])
        lsite = ThinCategory.from_quantale(lq)
        rsite = ThinCategory.from_quantale(rq)
        site, q = ThinCategory.product(lsite, rsite), None
        canonical = product_coverage(
            canonical_quantale_coverage(lq, lsite),
            canonical_quantale_coverage(rq, rsite),
        )
    else:
        q = validate_quantale(raw)
        site = ThinCategory.from_quantale(q)
        canonical = canonical_quantale_coverage(q, site)
    coverages = [canonical, parse_coverage(site, corpus(trivial_file), quantale=q)]
    presheaves = [
        parse_presheaf(site, corpus(path.name))
        for path in sorted(corpus_dir().glob(f"presheaf_{key}_*.json"))
    ]
    assert presheaves
    return site, q, coverages, presheaves


@pytest.fixture(params=sorted(SITES))
def corpus_site(request):
    return load(request.param)


def comparable(site):
    """Every pair (v, u) of distinct objects with v <= u."""
    objs = site.objects()
    return [
        (v, u)
        for u in objs
        for v in objs
        if canon(v) != canon(u) and site.leq(v, u)
    ]


def is_compatible(f, cover, sections) -> bool:
    """Do the sections agree on every pairwise overlap?"""
    legs = cover.legs
    for i in range(len(legs)):
        for j in range(i + 1, len(legs)):
            t = f.site.overlap(legs[i], legs[j])
            lhs = f.restrict(t, legs[i].dom)(sections[i])
            rhs = f.restrict(t, legs[j].dom)(sections[j])
            if lhs != rhs:
                return False
    return True


def test_compatible_families_match_filtered_product(corpus_site):
    _, _, coverages, presheaves = corpus_site
    for coverage in coverages:
        for f in presheaves:
            for cover in coverage.all_families():
                candidates = itertools.product(
                    *(f.value(leg.dom) for leg in cover.legs)
                )
                brute = [
                    t for t in candidates if is_compatible(f, cover, t)
                ]
                assert compatible_families(f, cover) == brute, cover


def test_homs_match_natural_component_tuples(corpus_site):
    site, _, _, presheaves = corpus_site
    objs = site.objects()
    for f, g in itertools.product(presheaves, repeat=2):
        brute = []
        for comps in itertools.product(
            *(all_maps(f.value(u), g.value(u)) for u in objs)
        ):
            m = PresheafMorphism(
                f, g, {u: c for u, c in zip(objs, comps)}, check=False
            )
            if m.is_natural():
                brute.append(m)
        brute.sort(key=lambda m: m._key)
        assert hom_presheaves(f, g) == brute, (f, g)


def test_subpresheaves_are_the_restriction_closed_subsets(corpus_site):
    site, _, _, presheaves = corpus_site
    objs = site.objects()
    for f in presheaves:
        brute = set()
        for subsets in itertools.product(
            *(
                [
                    frozenset(c)
                    for r in range(len(f.value(u)) + 1)
                    for c in itertools.combinations(f.value(u), r)
                ]
                for u in objs
            )
        ):
            chosen = {canon(u): s for u, s in zip(objs, subsets)}
            if all(
                f.restrict(v, u)(x) in chosen[canon(v)]
                for v, u in comparable(site)
                for x in chosen[canon(u)]
            ):
                brute.add(tuple(sorted(chosen.items())))
        found = _subpresheaves(f)
        keys = [
            tuple(sorted((canon(u), frozenset(p.value(u))) for u in objs))
            for p in found
        ]
        assert len(set(keys)) == len(keys)
        assert set(keys) == brute
        for p in found:
            for v, u in comparable(site):
                for x in p.value(u):
                    assert p.restrict(v, u)(x) == f.restrict(v, u)(x)


# At size 1 no bucket can hold two sections; at size 2 the battery's
# pruning takes both of its exits, a doubled bucket and an unglued family.
@pytest.mark.parametrize(
    "key, max_size",
    [(key, 1) for key in sorted(SITES)] + [("chain3", 2), ("luk3", 2)],
    ids=[*sorted(SITES), "chain3-size2", "luk3-size2"],
)
def test_size_one_battery_is_every_sheaf_table(key, max_size):
    site, _, coverages, _ = load(key)
    objs = site.objects()
    labels = [f"v{i}" for i in range(max_size)]
    pairs = comparable(site)
    for coverage in coverages:
        brute = set()
        for sizes in itertools.product(range(len(labels) + 1), repeat=len(objs)):
            at = {
                u: FinSetObj(labels[:n]) for u, n in zip(objs, sizes)
            }
            for maps in itertools.product(
                *(all_maps(at[u], at[v]) for v, u in pairs)
            ):
                res = {
                    (v, u): m for (v, u), m in zip(pairs, maps)
                }
                p = Presheaf(site, at, res)
                if (
                    validate_presheaf(site, p).ok
                    and check_sheaf_equalizer(p, coverage).ok
                ):
                    brute.add(p)
        battery = enumerate_sheaves(site, coverage, max_size=max_size)
        assert len(set(battery)) == len(battery)
        assert set(battery) == brute



@pytest.mark.parametrize("key", ["chain3", "powerset2"])
def test_matching_families_are_every_matching_choice(key):
    site, q, coverages, presheaves = load(key)
    assert site.is_cartesian and coverages[0].join_rule
    order = site_order(site)[0]
    for f in presheaves:
        for u in site.objects():
            for support in _down_set_supports(site, q, u):
                members = [w for w in site.objects() if canon(w) in support]
                brute = []
                for xs in itertools.product(*(f.value(w) for w in members)):
                    pick = dict(zip(members, xs))
                    if all(
                        f.restrict(w, w2)(pick[w2]) == pick[w]
                        for w in members
                        for w2 in members
                        if site.leq(w, w2)
                    ):
                        brute.append(
                            tuple(sorted((canon(w), x) for w, x in pick.items()))
                        )
                found = _matching_families(f, order, support)
                assert sorted(found) == sorted(brute)


# ---------------------------------------------------------------------------
# the per-site tables


def test_site_order_matches_its_definition(corpus_site):
    site = corpus_site[0]
    objs = site.objects()
    down_size = {u: sum(site.leq(v, u) for v in objs) for u in objs}
    edges = hasse_edges(site)
    order, downs, ups = site_order(site)
    assert order == tuple(sorted(objs, key=lambda u: (down_size[u], canon(u))))
    for u in objs:
        assert downs[u] == tuple(v for v, w in edges if w == u)
        assert ups[u] == tuple(w for v, w in edges if v == u)
    assert site.pairs() == tuple(comparable(site))


def test_site_tables_cannot_be_changed_by_a_caller(corpus_site):
    site, _, _, presheaves = corpus_site
    objs = site.objects()
    order, downs, ups = site_order(site)
    pairs = site.pairs()
    expected = (list(order), dict(downs), dict(ups), list(pairs))
    objs.reverse()
    mine = list(order)
    mine.reverse()
    with pytest.raises(AttributeError):
        order.reverse()
    with pytest.raises(TypeError):
        downs[order[0]] = ()
    with pytest.raises(AttributeError):
        ups[order[0]].append(order[0])
    assert isinstance(pairs, tuple)
    with pytest.raises(AttributeError):
        pairs.reverse()
    hom_presheaves(presheaves[0], presheaves[0])
    _subpresheaves(presheaves[0])
    order, downs, ups = site_order(site)
    assert (list(order), dict(downs), dict(ups), list(site.pairs())) == expected
    assert site.objects() == sorted(objs, key=canon)


def test_one_hasse_scan_per_site(tmp_path, monkeypatch):
    """`sheafify --certify-battery 2` and `sub` each build one site, scanned once."""
    scanned = []

    def counting(site):
        scanned.append(site)
        return hasse_edges(site)

    monkeypatch.setattr(qsheaf.presheaf, "hasse_edges", counting)
    site = str(corpus_dir() / "site_product_chain2_luk3.json")
    coverage = str(corpus_dir() / "coverage_canonical.json")
    presheaf = str(corpus_dir() / "presheaf_product_terminal.json")
    out = str(tmp_path / "out.json")
    assert main(["sheafify", site, coverage, presheaf,
                 "--certify-battery", "2", "--out", out]) == 0
    assert main(["sub", site, coverage, presheaf]) == 0
    assert len(scanned) == 2 and scanned[0] is not scanned[1]


def test_battery_builds_one_identity_per_value_set(monkeypatch):
    """Identity restrictions are made when a value set is chosen, not per lookup."""
    site, _, coverages, _ = load("product")
    max_size = 2
    slots, made = [], []
    backtrack, identity = qsheaf.reflect.backtrack, qsheaf.finset.identity

    def counting_backtrack(n, options):
        def counted(k, chosen):
            if options.__name__ == "tables":
                slots.append(k)
            return options(k, chosen)
        return backtrack(n, counted)

    monkeypatch.setattr(qsheaf.reflect, "backtrack", counting_backtrack)
    monkeypatch.setattr(
        qsheaf.finset, "identity", lambda a: made.append(a) or identity(a)
    )
    battery = enumerate_sheaves(site, coverages[0], max_size=max_size)
    # one per value set tried at a slot, one per object of each sheaf built
    assert slots and battery
    assert len(made) <= (max_size + 1) * len(slots) + len(
        site.objects()
    ) * len(battery)


def _corpus_coverages():
    """(site, coverage) for every corpus site's canonical and trivial coverage."""
    for key in sorted(SITES):
        site, _, coverages, _ = load(key)
        for coverage in coverages:
            yield site, coverage
    q = validate_quantale(corpus("site_ideals4.json"))
    site = ThinCategory.from_quantale(q)
    yield site, canonical_quantale_coverage(q, site)
    yield site, parse_coverage(
        site, corpus("coverage_trivial_ideals4.json"), quantale=q
    )


def _corpus_sites():
    """Every site `_corpus_coverages` yields, once each."""
    sites = {}
    for site, _ in _corpus_coverages():
        sites.setdefault(id(site), site)
    return list(sites.values())


def test_overlap_table_holds_the_pseudo_pullback_apexes():
    """Each table entry equals a fresh construction, field by field."""
    pairs = 0
    for site, coverage in _corpus_coverages():
        for cover in coverage.all_families():
            for a, b in itertools.product(cover.legs, repeat=2):
                kept = pseudo_pullback(site, a, b)
                fresh = _build_pseudo_pullback(site, a, b)
                assert fresh is not kept
                for name in ("obj", "into", "p1", "p2", "tensor"):
                    assert getattr(kept, name) == getattr(fresh, name), name
                assert pseudo_pullback(site, a, b) is kept
                assert site.overlap(a, b) == fresh.obj
                pairs += 1
    assert pairs


def test_thin_site_hands_out_one_arrow_per_pair():
    for site in _corpus_sites():
        objs, unit = site.objects(), site.unit
        id_unit = site.identity(unit)
        for a, b in itertools.product(objs, repeat=2):
            if not site.leq(a, b):
                with pytest.raises(DomainMismatch):
                    site.arrow(a, b)
                assert site.hom(a, b) == []
                continue
            m = site.arrow(a, b)
            assert m == Mor(a, b)
            assert site.arrow(a, b) is m
            assert site.hom(a, b)[0] is m
            if a == b:
                assert site.identity(a) is m
            if b == unit:
                assert site.terminal(a) is m
            assert site.compose(site.identity(b), m) is m
            assert site.compose(m, site.identity(a)) is m
            assert site.factor_through_mono(site.identity(b), m) is m
            assert site.tensor_mor(m, id_unit) is m
            assert site.tensor_mor(id_unit, m) is m
            for c, d in itertools.product(objs, repeat=2):
                if site.leq(b, c):
                    assert site.compose(site.arrow(b, c), m) is site.arrow(a, c)
                if site.leq(c, d):
                    assert site.tensor_mor(m, site.arrow(c, d)) is site.arrow(
                        site.tensor_obj(a, c), site.tensor_obj(b, d)
                    )


def _eager_key(fam):
    """A cover family's key, by the formula its constructor once applied:
    the target's name and the sorted `(dom, cod, payload)` names of its
    legs, whose payload is empty on a thin site."""
    return (
        canon(fam.target),
        tuple(sorted((canon(m.dom), canon(m.cod), "") for m in fam.legs)),
    )


def _eager_clamped_key(key, cap):
    name, legs = key
    return (name, tuple(k for i, k in enumerate(legs) if legs[:i].count(k) < cap))


def test_cover_keys_built_on_demand_are_the_eager_keys():
    for site, coverage in _corpus_coverages():
        objs = site.objects()
        a, b = next(
            (a, b) for a in objs for b in objs if a != b and site.leq(a, b)
        )
        with pytest.raises(InvalidSpec):
            CoverFamily(a, [site.arrow(a, b)])
        families = list(coverage.all_families())
        assert families == sorted(families, key=_eager_key)
        for fam in families:
            key = (canon(fam.target), tuple(sorted(map(canon, fam.domains()))))
            assert CoverFamily(fam.target, fam.legs).key() == key
            doms = fam.domains()
            for cap in {1, 2, coverage.mult_cap}:
                for repeated in (doms, doms[::-1] * 3):
                    assert (fam.target, clamped_multiset(repeated, cap)) == (
                        _eager_clamped_key(
                            (fam.target, tuple(sorted(repeated))), cap
                        )
                    )
            assert hash(CoverFamily(fam.target, fam.legs)) == hash(key)
            assert CoverFamily(fam.target, fam.legs[::-1]) == fam
            assert coverage.covers(fam.target, doms)


def test_compiled_covers_hold_the_overlap_keys():
    for site, coverage in _corpus_coverages():
        for fam in coverage.all_families():
            compiled = fam.compiled(site)
            assert fam.compiled(site) is compiled and compiled.site is site
            doms = fam.domains()
            assert compiled.legs == tuple((d, fam.target) for d in doms)
            for (i, a), (j, b) in itertools.product(enumerate(fam.legs), repeat=2):
                w = site.overlap(a, b)
                assert compiled.overlaps[i][j] == w
                assert compiled.pairs[i][j] == ((w, doms[i]), (w, doms[j]))
    # a cover read on another site object is compiled again for that site
    q = validate_quantale(corpus("site_luk3.json"))
    first, second = (ThinCategory.from_quantale(q) for _ in range(2))
    fam = CoverFamily("1", [first.arrow("h", "1"), first.arrow("1", "1")])
    assert fam.compiled(first).site is first
    assert fam.compiled(second).site is second


def test_coverage_checks_never_compile_a_cover():
    for key in sorted(SITES):
        site, q, _, _ = load(key)
        fresh = parse_coverage(site, corpus(SITES[key][1]), quantale=q)
        assert check_flavor(fresh, "strong_prelopology").ok
        assert all(fam._compiled is None for fam in fresh.all_families())


def test_join_rule_checks_never_build_a_cover_key(monkeypatch):
    """The eager keys made 55,285 leg-key calls in this check."""
    coverage = load("tnat3")[2][0]
    assert coverage.join_rule
    calls = []
    key = CoverFamily.key
    monkeypatch.setattr(CoverFamily, "key", lambda f: calls.append(f) or key(f))
    assert check_flavor(coverage, "strong_prelopology").ok
    assert len(calls) == 0
