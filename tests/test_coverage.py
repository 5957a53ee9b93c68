"""Covering-family membership, flavor checkers, mutations, and products.

Membership and the five axiom generators are also checked against
oracles that keep their first formulation: membership from cover
families and their clamped leg keys, and axiom instances built from
composed and tensored morphisms, with a fresh generic search for the
l/r factorizations of every family: the maps out of each pseudo-pullback
that commute with both projections, filtered from the whole hom-set.
"""

import itertools
import json
import time

import pytest

from coverage_edits import with_family, without_family
from monoidal_laws import is_iso
from qsheaf import coverage as coverage_module
from qsheaf.checks import CheckEntry, drain
from qsheaf.cli import corpus_dir
from qsheaf.coverage import (
    CoverFamily,
    Coverage,
    canonical_quantale_coverage,
    check_flavor,
    default_mult_cap,
    parse_coverage,
    product_coverage,
    trivial_coverage,
)
from qsheaf.errors import (
    InvalidSpec,
    NotCartesianSite,
    NotSemicartesian,
    NotThinSite,
    UnverifiedInput,
)
from qsheaf.moncat import (
    FinSetCategory,
    ProductCategory,
    ThinCategory,
    canon,
    pseudo_pullback,
)
from qsheaf.quantale import Quantale, build_standard, validate_quantale


def make(name, param):
    q = build_standard(name, param)
    site = ThinCategory.from_quantale(q)
    return q, site, canonical_quantale_coverage(q, site)


def family(site, doms, target):
    return CoverFamily(target, [site.arrow(d, target) for d in doms])


def explicit_copy(cov):
    return Coverage(
        cov.site,
        list(cov.all_families()),
        join_rule=False,
        quantale=cov.quantale,
        mult_cap=cov.mult_cap,
    )


def mid_unit_chain3_raw():
    """3-chain 0 < e < t whose unit e sits strictly below the top."""
    els = ["0", "e", "t"]
    order = {"0": 0, "e": 1, "t": 2}
    leq = [[a, b] for a in els for b in els if order[a] <= order[b]]
    mul = {}
    for a in els:
        for b in els:
            if a == "0" or b == "0":
                mul[f"{a},{b}"] = "0"
            elif a == "e":
                mul[f"{a},{b}"] = b
            elif b == "e":
                mul[f"{a},{b}"] = a
            else:
                mul[f"{a},{b}"] = "t"
    return {"elements": els, "leq": leq, "mul": mul, "unit": "e"}


def noncommutative_chain4_raw():
    """4-chain 0 < a < b < 1 with top unit and a (x) b = 0 but b (x) a = a."""
    els = ["0", "a", "b", "1"]
    rank = {e: i for i, e in enumerate(els)}
    leq = [[x, y] for x in els for y in els if rank[x] <= rank[y]]
    mul = {"a,a": "0", "a,b": "0", "b,a": "a", "b,b": "b"}
    for x in els:
        for y in els:
            if "0" in (x, y):
                mul[f"{x},{y}"] = "0"
            elif "1" in (x, y):
                mul[f"{x},{y}"] = y if x == "1" else x
    return {"elements": els, "leq": leq, "mul": mul, "unit": "1"}


class TestCanonicalMembership:
    def test_mult_cap_defaults(self):
        assert default_mult_cap(build_standard("lukasiewicz_chain", 3)) == 2
        assert default_mult_cap(build_standard("powerset_locale", 2)) == 2
        assert default_mult_cap(build_standard("chain_locale", 5)) == 1
        assert default_mult_cap(build_standard("ideals_zmod", 12)) == 1

    def test_family_counts(self):
        # With cap 2 a target u admits one multiset per function
        # (elements below u) -> {0,1,2}, kept when the support joins to u.
        # 3-chain: 18 + 6 + 3; 4-element quantales: top gets 2*27 or 66.
        counts = {
            ("lukasiewicz_chain", 3): 27,
            ("chain_locale", 3): 27,
            ("ideals_zmod", 4): 27,
            ("truncated_nat", 3): 81,
            ("powerset_locale", 2): 81,
        }
        for (name, param), expected in counts.items():
            _, _, cov = make(name, param)
            assert cov.family_count() == expected, (name, param)

    def test_join_rule_membership(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        assert cov.covers("h", ["h", "h"])
        assert cov.covers("h", ["0", "h"])
        assert cov.covers("1", ["h", "1"])
        assert not cov.covers("1", ["h"])
        assert not cov.covers("h", ["0"])

    def test_membership_on_locale(self):
        q, site, cov = make("powerset_locale", 2)
        assert cov.covers("{xy}", ["{x}", "{y}"])
        assert not cov.covers("{xy}", ["{x}"])
        assert cov.covers("{xy}", ["{x}", "{y}", "{xy}"])

    def test_membership_reversed_order(self):
        # truncated addition: the order is reverse-numeric, join is min
        q, site, cov = make("truncated_nat", 3)
        assert cov.covers("1", ["1", "2"])
        assert not cov.covers("1", ["2", "3"])

    def test_empty_family_covers_bottom_only(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        assert cov.covers("0", [])
        assert not cov.covers("h", [])
        assert not cov.covers("1", [])

    def test_explicit_membership_clamps_repeats(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        exp = explicit_copy(cov)
        assert exp.covers("h", ["h", "h"])
        assert exp.covers("h", ["h", "h", "h"])
        assert not exp.covers("h", ["0"])

    def test_coverage_needs_a_thin_site(self):
        _, site, _ = make("lukasiewicz_chain", 3)
        for non_thin in (
            FinSetCategory(max_size=1),
            FinSetCategory(),
            ProductCategory(site, site),
        ):
            with pytest.raises(NotThinSite):
                Coverage(non_thin, [])

    def test_canonical_needs_semicartesian(self):
        q = validate_quantale(mid_unit_chain3_raw())
        assert isinstance(q, Quantale)
        with pytest.raises(NotSemicartesian):
            canonical_quantale_coverage(q)


class TestFlavorCheckers:
    def test_strong_prelopology_instance_counts(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        report = check_flavor(cov, "strong_prelopology")
        assert report.ok, report.failures()
        by_name = {e.name: e.checked for e in report.entries}
        assert by_name == {
            "iso-singletons": 3,
            "composition": 729,
            "tensor-stability": 162,
            "ppb-stability": 138,
            "projection-factorizations": 78,
        }
        assert report.heading == "coverage flavor check: strong_prelopology"
        assert report.entries[0] == CheckEntry("iso-singletons", True, 3)

    def test_canonical_is_strong_prelopology_everywhere(self):
        for name, param in [
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("ideals_zmod", 4),
            ("chain_locale", 3),
            ("powerset_locale", 2),
        ]:
            _, _, cov = make(name, param)
            report = check_flavor(cov, "strong_prelopology")
            assert report.ok, f"{name}({param}): {report.failures()}"

    def test_trivial_coverage_is_lawful(self):
        for name, param in [("lukasiewicz_chain", 3), ("powerset_locale", 2)]:
            q, site, _ = make(name, param)
            report = check_flavor(trivial_coverage(site, q), "strong_prelopology")
            assert report.ok, report.failures()

    def test_trivial_on_locale_is_pretopology(self):
        q, site, _ = make("powerset_locale", 2)
        assert check_flavor(trivial_coverage(site, q), "pretopology").ok

    def test_pretopology_requires_cartesian_site(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        with pytest.raises(NotCartesianSite):
            check_flavor(cov, "pretopology")

    def test_canonical_locale_coverage_is_pretopology(self):
        for name, param in [("powerset_locale", 2), ("chain_locale", 3)]:
            _, _, cov = make(name, param)
            report = check_flavor(cov, "pretopology")
            assert report.ok, report.failures()

    def test_flavor_dispatch(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        assert check_flavor(cov).heading == "coverage flavor check: strong_prelopology"
        assert check_flavor(cov, "weak_prelopology").ok
        with pytest.raises(InvalidSpec):
            check_flavor(cov, "lopology")


class TestMutationDetection:
    def test_missing_composite_breaks_composition(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = without_family(cov, family(site, ["0", "h"], "h"))
        report = check_flavor(mutant, "prelopology")
        assert not report.ok
        comp = next(e for e in report.entries if e.name == "composition")
        assert not comp.ok and comp.witness

    def test_missing_identity_breaks_iso_singletons(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = without_family(cov, family(site, ["0"], "0"))
        report = check_flavor(mutant, "weak_prelopology")
        iso = next(e for e in report.entries if e.name == "iso-singletons")
        assert not iso.ok and "0" in iso.witness

    def test_added_undercover_breaks_composition(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = with_family(cov, family(site, ["h"], "1"))
        report = check_flavor(mutant, "prelopology")
        comp = next(e for e in report.entries if e.name == "composition")
        assert not comp.ok

    def test_dropping_empty_cover_stays_lawful(self):
        # the empty cover of the bottom is optional: all four axioms
        # quantify over assigned families, none forces it back in
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = without_family(cov, CoverFamily("0", []))
        assert check_flavor(mutant, "strong_prelopology").ok

    def test_stability_failure_seen_by_both_checkers(self):
        q, site, cov = make("powerset_locale", 2)
        mutant = without_family(cov, family(site, ["{}", "{x}"], "{x}"))
        pre = check_flavor(mutant, "prelopology")
        ppb = next(e for e in pre.entries if e.name == "ppb-stability")
        assert not ppb.ok
        top = check_flavor(mutant, "pretopology")
        pull = next(e for e in top.entries if e.name == "pullback-stability")
        assert not pull.ok

    def test_checker_agreement_battery(self):
        # on a cartesian site the two stability notions coincide, so the
        # prelopology and pretopology verdicts must agree on every variant
        start = time.monotonic()
        for name, param in [("powerset_locale", 2), ("chain_locale", 3)]:
            q, site, cov = make(name, param)
            variants = [cov, trivial_coverage(site, q)]
            base = list(cov.all_families())
            for fam in base[:: max(1, len(base) // 6)]:
                variants.append(without_family(cov, fam))
            variants.append(
                with_family(cov, family(site, [q.bottom], q.top))
            )
            for variant in variants:
                pre = check_flavor(variant, "prelopology")
                top = check_flavor(variant, "pretopology")
                assert pre.ok == top.ok, variant
        assert time.monotonic() - start < 5.0


class TestProductCoverage:
    def test_product_is_prelopology_but_not_pretopology(self):
        _, _, left = make("chain_locale", 2)
        _, _, right = make("lukasiewicz_chain", 3)
        prod = product_coverage(left, right)
        assert check_flavor(prod, "prelopology").ok
        with pytest.raises(NotCartesianSite):
            check_flavor(prod, "pretopology")

    def test_product_is_not_the_canonical_enumeration(self):
        # flatten the product quantale and compare: the paired families
        # are not the canonical enumeration of any quantale structure,
        # even though the membership closures coincide (next test)
        q1, s1, left = make("chain_locale", 2)
        q2, s2, right = make("lukasiewicz_chain", 3)
        prod = product_coverage(left, right)

        flat_q = validate_quantale(_flat_product_raw(q1, q2))
        assert isinstance(flat_q, Quantale)
        flat_cov = canonical_quantale_coverage(flat_q)

        def flat_key(fam):
            t = fam.target
            name = t if isinstance(t, str) else f"{t[0]}|{t[1]}"
            doms = sorted(
                d if isinstance(d, str) else f"{d[0]}|{d[1]}"
                for d in fam.domains()
            )
            return (name, tuple(doms))

        prod_keys = {flat_key(f) for f in prod.all_families()}
        flat_keys = {flat_key(f) for f in flat_cov.all_families()}
        assert prod_keys != flat_keys
        # a doubled leg survives pairing but not the size-6 enumeration
        assert ("1|h", ("1|h", "1|h")) in prod_keys - flat_keys
        # mixed pairings are never produced positionally
        assert ("1|h", ("0|h", "1|0")) in flat_keys - prod_keys

    def test_product_membership_is_the_componentwise_join_rule(self):
        q1, s1, left = make("chain_locale", 2)
        q2, s2, right = make("lukasiewicz_chain", 3)
        prod = product_coverage(left, right)
        site = prod.site
        objs = site.objects()
        for target in objs:
            below = [o for o in objs if site.leq(o, target)]
            for doms in itertools.chain(
                itertools.combinations(below, 1),
                itertools.combinations(below, 2),
            ):
                fam = family(site, list(doms), target)
                expected = q1.join(
                    sorted({d[0] for d in doms})
                ) == target[0] and q2.join(
                    sorted({d[1] for d in doms})
                ) == target[1]
                assert prod.covers(fam.target, fam.domains()) == expected, fam

    def test_locale_product_is_pretopology(self):
        _, _, left = make("chain_locale", 2)
        _, _, right = make("chain_locale", 3)
        prod = product_coverage(left, right)
        assert check_flavor(prod, "pretopology").ok
        assert check_flavor(prod, "prelopology").ok

    def test_trivial_times_trivial_is_trivial(self):
        q1, s1, _ = make("chain_locale", 2)
        q2, s2, _ = make("lukasiewicz_chain", 3)
        prod = product_coverage(
            trivial_coverage(s1, q1), trivial_coverage(s2, q2)
        )
        direct = trivial_coverage(prod.site)
        assert {f.key() for f in prod.all_families()} == {
            f.key() for f in direct.all_families()
        }

    def test_product_has_no_explicit_copy(self):
        # an explicit copy would clamp the positional pairings instead of
        # testing marginals: one without the empty cover of (0,0) fails
        # composition and no longer covers (1,h) by (0,h) and (1,0)
        _, _, left = make("chain_locale", 2)
        _, _, right = make("lukasiewicz_chain", 3)
        prod = product_coverage(left, right)
        empty = CoverFamily(("0", "0"), [])
        assert empty in prod.families(("0", "0"))
        with pytest.raises(InvalidSpec, match="two-marginal rule"):
            without_family(prod, empty)
        with pytest.raises(InvalidSpec, match="two-marginal rule"):
            with_family(prod, family(prod.site, [("1", "h")], ("1", "h")))
        assert prod.covers(("1", "h"), [("0", "h"), ("1", "0")])
        assert check_flavor(prod, "prelopology").ok

    def test_product_rejects_unverified_components(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        broken = without_family(cov, family(site, ["0", "h"], "h"))
        _, _, right = make("chain_locale", 2)
        with pytest.raises(UnverifiedInput):
            product_coverage(broken, right)


class TestParsing:
    def test_roundtrip(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        parsed = parse_coverage(site, cov.to_raw(), quantale=q)
        assert parsed.family_count() == cov.family_count()
        assert {f.key() for f in parsed.all_families()} == {
            f.key() for f in cov.all_families()
        }
        assert parsed.flavor == "strong_prelopology"
        assert parsed.covers("h", ["0", "h"])

    def test_canonical_flag(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        parsed = parse_coverage(site, {"canonical": True}, quantale=q)
        assert parsed.family_count() == 27
        with pytest.raises(InvalidSpec):
            parse_coverage(site, {"canonical": True})

    def test_mult_cap_below_one_is_malformed(self):
        q, site, _ = make("lukasiewicz_chain", 3)
        covers = [{"target": "h", "legs": [{"dom": "0"}]}]
        for cap in (0, -1):
            with pytest.raises(InvalidSpec, match="at least 1"):
                parse_coverage(site, {"mult_cap": cap, "covers": covers})
        assert parse_coverage(site, {"mult_cap": 1, "covers": covers}).mult_cap == 1

    def test_bad_specs(self):
        q, site, _ = make("lukasiewicz_chain", 3)
        with pytest.raises(InvalidSpec):
            parse_coverage(site, {"covers": [{"target": "q"}]})
        with pytest.raises(InvalidSpec):
            parse_coverage(
                site, {"covers": [{"target": "h", "legs": [{"dom": "q"}]}]}
            )
        with pytest.raises(InvalidSpec):
            parse_coverage(
                site, {"covers": [{"target": "h", "legs": [{"dom": "1"}]}]}
            )
        with pytest.raises(InvalidSpec):
            parse_coverage(site, {})
        with pytest.raises(InvalidSpec):
            parse_coverage(site, [])

    def test_default_flavor(self):
        q, site, _ = make("lukasiewicz_chain", 3)
        parsed = parse_coverage(
            site, {"covers": [{"target": "0", "legs": [{"dom": "0"}]}]}
        )
        assert parsed.flavor == "prelopology"

    def test_cover_family_rejects_bad_leg(self):
        q, site, _ = make("lukasiewicz_chain", 3)
        with pytest.raises(InvalidSpec):
            CoverFamily("1", [site.arrow("0", "h")])


def _flat_product_raw(q1, q2):
    """The product quantale on pair labels `a|b`, componentwise."""
    pairs = [(a, b) for a in q1.elements for b in q2.elements]

    def lab(a, b):
        return f"{a}|{b}"

    leq = [
        [lab(a, b), lab(c, d)]
        for a, b in pairs
        for c, d in pairs
        if q1.leq(a, c) and q2.leq(b, d)
    ]
    mul = {
        f"{lab(a, b)},{lab(c, d)}": lab(q1.mul(a, c), q2.mul(b, d))
        for a, b in pairs
        for c, d in pairs
    }
    return {
        "elements": [lab(a, b) for a, b in pairs],
        "leq": leq,
        "mul": mul,
        "unit": lab(q1.unit, q2.unit),
    }


# ---------------------------------------------------------------------------
# oracles: membership and the axiom generators in their first formulation

CORPUS_SITES = ["chain3", "ideals4", "luk3", "powerset2", "product_chain2_luk3", "tnat3"]
FLAVORS = ["weak_prelopology", "prelopology", "strong_prelopology", "pretopology"]


def corpus(name):
    return json.loads((corpus_dir() / name).read_text())


def corpus_coverages(key):
    """The canonical and trivial coverage of a corpus site, freshly built."""
    raw = corpus(f"site_{key}.json")
    if "product" in raw:
        lq = validate_quantale(raw["product"]["left"])
        rq = validate_quantale(raw["product"]["right"])
        lsite, rsite = ThinCategory.from_quantale(lq), ThinCategory.from_quantale(rq)
        site, q = ThinCategory.product(lsite, rsite), None
        canonical = product_coverage(
            canonical_quantale_coverage(lq, lsite),
            canonical_quantale_coverage(rq, rsite),
        )
    else:
        q = validate_quantale(raw)
        site = ThinCategory.from_quantale(q)
        canonical = canonical_quantale_coverage(q, site)
    trivial = parse_coverage(site, corpus(f"coverage_trivial_{key}.json"), quantale=q)
    return canonical, trivial


def _undercap_product():
    """A product whose own cap, 1, is below its left component's, 2.

    The left component covers `h` by the doubled leg only, so a product
    family with a doubled leg over `h` differs in membership from its
    copy with one leg: membership must not clamp at the product's cap.
    """
    q, site, _ = make("lukasiewicz_chain", 3)
    left = parse_coverage(site, {
        "mult_cap": 2,
        "covers": [
            {"target": u, "legs": [{"dom": u}]} for u in ["0", "1"]
        ] + [{"target": "h", "legs": [{"dom": "h"}, {"dom": "h"}]}],
    }, quantale=q)
    _, _, right = make("chain_locale", 2)
    base = product_coverage(canonical_quantale_coverage(q, site), right)
    return Coverage(
        base.site, list(base.all_families()), mult_cap=1, components=(left, right)
    )


def oracle_cases():
    """(label, build) for every coverage the oracle tests run on."""
    cases = []
    for key in CORPUS_SITES:
        cases.append((f"{key}-canonical", lambda key=key: corpus_coverages(key)[0]))
        cases.append((f"{key}-trivial", lambda key=key: corpus_coverages(key)[1]))

    def locale_product():
        return product_coverage(make("chain_locale", 2)[2], make("chain_locale", 3)[2])

    def luk3_mutated():
        _, site, cov = make("lukasiewicz_chain", 3)
        return without_family(cov, family(site, ["0", "h"], "h"))

    def luk3_with(remove_again=False):
        _, site, cov = make("lukasiewicz_chain", 3)
        added = family(site, ["h"], "1")
        grown = with_family(cov, added)
        return without_family(grown, added) if remove_again else grown

    def noncommutative4(drop=None):
        q = validate_quantale(noncommutative_chain4_raw())
        site = ThinCategory.from_quantale(q)
        cov = canonical_quantale_coverage(q, site)
        # without {0,a} -> a, some families stay stable on one side only
        return without_family(cov, family(site, drop, "a")) if drop else cov

    def luk3_cap1():
        cov = make("lukasiewicz_chain", 3)[2]
        return Coverage(cov.site, list(cov.all_families()), mult_cap=1)

    cases += [
        ("product-locales", locale_product),
        ("product-undercap", _undercap_product),
        ("luk3-mutated", luk3_mutated),
        ("luk3-with-family", luk3_with),
        ("luk3-with-without-family", lambda: luk3_with(remove_again=True)),
        ("luk3-explicit-cap1", luk3_cap1),
        ("noncommutative4-canonical", noncommutative4),
        ("noncommutative4-mutated", lambda: noncommutative4(["0", "a"])),
    ]
    return cases


def flavors_of(cov):
    return FLAVORS if cov.site.is_cartesian else FLAVORS[:3]


def oracle_clamped_key(fam, cap):
    name, legs = fam.key()
    kept, counts = [], {}
    for k in legs:
        counts[k] = counts.get(k, 0) + 1
        if counts[k] <= cap:
            kept.append(k)
    return (name, tuple(kept))


def oracle_contains(cov, fam):
    """Membership as first written: join, clamped leg keys, marginal arrows."""
    if cov.components is not None:
        left, right = cov.components
        s1, s2 = left.site, right.site
        legs1 = [s1.arrow(leg.dom[0], fam.target[0]) for leg in fam.legs]
        legs2 = [s2.arrow(leg.dom[1], fam.target[1]) for leg in fam.legs]
        return oracle_contains(
            left, CoverFamily(fam.target[0], legs1)
        ) and oracle_contains(right, CoverFamily(fam.target[1], legs2))
    if cov.join_rule:
        joined = cov.quantale.join(sorted(set(fam.domains())))
        return joined == fam.target and all(
            cov.site.leq(d, fam.target) for d in fam.domains()
        )
    members = {oracle_clamped_key(f, cov.mult_cap) for f in cov.all_families()}
    return oracle_clamped_key(fam, cov.mult_cap) in members


def oracle_iso_singletons(cov):
    site = cov.site
    for u in site.objects():
        for w in site.objects():
            for m in site.hom(w, u):
                if is_iso(site, m):
                    yield None if oracle_contains(cov, CoverFamily(u, [m])) else (
                        f"iso singleton {canon(w)} -> {canon(u)} missing"
                    )


def oracle_composition(cov):
    site = cov.site
    for fam in cov.all_families():
        for i, leg in enumerate(fam.legs):
            for refinement in cov.families(leg.dom):
                composite = (
                    fam.legs[:i]
                    + tuple(site.compose(leg, g) for g in refinement.legs)
                    + fam.legs[i + 1:]
                )
                yield None if oracle_contains(cov, CoverFamily(fam.target, composite)) else (
                    f"refining leg {i} of {fam!r} by {refinement!r}"
                )


def oracle_tensor_stability(cov):
    site = cov.site
    for fam in cov.all_families():
        for v in site.objects():
            id_v = site.identity(v)
            right = CoverFamily(
                site.tensor_obj(fam.target, v),
                [site.tensor_mor(f, id_v) for f in fam.legs],
            )
            left = CoverFamily(
                site.tensor_obj(v, fam.target),
                [site.tensor_mor(id_v, f) for f in fam.legs],
            )
            for side, tensored in (("right", right), ("left", left)):
                yield None if oracle_contains(cov, tensored) else (
                    f"{fam!r} tensored with {canon(v)} on the {side}"
                )


def oracle_ppb_stability(cov):
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        id_u = site.identity(u)
        for v in site.objects():
            for g in site.hom(v, u):
                for side, turn in (("right", 1), ("left", -1)):
                    base = pseudo_pullback(site, *(id_u, g)[::turn])
                    phis = []
                    for f in fam.legs:
                        piece = pseudo_pullback(site, *(f, g)[::turn])
                        arrow = site.compose(
                            site.tensor_mor(*(f, site.identity(v))[::turn]),
                            piece.into,
                        )
                        phis.append(site.factor_through_mono(base.into, arrow))
                    if any(phi is None for phi in phis):
                        yield (
                            f"{fam!r} along {canon(v)} -> {canon(u)} ({side}): "
                            "no equalizer factorization"
                        )
                    elif not oracle_contains(cov, CoverFamily(base.obj, phis)):
                        yield f"{fam!r} along {canon(v)} -> {canon(u)} ({side})"
                    else:
                        yield None


def fresh_l_r_factorizations(c, legs, v):
    """The generic l/r search for every leg pair, with no table."""

    def solve(dom, cod, constraints):
        return [
            f for f in c.hom(dom, cod)
            if all(c.compose(post, f) == target for post, target in constraints)
        ][:1]

    legs = list(legs)
    id_v = c.identity(v)
    details, ok = [], True
    for i, j in itertools.product(range(len(legs)), repeat=2):
        base = pseudo_pullback(c, legs[i], legs[j])
        left = pseudo_pullback(
            c, c.tensor_mor(id_v, legs[i]), c.tensor_mor(id_v, legs[j])
        )
        l_sols = solve(
            left.obj,
            c.tensor_obj(v, base.obj),
            [
                (c.tensor_mor(id_v, base.p1), left.p1),
                (c.tensor_mor(id_v, base.p2), left.p2),
            ],
        )
        right = pseudo_pullback(
            c, c.tensor_mor(legs[i], id_v), c.tensor_mor(legs[j], id_v)
        )
        r_sols = solve(
            right.obj,
            c.tensor_obj(base.obj, v),
            [
                (c.tensor_mor(base.p1, id_v), right.p1),
                (c.tensor_mor(base.p2, id_v), right.p2),
            ],
        )
        ok = ok and bool(l_sols) and bool(r_sols)
        details.append({
            "pair": (i, j),
            "l": l_sols[0] if l_sols else None,
            "r": r_sols[0] if r_sols else None,
        })
    return ok, details


def oracle_projection_factorizations(cov):
    site = cov.site
    for fam in cov.all_families():
        if not fam.legs:
            continue
        for v in site.objects():
            ok, details = fresh_l_r_factorizations(site, fam.legs, v)
            if ok:
                yield None
            else:
                bad = next(
                    d["pair"] for d in details
                    if d["l"] is None or d["r"] is None
                )
                yield f"{fam!r} with {canon(v)}: no l/r for leg pair {bad}"


def oracle_pullback_stability(cov):
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        for v in site.objects():
            for g in site.hom(v, u):
                legs = [pseudo_pullback(site, f, g).p2 for f in fam.legs]
                yield None if oracle_contains(cov, CoverFamily(v, legs)) else (
                    f"pullbacks of {fam!r} along {canon(v)} -> {canon(u)}"
                )


ORACLE_AXIOMS = {
    "iso-singletons": oracle_iso_singletons,
    "composition": oracle_composition,
    "tensor-stability": oracle_tensor_stability,
    "ppb-stability": oracle_ppb_stability,
    "projection-factorizations": oracle_projection_factorizations,
    "pullback-stability": oracle_pullback_stability,
}


ORACLE_CASES = oracle_cases()
ORACLE_IDS = [label for label, _ in ORACLE_CASES]


@pytest.mark.parametrize("label,build", ORACLE_CASES, ids=ORACLE_IDS)
def test_covers_matches_the_membership_oracle(label, build, monkeypatch):
    """Every family the axiom checks ask about, and every assigned family.

    Each is asked of a freshly built twin twice, so the first answer is
    decided and the second read back, then once more of the coverage the
    checks ran on. The same domains are then asked into every other
    target above them. Product components are compared the same way.
    """
    asked = {}  # coverage -> {(target, sorted domains): domains as asked}
    covers = Coverage.covers

    def spy(self, target, doms):
        key = (target, tuple(sorted(doms)))
        asked.setdefault(self, {}).setdefault(key, list(doms))
        return covers(self, target, doms)

    monkeypatch.setattr(Coverage, "covers", spy)
    checked = build()
    for flavor in flavors_of(checked):
        check_flavor(checked, flavor)
    monkeypatch.undo()
    assert asked.get(checked)

    fresh = build()
    pairs = [(checked, fresh)]
    pairs += zip(checked.components or (), fresh.components or ())
    for cov, twin in pairs:
        families = dict(asked.get(cov, {}))
        for fam in cov.all_families():
            key = (fam.target, tuple(sorted(fam.domains())))
            families.setdefault(key, fam.domains())
        for (_, key), doms in list(families.items()):
            for target in cov.site.objects():
                if all(cov.site.leq(d, target) for d in doms):
                    families.setdefault((target, key), doms)
        for (target, _), doms in families.items():
            fam = CoverFamily(target, [cov.site.arrow(d, target) for d in doms])
            expected = oracle_contains(cov, fam)
            assert twin.covers(target, doms) == expected, (label, fam)
            assert twin.covers(target, doms[::-1]) == expected, (label, fam)
            assert cov.covers(target, doms) == expected, (label, fam)


@pytest.mark.parametrize("label,build", ORACLE_CASES, ids=ORACLE_IDS)
def test_axiom_generators_match_their_oracles(label, build):
    """The same instance stream, witnesses included, and the same counts."""
    cov = build()
    streams = {}
    for flavor in flavors_of(cov):
        expected = []
        for name, axiom in coverage_module._AXIOMS[flavor]:
            if name not in streams:
                streams[name] = list(axiom(cov))
                assert streams[name] == list(ORACLE_AXIOMS[name](cov)), (label, name)
            expected.append(drain(name, streams[name]))
        assert check_flavor(cov, flavor).entries == expected, (label, flavor)


def test_oracle_cases_include_failing_streams():
    failing = set()
    for label, build in ORACLE_CASES:
        cov = build()
        if not check_flavor(cov, "strong_prelopology").ok:
            failing.add(label)
    assert {"luk3-mutated", "luk3-with-family"} <= failing


def oracle_l_r_factor(site, fi, fj, v):
    """Whether the generic search finds both l and r for one leg pair."""
    pair = fresh_l_r_factorizations(site, [fi, fj], v)[1][1]
    return pair["l"] is not None and pair["r"] is not None


def test_l_r_factor_fails_where_the_generic_search_does():
    # Lawful thin sites always factor; a tensor broken after validation
    # makes 0 (x) 0 = h, so some l or r leaves the order.
    _, site, _ = make("lukasiewicz_chain", 3)
    site._mul[("0", "0")] = "h"
    answers = []
    for a, b, cod, v in itertools.product(site.objects(), repeat=4):
        if not (site.leq(a, cod) and site.leq(b, cod)):
            continue
        fi, fj = site.arrow(a, cod), site.arrow(b, cod)
        answers.append(site.l_r_factor(fi, fj, v))
        assert answers[-1] == oracle_l_r_factor(site, fi, fj, v), (a, b, cod, v)
    assert True in answers and False in answers


class TestFactorizationTable:
    def test_built_once_per_key(self, monkeypatch):
        cov = corpus_coverages("tnat3")[0]
        site = cov.site
        asked = []
        l_r_factor = ThinCategory.l_r_factor

        def spy(self, fi, fj, v):
            key = (fi.dom, fj.dom, fi.cod, v)
            asked.append((key, key in self._factorizations))
            return l_r_factor(self, fi, fj, v)

        monkeypatch.setattr(ThinCategory, "l_r_factor", spy)
        assert check_flavor(cov, "strong_prelopology").ok
        table = site._factorizations
        decided = [key for key, known in asked if not known]
        assert len(asked) > len(decided) == len(set(decided)) == len(table)
        assert set(decided) == set(table)
        entries = dict(table)

        def no_overlaps(*args):
            raise AssertionError("a repeat check built a pseudo-pullback")

        # a repeat check reads every answer back without building anything
        monkeypatch.setattr(ThinCategory, "overlap", no_overlaps)
        asked.clear()
        assert check_flavor(cov, "strong_prelopology").ok
        assert asked and all(known for _, known in asked) and table == entries

    def test_equal_keys_return_the_same_entry(self):
        q, site, _ = make("lukasiewicz_chain", 3)
        legs = [site.arrow("h", "1"), site.arrow("h", "1"), site.arrow("0", "1")]
        for v in site.objects():
            for fi, fj in itertools.product(legs, repeat=2):
                assert site.l_r_factor(fi, fj, v) == oracle_l_r_factor(site, fi, fj, v)
        # keys (h,h), (h,0), (0,h) and (0,0), once per v
        assert len(site._factorizations) == 4 * len(site.objects())

    def test_sites_parsed_from_one_file_share_no_entry(self):
        tables = []
        for _ in range(2):
            q = validate_quantale(corpus("site_luk3.json"))
            site = ThinCategory.from_quantale(q)
            cov = canonical_quantale_coverage(q, site)
            assert check_flavor(cov, "strong_prelopology").ok
            tables.append(site._factorizations)
        first, second = tables
        assert first and first == second and first is not second
