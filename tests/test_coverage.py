"""Covering-family membership, flavor checkers, mutations, and products."""

import time

import pytest

from qsheaf.coverage import (
    CoverFamily,
    Coverage,
    canonical_quantale_coverage,
    check_flavor,
    check_prelopology,
    check_pretopology,
    check_strong_prelopology,
    check_weak_prelopology,
    default_mult_cap,
    parse_coverage,
    product_coverage,
    trivial_coverage,
)
from qsheaf.errors import (
    InvalidSpec,
    NotCartesianSite,
    NotSemicartesian,
    UnverifiedInput,
)
from qsheaf.moncat import ThinCategory
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
        assert cov.contains(family(site, ["h", "h"], "h"))
        assert cov.contains(family(site, ["0", "h"], "h"))
        assert cov.contains(family(site, ["h", "1"], "1"))
        assert not cov.contains(family(site, ["h"], "1"))
        assert not cov.contains(family(site, ["0"], "h"))

    def test_membership_on_locale(self):
        q, site, cov = make("powerset_locale", 2)
        assert cov.contains(family(site, ["{x}", "{y}"], "{xy}"))
        assert not cov.contains(family(site, ["{x}"], "{xy}"))
        assert cov.contains(family(site, ["{x}", "{y}", "{xy}"], "{xy}"))

    def test_membership_reversed_order(self):
        # truncated addition: the order is reverse-numeric, join is min
        q, site, cov = make("truncated_nat", 3)
        assert cov.contains(family(site, ["1", "2"], "1"))
        assert not cov.contains(family(site, ["2", "3"], "1"))

    def test_empty_family_covers_bottom_only(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        assert cov.contains(CoverFamily("0", []))
        assert not cov.contains(CoverFamily("h", []))
        assert not cov.contains(CoverFamily("1", []))

    def test_explicit_membership_clamps_repeats(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        exp = explicit_copy(cov)
        assert exp.contains(family(site, ["h", "h"], "h"))
        assert exp.contains(family(site, ["h", "h", "h"], "h"))
        assert not exp.contains(family(site, ["0"], "h"))

    def test_canonical_needs_semicartesian(self):
        q = validate_quantale(mid_unit_chain3_raw())
        assert isinstance(q, Quantale)
        with pytest.raises(NotSemicartesian):
            canonical_quantale_coverage(q)


class TestFlavorCheckers:
    def test_strong_prelopology_instance_counts(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        report = check_strong_prelopology(cov)
        assert report.ok, report.summary()
        by_name = {e.name: e.checked for e in report.entries}
        assert by_name == {
            "iso-singletons": 3,
            "composition": 729,
            "tensor-stability": 162,
            "ppb-stability": 138,
            "projection-factorizations": 78,
        }
        assert report.summary().splitlines()[:2] == [
            "coverage flavor check: strong_prelopology",
            "  pass iso-singletons (3 instances)",
        ]

    def test_canonical_is_strong_prelopology_everywhere(self):
        for name, param in [
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("ideals_zmod", 4),
            ("chain_locale", 3),
            ("powerset_locale", 2),
        ]:
            _, _, cov = make(name, param)
            report = check_strong_prelopology(cov)
            assert report.ok, f"{name}({param}):\n{report.summary()}"

    def test_trivial_coverage_is_lawful(self):
        for name, param in [("lukasiewicz_chain", 3), ("powerset_locale", 2)]:
            q, site, _ = make(name, param)
            report = check_strong_prelopology(trivial_coverage(site, q))
            assert report.ok, report.summary()

    def test_trivial_on_locale_is_pretopology(self):
        q, site, _ = make("powerset_locale", 2)
        assert check_pretopology(trivial_coverage(site, q)).ok

    def test_pretopology_requires_cartesian_site(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        with pytest.raises(NotCartesianSite):
            check_pretopology(cov)

    def test_canonical_locale_coverage_is_pretopology(self):
        for name, param in [("powerset_locale", 2), ("chain_locale", 3)]:
            _, _, cov = make(name, param)
            report = check_pretopology(cov)
            assert report.ok, report.summary()

    def test_flavor_dispatch(self):
        _, _, cov = make("lukasiewicz_chain", 3)
        assert check_flavor(cov).heading == "coverage flavor check: strong_prelopology"
        assert check_flavor(cov, "weak_prelopology").ok
        with pytest.raises(InvalidSpec):
            check_flavor(cov, "lopology")


class TestMutationDetection:
    def test_missing_composite_breaks_composition(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = cov.without_family(family(site, ["0", "h"], "h"))
        report = check_prelopology(mutant)
        assert not report.ok
        comp = next(e for e in report.entries if e.name == "composition")
        assert not comp.ok and comp.witness

    def test_missing_identity_breaks_iso_singletons(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = cov.without_family(family(site, ["0"], "0"))
        report = check_weak_prelopology(mutant)
        iso = next(e for e in report.entries if e.name == "iso-singletons")
        assert not iso.ok and "0" in iso.witness

    def test_added_undercover_breaks_composition(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = cov.with_family(family(site, ["h"], "1"))
        report = check_prelopology(mutant)
        comp = next(e for e in report.entries if e.name == "composition")
        assert not comp.ok

    def test_dropping_empty_cover_stays_lawful(self):
        # the empty cover of the bottom is optional: all four axioms
        # quantify over assigned families, none forces it back in
        q, site, cov = make("lukasiewicz_chain", 3)
        mutant = cov.without_family(CoverFamily("0", []))
        assert check_strong_prelopology(mutant).ok

    def test_stability_failure_seen_by_both_checkers(self):
        q, site, cov = make("powerset_locale", 2)
        mutant = cov.without_family(family(site, ["{}", "{x}"], "{x}"))
        pre = check_prelopology(mutant)
        ppb = next(e for e in pre.entries if e.name == "ppb-stability")
        assert not ppb.ok
        top = check_pretopology(mutant)
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
                variants.append(cov.without_family(fam))
            variants.append(
                cov.with_family(family(site, [q.bottom], q.top))
            )
            for variant in variants:
                pre = check_prelopology(variant)
                top = check_pretopology(variant)
                assert pre.ok == top.ok, variant
        assert time.monotonic() - start < 5.0


class TestProductCoverage:
    def test_product_is_prelopology_but_not_pretopology(self):
        _, _, left = make("chain_locale", 2)
        _, _, right = make("lukasiewicz_chain", 3)
        prod = product_coverage(left, right)
        assert check_prelopology(prod).ok
        with pytest.raises(NotCartesianSite):
            check_pretopology(prod)

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
        import itertools

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
                assert prod.contains(fam) == expected, fam

    def test_locale_product_is_pretopology(self):
        _, _, left = make("chain_locale", 2)
        _, _, right = make("chain_locale", 3)
        prod = product_coverage(left, right)
        assert check_pretopology(prod).ok
        assert check_prelopology(prod).ok

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

    def test_product_rejects_unverified_components(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        broken = cov.without_family(family(site, ["0", "h"], "h"))
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
        assert parsed.contains(family(site, ["0", "h"], "h"))

    def test_canonical_flag(self):
        q, site, cov = make("lukasiewicz_chain", 3)
        parsed = parse_coverage(site, {"canonical": True}, quantale=q)
        assert parsed.family_count() == 27
        with pytest.raises(InvalidSpec):
            parse_coverage(site, {"canonical": True})

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
