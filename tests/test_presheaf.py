"""Presheaves on thin sites: parsing, morphisms, convolution, sieves."""

import itertools
import json

import pytest

import finset_oracles as oracles
from coverage_edits import without_family
from qsheaf import finset
from qsheaf.cli import corpus_dir
from qsheaf.coverage import (
    CoverFamily,
    canonical_quantale_coverage,
    parse_coverage,
    product_coverage,
)
from qsheaf.errors import (
    InvalidSpec,
    MissingRestriction,
    NotSemicartesian,
    NotThinSite,
    SiteMismatch,
)
from qsheaf.finset import FinMap, FinSetObj
from qsheaf.moncat import FinSetCategory, ProductCategory, ThinCategory
from qsheaf.presheaf import (
    Presheaf,
    PresheafMorphism,
    day_convolve,
    day_projection1,
    day_projection2,
    hom_presheaves,
    identity_morphism,
    iso_presheaves,
    parse_presheaf,
    sieve_of,
    terminal_presheaf,
    validate_presheaf,
    yoneda,
)
from qsheaf.quantale import build_standard, validate_quantale


def luk3_site():
    q = build_standard("lukasiewicz_chain", 3)
    return q, ThinCategory.from_quantale(q)


def tnat3_site():
    q = build_standard("truncated_nat", 3)
    return q, ThinCategory.from_quantale(q)


def powerset2_site():
    q = build_standard("powerset_locale", 2)
    return q, ThinCategory.from_quantale(q)


def corpus(name):
    return json.loads((corpus_dir() / name).read_text())


def product_site():
    """The chain2 x luk3 corpus site, whose objects are pairs like ("0", "h")."""
    raw = corpus("site_product_chain2_luk3.json")["product"]
    return ThinCategory.product(
        *(ThinCategory.from_quantale(validate_quantale(raw[side]))
          for side in ("left", "right"))
    )


def sep_presheaf(site):
    """Two sections at the middle collapsing below, nothing on top."""
    return parse_presheaf(site, {
        "at": {"1": [], "h": ["p", "q"], "0": ["s"]},
        "res": {"0<=h": {"p": "s", "q": "s"}, "0<=1": {}, "h<=1": {}},
    })


def family(site, doms, target):
    return CoverFamily(target, [site.arrow(d, target) for d in doms])


CORPUS_SITES = ["chain3", "ideals4", "luk3", "powerset2", "product_chain2_luk3", "tnat3"]


def corpus_site(name):
    """(site, canonical coverage, trivial coverage) of a corpus site file.

    A product site's canonical coverage pairs its factors' canonical
    coverages and lives on the product site that pairing builds.
    """
    raw = corpus(f"site_{name}.json")
    trivial = corpus(f"coverage_trivial_{name}.json")
    if "product" in raw:
        qs = [validate_quantale(raw["product"][side]) for side in ("left", "right")]
        canonical = product_coverage(*(
            canonical_quantale_coverage(q, ThinCategory.from_quantale(q)) for q in qs
        ))
        return canonical.site, canonical, parse_coverage(canonical.site, trivial)
    q = validate_quantale(raw)
    site = ThinCategory.from_quantale(q)
    canonical = canonical_quantale_coverage(q, site)
    return site, canonical, parse_coverage(site, trivial, quantale=q)


def corpus_presheaves(name, site):
    """Every corpus presheaf on the named corpus site, in file-name order."""
    prefix = "product" if name.startswith("product") else name
    files = sorted(corpus_dir().glob(f"presheaf_{prefix}_*.json"))
    assert files
    return [parse_presheaf(site, json.loads(path.read_text())) for path in files]


class TestPresheafStructure:
    def test_parse_roundtrip(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        assert parse_presheaf(site, p.to_raw()) == p
        assert p.total_size() == 3
        assert list(p.value("h")) == ["p", "q"]

        # product objects are pairs; "(a,b)" names live only in the file
        site = product_site()
        raw = corpus("presheaf_product_doubled_bottom.json")
        p = parse_presheaf(site, raw)
        assert parse_presheaf(site, p.to_raw()) == p
        assert list(p.value(("0", "h"))) == raw["at"]["(0,h)"]
        with pytest.raises(InvalidSpec):
            Presheaf(site, raw["at"], {})

    def test_identity_restriction_is_automatic(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        assert p.restrict("h", "h") == finset.identity(p.value("h"))

    def test_parse_checks_a_given_identity_table(self):
        _, site = luk3_site()
        raw = sep_presheaf(site).to_raw()
        raw["res"]["h<=h"] = {"p": "p", "q": "q"}
        assert parse_presheaf(site, raw) == sep_presheaf(site)
        raw["res"]["h<=h"] = {"p": "q", "q": "p"}
        with pytest.raises(InvalidSpec, match="must be the identity"):
            parse_presheaf(site, raw)

    def test_raw_restriction_keys_omit_identities(self):
        _, site = luk3_site()
        raw = sep_presheaf(site).to_raw()
        assert set(raw["res"]) == {"0<=h", "0<=1", "h<=1"}

    def test_missing_restriction(self):
        _, site = luk3_site()
        with pytest.raises(MissingRestriction):
            Presheaf(site, {"1": ["a"], "h": ["b"], "0": ["c"]}, {})

    def test_parse_rejects_bad_specs(self):
        _, site = luk3_site()
        with pytest.raises(InvalidSpec):
            parse_presheaf(site, {"at": {"1": [], "h": [], "q": []}})
        with pytest.raises(InvalidSpec):
            parse_presheaf(site, {"at": {"1": [], "h": []}})
        with pytest.raises(InvalidSpec):
            parse_presheaf(site, {"res": {}})
        with pytest.raises(InvalidSpec):
            parse_presheaf(site, {
                "at": {"1": [], "h": [], "0": []},
                "res": {"0-h": {}},
            })
        raw = sep_presheaf(site).to_raw()
        raw["res"]["h<=0"] = {"s": "p"}
        with pytest.raises(InvalidSpec, match="no arrow h -> 0"):
            parse_presheaf(site, raw)

    def test_validation_flags_broken_composition(self):
        _, site = powerset2_site()
        report = validate_presheaf(site, {
            "at": {
                "{xy}": ["t"], "{x}": ["x0"], "{y}": ["y0"],
                "{}": ["s0", "s1"],
            },
            "res": {
                "{x}<={xy}": {"t": "x0"},
                "{y}<={xy}": {"t": "y0"},
                "{}<={xy}": {"t": "s1"},
                "{}<={x}": {"x0": "s0"},
                "{}<={y}": {"y0": "s1"},
            },
        })
        assert not report.ok
        comp = next(e for e in report.entries if e.name == "composition")
        assert not comp.ok and comp.witness

    def test_validation_reports_structure_errors(self):
        _, site = luk3_site()
        report = validate_presheaf(site, {"at": {"1": []}})
        assert not report.ok and report.presheaf is None

    def test_validation_passes_lawful_input(self):
        _, site = luk3_site()
        report = validate_presheaf(site, sep_presheaf(site).to_raw())
        assert report.ok, report.summary()


class TestStandardPresheaves:
    def test_yoneda_values(self):
        _, site = luk3_site()
        y = yoneda(site, "h")
        assert [len(y.value(u)) for u in ("0", "h", "1")] == [1, 1, 0]
        assert y.restrict("0", "h")("*") == "*"

    def test_yoneda_is_built_once_per_site_and_object(self):
        raw = corpus("site_luk3.json")
        site, twin = (
            ThinCategory.from_quantale(validate_quantale(raw)) for _ in range(2)
        )
        for u in site.objects():
            y = yoneda(site, u)
            assert yoneda(site, u) is y
            assert yoneda(twin, u) is not y
            fresh = Presheaf(
                site,
                {w: ["*"] if site.leq(w, u) else [] for w in site.objects()},
                {(a, b): {"*": "*"} if site.leq(b, u) else {} for a, b in site.pairs()},
            )
            assert y == fresh
        assert not set(map(id, site._yoneda.values())) & set(
            map(id, twin._yoneda.values())
        )

    def test_terminal_and_empty(self):
        _, site = luk3_site()
        assert terminal_presheaf(site).total_size() == 3
        empty = Presheaf(
            site, {u: [] for u in site.objects()}, {vu: {} for vu in site.pairs()}
        )
        assert empty.total_size() == 0

    def test_standards_validate_everywhere(self):
        for name, param in [
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("powerset_locale", 2),
            ("ideals_zmod", 4),
        ]:
            q = build_standard(name, param)
            site = ThinCategory.from_quantale(q)
            for u in site.objects():
                assert validate_presheaf(site, yoneda(site, u)).ok
            assert validate_presheaf(site, terminal_presheaf(site)).ok


def composite_is_natural(m):
    """Naturality by comparing the two composite maps of every square."""
    return all(
        finset.compose(m.dst.restrict(v, u), m.component(u))
        == finset.compose(m.component(v), m.src.restrict(v, u))
        for v, u in m.src.site.pairs()
    )


NON_THIN_SITES = {
    "finset": FinSetCategory,
    "product-of-thin": lambda: ProductCategory(luk3_site()[1], luk3_site()[1]),
}
CONSTRUCTORS = {
    "Presheaf": lambda site: Presheaf(site, {}, {}),
    "parse_presheaf": lambda site: parse_presheaf(site, {"at": {}}),
    "yoneda": lambda site: yoneda(site, site.unit),
    "terminal_presheaf": terminal_presheaf,
    "sieve_of": lambda site: sieve_of(site, CoverFamily(site.unit, [])),
}


@pytest.mark.parametrize("site", NON_THIN_SITES)
@pytest.mark.parametrize("construct", CONSTRUCTORS)
def test_presheaves_need_a_thin_site(construct, site):
    with pytest.raises(NotThinSite):
        CONSTRUCTORS[construct](NON_THIN_SITES[site]())


class TestMorphisms:
    def test_construction_checks_naturality(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        two = parse_presheaf(site, {
            "at": {"1": [], "h": ["a", "b"], "0": ["u", "v"]},
            "res": {"0<=h": {"a": "u", "b": "v"}, "0<=1": {}, "h<=1": {}},
        })
        # swapping the middle while fixing the bottom breaks naturality
        with pytest.raises(InvalidSpec):
            PresheafMorphism(two, two, {
                "1": {}, "h": {"a": "b", "b": "a"}, "0": {"u": "u", "v": "v"},
            })
        # maps out of p must land on sections with a common restriction
        m = PresheafMorphism(p, two, {
            "1": {}, "h": {"p": "a", "q": "a"}, "0": {"s": "u"},
        })
        assert m.is_natural() and not m.is_mono()
        incl = PresheafMorphism(
            yoneda(site, "0"),
            terminal_presheaf(site),
            {"1": {}, "h": {}, "0": {"*": "*"}},
        )
        assert incl.is_mono() and not incl.is_iso()

    def test_is_natural_agrees_with_the_composites(self):
        # every component tuple between corpus presheaves on one site
        verdicts = {True: 0, False: 0}
        for name in CORPUS_SITES:
            site = corpus_site(name)[0]
            objs = site.objects()
            presheaves = corpus_presheaves(name, site)
            for f, g in itertools.product(presheaves, repeat=2):
                choices = [finset.all_maps(f.value(u), g.value(u)) for u in objs]
                for maps in itertools.product(*choices):
                    m = PresheafMorphism(f, g, dict(zip(objs, maps)), check=False)
                    natural = m.is_natural()
                    assert natural == composite_is_natural(m), (name, f, g, maps)
                    verdicts[natural] += 1
                    if not natural:
                        with pytest.raises(
                            InvalidSpec, match="components are not natural"
                        ):
                            PresheafMorphism(f, g, m.components)
        assert verdicts[True] and verdicts[False]

    def test_component_endpoints_checked(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        stray = FinMap(FinSetObj(["z"]), FinSetObj(["z"]), {"z": "z"})
        good = {
            "1": finset.identity(p.value("1")),
            "h": finset.identity(p.value("h")),
        }
        with pytest.raises(InvalidSpec):
            PresheafMorphism(p, p, {**good, "0": stray})
        with pytest.raises(InvalidSpec):
            PresheafMorphism(p, p, good)

    def test_site_mismatch(self):
        _, site = luk3_site()
        _, other = tnat3_site()
        with pytest.raises(SiteMismatch):
            PresheafMorphism(
                terminal_presheaf(site),
                terminal_presheaf(other),
                {},
            )

    def test_identity_and_composition(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        t = terminal_presheaf(site)
        bang = hom_presheaves(p, t)[0]
        assert identity_morphism(p).then(bang) == bang
        assert bang.then(identity_morphism(t)) == bang

    def test_iso_search(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        relabeled = parse_presheaf(site, {
            "at": {"1": [], "h": ["qq", "pp"], "0": ["z"]},
            "res": {"0<=h": {"pp": "z", "qq": "z"}, "0<=1": {}, "h<=1": {}},
        })
        iso = iso_presheaves(p, relabeled)
        assert iso is not None and iso.is_iso()
        assert iso_presheaves(p, terminal_presheaf(site)) is None


class TestHomSets:
    def test_hom_counts(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        t = terminal_presheaf(site)
        assert len(hom_presheaves(yoneda(site, "h"), p)) == 2
        assert len(hom_presheaves(p, t)) == 1
        assert len(hom_presheaves(t, p)) == 0

    def test_hom_results_are_natural(self):
        _, site = luk3_site()
        p = sep_presheaf(site)
        for m in hom_presheaves(yoneda(site, "h"), p):
            assert m.is_natural()

    def test_represented_hom_bijection(self):
        # maps out of y(u) correspond exactly to sections at u
        for make_site in (luk3_site, tnat3_site, powerset2_site):
            q, site = make_site()
            targets = [terminal_presheaf(site)] + [
                yoneda(site, w) for w in site.objects()
            ]
            if canon_name(site) == "luk3":
                targets.append(sep_presheaf(site))
            for f in targets:
                for u in site.objects():
                    homs = hom_presheaves(yoneda(site, u), f)
                    images = {m.component(u)("*") for m in homs}
                    assert images == set(f.value(u))
                    assert len(homs) == len(f.value(u))


def canon_name(site):
    return "luk3" if [str(o) for o in site.objects()] == ["0", "1", "h"] else ""


class TestDayConvolution:
    def test_represented_convolution_is_multiplication(self):
        for make_site in (luk3_site, tnat3_site):
            q, site = make_site()
            for a in q.elements:
                for b in q.elements:
                    conv = day_convolve(yoneda(site, a), yoneda(site, b))
                    expected = yoneda(site, q.mul(a, b))
                    assert iso_presheaves(conv, expected) is not None, (a, b)

    def test_unit_laws(self):
        q, site = luk3_site()
        unit = yoneda(site, site.unit)
        for f in (sep_presheaf(site), terminal_presheaf(site)):
            assert iso_presheaves(day_convolve(unit, f), f) is not None
            assert iso_presheaves(day_convolve(f, unit), f) is not None

    def test_associativity_up_to_iso(self):
        q, site = luk3_site()
        f, g, h = yoneda(site, "h"), sep_presheaf(site), terminal_presheaf(site)
        left = day_convolve(day_convolve(f, g), h)
        right = day_convolve(f, day_convolve(g, h))
        assert iso_presheaves(left, right) is not None

    def test_commutativity_over_commutative_base(self):
        q, site = luk3_site()
        f, g = sep_presheaf(site), yoneda(site, "h")
        assert iso_presheaves(day_convolve(f, g), day_convolve(g, f))

    def test_projections_are_natural_corestrictions(self):
        q, site = luk3_site()
        f, g = sep_presheaf(site), terminal_presheaf(site)
        conv = day_convolve(f, g)
        p1 = day_projection1(f, g, conv)
        p2 = day_projection2(f, g, conv)
        assert p1.src == conv and p1.dst == f
        assert p2.src == conv and p2.dst == g
        assert p1.is_natural() and p2.is_natural()

    def test_projections_need_semicartesian(self):
        raw = {
            "elements": ["0", "e", "t"],
            "leq": [["0", "0"], ["0", "e"], ["0", "t"], ["e", "e"],
                    ["e", "t"], ["t", "t"]],
            "mul": {
                "0,0": "0", "0,e": "0", "0,t": "0", "e,0": "0",
                "t,0": "0", "e,e": "e", "e,t": "t", "t,e": "t", "t,t": "t",
            },
            "unit": "e",
        }
        q = validate_quantale(raw)
        site = ThinCategory.from_quantale(q)
        t = terminal_presheaf(site)
        with pytest.raises(NotSemicartesian):
            day_projection1(t, t)


class TestSieves:
    def test_quantalic_self_cover_splits(self):
        # {h,h} covers h but h is not below h*h, so the two tags never
        # merge above the bottom: the canonical map cannot be monic
        q, site = luk3_site()
        sieve = sieve_of(site, family(site, ["h", "h"], "h"))
        assert len(sieve.presheaf.value("h")) == 2
        assert len(sieve.presheaf.value("0")) == 1
        assert len(sieve.presheaf.value("1")) == 0
        assert not sieve.canonical.is_mono()

    def test_reversed_order_self_cover_splits(self):
        q, site = tnat3_site()
        sieve = sieve_of(site, family(site, ["1", "2"], "1"))
        assert len(sieve.presheaf.value("2")) == 2
        assert not sieve.canonical.is_mono()

    def test_localic_sieves_are_monic(self):
        q, site = powerset2_site()
        sieve = sieve_of(site, family(site, ["{x}", "{y}"], "{xy}"))
        sizes = {u: len(sieve.presheaf.value(u)) for u in ("{xy}", "{x}", "{y}", "{}")}
        assert sizes == {"{xy}": 0, "{x}": 1, "{y}": 1, "{}": 1}
        assert sieve.canonical.is_mono()

    def test_identity_cover_gives_the_representable(self):
        q, site = luk3_site()
        sieve = sieve_of(site, family(site, ["h"], "h"))
        assert iso_presheaves(sieve.presheaf, yoneda(site, "h")) is not None
        assert sieve.canonical.is_iso()

    def test_empty_cover_gives_the_empty_subobject(self):
        q, site = luk3_site()
        sieve = sieve_of(site, CoverFamily("0", []))
        assert sieve.presheaf.total_size() == 0
        assert sieve.canonical.is_mono()


def coequalizer_sieve(site, cover):
    """A cover's sieve built literally, as (values, restrictions, canonical).

    At each object: the coproduct of one singleton per leg below it, the
    pair tags (i,j) of the legs' pseudo-pullbacks with their two maps to
    the tags i and j, and `finset_oracles.coequalizer` of those maps.
    """
    legs = cover.legs
    at, proj = {}, {}
    for w in site.objects():
        pieces = [FinSetObj(["*"] if site.leq(w, leg.dom) else []) for leg in legs]
        total, _ = oracles.coproduct(pieces)
        pair_tags = [
            (i, j)
            for i, j in itertools.product(range(len(legs)), repeat=2)
            if site.leq(w, site.overlap(legs[i], legs[j]))
        ]
        pairs = FinSetObj([f"{i},{j}" for i, j in pair_tags])
        first, second = (
            FinMap(pairs, total, {
                f"{i},{j}": finset.tag_label((i, j)[side], "*") for i, j in pair_tags
            })
            for side in (0, 1)
        )
        at[w], proj[w] = oracles.coequalizer(first, second)
    res = {(v, u): {rep: proj[v](rep) for rep in at[u]} for v, u in site.pairs()}
    canonical = {w: {rep: "*" for rep in reps} for w, reps in at.items()}
    return at, res, canonical


def assert_sieve_is_the_coequalizer(site, cover):
    sieve = sieve_of(site, cover)
    at, res, canonical = coequalizer_sieve(site, cover)
    for w in site.objects():
        assert sieve.presheaf.value(w).elements == at[w].elements, (cover, w)
        assert sieve.canonical.component(w).assignment == canonical[w], (cover, w)
    for v, u in site.pairs():
        assert sieve.presheaf.restrict(v, u).assignment == res[(v, u)], (cover, v, u)
    assert sieve.canonical.dst == yoneda(site, cover.target)


class TestSieveOracle:
    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_corpus_coverages(self, name):
        site, canonical, trivial = corpus_site(name)
        families = list(canonical.all_families()) + list(trivial.all_families())
        assert len(families) > len(site.objects())
        for cover in families:
            assert_sieve_is_the_coequalizer(site, cover)

    def test_mutated_luk3_coverage(self):
        site, canonical, _ = corpus_site("luk3")
        mutated = without_family(canonical, family(site, ["0", "h"], "h"))
        assert mutated.family_count() == canonical.family_count() - 1
        for cover in mutated.all_families():
            assert_sieve_is_the_coequalizer(site, cover)

    def test_split_reversed_and_empty_covers(self):
        _, luk3 = luk3_site()
        _, tnat3 = tnat3_site()
        for site, cover in [
            (luk3, family(luk3, ["h", "h"], "h")),
            (tnat3, family(tnat3, ["1", "2"], "1")),
            (luk3, CoverFamily("0", [])),
        ]:
            assert_sieve_is_the_coequalizer(site, cover)
