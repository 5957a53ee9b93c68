"""Gluing, the two sheaf checkers, the shared literal diagrams against the
one-cover oracle, shifts, products, and the plus step."""

import functools
import random

import pytest

from certificate_oracles import per_cover_orthogonal
from corpus_sites import CORPUS_SITES, corpus, corpus_presheaves, corpus_site
from equalizer_oracle import one_cover_verdict
from qsheaf import sheaf
from qsheaf.coverage import (
    CoverFamily,
    Coverage,
    canonical_quantale_coverage,
    product_coverage,
    trivial_coverage,
)
from qsheaf.errors import InternalDefect, InvalidSpec, NotLocale, SiteMismatch
from qsheaf.moncat import ThinCategory
from qsheaf.presheaf import (
    Presheaf,
    iso_presheaves,
    parse_presheaf,
    sieve_key,
    terminal_presheaf,
    yoneda,
)
from qsheaf.quantale import build_standard
from qsheaf.reflect import enumerate_sheaves, sheafify
from qsheaf.sheaf import (
    VERDICT_PRESHEAF,
    VERDICT_SEPARATED,
    VERDICT_SHEAF,
    check_sheaf,
    check_sheaf_equalizer,
    check_sheaf_orthogonal,
    compatible_families,
    plus_construction,
    plus_with_unit,
    product_sheaf,
    shift_presheaf,
)


def site_of(name, param):
    q = build_standard(name, param)
    site = ThinCategory.from_quantale(q)
    return q, site, canonical_quantale_coverage(q, site)


def family(site, doms, target):
    return CoverFamily(target, [site.arrow(d, target) for d in doms])


def glued(f, cover, sections):
    """Every section over the target restricting to the given family."""
    return sheaf._glue_buckets(f.site, f._at, f._res, cover).get(tuple(sections), [])


def verdict_of(f, coverage):
    """The one verdict of both checkers, which `check_sheaf` makes agree."""
    return check_sheaf(f, coverage)[0].verdict


def luk3_sep(site):
    return parse_presheaf(site, {
        "at": {"1": [], "h": ["p", "q"], "0": ["s"]},
        "res": {"0<=h": {"p": "s", "q": "s"}, "0<=1": {}, "h<=1": {}},
    })


def luk3_doubled_bottom(site):
    return parse_presheaf(site, {
        "at": {"1": ["a"], "h": ["b"], "0": ["c", "d"]},
        "res": {"h<=1": {"a": "b"}, "0<=1": {"a": "c"}, "0<=h": {"b": "c"}},
    })


def luk3_two_over_middle(site):
    """A sheaf with two global sections agreeing strictly below the top."""
    return parse_presheaf(site, {
        "at": {"1": ["a", "b"], "h": ["m"], "0": ["z"]},
        "res": {
            "h<=1": {"a": "m", "b": "m"},
            "0<=1": {"a": "z", "b": "z"},
            "0<=h": {"m": "z"},
        },
    })


def powerset2_sep(site):
    """Separated but missing the mixed gluings over {x} + {y}."""
    return parse_presheaf(site, {
        "at": {
            "{xy}": ["p00", "p11"],
            "{x}": ["x0", "x1"],
            "{y}": ["y0", "y1"],
            "{}": ["s"],
        },
        "res": {
            "{x}<={xy}": {"p00": "x0", "p11": "x1"},
            "{y}<={xy}": {"p00": "y0", "p11": "y1"},
            "{}<={xy}": {"p00": "s", "p11": "s"},
            "{}<={x}": {"x0": "s", "x1": "s"},
            "{}<={y}": {"y0": "s", "y1": "s"},
        },
    })


def powerset2_constant_two(site):
    """The constant 2-element presheaf; the empty cover breaks separation."""
    objs = ["{}", "{x}", "{xy}", "{y}"]
    return parse_presheaf(site, {
        "at": {u: ["0", "1"] for u in objs},
        "res": {
            f"{v}<={u}": {"0": "0", "1": "1"}
            for u in objs
            for v in objs
            if v != u and set(v[1:-1]) <= set(u[1:-1])
        },
    })


class TestGluing:
    def test_compatibility_and_overlap(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sep = luk3_sep(site)
        # {h,h} overlaps at h*h = 0 where everything collapses to s
        assert ("p", "q") in compatible_families(sep, family(site, ["h", "h"], "h"))
        two = parse_presheaf(site, {
            "at": {"1": [], "h": ["a", "b"], "0": ["u", "v"]},
            "res": {"0<=h": {"a": "u", "b": "v"}, "0<=1": {}, "h<=1": {}},
        })
        families = compatible_families(two, family(site, ["0", "h"], "h"))
        assert ("u", "b") not in families
        assert ("v", "b") in families

    def test_glue_counts(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sep = luk3_sep(site)
        assert glued(sep, family(site, ["h", "h"], "h"), ("p", "q")) == []
        assert glued(sep, family(site, ["h"], "h"), ("p",)) == ["p"]

    def test_glue_multiple_and_empty_cover(self):
        q, site, cov = site_of("powerset_locale", 2)
        doubled = parse_presheaf(site, {
            "at": {"{xy}": ["z1", "z2"], "{x}": ["a"], "{y}": ["b"], "{}": ["s"]},
            "res": {
                "{x}<={xy}": {"z1": "a", "z2": "a"},
                "{y}<={xy}": {"z1": "b", "z2": "b"},
                "{}<={xy}": {"z1": "s", "z2": "s"},
                "{}<={x}": {"a": "s"},
                "{}<={y}": {"b": "s"},
            },
        })
        fam = family(site, ["{x}", "{y}"], "{xy}")
        assert glued(doubled, fam, ("a", "b")) == ["z1", "z2"]
        empty = CoverFamily("{}", [])
        assert glued(doubled, empty, ()) == ["s"]
        assert compatible_families(doubled, empty) == [()]


class TestVerdicts:
    def test_terminal_is_a_sheaf_with_crosschecks(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        report = check_sheaf_equalizer(terminal_presheaf(site), cov)
        assert report.verdict == VERDICT_SHEAF and report.ok
        assert report.cross_checked == 27

    def test_crosscheck_threshold_zero_disables(self, monkeypatch):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        monkeypatch.setattr(sheaf, "CROSSCHECK_THRESHOLD", 0)
        report = check_sheaf_equalizer(terminal_presheaf(site), cov)
        assert report.ok and report.cross_checked == 0

    @pytest.mark.parametrize(
        "at,res",
        [
            ({"0": [1], "h": [], "1": []}, {"0<=h": {}, "0<=1": {}, "h<=1": {}}),
            (
                {"1": [], "h": [1, 2], "0": [3]},
                {"0<=h": {1: 3, 2: 3}, "0<=1": {}, "h<=1": {}},
            ),
        ],
        ids=["bottom-only", "separated"],
    )
    def test_integer_labels_cross_check_like_strings(self, at, res):
        q, site, cov = site_of("lukasiewicz_chain", 3)

        def build(label):
            return Presheaf(
                site,
                {u: [label(x) for x in xs] for u, xs in at.items()},
                {
                    tuple(k.split("<=")): {label(x): label(y) for x, y in t.items()}
                    for k, t in res.items()
                },
            )

        ints = check_sheaf_equalizer(build(int), cov)
        strs = check_sheaf_equalizer(build(str), cov)
        assert ints.cross_checked == strs.cross_checked > 0
        assert ints.verdict == strs.verdict

    def test_separated_not_sheaf(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sep = luk3_sep(site)
        for method in ("equalizer", "orthogonal"):
            (report,) = check_sheaf(sep, cov, (method,))
            assert report.verdict == VERDICT_SEPARATED, report.witness

    def test_not_separated(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        bad = luk3_doubled_bottom(site)
        for method in ("equalizer", "orthogonal"):
            (report,) = check_sheaf(bad, cov, (method,))
            assert report.verdict == VERDICT_PRESHEAF, report.witness
        # the failure is the empty cover of the bottom
        report = check_sheaf_equalizer(bad, cov)
        assert "-> 0" in report.witness

    def test_two_over_middle_is_a_sheaf(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        assert verdict_of(luk3_two_over_middle(site), cov) == VERDICT_SHEAF

    def test_method_dispatch(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        t = terminal_presheaf(site)

        def methods(*args):
            return [r.method for r in check_sheaf(t, cov, *args)]

        assert methods(("equalizer",)) == ["equalizer"]
        assert methods(("orthogonal",)) == ["orthogonal"]
        assert methods() == ["equalizer", "orthogonal"]
        assert methods(("orthogonal", "equalizer")) == ["orthogonal", "equalizer"]
        with pytest.raises(InvalidSpec):
            check_sheaf(t, cov, ("banana",))

    def test_unknown_method_is_refused_before_any_checker_runs(self, monkeypatch):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        ran = []
        for name in ("check_sheaf_equalizer", "check_sheaf_orthogonal"):
            monkeypatch.setattr(sheaf, name, lambda f, c, name=name: ran.append(name))
        with pytest.raises(InvalidSpec, match="banana"):
            check_sheaf(terminal_presheaf(site), cov, ("equalizer", "banana"))
        assert ran == []

    def test_rng_sets_the_run_order_not_the_report_order(self, monkeypatch):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        ran = []
        for name in ("check_sheaf_equalizer", "check_sheaf_orthogonal"):
            checker = getattr(sheaf, name)

            def recording(f, c, checker=checker):
                report = checker(f, c)
                ran.append(report.method)
                return report

            monkeypatch.setattr(sheaf, name, recording)
        orders = set()
        for seed in range(4):
            ran.clear()
            reports = check_sheaf(terminal_presheaf(site), cov, rng=random.Random(seed))
            expected = ["equalizer", "orthogonal"]
            random.Random(seed).shuffle(expected)
            assert ran == expected
            assert [r.method for r in reports] == ["equalizer", "orthogonal"]
            orders.add(tuple(ran))
        assert len(orders) == 2

    def test_disagreeing_checkers_are_an_internal_defect(self, monkeypatch):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        monkeypatch.setattr(
            sheaf,
            "check_sheaf_orthogonal",
            lambda f, c: sheaf.SheafReport("orthogonal", VERDICT_PRESHEAF),
        )
        with pytest.raises(
            InternalDefect,
            match="the two sheaf definitions disagree: equalizer=sheaf, orthogonal=presheaf",
        ):
            check_sheaf(terminal_presheaf(site), cov)
        (report,) = check_sheaf(terminal_presheaf(site), cov, ("equalizer",))
        assert report.ok

    def test_site_mismatch(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        _, other, _ = site_of("truncated_nat", 3)
        with pytest.raises(SiteMismatch):
            check_sheaf_equalizer(terminal_presheaf(other), cov)
        with pytest.raises(SiteMismatch):
            check_sheaf_orthogonal(terminal_presheaf(other), cov)

    def test_yoneda_count_mismatch_is_an_internal_defect(self, monkeypatch):
        # maps y(u) -> f must number the sections f(u); losing one is a bug
        q, site, cov = site_of("lukasiewicz_chain", 3)
        representables = [yoneda(site, u) for u in site.objects()]
        enumerate_homs = sheaf.hom_presheaves

        def drop_one_out_of_a_representable(src, dst):
            homs = enumerate_homs(src, dst)
            return homs[1:] if any(src is y for y in representables) else homs

        monkeypatch.setattr(sheaf, "hom_presheaves", drop_one_out_of_a_representable)
        with pytest.raises(InternalDefect, match="Yoneda lemma"):
            check_sheaf_orthogonal(terminal_presheaf(site), cov)

    def test_checkers_agree_across_the_corpus(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        triv = trivial_coverage(site, q)
        examples = [
            terminal_presheaf(site),
            luk3_sep(site),
            luk3_doubled_bottom(site),
            luk3_two_over_middle(site),
            yoneda(site, "h"),
            yoneda(site, "0"),
        ]
        for f in examples:
            for coverage in (cov, triv):
                eq = check_sheaf_equalizer(f, coverage)
                orth = check_sheaf_orthogonal(f, coverage)
                assert eq.verdict == orth.verdict, (
                    f"{f!r}: {eq.verdict} / {orth.verdict}"
                )

    def test_everything_is_a_sheaf_for_the_trivial_coverage(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        triv = trivial_coverage(site, q)
        for f in (luk3_sep(site), luk3_doubled_bottom(site)):
            assert verdict_of(f, triv) == VERDICT_SHEAF


@functools.cache
def corpus_cases(name):
    """(coverage, presheaves) for both coverages of a corpus site: the
    corpus presheaves, their reflections and the coverage's size-2 battery."""
    site, *coverages = corpus_site(name)
    presheaves = corpus_presheaves(name, site)
    return [
        (
            coverage,
            presheaves
            + [sheafify(f, coverage).sheaf for f in presheaves]
            + enumerate_sheaves(site, coverage, max_size=2),
        )
        for coverage in coverages
    ]


def oracle_verdicts(f, covers):
    return [one_cover_verdict(f, cover) for cover in covers]


def recording_batches(monkeypatch):
    """The cover indices of every shared diagram built from now on."""
    batches = []
    build = sheaf._shared_diagram

    def recording(f, covers, batch, verdicts):
        batches.append(list(batch))
        return build(f, covers, batch, verdicts)

    monkeypatch.setattr(sheaf, "_shared_diagram", recording)
    return batches


def constant_three(site):
    """Three sections everywhere, every restriction the identity."""
    labels = ["a", "b", "c"]
    return Presheaf(
        site,
        {u: labels for u in site.objects()},
        {vu: {x: x for x in labels} for vu in site.pairs()},
    )


class TestSharedDiagrams:
    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_shared_diagrams_give_the_one_cover_verdicts(self, name):
        for coverage, presheaves in corpus_cases(name):
            covers = list(coverage.all_families())
            for f in presheaves:
                assert sheaf.diagram_verdicts(f, covers) == oracle_verdicts(
                    f, covers
                ), f

    def test_edge_covers(self, monkeypatch):
        q, site, cov = site_of("powerset_locale", 2)
        f = constant_three(site)
        empty = CoverFamily("{}", [])
        small = family(site, ["{x}", "{y}"], "{xy}")
        past_bound = family(site, ["{x}", "{y}", "{x}", "{y}", "{xy}", "{x}"], "{xy}")
        past_threshold = family(site, ["{x}"] * 4 + ["{y}"] * 4, "{xy}")
        covers = [empty, small, past_bound, small, past_threshold]
        batches = recording_batches(monkeypatch)
        verdicts = sheaf.diagram_verdicts(f, covers)
        assert verdicts == oracle_verdicts(f, covers)
        assert verdicts[-1] is None and None not in verdicts[:-1]
        # 3**6 leg tuples pass 256: that cover is built alone, and the
        # batch after it ends on a cover too large to diagram
        assert batches == [[0, 1], [2], [3]]
        # an empty value set gives a cover no leg tuple
        hollow = parse_presheaf(site, {
            "at": {"{xy}": [], "{x}": [], "{y}": ["b"], "{}": ["s"]},
            "res": {
                "{x}<={xy}": {}, "{y}<={xy}": {}, "{}<={xy}": {},
                "{}<={x}": {}, "{}<={y}": {"b": "s"},
            },
        })
        for g in (hollow, powerset2_sep(site), powerset2_constant_two(site)):
            covers = [empty, small, past_threshold, *cov.all_families()]
            assert sheaf.diagram_verdicts(g, covers) == oracle_verdicts(g, covers)

    def test_a_wrong_family_count_disagrees_with_the_diagram(self, monkeypatch):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sep = parse_presheaf(site, corpus("presheaf_luk3_separated.json"))
        assert check_sheaf_equalizer(sep, cov).verdict == VERDICT_SEPARATED
        monkeypatch.setattr(sheaf, "_families", lambda *args: iter(()))
        with pytest.raises(
            InternalDefect, match="family count and equalizer diagram disagree"
        ):
            check_sheaf_equalizer(sep, cov)


def outcome_counts(report):
    return [(o.cover, o.families, o.unglued, o.ambiguous) for o in report.outcomes]


class TestOneCheckPerSieve:
    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_the_checkers_agree_cover_by_cover(self, name):
        """Family, unglued and ambiguous counts agree on every cover, so
        covers with one sieve glue alike: the battery prunes each object
        with one cover per sieve on the strength of this."""
        for coverage, presheaves in corpus_cases(name):
            for f in presheaves:
                assert outcome_counts(check_sheaf_equalizer(f, coverage)) == (
                    outcome_counts(check_sheaf_orthogonal(f, coverage))
                ), f

    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_the_per_cover_oracle_gives_the_same_outcomes(self, name):
        site, *coverages = corpus_site(name)
        for coverage in coverages:
            for f in corpus_presheaves(name, site):
                outcomes = check_sheaf_orthogonal(f, coverage).outcomes
                assert [
                    (o.families, o.unglued, o.ambiguous) for o in outcomes
                ] == per_cover_orthogonal(f, coverage), f

    def test_one_sieve_per_distinct_key(self, monkeypatch):
        site, canonical, _ = corpus_site("product_chain2_luk3")
        built = []
        build = sheaf.sieve_of

        def recording(site, cover):
            built.append(cover)
            return build(site, cover)

        monkeypatch.setattr(sheaf, "sieve_of", recording)
        covers = list(canonical.all_families())
        keys = {sieve_key(site, cover) for cover in covers}
        check_sheaf_orthogonal(terminal_presheaf(site), canonical)
        assert len(built) == len(keys) < len(covers)
        assert {sieve_key(site, cover) for cover in built} == keys


class TestShift:
    def test_shift_of_terminal_is_terminal(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        t = terminal_presheaf(site)
        for u in q.elements:
            assert shift_presheaf(t, u) == t

    def test_shifts_of_sheaves_are_sheaves(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sheaves = [
            terminal_presheaf(site),
            yoneda(site, "h"),
            yoneda(site, "0"),
            luk3_two_over_middle(site),
        ]
        for f in sheaves:
            assert verdict_of(f, cov) == VERDICT_SHEAF
            for u in q.elements:
                shifted = shift_presheaf(f, u)
                assert verdict_of(shifted, cov) == VERDICT_SHEAF, (f, u)

    def test_shift_of_non_sheaf_can_stay_broken(self):
        # shifting by the unit is the identity, so verdicts carry over
        q, site, cov = site_of("lukasiewicz_chain", 3)
        sep = luk3_sep(site)
        assert shift_presheaf(sep, "1") == sep


class TestProductSheaf:
    def test_terminal_times_terminal(self):
        q1, s1, c1 = site_of("lukasiewicz_chain", 3)
        q2, s2, c2 = site_of("chain_locale", 2)
        prod_cov = product_coverage(c1, c2)
        t = product_sheaf(terminal_presheaf(s1), terminal_presheaf(s2))
        assert iso_presheaves(t, terminal_presheaf(prod_cov.site)) is not None
        assert verdict_of(t, prod_cov) == VERDICT_SHEAF

    def test_sheaf_times_sheaf_is_a_sheaf(self):
        q1, s1, c1 = site_of("lukasiewicz_chain", 3)
        q2, s2, c2 = site_of("chain_locale", 2)
        prod_cov = product_coverage(c1, c2)
        f = product_sheaf(yoneda(s1, "h"), terminal_presheaf(s2))
        assert verdict_of(f, prod_cov) == VERDICT_SHEAF

    def test_sheaf_times_non_sheaf_fails(self):
        q1, s1, c1 = site_of("lukasiewicz_chain", 3)
        q2, s2, c2 = site_of("chain_locale", 2)
        prod_cov = product_coverage(c1, c2)
        broken = parse_presheaf(s2, {
            "at": {"1": ["a"], "0": ["c", "d"]},
            "res": {"0<=1": {"a": "c"}},
        })
        f = product_sheaf(terminal_presheaf(s1), broken)
        assert verdict_of(f, prod_cov) == VERDICT_PRESHEAF


class TestPlusConstruction:
    def test_requires_a_canonical_locale_site(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        with pytest.raises(NotLocale):
            plus_construction(luk3_sep(site), cov)
        q2, site2, cov2 = site_of("powerset_locale", 2)
        explicit = Coverage(
            site2, list(cov2.all_families()), quantale=q2, mult_cap=2
        )
        with pytest.raises(NotLocale):
            plus_construction(terminal_presheaf(site2), explicit)

    def test_plus_fixes_sheaves(self):
        q, site, cov = site_of("powerset_locale", 2)
        for f in (terminal_presheaf(site), yoneda(site, "{x}")):
            plus, unit = plus_with_unit(f, cov)
            assert unit.src == f and unit.dst == plus
            assert unit.is_natural() and unit.is_iso()

    def test_plus_of_separated_is_a_sheaf(self):
        q, site, cov = site_of("powerset_locale", 2)
        sep = powerset2_sep(site)
        assert verdict_of(sep, cov) == VERDICT_SEPARATED
        plus, unit = plus_with_unit(sep, cov)
        sizes = {u: len(plus.value(u)) for u in ("{}", "{x}", "{y}", "{xy}")}
        assert sizes == {"{}": 1, "{x}": 2, "{y}": 2, "{xy}": 4}
        assert verdict_of(plus, cov) == VERDICT_SHEAF
        assert unit.is_natural() and unit.is_mono() and not unit.is_iso()

    def test_plus_squared_reaches_the_section_sheaf(self):
        q, site, cov = site_of("powerset_locale", 2)
        const = powerset2_constant_two(site)
        assert verdict_of(const, cov) == VERDICT_PRESHEAF
        once = plus_construction(const, cov)
        sizes1 = {u: len(once.value(u)) for u in ("{}", "{x}", "{y}", "{xy}")}
        assert sizes1 == {"{}": 1, "{x}": 2, "{y}": 2, "{xy}": 2}
        assert verdict_of(once, cov) == VERDICT_SEPARATED
        twice = plus_construction(once, cov)
        sizes2 = {u: len(twice.value(u)) for u in ("{}", "{x}", "{y}", "{xy}")}
        assert sizes2 == {"{}": 1, "{x}": 2, "{y}": 2, "{xy}": 4}
        assert verdict_of(twice, cov) == VERDICT_SHEAF

    def test_empty_cover_merges_bottom_sections(self):
        q, site, cov = site_of("powerset_locale", 2)
        doubled = parse_presheaf(site, {
            "at": {"{xy}": ["t"], "{x}": ["a"], "{y}": ["b"], "{}": ["c", "d"]},
            "res": {
                "{x}<={xy}": {"t": "a"},
                "{y}<={xy}": {"t": "b"},
                "{}<={xy}": {"t": "c"},
                "{}<={x}": {"a": "c"},
                "{}<={y}": {"b": "c"},
            },
        })
        assert verdict_of(doubled, cov) == VERDICT_PRESHEAF
        plus, _ = plus_with_unit(doubled, cov)
        assert len(plus.value("{}")) == 1
