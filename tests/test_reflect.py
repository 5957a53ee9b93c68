"""Reflection into sheaves, its certificates, subobjects, and down-sets."""

import pytest

from certificate_oracles import composite_epi_certified
from corpus_sites import CORPUS_SITES, corpus_presheaves, corpus_site
from subobject_order import subsheaf_join, subsheaf_leq
from qsheaf import cli, reflect, sheaf
from qsheaf.checks import CheckEntry
from qsheaf.coverage import canonical_quantale_coverage, product_coverage
from qsheaf.errors import (
    InternalDefect,
    InvalidSpec,
    MulNotAssociative,
    NotConverged,
    UnverifiedInput,
)
from qsheaf.moncat import ThinCategory, canon
from qsheaf.presheaf import (
    PresheafMorphism,
    day_convolve,
    hom_presheaves,
    iso_presheaves,
    parse_presheaf,
    sieve_key,
    terminal_presheaf,
    yoneda,
)
from qsheaf.quantale import STANDARD, build_standard
from qsheaf.reflect import (
    certify_reflection,
    enumerate_sheaves,
    extremal_factorize,
    lopos_check,
    pointwise_pullback,
    preserves_terminal,
    probe_pullback_preservation,
    sheaf_tensor,
    sheafify,
    star,
    subsheaf_lattice,
)
from qsheaf.sheaf import (
    check_sheaf,
    check_sheaf_equalizer,
    plus_construction,
    product_sheaf,
)


def site_of(name, param):
    q = build_standard(name, param)
    site = ThinCategory.from_quantale(q)
    return q, site, canonical_quantale_coverage(q, site)


def luk3_sep(site):
    return parse_presheaf(site, {
        "at": {"1": [], "h": ["p", "q"], "0": ["s"]},
        "res": {"0<=h": {"p": "s", "q": "s"}, "0<=1": {}, "h<=1": {}},
    })


def powerset2_constant_two(site):
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


def powerset2_sep(site):
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


def support_element(q, site, member):
    """The quantale element whose down-set is the member's support."""
    supp = {canon(u) for u in site.objects() if len(member.value(u))}
    for e in q.elements:
        if {canon(w) for w in q.elements if q.leq(w, e)} == supp:
            return e
    return None


class TestSheafify:
    def test_sheaf_input_is_fixed_immediately(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        result = sheafify(terminal_presheaf(site), cov)
        assert result.iterations == 0 and result.converged
        assert result.unit.is_iso()
        assert result.history == []

    def test_separated_input_merges_to_the_representable(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        result = sheafify(luk3_sep(site), cov)
        assert result.iterations == 1 and result.converged
        assert len(result.history) == 1
        assert iso_presheaves(result.sheaf, yoneda(site, "h")) is not None
        report = certify_reflection(luk3_sep(site), result, cov)
        assert report.ok, report.failures()
        # uncounted entries under no heading
        assert report.heading is None
        assert report.entries[0] == CheckEntry("converged", True)

    def test_ambiguous_input_collapses_to_terminal(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        bad = parse_presheaf(site, {
            "at": {"1": ["a"], "h": ["b"], "0": ["c", "d"]},
            "res": {"h<=1": {"a": "b"}, "0<=1": {"a": "c"}, "0<=h": {"b": "c"}},
        })
        result = sheafify(bad, cov)
        assert result.iterations == 1 and result.converged
        assert iso_presheaves(result.sheaf, terminal_presheaf(site)) is not None

    def test_constant_two_reaches_the_section_sheaf(self):
        q, site, cov = site_of("powerset_locale", 2)
        const = powerset2_constant_two(site)
        result = sheafify(const, cov)
        assert result.converged and result.iterations == 3
        sizes = {u: len(result.sheaf.value(u)) for u in ("{}", "{x}", "{y}", "{xy}")}
        assert sizes == {"{}": 1, "{x}": 2, "{y}": 2, "{xy}": 4}
        report = certify_reflection(const, result, cov)
        assert report.ok, report.failures()

    def test_iteration_bound_reported_not_raised(self):
        q, site, cov = site_of("powerset_locale", 2)
        const = powerset2_constant_two(site)
        result = sheafify(const, cov, max_iter=1)
        assert not result.converged
        report = certify_reflection(const, result, cov, battery=[])
        assert not report.ok
        conv = next(e for e in report.entries if e.name == "converged")
        assert not conv.ok

    def test_reflection_agrees_with_the_double_plus_on_locales(self):
        q, site, cov = site_of("powerset_locale", 2)
        for f in (powerset2_constant_two(site), powerset2_sep(site)):
            reflected = sheafify(f, cov).sheaf
            plussed = plus_construction(plus_construction(f, cov), cov)
            assert iso_presheaves(reflected, plussed) is not None


class TestBattery:
    def test_luk3_battery(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        battery = enumerate_sheaves(site, cov, max_size=2)
        profiles = sorted(
            tuple(sorted((canon(u), len(b.value(u))) for u in site.objects()))
            for b in battery
        )
        assert len(battery) == 4
        assert profiles == sorted([
            (("0", 1), ("1", 0), ("h", 0)),
            (("0", 1), ("1", 0), ("h", 1)),
            (("0", 1), ("1", 1), ("h", 1)),
            (("0", 1), ("1", 2), ("h", 1)),
        ])

    def test_luk3_battery_size_one(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        assert len(enumerate_sheaves(site, cov, max_size=1)) == 3

    def test_reversed_chain_battery(self):
        q, site, cov = site_of("truncated_nat", 3)
        battery = enumerate_sheaves(site, cov, max_size=2)
        assert len(battery) == 5

    def test_locale_battery(self):
        q, site, cov = site_of("powerset_locale", 2)
        battery = enumerate_sheaves(site, cov, max_size=2)
        assert len(battery) == 10
        # the bottom is forced to a single section by the empty cover
        assert all(len(b.value("{}")) == 1 for b in battery)
        # nonempty top forces exactly the compatible-pair count
        for b in battery:
            nx, ny, nt = (len(b.value(u)) for u in ("{x}", "{y}", "{xy}"))
            if nx and ny:
                assert nt == nx * ny
            else:
                assert nt == 0

    @pytest.mark.parametrize("threshold", [None, 0], ids=["diagrams", "family-count"])
    def test_a_battery_that_admits_everything_fails_its_audit(
        self, monkeypatch, threshold
    ):
        """With pruning that finds no compatible family and every section
        alone in its bucket, non-sheaves enter the battery; the audit, by
        the diagrams or by the family count when no cover is small enough
        to diagram, must refuse them."""
        q, site, cov = site_of("lukasiewicz_chain", 3)
        if threshold is not None:
            monkeypatch.setattr(sheaf, "CROSSCHECK_THRESHOLD", threshold)
        monkeypatch.setattr(reflect, "_families", lambda *args: iter(()))
        monkeypatch.setattr(
            reflect,
            "_glue_buckets",
            lambda *args: {(z,): [z] for z in args[-3][args[-1].target]},
        )
        with pytest.raises(InternalDefect, match="battery admitted a non-sheaf"):
            enumerate_sheaves(site, cov, max_size=2)

    def test_a_wrong_sieve_grouping_fails_the_audit(self, monkeypatch):
        """Taking every cover of an object for one sieve prunes the top of
        powerset2 with its one-leg cover alone, which every table passes;
        the audit must refuse what that lets in."""
        q, site, cov = site_of("powerset_locale", 2)
        monkeypatch.setattr(reflect, "sieve_key", lambda site, cover: cover.target)
        with pytest.raises(InternalDefect, match="battery admitted a non-sheaf"):
            enumerate_sheaves(site, cov, max_size=2)

    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_each_object_is_pruned_once_per_sieve(self, monkeypatch, name):
        """The search reads one cover per distinct sieve of each object,
        the one with the fewest legs, the first of them on a tie."""
        read = set()
        buckets = reflect._glue_buckets

        def recording(site, at, res, cover):
            read.add(cover)
            return buckets(site, at, res, cover)

        monkeypatch.setattr(reflect, "_glue_buckets", recording)
        site, canonical, trivial = corpus_site(name)
        for coverage in (canonical, trivial):
            read.clear()
            enumerate_sheaves(site, coverage, max_size=2)
            fewest = {}
            for cover in coverage.all_families():
                key = sieve_key(site, cover)
                if key not in fewest or len(cover) < len(fewest[key]):
                    fewest[key] = cover
            assert read == set(fewest.values())
            if coverage is canonical:  # which repeats sieves
                assert len(read) < coverage.family_count()

    # literal diagrams built by the size-2 audit, per corpus site and
    # coverage: the totals of `check_sheaf_equalizer(member).cross_checked`
    # over every member, which the audit once ran on each member
    AUDIT_DIAGRAMS = {
        "chain3": (297, 141),
        "ideals4": (108, 141),
        "luk3": (108, 141),
        "powerset2": (810, 996),
        "product_chain2_luk3": (3150, 38562),
        "tnat3": (405, 844),
    }

    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_the_audit_builds_every_literal_diagram(self, monkeypatch, name):
        built = []  # (audited presheaf, diagrams built) per audit
        verdicts_of = sheaf.diagram_verdicts

        def counting(p, covers):
            verdicts = verdicts_of(p, covers)
            built.append((p, sum(v is not None for v in verdicts)))
            return verdicts

        monkeypatch.setattr(sheaf, "diagram_verdicts", counting)
        site, *coverages = corpus_site(name)
        for coverage, diagrams in zip(coverages, self.AUDIT_DIAGRAMS[name]):
            built.clear()
            battery = enumerate_sheaves(site, coverage, max_size=2)
            # every member is audited once, on its final tables
            assert len(built) == len(battery)
            assert all(p is q for (p, _), q in zip(built, battery))
            assert sum(n for _, n in built) == diagrams

    def test_battery_members_pass_both_checkers(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        for b in enumerate_sheaves(site, cov, max_size=2):
            assert all(r.ok for r in check_sheaf(b, cov))


class TestPreservation:
    def test_terminal_preserved_on_all_site_flavors(self):
        q1, s1, quantalic = site_of("lukasiewicz_chain", 3)
        q2, s2, localic = site_of("powerset_locale", 2)
        _, _, chain = site_of("chain_locale", 2)
        product = product_coverage(chain, quantalic)
        for coverage in (quantalic, localic, product):
            entry = preserves_terminal(coverage)
            assert entry == CheckEntry("terminal-preserved", True), entry

    def test_tensor_of_representables(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        for a in q.elements:
            for b in q.elements:
                got = sheaf_tensor(yoneda(site, a), yoneda(site, b), cov)
                assert iso_presheaves(got, yoneda(site, q.mul(a, b))), (a, b)

    def test_tensor_bound_raises(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        conv = day_convolve(luk3_sep(site), terminal_presheaf(site))
        assert not any(r.ok for r in check_sheaf(conv, cov))
        with pytest.raises(NotConverged):
            sheaf_tensor(luk3_sep(site), terminal_presheaf(site), cov, max_iter=0)

    def test_pullback_probe_records_an_outcome(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        t = terminal_presheaf(site)
        into = hom_presheaves(luk3_sep(site), t)[0]
        other = hom_presheaves(yoneda(site, "h"), t)[0]
        apex, p1, p2 = pointwise_pullback(into, other)
        assert p1.is_natural() and p2.is_natural()
        sizes = {canon(u): len(apex.value(u)) for u in site.objects()}
        assert sizes == {"0": 1, "1": 0, "h": 2}
        record = probe_pullback_preservation(into, other, cov)
        assert record["converged"] and record["preserved"] is True

    def test_colliding_pair_labels_are_rejected(self):
        # ("a,b", "c") and ("a", "b,c") both print as "(a,b,c)": merging
        # them would silently drop a section of the pullback and the product
        q, site, cov = site_of("lukasiewicz_chain", 3)
        objs = ["0", "h", "1"]

        def constant(labels):
            return parse_presheaf(site, {
                "at": {u: labels for u in objs},
                "res": {
                    f"{v}<={u}": {x: x for x in labels}
                    for u in objs
                    for v in objs[:objs.index(u)]
                },
            })

        left, right = constant(["a,b", "a"]), constant(["c", "b,c"])
        t = terminal_presheaf(site)
        with pytest.raises(InvalidSpec):
            pointwise_pullback(
                hom_presheaves(left, t)[0], hom_presheaves(right, t)[0]
            )
        with pytest.raises(InvalidSpec):
            product_sheaf(left, right)


class TestSubobjects:
    def test_subterminals_match_the_quantale(self):
        for name, param in [
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("powerset_locale", 2),
        ]:
            q, site, cov = site_of(name, param)
            lattice = subsheaf_lattice(terminal_presheaf(site), cov)
            elems = [support_element(q, site, m) for m in lattice.members]
            assert len(lattice.members) == len(q.elements)
            assert set(elems) == set(q.elements)
            n = len(elems)
            for i in range(n):
                for j in range(n):
                    assert subsheaf_leq(lattice, i, j) == q.leq(elems[i], elems[j])
                    assert elems[lattice.meet(i, j)] == q.meet(
                        elems[i], elems[j]
                    )
                    assert elems[subsheaf_join(lattice, i, j)] == q.join(
                        [elems[i], elems[j]]
                    )

    def test_inclusions_are_monic_and_natural(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        lattice = subsheaf_lattice(terminal_presheaf(site), cov)
        for incl in lattice.inclusions:
            assert incl.is_mono() and incl.is_natural()

    def test_ambient_must_be_a_sheaf(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        with pytest.raises(UnverifiedInput):
            subsheaf_lattice(luk3_sep(site), cov)

    def test_enumeration_size_guard(self):
        q, site, cov = site_of("chain_locale", 2)
        wide = parse_presheaf(site, {
            "at": {"1": [f"s{i}" for i in range(20)], "0": ["z"]},
            "res": {"0<=1": {f"s{i}": "z" for i in range(20)}},
        })
        assert all(r.ok for r in check_sheaf(wide, cov))
        with pytest.raises(UnverifiedInput):
            subsheaf_lattice(wide, cov)


class TestStar:
    def test_star_tables_reproduce_the_quantales(self):
        for name, param in [
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("powerset_locale", 2),
        ]:
            q, site, cov = site_of(name, param)
            lattice = subsheaf_lattice(terminal_presheaf(site), cov)
            battery = enumerate_sheaves(site, cov, max_size=2)
            elems = [support_element(q, site, m) for m in lattice.members]
            for i in range(len(elems)):
                for j in range(len(elems)):
                    fact = star(
                        lattice.inclusions[i],
                        lattice.inclusions[j],
                        cov,
                        lattice=lattice,
                        battery=battery,
                    )
                    assert fact.epi_certified
                    got = support_element(q, site, fact.mono.src)
                    assert got == q.mul(elems[i], elems[j]), (
                        name, elems[i], elems[j], got,
                    )

    def test_star_departs_from_meet_off_locales(self):
        # the half-by-half table entry lands strictly below the meet
        q, site, cov = site_of("lukasiewicz_chain", 3)
        lattice = subsheaf_lattice(terminal_presheaf(site), cov)
        elems = [support_element(q, site, m) for m in lattice.members]
        i = elems.index("h")
        fact = star(lattice.inclusions[i], lattice.inclusions[i], cov,
                    lattice=lattice)
        assert support_element(q, site, fact.mono.src) == "0"
        assert q.meet("h", "h") == "h"

    def test_extremal_factorization_composes(self):
        q, site, cov = site_of("lukasiewicz_chain", 3)
        t = terminal_presheaf(site)
        bang = hom_presheaves(yoneda(site, "h"), t)[0]
        fact = extremal_factorize(bang, cov)
        assert fact.epi.then(fact.mono) == bang
        assert fact.mono.is_mono()
        assert fact.epi_certified and fact.battery_size >= 4
        assert support_element(q, site, fact.mono.src) == "h"


    @pytest.mark.parametrize("name", CORPUS_SITES)
    def test_epi_certificates_match_the_composite_oracle(self, name):
        """Every `sub` cell of every corpus sheaf, canonical coverage: the
        certificate by hom values gives the composites' verdict, on the
        least subsheaf holding the image and on every larger one.
        powerset2 has no corpus sheaf, so no cell."""
        site, canonical, _ = corpus_site(name)
        battery = enumerate_sheaves(site, canonical, max_size=2)
        verdicts = set()
        for f in corpus_presheaves(name, site):
            if not check_sheaf_equalizer(f, canonical).ok:
                continue
            lattice = subsheaf_lattice(f, canonical)
            members, hom_table = lattice.members, {}
            for i in range(len(members)):
                for j in range(len(members)):
                    fact = star(lattice.inclusions[i], lattice.inclusions[j],
                                canonical, lattice, battery, hom_table)
                    assert fact.epi_certified == composite_epi_certified(
                        fact.epi, battery
                    )
                    comps = {u: c.assignment for u, c in fact.epi.components.items()}
                    image = {u: set(a.values()) for u, a in comps.items()}
                    for s in members:
                        if any(not image[u] <= set(s.value(u)) for u in image):
                            continue
                        epi = PresheafMorphism(fact.epi.src, s, comps)
                        want = composite_epi_certified(epi, battery)
                        verdicts.add(want)
                        assert reflect._epi_certified(image, s, (
                            reflect._hom_values(s, g) for g in battery
                        )) == want
        assert verdicts == (set() if name == "powerset2" else {True, False})

    def test_sub_takes_one_hom_list_per_member_and_battery_sheaf(self, monkeypatch):
        built, calls = [], []
        enumerate_battery, lattice_of = cli.enumerate_sheaves, cli.subsheaf_lattice
        homs = reflect.hom_presheaves

        def keep(value):
            built.append(value)
            return value

        monkeypatch.setattr(
            cli, "enumerate_sheaves", lambda *a, **k: keep(enumerate_battery(*a, **k))
        )
        monkeypatch.setattr(cli, "subsheaf_lattice", lambda *a: keep(lattice_of(*a)))
        monkeypatch.setattr(
            reflect, "hom_presheaves", lambda f, g: calls.append((f, g)) or homs(f, g)
        )
        corpus = cli.corpus_dir()
        assert cli.main([
            "sub", str(corpus / "site_product_chain2_luk3.json"),
            str(corpus / "coverage_canonical.json"),
            str(corpus / "presheaf_product_terminal.json"),
        ]) == 0
        lattice, battery = built
        into_battery = [(f, g) for f, g in calls if any(g is b for b in battery)]
        pairs = {(id(f), id(g)) for f, g in into_battery}
        sources = {id(f) for f, _ in into_battery}
        assert len(pairs) == len(into_battery) == len(sources) * len(battery)
        assert sources <= {id(m) for m in lattice.members}


class TestDownSetCriterion:
    def test_bundled_quantales_pass(self):
        cases = [
            ("powerset_locale", 2),
            ("chain_locale", 3),
            ("lukasiewicz_chain", 3),
            ("truncated_nat", 3),
            ("ideals_zmod", 4),
            ("ideals_zmod", 12),
        ]
        for name, param in cases:
            _, entry = lopos_check(STANDARD[name](param))
            assert entry.ok, f"{name}({param}): {entry.witness}"

    def test_down_set_counts(self):
        assert lopos_check(STANDARD["lukasiewicz_chain"](3))[0] == 4
        down_sets, entry = lopos_check(STANDARD["powerset_locale"](2))
        assert (down_sets, entry.checked) == (6, 36)
        assert lopos_check(STANDARD["ideals_zmod"](12))[0] == 10

    def test_diamond_with_meet_fails_with_witness(self):
        down_sets, entry = lopos_check(_m3_with_meet())
        assert not entry.ok
        assert down_sets == 10 and entry.checked == 28
        assert entry.witness == (
            "FAIL: down-sets D=['0', 'x'] E=['0', 'y', 'z']: "
            "sup(D.E)=0 but sup(D).sup(E)=x"
        )

    def test_non_associative_multiplication_rejected(self):
        raw = {
            "elements": ["0", "1"],
            "leq": [["0", "0"], ["0", "1"], ["1", "1"]],
            "mul": {"0,0": "1", "0,1": "1", "1,0": "0", "1,1": "1"},
        }
        with pytest.raises(MulNotAssociative):
            lopos_check(raw)

    def test_structural_guards(self):
        loop = {
            "elements": ["a", "b"],
            "leq": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]],
            "mul": {"a,a": "a", "a,b": "a", "b,a": "a", "b,b": "a"},
        }
        with pytest.raises(InvalidSpec):
            lopos_check(loop)
        no_bottom = {
            "elements": ["a", "b"],
            "leq": [["a", "a"], ["b", "b"]],
            "mul": {"a,a": "a", "a,b": "a", "b,a": "a", "b,b": "a"},
        }
        with pytest.raises(InvalidSpec):
            lopos_check(no_bottom)


def _m3_with_meet():
    """The five-element diamond with three incomparable middles, mul = meet."""
    els = ["0", "x", "y", "z", "1"]
    leq = (
        [["0", e] for e in els]
        + [[e, "1"] for e in ["x", "y", "z", "1"]]
        + [[e, e] for e in ["x", "y", "z"]]
    )

    def meet(a, b):
        if a == b:
            return a
        if a == "0" or b == "0":
            return "0"
        if a == "1":
            return b
        if b == "1":
            return a
        return "0"

    mul = {f"{a},{b}": meet(a, b) for a in els for b in els}
    return {"elements": els, "leq": leq, "mul": mul}
