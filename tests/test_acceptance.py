"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with their measured times against the stated budgets.
"""

import itertools
import json
import time

from coverage_edits import with_family, without_family
from subobject_order import subsheaf_leq
from qsheaf.cli import corpus_dir
from qsheaf.coverage import (
    CoverFamily,
    canonical_quantale_coverage,
    check_flavor,
    parse_coverage,
    product_coverage,
    trivial_coverage,
)
from qsheaf.finset import FinMap
from qsheaf.moncat import (
    FinSetCategory,
    Mor,
    ThinCategory,
    canon,
    trivial_equalizer,
    verify_appendix_suite,
)
from qsheaf.presheaf import (
    iso_presheaves,
    parse_presheaf,
    sieve_of,
    terminal_presheaf,
)
from qsheaf.quantale import STANDARD, Quantale, build_standard, validate_quantale
from qsheaf.reflect import (
    certify_reflection,
    enumerate_sheaves,
    lopos_check,
    preserves_terminal,
    sheafify,
    star,
    subsheaf_lattice,
)
from qsheaf.sheaf import (
    VERDICT_SHEAF,
    check_sheaf_equalizer,
    check_sheaf_orthogonal,
    plus_construction,
    shift_presheaf,
)


def _stamp(number, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.2f}s >= {budget}s"
    print(f"PASS criterion {number:02d} {label}: {elapsed:.2f}s < {budget}s")


BUNDLED_QUANTALES = [
    ("powerset_locale", 2),
    ("chain_locale", 2),
    ("chain_locale", 3),
    ("chain_locale", 4),
    ("chain_locale", 5),
    ("lukasiewicz_chain", 3),
    ("truncated_nat", 3),
    ("ideals_zmod", 4),
    ("ideals_zmod", 12),
]

BUNDLED_LOCALES = [
    ("powerset_locale", 2),
    ("chain_locale", 2),
    ("chain_locale", 3),
    ("chain_locale", 4),
    ("chain_locale", 5),
]

# single multiplication-table cell edits, each breaking some law
MUTATIONS = [
    ("lukasiewicz_chain", 3, "h,h", "1"),
    ("lukasiewicz_chain", 3, "0,0", "h"),
    ("lukasiewicz_chain", 3, "0,1", "h"),
    ("lukasiewicz_chain", 3, "1,0", "h"),
    ("lukasiewicz_chain", 3, "0,h", "h"),
    ("lukasiewicz_chain", 3, "h,1", "0"),
    ("lukasiewicz_chain", 3, "1,h", "0"),
    ("lukasiewicz_chain", 3, "1,1", "h"),
    ("truncated_nat", 3, "1,1", "0"),
    ("powerset_locale", 2, "{x},{y}", "{xy}"),
    ("ideals_zmod", 4, "(1),(2)", "(0)"),
    ("chain_locale", 3, "1,2", "0"),
    ("chain_locale", 3, "2,1", "2"),
]

# corpus layout: site file, coverage files, presheaf files, site kind
CORPUS = {
    "luk3": {
        "site": "site_luk3.json",
        "coverages": ["coverage_canonical.json", "coverage_trivial_luk3.json"],
        "presheaves": [
            "presheaf_luk3_terminal.json",
            "presheaf_luk3_yoneda_h.json",
            "presheaf_luk3_separated.json",
            "presheaf_luk3_doubled_bottom.json",
        ],
        "localic": False,
    },
    "tnat3": {
        "site": "site_tnat3.json",
        "coverages": ["coverage_canonical.json", "coverage_trivial_tnat3.json"],
        "presheaves": [
            "presheaf_tnat3_terminal.json",
            "presheaf_tnat3_separated.json",
        ],
        "localic": False,
    },
    "ideals4": {
        "site": "site_ideals4.json",
        "coverages": ["coverage_canonical.json", "coverage_trivial_ideals4.json"],
        "presheaves": [
            "presheaf_ideals4_terminal.json",
            "presheaf_ideals4_separated.json",
        ],
        "localic": False,
    },
    "powerset2": {
        "site": "site_powerset2.json",
        "coverages": ["coverage_canonical.json", "coverage_trivial_powerset2.json"],
        "presheaves": [
            "presheaf_powerset2_separated.json",
            "presheaf_powerset2_constant_two.json",
        ],
        "localic": True,
    },
    "chain3": {
        "site": "site_chain3.json",
        "coverages": ["coverage_canonical.json", "coverage_trivial_chain3.json"],
        "presheaves": [
            "presheaf_chain3_terminal.json",
            "presheaf_chain3_doubled_bottom.json",
        ],
        "localic": True,
    },
    "product": {
        "site": "site_product_chain2_luk3.json",
        "coverages": [
            "coverage_canonical.json",
            "coverage_trivial_product_chain2_luk3.json",
        ],
        "presheaves": [
            "presheaf_product_terminal.json",
            "presheaf_product_doubled_bottom.json",
        ],
        "localic": False,
    },
}


def _corpus_json(name):
    return json.loads((corpus_dir() / name).read_text())


def _load_site(raw):
    if "product" in raw:
        lq = validate_quantale(raw["product"]["left"])
        rq = validate_quantale(raw["product"]["right"])
        lsite = ThinCategory.from_quantale(lq)
        rsite = ThinCategory.from_quantale(rq)
        site = ThinCategory.product(lsite, rsite)
        return site, None, ((lq, lsite), (rq, rsite))
    q = validate_quantale(raw)
    assert isinstance(q, Quantale)
    return ThinCategory.from_quantale(q), q, None


def _load_coverage(raw, site, q, comps):
    if raw.get("canonical") and comps is not None:
        (lq, lsite), (rq, rsite) = comps
        return product_coverage(
            canonical_quantale_coverage(lq, lsite),
            canonical_quantale_coverage(rq, rsite),
        )
    return parse_coverage(site, raw, quantale=q)


def _entries(key):
    """(site, quantale, [coverages], [presheaves]) for one corpus block."""
    block = CORPUS[key]
    site, q, comps = _load_site(_corpus_json(block["site"]))
    covs = [
        _load_coverage(_corpus_json(c), site, q, comps) for c in block["coverages"]
    ]
    presheaves = [
        parse_presheaf(site, _corpus_json(p)) for p in block["presheaves"]
    ]
    return site, q, covs, presheaves


def _family(site, doms, target):
    return CoverFamily(target, [site.arrow(d, target) for d in doms])


def test_01_quantale_laws():
    started = time.perf_counter()
    for name, param in BUNDLED_QUANTALES:
        outcome = validate_quantale(STANDARD[name](param))
        assert isinstance(outcome, Quantale), f"{name}({param}) failed"
    assert len(MUTATIONS) >= 10
    for name, param, cell, value in MUTATIONS:
        raw = STANDARD[name](param)
        assert raw["mul"][cell] != value
        raw["mul"][cell] = value
        outcome = validate_quantale(raw)
        assert not isinstance(outcome, Quantale), f"{name} {cell}->{value} missed"
        assert outcome.failures()
    _stamp(1, "quantale laws and mutations", started, 1.0)


def test_02_pretopology_prelopology_agreement():
    started = time.perf_counter()
    for name, param in BUNDLED_LOCALES:
        q = build_standard(name, param)
        site = ThinCategory.from_quantale(q)
        default = canonical_quantale_coverage(q, site)
        small = canonical_quantale_coverage(q, site, mult_cap=1)
        variants = [default, trivial_coverage(site, quantale=q)]
        if small.family_count() != default.family_count():
            variants.append(small)
        fams = list(small.all_families())
        variants.append(with_family(small, _family(site, [q.bottom], q.top)))
        variants.append(with_family(small, _family(site, [q.top], q.top)))
        variants.append(
            with_family(small, _family(site, [q.bottom, q.top], q.top))
        )
        for depth in (1, 2, 3):
            if len(variants) >= 20:
                break
            for combo in itertools.combinations(fams, depth):
                cov = small
                for fam in combo:
                    cov = without_family(cov, fam)
                variants.append(cov)
                if len(variants) >= 20:
                    break
        assert len(variants) >= 20, f"{name}({param}) produced {len(variants)}"
        for cov in variants:
            pre, top = (check_flavor(cov, f) for f in ("prelopology", "pretopology"))
            assert pre.ok == top.ok
    _stamp(2, "pretopology = prelopology on locales", started, 5.0)


def test_03_dual_sheaf_definitions_agree():
    started = time.perf_counter()
    pairs = 0
    for key in CORPUS:
        _, _, covs, presheaves = _entries(key)
        for cov in covs:
            for f in presheaves:
                left = check_sheaf_equalizer(f, cov)
                right = check_sheaf_orthogonal(f, cov)
                assert left.verdict == right.verdict, (key, left.verdict, right.verdict)
                pairs += 1
    assert pairs >= 12
    _stamp(3, f"dual sheaf definitions on {pairs} pairs", started, 30.0)


def test_04_shift_theorem():
    started = time.perf_counter()
    shifted = 0
    for key in CORPUS:
        if CORPUS[key]["localic"]:
            continue
        site, _, covs, presheaves = _entries(key)
        canonical = covs[0]
        for f in presheaves:
            if check_sheaf_equalizer(f, canonical).verdict != VERDICT_SHEAF:
                continue
            for u in site.objects():
                assert check_sheaf_equalizer(
                    shift_presheaf(f, u), canonical
                ).ok, f"shift by {canon(u)} broke a {key} sheaf"
                shifted += 1
    assert shifted >= 12
    _stamp(4, f"{shifted} shifts of sheaves stay sheaves", started, 10.0)


def test_05_sheafification_soundness():
    started = time.perf_counter()
    for key in CORPUS:
        site, _, covs, presheaves = _entries(key)
        canonical = covs[0]
        battery = enumerate_sheaves(site, canonical, max_size=2)
        for f in presheaves:
            result = sheafify(f, canonical, max_iter=16)
            assert result.converged and result.iterations <= 16
            assert check_sheaf_equalizer(result.sheaf, canonical).ok
            assert check_sheaf_orthogonal(result.sheaf, canonical).ok
            cert = certify_reflection(f, result, canonical, battery)
            assert cert.ok, cert.failures()
            if CORPUS[key]["localic"]:
                twice = plus_construction(
                    plus_construction(f, canonical), canonical
                )
                assert iso_presheaves(result.sheaf, twice) is not None
    _stamp(5, "sheafification sound on the whole corpus", started, 60.0)


def test_06_terminal_preservation():
    started = time.perf_counter()
    for key in ("luk3", "powerset2", "product"):
        _, _, covs, _ = _entries(key)
        outcome = preserves_terminal(covs[0])
        assert outcome.ok, (key, outcome.witness)
    _stamp(6, "reflection preserves terminal on all site kinds", started, 5.0)


def _support_element(q, site, member):
    supp = {canon(u) for u in site.objects() if len(member.value(u))}
    for e in q.elements:
        if {canon(w) for w in q.elements if q.leq(w, e)} == supp:
            return e
    return None


def test_07_terminal_subobjects_recover_the_quantale():
    started = time.perf_counter()
    for name, param in [
        ("lukasiewicz_chain", 3),
        ("truncated_nat", 3),
        ("powerset_locale", 2),
    ]:
        q = build_standard(name, param)
        site = ThinCategory.from_quantale(q)
        cov = canonical_quantale_coverage(q, site)
        lattice = subsheaf_lattice(terminal_presheaf(site), cov)
        elements = [_support_element(q, site, m) for m in lattice.members]
        assert None not in elements
        assert sorted(elements) == sorted(q.elements)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                assert subsheaf_leq(lattice, i, j) == q.leq(a, b)
        battery = enumerate_sheaves(site, cov, max_size=2)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                fact = star(
                    lattice.inclusions[i],
                    lattice.inclusions[j],
                    cov,
                    lattice=lattice,
                    battery=battery,
                )
                assert lattice.members[fact.index] == fact.mono.src
                got = elements[fact.index]
                assert got == q.mul(a, b), (name, a, b, got)
                if name == "powerset_locale":
                    assert got == q.meet(a, b)
    _stamp(7, "Sub(terminal) is the quantale, star is its product", started, 60.0)


def test_08_sieve_mono_witness():
    started = time.perf_counter()
    q = build_standard("lukasiewicz_chain", 3)
    site = ThinCategory.from_quantale(q)
    doubled = sieve_of(site, _family(site, ["h", "h"], "h"))
    assert not doubled.canonical.is_mono()
    for key in ("chain3", "powerset2"):
        name = "site_chain3.json" if key == "chain3" else "site_powerset2.json"
        raw = _corpus_json(name)
        lq = validate_quantale(raw)
        lsite = ThinCategory.from_quantale(lq)
        for cov in (
            canonical_quantale_coverage(lq, lsite),
            trivial_coverage(lsite, quantale=lq),
        ):
            for fam in cov.all_families():
                assert sieve_of(lsite, fam).canonical.is_mono()
    _stamp(8, "sieve marks the quantalic/localic divide", started, 1.0)


def _reversed_zip(dom, cod):
    return FinMap(dom, cod, dict(zip(list(dom), reversed(list(cod)))))


def _broken_associator(c, x, y, z):
    dom = c.tensor_obj(c.tensor_obj(x, y), z)
    cod = c.tensor_obj(x, c.tensor_obj(y, z))
    return Mor(dom, cod, _reversed_zip(dom, cod))


def _broken_braiding(c, a, b):
    dom = c.tensor_obj(a, b)
    cod = c.tensor_obj(b, a)
    return Mor(dom, cod, _reversed_zip(dom, cod))


def test_09_appendix_coherence():
    started = time.perf_counter()
    assert verify_appendix_suite(FinSetCategory(max_size=3)).ok
    for name, param in [("lukasiewicz_chain", 3), ("truncated_nat", 3)]:
        assert verify_appendix_suite(
            ThinCategory.from_quantale(build_standard(name, param))
        ).ok
    broken = [
        FinSetCategory(max_size=2, associator_fn=_broken_associator),
        FinSetCategory(max_size=2, braiding_fn=_broken_braiding),
        FinSetCategory(max_size=2, equalizer_fn=trivial_equalizer),
    ]
    for instance in broken:
        assert not verify_appendix_suite(instance, size_bound=2).ok
    _stamp(9, "appendix coherence suite and mutations", started, 120.0)


def test_10_down_set_criterion():
    started = time.perf_counter()
    for name, param in BUNDLED_QUANTALES:
        raw = STANDARD[name](param)
        agrees = isinstance(validate_quantale(raw), Quantale)
        assert lopos_check(raw)[1].ok == agrees, f"{name}({param}) disagrees"
    elements = ["0", "x", "y", "z", "1"]
    mul = {}
    for a in elements:
        for b in elements:
            if a == b:
                m = a
            elif a == "0" or b == "0":
                m = "0"
            elif a == "1":
                m = b
            elif b == "1":
                m = a
            else:
                m = "0"
            mul[f"{a},{b}"] = m
    diamond = {
        "elements": elements,
        "leq": [["0", m] for m in "xyz"] + [[m, "1"] for m in "xyz"],
        "mul": mul,
        "unit": "1",
    }
    _, outcome = lopos_check(diamond)
    assert not outcome.ok
    assert outcome.witness == (
        "FAIL: down-sets D=['0', 'x'] E=['0', 'y', 'z']: "
        "sup(D.E)=0 but sup(D).sup(E)=x"
    )
    _stamp(10, "down-set criterion matches the law suite", started, 5.0)
