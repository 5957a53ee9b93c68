"""Coherence suite on lawful instances and detection of injected breakage."""

import pytest

from monoidal_laws import verify_monoidal_laws
from qsheaf.coverage import (
    CoverFamily,
    canonical_quantale_coverage,
    check_flavor,
)
from qsheaf.finset import EMPTY, FinMap
from qsheaf.moncat import (
    FinSetCategory,
    Mor,
    ProductCategory,
    ThinCategory,
    canon,
    coherence,
    trivial_equalizer,
    verify_appendix_suite,
)
from qsheaf.quantale import build_standard


def luk3_site():
    return ThinCategory.from_quantale(build_standard("lukasiewicz_chain", 3))


def _reversed_zip(dom, cod):
    """A bijection pairing dom in order with cod in reverse order."""
    return FinMap(dom, cod, dict(zip(list(dom), reversed(list(cod)))))


def broken_associator(c, x, y, z):
    dom = c.tensor_obj(c.tensor_obj(x, y), z)
    cod = c.tensor_obj(x, c.tensor_obj(y, z))
    return Mor(dom, cod, _reversed_zip(dom, cod))


def broken_braiding(c, a, b):
    dom = c.tensor_obj(a, b)
    cod = c.tensor_obj(b, a)
    return Mor(dom, cod, _reversed_zip(dom, cod))


def collapsing_braiding(c, a, b):
    # not even injective: everything lands on the least element
    dom = c.tensor_obj(a, b)
    cod = c.tensor_obj(b, a)
    if len(cod) == 0:
        return Mor(dom, cod, FinMap(dom, cod, {}))
    first = list(cod)[0]
    return Mor(dom, cod, FinMap(dom, cod, {x: first for x in dom}))


def collapsing_left_unitor(c, a):
    dom = c.tensor_obj(c.unit, a)
    if len(a) == 0:
        return Mor(dom, a, FinMap(dom, a, {}))
    first = list(a)[0]
    return Mor(dom, a, FinMap(dom, a, {x: first for x in dom}))


def collapsing_right_unitor(c, a):
    dom = c.tensor_obj(a, c.unit)
    if len(a) == 0:
        return Mor(dom, a, FinMap(dom, a, {}))
    first = list(a)[0]
    return Mor(dom, a, FinMap(dom, a, {x: first for x in dom}))


class TestLawfulInstances:
    def test_monoidal_laws_finset(self):
        report = verify_monoidal_laws(FinSetCategory(max_size=2))
        assert report.ok, report.failures()
        by_name = {e.name: e for e in report.entries}
        assert by_name["pentagon"].checked == 3 ** 4
        assert by_name["braid-symmetry"].checked == 9

    def test_monoidal_laws_thin(self):
        report = verify_monoidal_laws(luk3_site())
        assert report.ok, report.failures()

    def test_monoidal_laws_skip_braiding_when_absent(self):
        # non-commutative integral 4-chain: a*b = a but b*a = 0
        mul = {
            ("0", "0"): "0", ("0", "a"): "0", ("0", "b"): "0", ("0", "1"): "0",
            ("a", "0"): "0", ("a", "a"): "0", ("a", "b"): "a", ("a", "1"): "a",
            ("b", "0"): "0", ("b", "a"): "0", ("b", "b"): "b", ("b", "1"): "b",
            ("1", "0"): "0", ("1", "a"): "a", ("1", "b"): "b", ("1", "1"): "1",
        }
        site = ThinCategory.from_ordered_monoid(
            ["0", "a", "b", "1"],
            [("0", "a"), ("a", "b"), ("b", "1")],
            mul,
            unit="1",
        )
        assert site.braiding("a", "b") is None
        report = verify_monoidal_laws(site)
        assert report.ok
        by_name = {e.name: e for e in report.entries}
        assert by_name["braid-symmetry"].witness == "skipped: no braiding"

    def test_appendix_suite_finset_bound_2(self):
        report = verify_appendix_suite(FinSetCategory(max_size=3), size_bound=2)
        assert report.ok, report.failures()
        by_name = {e.name: e for e in report.entries}
        # sum over C of (sum over A of |hom(A,C)|)^2, times |X| choices
        assert by_name["ppb-equalizing"].checked == (1 + 9 + 49) * 3

    def test_appendix_suite_thin(self):
        report = verify_appendix_suite(luk3_site())
        assert report.ok, report.failures()
        by_name = {e.name: e for e in report.entries}
        assert by_name["ppb-equalizing"].checked == (1 + 4 + 9) * 3

    def test_appendix_suite_product_instance(self):
        inst = ProductCategory(FinSetCategory(max_size=2), luk3_site())
        report = verify_appendix_suite(inst, size_bound=2)
        assert report.ok, report.failures()

    def test_report_summary_mentions_bound(self):
        report = verify_appendix_suite(FinSetCategory(max_size=2), size_bound=1)
        assert "size bound 1" in report.heading
        assert all(e.ok for e in report.entries)


class TestMutationsDetected:
    def test_broken_associator(self):
        c = FinSetCategory(max_size=2, associator_fn=broken_associator)
        report = verify_appendix_suite(c, size_bound=2)
        assert not report.ok
        failing = {e.name for e in report.failures()}
        assert failing & {"pentagon", "proj-assoc-right", "proj-assoc-left"}

    def test_broken_braiding(self):
        c = FinSetCategory(max_size=2, braiding_fn=broken_braiding)
        report = verify_appendix_suite(c, size_bound=2)
        assert not report.ok
        failing = {e.name for e in report.failures()}
        assert failing & {
            "braid-unitors", "braid-projections-1", "braid-projections-2"
        }

    def test_collapsing_braiding_fails_symmetry_law(self):
        c = FinSetCategory(max_size=2, braiding_fn=collapsing_braiding)
        report = verify_monoidal_laws(c)
        by_name = {e.name: e for e in report.entries}
        assert not by_name["braid-symmetry"].ok

    def test_broken_left_unitor(self):
        c = FinSetCategory(max_size=2, left_unitor_fn=collapsing_left_unitor)
        report = verify_appendix_suite(c, size_bound=2)
        assert not report.ok
        failing = {e.name for e in report.failures()}
        assert failing & {"triangle", "unitor-associator-left"}

    def test_broken_right_unitor(self):
        c = FinSetCategory(max_size=2, right_unitor_fn=collapsing_right_unitor)
        report = verify_appendix_suite(c, size_bound=2)
        assert not report.ok

    def test_trivialized_equalizer(self):
        c = FinSetCategory(max_size=2, equalizer_fn=trivial_equalizer)
        report = verify_appendix_suite(c, size_bound=2)
        assert not report.ok
        failing = {e.name for e in report.failures()}
        assert "ppb-equalizing" in failing

    def test_failures_carry_witnesses(self):
        c = FinSetCategory(max_size=2, equalizer_fn=trivial_equalizer)
        report = verify_appendix_suite(c, size_bound=2)
        for entry in report.failures():
            assert entry.witness


# Every failing entry of the appendix suite on FinSetCategory(max_size=2)
# at size bound 2, per injected structure map. The hoisted loop
# invariants in the pseudo-pullback generators must leave each failure at
# the same instance with the same witness.
RECORDED_FAILURES = [
    (
        "associator_fn",
        broken_associator,
        [
            ("pentagon", 44,
             "pentagon({s0},{s0},{s0,s1},{s0}): at (((s0,s0),s0),s0): (s0,(s0,(s1,s0))) vs (s0,(s0,(s0,s0)))"),
            ("ppb-equalizing", 81,
             "X={s0}, f:{s0}->{s0,s1}, g:{s0,s1}->{s0,s1}: at ((s0,s0),(s0,s0)): (s0,s0) vs (s0,s1)"),
            ("ppb-tensor-compare", 81,
             "X={s0}, f:{s0}->{s0,s1}, g:{s0,s1}->{s0,s1}: at ((s0,s0),(s0,s0)): (s0,s0) vs (s0,s1)"),
            ("proj-assoc-left", 17,
             "({s0},{s0,s1},{s0}): at ((s0,s0),s0): (s0,s1) vs (s0,s0)"),
            ("proj-assoc-right", 15,
             "({s0},{s0},{s0,s1}): at ((s0,s0),s0): (s0,s1) vs (s0,s0)"),
            ("proj-middle-deletion", 15,
             "({s0},{s0},{s0,s1}): at ((s0,s0),s0): (s0,s1) vs (s0,s0)"),
            ("proj-tensor-factor-1", 17,
             "({s0},{s0,s1},{s0}): at ((s0,s0),(s0,s0)): (s0,s0) vs (s0,s1)"),
            ("triangle", 6,
             "triangle({s0},{s0,s1}): at ((s0,*),s0): (s0,s1) vs (s0,s0)"),
            ("unitor-associator-left", 6,
             "unitor-left({s0},{s0,s1}): at ((*,s0),s0): (s0,s1) vs (s0,s0)"),
            ("unitor-associator-right", 6,
             "unitor-right({s0},{s0,s1}): at ((s0,s0),*): (s0,s1) vs (s0,s0)"),
        ],
    ),
    (
        "braiding_fn",
        broken_braiding,
        [
            ("braid-projections-1", 8,
             "({s0,s1},{s0}): at (s0,s0): s1 vs s0"),
            ("braid-projections-2", 6,
             "({s0},{s0,s1}): at (s0,s0): s1 vs s0"),
            ("braid-unitors", 5,
             "l.b_(a,1) at {s0,s1}: at (s0,*): s1 vs s0"),
        ],
    ),
    (
        "equalizer_fn",
        trivial_equalizer,
        [
            ("ppb-equalizing", 76,
             "X={s0}, f:{s0}->{s0,s1}, g:{s0}->{s0,s1}: at ((s0,s0),(s0,s0)): (s0,s0) vs (s0,s1)"),
            ("ppb-tensor-compare", 76,
             "X={s0}, f:{s0}->{s0,s1}, g:{s0}->{s0,s1}: at ((s0,s0),(s0,s0)): (s0,s0) vs (s0,s1)"),
        ],
    ),
    (
        "left_unitor_fn",
        collapsing_left_unitor,
        [
            ("braid-projections-1", 8,
             "({s0,s1},{s0}): at (s1,s0): s0 vs s1"),
            ("braid-projections-2", 6,
             "({s0},{s0,s1}): at (s0,s1): s1 vs s0"),
            ("braid-unitors", 5,
             "l.b_(a,1) at {s0,s1}: at (s1,*): s0 vs s1"),
            ("proj-assoc-right", 15,
             "({s0},{s0},{s0,s1}): at ((s0,s0),s1): (s0,s0) vs (s0,s1)"),
            ("proj-middle-deletion", 15,
             "({s0},{s0},{s0,s1}): at ((s0,s0),s1): (s0,s0) vs (s0,s1)"),
            ("triangle", 6,
             "triangle({s0},{s0,s1}): at ((s0,*),s1): (s0,s0) vs (s0,s1)"),
            ("unitor-associator-left", 6,
             "unitor-left({s0},{s0,s1}): at ((*,s0),s1): (s0,s0) vs (s0,s1)"),
        ],
    ),
    (
        "right_unitor_fn",
        collapsing_right_unitor,
        [
            ("braid-projections-1", 8,
             "({s0,s1},{s0}): at (s1,s0): s1 vs s0"),
            ("braid-projections-2", 6,
             "({s0},{s0,s1}): at (s0,s1): s0 vs s1"),
            ("braid-unitors", 5,
             "l.b_(a,1) at {s0,s1}: at (s1,*): s1 vs s0"),
            ("proj-assoc-left", 23,
             "({s0,s1},{s0},{s0}): at ((s1,s0),s0): (s1,s0) vs (s0,s0)"),
            ("proj-middle-deletion", 23,
             "({s0,s1},{s0},{s0}): at ((s1,s0),s0): (s1,s0) vs (s0,s0)"),
            ("proj-tensor-factor-1", 23,
             "({s0,s1},{s0},{s0}): at ((s1,s0),(s0,s0)): (s0,s0) vs (s1,s0)"),
            ("triangle", 8,
             "triangle({s0,s1},{s0}): at ((s1,*),s0): (s1,s0) vs (s0,s0)"),
            ("unitor-associator-right", 8,
             "unitor-right({s0,s1},{s0}): at ((s1,s0),*): (s1,s0) vs (s0,s0)"),
        ],
    ),
]


@pytest.mark.parametrize(
    "keyword,broken,expected",
    RECORDED_FAILURES,
    ids=[keyword for keyword, _, _ in RECORDED_FAILURES],
)
def test_failures_land_at_recorded_witnesses(keyword, broken, expected):
    c = FinSetCategory(max_size=2, **{keyword: broken})
    report = verify_appendix_suite(c, size_bound=2)
    assert [(e.name, e.checked, e.witness) for e in report.failures()] == expected


@pytest.mark.parametrize(
    "name,n",
    [("lukasiewicz_chain", 3), ("truncated_nat", 3), ("powerset_locale", 2)],
)
def test_appendix_suite_all_bundled_quantales(name, n):
    site = ThinCategory.from_quantale(build_standard(name, n))
    report = verify_appendix_suite(site)
    assert report.ok, report.failures()


def mistyped_associator(c, x, y, z):
    # the identity of (x(x)y)(x)z, not a map into x(x)(y(x)z): composing
    # it with anything typed by the real associator raises
    return c.identity(c.tensor_obj(c.tensor_obj(x, y), z))


# (name, ok, checked, witness) of every entry on FinSetCategory(max_size=2)
# with the mistyped associator: an exception inside a law is that law's
# failing instance, counted after the instances that held.
_COMPOSE_RAISES = "exception: cannot compose {(s0,(s0,s0))} after {((s0,s0),s0)}"
RECORDED_EXCEPTION_ENTRIES = {
    verify_appendix_suite: [
        ("braid-projections-1", True, 9, None),
        ("braid-projections-2", True, 9, None),
        ("braid-unitors", True, 6, None),
        ("pentagon", False, 41,
         "exception: cannot compose {((s0,(s0,s0)),s0)} after {(((s0,s0),s0),s0)}"),
        ("ppb-equalizing", False, 74, _COMPOSE_RAISES),
        ("ppb-tensor-compare", False, 74, _COMPOSE_RAISES),
        ("proj-assoc-left", False, 14, _COMPOSE_RAISES),
        ("proj-assoc-right", False, 14, _COMPOSE_RAISES),
        ("proj-middle-deletion", False, 14, _COMPOSE_RAISES),
        ("proj-tensor-factor-1", False, 14, _COMPOSE_RAISES),
        ("proj-tensor-factor-2", True, 27, None),
        ("triangle", False, 5,
         "exception: cannot compose {(s0,(*,s0))} after {((s0,*),s0)}"),
        ("unit-terminal", True, 3, None),
        ("unitor-associator-left", False, 5,
         "exception: cannot compose {(*,(s0,s0))} after {((*,s0),s0)}"),
        ("unitor-associator-right", False, 5,
         "exception: cannot compose {(s0,(s0,*))} after {((s0,s0),*)}"),
    ],
    verify_monoidal_laws: [
        ("compose-assoc", True, 211, None),
        ("compose-identity", True, 22, None),
        ("pentagon", False, 41,
         "exception: cannot compose {((s0,(s0,s0)),s0)} after {(((s0,s0),s0),s0)}"),
        ("triangle", False, 5,
         "exception: cannot compose {(s0,(*,s0))} after {((s0,*),s0)}"),
        ("unit-terminal", True, 3, None),
        ("braid-symmetry", True, 9, None),
        ("braid-hexagon", False, 14, _COMPOSE_RAISES),
    ],
}


@pytest.mark.parametrize(
    "suite", RECORDED_EXCEPTION_ENTRIES, ids=lambda suite: suite.__name__
)
def test_exceptions_become_recorded_failures(suite):
    c = FinSetCategory(max_size=2, associator_fn=mistyped_associator)
    report = suite(c)
    assert [
        (e.name, e.ok, e.checked, e.witness) for e in report.entries
    ] == RECORDED_EXCEPTION_ENTRIES[suite]


def mistyped_left_unitor(c, a):
    # the identity of 1(x)a instead of a map onto a
    return c.identity(c.tensor_obj(c.unit, a))


def mistyped_right_unitor(c, a):
    return c.identity(c.tensor_obj(a, c.unit))


# (name, ok, checked, witness) of every appendix entry on
# FinSetCategory(max_size=2) with a mistyped unitor. The first projection
# is built from the right unitor and the second from the left one, so
# these pin where the pseudo-pullback laws raise when the work that
# depends on one leg of the cospan is computed ahead of the other leg.
RECORDED_UNITOR_EXCEPTION_ENTRIES = {
    "left_unitor_fn": (mistyped_left_unitor, [
        ("braid-projections-1", False, 4,
         "({s0},{}): type mismatch: Mor({} -> {(*,s0)}) vs Mor({} -> {s0})"),
        ("braid-projections-2", False, 2,
         "({},{s0}): type mismatch: Mor({} -> {s0}) vs Mor({} -> {(*,s0)})"),
        ("braid-unitors", False, 3,
         "l.b_(a,1) at {s0}: type mismatch: Mor({(s0,*)} -> {(*,s0)}) vs Mor({(s0,*)} -> {s0})"),
        ("pentagon", True, 81, None),
        ("ppb-equalizing", False, 4,
         "exception: cannot compose {s0} after {(*,s0)}"),
        ("ppb-tensor-compare", False, 4,
         "exception: cannot compose {s0} after {(*,s0)}"),
        ("proj-assoc-left", True, 27, None),
        ("proj-assoc-right", False, 5,
         "({},{s0},{s0}): type mismatch: Mor({} -> {(*,(s0,s0))}) vs Mor({} -> {((*,s0),s0)})"),
        ("proj-middle-deletion", False, 11,
         "({s0},{},{s0}): type mismatch: Mor({} -> {(s0,(*,s0))}) vs Mor({} -> {(s0,s0)})"),
        ("proj-tensor-factor-1", False, 14,
         "exception: cannot compose {((s0,s0),s0)} after {((s0,s0),(*,s0))}"),
        ("proj-tensor-factor-2", False, 14,
         "exception: cannot compose {(s0,(s0,s0))} after {((*,s0),(s0,s0))}"),
        ("triangle", False, 5,
         "triangle({s0},{s0}): type mismatch: Mor({((s0,*),s0)} -> {(s0,(*,s0))}) vs Mor({((s0,*),s0)} -> {(s0,s0)})"),
        ("unit-terminal", True, 3, None),
        ("unitor-associator-left", False, 5,
         "unitor-left({s0},{s0}): type mismatch: Mor({((*,s0),s0)} -> {(*,(s0,s0))}) vs Mor({((*,s0),s0)} -> {((*,s0),s0)})"),
        ("unitor-associator-right", True, 9, None),
    ]),
    "right_unitor_fn": (mistyped_right_unitor, [
        ("braid-projections-1", False, 4,
         "({s0},{}): type mismatch: Mor({} -> {s0}) vs Mor({} -> {(s0,*)})"),
        ("braid-projections-2", False, 2,
         "({},{s0}): type mismatch: Mor({} -> {(s0,*)}) vs Mor({} -> {s0})"),
        ("braid-unitors", False, 3,
         "l.b_(a,1) at {s0}: type mismatch: Mor({(s0,*)} -> {s0}) vs Mor({(s0,*)} -> {(s0,*)})"),
        ("pentagon", True, 81, None),
        ("ppb-equalizing", False, 12,
         "exception: cannot compose {s0} after {(s0,*)}"),
        ("ppb-tensor-compare", False, 12,
         "exception: cannot compose {s0} after {(s0,*)}"),
        ("proj-assoc-left", False, 13,
         "({s0},{s0},{}): type mismatch: Mor({} -> {(s0,(s0,*))}) vs Mor({} -> {((s0,s0),*)})"),
        ("proj-assoc-right", True, 27, None),
        ("proj-middle-deletion", False, 11,
         "({s0},{},{s0}): type mismatch: Mor({} -> {(s0,s0)}) vs Mor({} -> {((s0,*),s0)})"),
        ("proj-tensor-factor-1", False, 13,
         "({s0},{s0},{}): type mismatch: Mor({} -> {((s0,s0),*)}) vs Mor({} -> {(s0,(s0,*))})"),
        ("proj-tensor-factor-2", True, 27, None),
        ("triangle", False, 5,
         "triangle({s0},{s0}): type mismatch: Mor({((s0,*),s0)} -> {(s0,s0)}) vs Mor({((s0,*),s0)} -> {((s0,*),s0)})"),
        ("unit-terminal", True, 3, None),
        ("unitor-associator-left", True, 9, None),
        ("unitor-associator-right", False, 5,
         "unitor-right({s0},{s0}): type mismatch: Mor({((s0,s0),*)} -> {(s0,(s0,*))}) vs Mor({((s0,s0),*)} -> {((s0,s0),*)})"),
    ]),
}


@pytest.mark.parametrize("keyword", RECORDED_UNITOR_EXCEPTION_ENTRIES)
def test_mistyped_unitor_exceptions_land_at_recorded_instances(keyword):
    broken, expected = RECORDED_UNITOR_EXCEPTION_ENTRIES[keyword]
    c = FinSetCategory(max_size=2, **{keyword: broken})
    report = verify_appendix_suite(c)
    assert [
        (e.name, e.ok, e.checked, e.witness) for e in report.entries
    ] == expected


_LAWFUL = FinSetCategory(max_size=2)


def _nested(f):
    """Whether f starts at a nested tensor (x(x)a)(x)(x(x)b), not at a(x)b."""
    return all(str(p).startswith("((") for p in f.dom)


def empty_small_equalizer(c, f, g):
    # the true equalizer on the nested domain, the empty subobject on a(x)b
    if _nested(f):
        return _LAWFUL.equalizer(f, g)
    return EMPTY, Mor(EMPTY, f.dom, FinMap(EMPTY, f.dom, {}))


def raising_small_equalizer(c, f, g):
    if not _nested(f) and len(f.dom) >= 2:
        raise RuntimeError(f"no equalizer on {f.dom!r}")
    return _LAWFUL.equalizer(f, g)


def _passing_except_compare(compare):
    return [
        ("braid-projections-1", True, 9, None),
        ("braid-projections-2", True, 9, None),
        ("braid-unitors", True, 6, None),
        ("pentagon", True, 81, None),
        ("ppb-equalizing", True, 177, None),
        compare,
        ("proj-assoc-left", True, 27, None),
        ("proj-assoc-right", True, 27, None),
        ("proj-middle-deletion", True, 27, None),
        ("proj-tensor-factor-1", True, 27, None),
        ("proj-tensor-factor-2", True, 27, None),
        ("triangle", True, 9, None),
        ("unit-terminal", True, 3, None),
        ("unitor-associator-left", True, 9, None),
        ("unitor-associator-right", True, 9, None),
    ]


# (name, ok, checked, witness) of every appendix entry on
# FinSetCategory(max_size=2) at size bound 2 when only the base equalizer
# on a(x)b is broken: `ppb-equalizing` holds throughout, so these pin
# where the comparison law fails on its own, and that an exception in
# the comparison work fails that law alone.
RECORDED_COMPARE_ONLY_ENTRIES = {
    "empty": (empty_small_equalizer, _passing_except_compare(
        ("ppb-tensor-compare", False, 74,
         "X={s0}, f:{s0}->{s0}, g:{s0}->{s0}: no factorization through tensored equalizer"),
    )),
    "raising": (raising_small_equalizer, _passing_except_compare(
        ("ppb-tensor-compare", False, 20,
         "exception: no equalizer on FinSetObj({(s0,s0),(s0,s1)})"),
    )),
}


@pytest.mark.parametrize("kind", RECORDED_COMPARE_ONLY_ENTRIES)
def test_compare_only_failures_land_at_recorded_instances(kind):
    broken, expected = RECORDED_COMPARE_ONLY_ENTRIES[kind]
    c = FinSetCategory(max_size=2, equalizer_fn=broken)
    report = verify_appendix_suite(c, size_bound=2)
    assert [
        (e.name, e.ok, e.checked, e.witness) for e in report.entries
    ] == expected


class TestStructureMapTables:
    def test_structure_maps_are_built_once(self):
        c = FinSetCategory(max_size=2)
        a, b = c.objects()[1], c.objects()[2]
        assert c.identity(a) is c.identity(a)
        assert c.terminal(b) is c.terminal(b)
        assert c.left_unitor(b) is c.left_unitor(b)
        assert c.right_unitor(b) is c.right_unitor(b)
        assert c.associator(a, b, a) is c.associator(a, b, a)
        assert c.braiding(a, b) is c.braiding(a, b)
        assert c.associator(a, b, a) is not c.associator(b, a, a)

    def test_product_pairs_and_composites_are_shared(self):
        inst = ProductCategory(FinSetCategory(max_size=2), luk3_site())
        a, b = inst.objects()[4], inst.objects()[7]
        f = inst.hom(a, b)[1]
        assert inst.identity(a) is inst.identity(a)
        assert inst.compose(f, inst.identity(a)) is inst.compose(f, inst.identity(a))
        assert inst.tensor_mor(f, f) is inst.tensor_mor(f, f)
        assert inst.compose(f, inst.identity(a)) == f

    def test_injected_structure_maps_are_called_every_time(self):
        lawful = FinSetCategory(max_size=2)
        calls = {"associator": 0, "braiding": 0}

        def counting_associator(c, x, y, z):
            calls["associator"] += 1
            return lawful.associator(x, y, z)

        def counting_braiding(c, a, b):
            calls["braiding"] += 1
            return lawful.braiding(a, b)

        c = FinSetCategory(max_size=2, associator_fn=counting_associator,
                           braiding_fn=counting_braiding)
        assert verify_appendix_suite(c, size_bound=2).ok
        # the counts of the unmemoized suite
        assert calls == {"associator": 567, "braiding": 25}
        calls.update(associator=0, braiding=0)
        assert verify_monoidal_laws(c).ok
        assert calls == {"associator": 495, "braiding": 100}
        calls.update(associator=0, braiding=0)
        assert verify_appendix_suite(ProductCategory(c, luk3_site()), size_bound=1).ok
        assert calls == {"associator": 7668, "braiding": 85}

    def test_pseudo_pullback_laws_share_one_walk(self):
        # one equalizer on the nested domain and one on a (x) b per
        # instance: a second walk for the comparison law would make 531
        lawful = FinSetCategory(max_size=2)
        calls = []

        def counting_equalizer(c, f, g):
            calls.append(f.dom)
            return lawful.equalizer(f, g)

        c = FinSetCategory(max_size=2, equalizer_fn=counting_equalizer)
        report = verify_appendix_suite(c, size_bound=2)
        assert report.ok, report.failures()
        by_name = {e.name: e for e in report.entries}
        assert by_name["ppb-equalizing"].checked == 177
        assert by_name["ppb-tensor-compare"].checked == 177
        assert len(calls) == 354


def test_passing_checks_format_no_witness(monkeypatch):
    calls = []

    def counting_canon(obj):
        calls.append(obj)
        return canon(obj)

    monkeypatch.setattr(coherence, "canon", counting_canon)
    report = verify_appendix_suite(luk3_site())
    assert report.ok, report.failures()
    assert calls == []

    def no_repr(self):
        raise AssertionError("a passing axiom formatted a cover")

    monkeypatch.setattr(CoverFamily, "__repr__", no_repr)
    cov = canonical_quantale_coverage(build_standard("truncated_nat", 3))
    assert check_flavor(cov, "strong_prelopology").ok
