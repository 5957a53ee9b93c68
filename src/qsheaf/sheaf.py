"""Sheaf conditions over covered thin sites, checked two independent ways.

The first checker enumerates compatible families and counts gluings,
cross-checking itself against the literal equalizer diagram (built with
the finite-set kernel) whenever the diagram is small. The second checker
tests orthogonality against canonical sieve inclusions by enumerating
natural transformations on both sides. `check_sheaf` is the one place
that runs them together: the two must always agree, and it raises
`InternalDefect` when they do not, a defect of this library, never of
the input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import finset
from .coverage import CoverFamily, Coverage
from .errors import InternalDefect, InvalidSpec, NotLocale, SiteMismatch
from .finset import FinMap, FinSetObj, UnionFind, label_key
from .moncat import ThinCategory
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    backtrack,
    hom_presheaves,
    sieve_of,
    site_order,
    yoneda,
)

VERDICT_SHEAF = "sheaf"
VERDICT_SEPARATED = "separated"
VERDICT_PRESHEAF = "presheaf"

SHEAF_METHODS = ("equalizer", "orthogonal")

_GRADE = {VERDICT_SHEAF: 2, VERDICT_SEPARATED: 1, VERDICT_PRESHEAF: 0}

# covers with more leg-section tuples than this skip the diagram cross-check
CROSSCHECK_THRESHOLD = 4096


def compatible_families(f: Presheaf, cover: CoverFamily) -> list:
    """All compatible section tuples for a cover, by backtracking."""
    site = f.site
    legs = cover.legs
    maps = {}  # restriction maps per leg pair

    def agree(i, k, xi, xk):
        if (i, k) not in maps:
            t = site.overlap(legs[i], legs[k])
            maps[i, k] = (f.restrict(t, legs[i].dom), f.restrict(t, legs[k].dom))
        left, right = maps[i, k]
        return left(xi) == right(xk)

    def sections(k, chosen):
        return [
            x
            for x in f.value(legs[k].dom)
            if all(agree(i, k, xi, x) for i, xi in enumerate(chosen))
        ]

    return list(backtrack(len(legs), sections))


@dataclass(frozen=True)
class CoverOutcome:
    cover: CoverFamily
    families: int
    unglued: int
    ambiguous: int

    @property
    def verdict(self) -> str:
        if self.ambiguous:
            return VERDICT_PRESHEAF
        if self.unglued:
            return VERDICT_SEPARATED
        return VERDICT_SHEAF


@dataclass
class SheafReport:
    method: str
    verdict: str
    outcomes: list = field(default_factory=list)
    cross_checked: int = 0
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == VERDICT_SHEAF

    def summary(self) -> str:
        lines = [f"{self.method}: {self.verdict}"]
        for o in self.outcomes:
            if o.verdict != VERDICT_SHEAF:
                lines.append(
                    f"  {o.cover!r}: {o.families} families, "
                    f"{o.unglued} without gluing, {o.ambiguous} ambiguous"
                )
        if self.cross_checked:
            lines.append(f"  equalizer diagrams cross-checked: {self.cross_checked}")
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        return "\n".join(lines)


def _glue_buckets(f: Presheaf, cover: CoverFamily) -> dict:
    """Restriction signature -> sections over the target realizing it."""
    target = cover.target
    maps = [f.restrict(leg.dom, target) for leg in cover.legs]
    buckets = {}
    for z in f.value(target):
        sig = tuple(m(z) for m in maps)
        buckets.setdefault(sig, []).append(z)
    return buckets


def _diagram_crosscheck(f: Presheaf, cover: CoverFamily, outcome):
    """Build the literal equalizer diagram and compare verdicts."""
    site = f.site
    legs = cover.legs
    leg_sizes = [len(f.value(leg.dom)) for leg in legs]
    prod = 1
    for s in leg_sizes:
        prod *= s
    if prod > CROSSCHECK_THRESHOLD or len(legs) > 8:
        return False
    pairs = list(itertools.product(range(len(legs)), repeat=2))
    lefts, rights = [], []  # restrictions of legs i and j to their overlap
    for i, j in pairs:
        w = site.overlap(legs[i], legs[j])
        lefts.append((i, f.restrict(w, legs[i].dom).assignment))
        rights.append((j, f.restrict(w, legs[j].dom).assignment))
    # A tuple of leg sections is labelled by its position in `tuples`, and
    # a tuple of overlap sections by its position of first appearance, so
    # the diagram's labels are integers whatever the presheaf's labels.
    tuples = list(itertools.product(*(f.value(leg.dom) for leg in legs)))
    leg_obj = FinSetObj(range(len(tuples)))
    overlap_ids = {}
    first_table, second_table = {}, {}
    for k, t in enumerate(tuples):
        first_table[k] = overlap_ids.setdefault(
            tuple([m[t[i]] for i, m in lefts]), len(overlap_ids)
        )
        second_table[k] = overlap_ids.setdefault(
            tuple([m[t[j]] for j, m in rights]), len(overlap_ids)
        )
    pair_obj = FinSetObj(range(len(overlap_ids)))
    first = FinMap(leg_obj, pair_obj, first_table)
    second = FinMap(leg_obj, pair_obj, second_table)
    sub, _ = finset.equalizer(first, second)
    target = cover.target
    maps = [f.restrict(leg.dom, target).assignment for leg in legs]
    sections = [tuple([m[z] for m in maps]) for z in f.value(target)]
    image = set(sections)
    injective = len(image) == len(sections)
    onto = image == {tuples[k] for k in sub}
    diagram_verdict = (
        VERDICT_SHEAF
        if injective and onto
        else VERDICT_SEPARATED
        if injective
        else VERDICT_PRESHEAF
    )
    if diagram_verdict != outcome.verdict:
        raise InternalDefect(
            "internal defect: family count and equalizer diagram disagree "
            f"on {cover!r} ({outcome.verdict} vs {diagram_verdict})"
        )
    return True


def check_sheaf_equalizer(f: Presheaf, coverage: Coverage) -> SheafReport:
    """Count gluings of every compatible family of every assigned cover."""
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    report = SheafReport("equalizer", VERDICT_SHEAF)
    for cover in coverage.all_families():
        buckets = _glue_buckets(f, cover)
        families = compatible_families(f, cover)
        unglued = ambiguous = 0
        for fam in families:
            n = len(buckets.get(fam, []))
            if n == 0:
                unglued += 1
            elif n > 1:
                ambiguous += 1
        outcome = CoverOutcome(cover, len(families), unglued, ambiguous)
        report.outcomes.append(outcome)
        if _diagram_crosscheck(f, cover, outcome):
            report.cross_checked += 1
        if _GRADE[outcome.verdict] < _GRADE[report.verdict]:
            report.verdict = outcome.verdict
            report.witness = f"cover {cover!r}"
    return report


def check_sheaf_orthogonal(f: Presheaf, coverage: Coverage) -> SheafReport:
    """Test unique lifting against every canonical sieve inclusion."""
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    site = f.site
    report = SheafReport("orthogonal", VERDICT_SHEAF)
    hom_y_cache = {}
    for cover in coverage.all_families():
        u = cover.target
        if u not in hom_y_cache:
            homs_y = hom_y_cache[u] = hom_presheaves(yoneda(site, u), f)
            if len(homs_y) != len(f.value(u)):
                raise InternalDefect(
                    f"internal defect: {len(homs_y)} maps y({site.name(u)}) -> f for "
                    f"{len(f.value(u))} sections, against the Yoneda lemma"
                )
        sv = sieve_of(site, cover)
        homs_sieve = hom_presheaves(sv.presheaf, f)
        precomposed = [sv.canonical.then(m) for m in hom_y_cache[u]]
        images = set(precomposed)
        unglued = len(set(homs_sieve) - images)
        ambiguous = len(precomposed) - len(images)
        outcome = CoverOutcome(cover, len(homs_sieve), unglued, ambiguous)
        report.outcomes.append(outcome)
        if _GRADE[outcome.verdict] < _GRADE[report.verdict]:
            report.verdict = outcome.verdict
            report.witness = f"cover {cover!r}"
    return report


def check_sheaf(f: Presheaf, coverage: Coverage, methods=SHEAF_METHODS,
                rng=None) -> list:
    """Run the named checkers; two verdicts that differ are a defect here.

    The checkers run in the order `rng.shuffle` sets when `rng` is given,
    and their reports come back in `methods` order.
    """
    for method in methods:
        if method not in SHEAF_METHODS:
            raise InvalidSpec(f"unknown sheaf check method {method!r}")
    order = list(methods)
    if rng is not None:
        rng.shuffle(order)
    # read at call time, so a rebinding of either checker is seen here
    checkers = {
        "equalizer": check_sheaf_equalizer,
        "orthogonal": check_sheaf_orthogonal,
    }
    results = {m: checkers[m](f, coverage) for m in order}
    if len({r.verdict for r in results.values()}) > 1:
        raise InternalDefect(
            "the two sheaf definitions disagree: "
            + ", ".join(f"{m}={r.verdict}" for m, r in sorted(results.items()))
        )
    return [results[m] for m in methods]


# ---------------------------------------------------------------------------
# constructions on sheaves


def shift_presheaf(f: Presheaf, u) -> Presheaf:
    """The presheaf v -> f(u * v); shifts of sheaves stay sheaves."""
    site = f.site
    at = {v: f.value(site.tensor_obj(u, v)) for v in site.objects()}
    res = {
        (v2, v): f.restrict(site.tensor_obj(u, v2), site.tensor_obj(u, v))
        for v2, v in site.pairs()
    }
    return Presheaf(site, at, res)


def product_sheaf(f: Presheaf, g: Presheaf) -> Presheaf:
    """The pointwise product presheaf on the product site."""
    site = ThinCategory.product(f.site, g.site)
    at = {
        (a, b): [finset.pair_label(x, y) for x in f.value(a) for y in g.value(b)]
        for a, b in site.objects()
    }
    res = {}
    for (a2, b2), (a, b) in site.pairs():
        fm, gm = f.restrict(a2, a), g.restrict(b2, b)
        res[(a2, b2), (a, b)] = {
            finset.pair_label(x, y): finset.pair_label(fm(x), gm(y))
            for x in f.value(a)
            for y in g.value(b)
        }
    return Presheaf(site, at, res)


# ---------------------------------------------------------------------------
# the plus construction (locales only)


def _down_set_supports(site, quantale, u):
    """Down-closed subsets of the principal down-set of u joining to u.

    Each support is a tuple of objects in name order. On a locale every
    object is its own name, which the join of the quantale works on.
    """
    below = [w for w in site.objects() if site.leq(w, u)]
    supports = []
    for mask in itertools.product([False, True], repeat=len(below)):
        chosen = tuple(w for w, keep in zip(below, mask) if keep)
        if any(
            v not in chosen for w in chosen for v in below if site.leq(v, w)
        ):
            continue
        if quantale.join(chosen) != u:
            continue
        supports.append(chosen)
    return supports


def _matching_families(f: Presheaf, order, support):
    """Functions picking one section per support member, matching downward.

    The members are visited top-down along the site order ``order``, so
    a member with anything of the support above it has its section forced.
    Each family lists its ``(member, section)`` pairs in support order.
    """
    site = f.site
    members = [w for w in reversed(order) if w in support]

    def sections(k, chosen):
        w = members[k]
        forced = {
            f.restrict(w, w2)(x)
            for w2, x in zip(members, chosen)
            if site.leq(w, w2)
        }
        if len(forced) > 1:
            return []
        return list(forced) or f.value(w).elements

    slots = [members.index(w) for w in support]
    return [
        tuple((w, fam[k]) for w, k in zip(support, slots))
        for fam in backtrack(len(members), sections)
    ]


def plus_with_unit(f: Presheaf, coverage: Coverage):
    """One densification step: classes of matching families over covers.

    Returns the new presheaf together with the comparison sending a
    section to the class of its restriction germ. Only available on
    locales with their canonical coverage, where restriction along
    overlaps is independent of all choices.
    """
    site = f.site
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    if not site.is_cartesian or not coverage.join_rule:
        raise NotLocale(
            "the one-step densification needs a locale with its "
            "canonical coverage"
        )
    quantale = coverage.quantale
    order = site_order(site)[0]

    germs_at = {}
    for u in site.objects():
        germs = []
        for support in _down_set_supports(site, quantale, u):
            for fam in _matching_families(f, order, support):
                germs.append((support, fam))
        germs.sort()
        germs_at[u] = germs

    def agree(g1, g2):
        s1, s2 = set(g1[0]), set(g2[0])
        d1, d2 = dict(g1[1]), dict(g2[1])
        return all(d1[w] == d2[w] for w in s1 & s2)

    uf_at, labels_at = {}, {}
    for u in site.objects():
        germs = germs_at[u]
        keys = [repr(g) for g in germs]
        uf = UnionFind(keys)
        for i in range(len(germs)):
            for j in range(i + 1, len(germs)):
                if uf.find(keys[i]) != uf.find(keys[j]) and agree(
                    germs[i], germs[j]
                ):
                    uf.union(keys[i], keys[j])
        reps = sorted({uf.find(k) for k in keys}, key=label_key)
        labels_at[u] = {rep: f"c{idx}" for idx, rep in enumerate(reps)}
        uf_at[u] = uf

    def restrict_germ(germ, v):
        sub = tuple((w, x) for w, x in germ[1] if site.leq(w, v))
        return (tuple(w for w, _ in sub), sub)

    def class_of(germ, v):
        return labels_at[v][uf_at[v].find(repr(germ))]

    at = {u: list(labels.values()) for u, labels in labels_at.items()}
    res = {}
    for v, u in site.pairs():
        table = res[(v, u)] = {}
        for germ in germs_at[u]:
            src = class_of(germ, u)
            dst = class_of(restrict_germ(germ, v), v)
            if table.get(src, dst) != dst:
                raise InternalDefect(
                    "internal defect: densification restriction is "
                    f"ill-defined at {site.name(v)} <= {site.name(u)}"
                )
            table[src] = dst
    plus = Presheaf(site, at, res)

    comps = {}
    for u in site.objects():
        below = tuple(w for w in site.objects() if site.leq(w, u))
        comps[u] = {
            x: class_of((below, tuple((w, f.restrict(w, u)(x)) for w in below)), u)
            for x in f.value(u)
        }
    unit = PresheafMorphism(f, plus, comps)
    return plus, unit


def plus_construction(f: Presheaf, coverage: Coverage) -> Presheaf:
    """One densification step, dropping the comparison morphism."""
    return plus_with_unit(f, coverage)[0]
