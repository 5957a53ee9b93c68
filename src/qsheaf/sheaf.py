"""Sheaf conditions over covered thin sites, checked two independent ways.

The first checker enumerates compatible families and counts gluings,
cross-checking each count against the cover's literal equalizer diagram
(built with the finite-set kernel) whenever the diagram is small. The
small diagrams of one presheaf are built together, as the summands of a
few shared diagrams, and every reader of a cover reads the restriction
keys of its compiled form (`CoverFamily.compiled`). Sheafification's
forcing scan and the battery in `reflect` count with the same helpers,
and the battery's audit reads each member's diagrams (`_audit_verdicts`).
The second checker tests orthogonality against canonical sieve
inclusions by enumerating natural transformations on both sides, once
per distinct sieve (`presheaf.sieve_key`): the outcome depends on the
cover only through its sieve.
`check_sheaf` is the one place that runs them together: the two must
always agree, and it raises `InternalDefect` when they do not, a defect
of this library, never of the input.
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
    sieve_key,
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
# the most leg tuples one shared diagram takes; it bounds the overlap keys held
_SHARED_TUPLES = 256


def _families(site, at, res, cover):
    """Compatible section tuples for a cover, lazily, by backtracking.

    `at` and `res` have a `Presheaf`'s table shape (``u -> FinSetObj``,
    ``(v, u) -> FinMap``, identities included), as the battery's do. A
    section of leg k must agree with the chosen section of each earlier
    leg i on their overlaps, the checks `CompiledCover.checks` lists.
    """
    doms = cover.domains()
    checks = cover.compiled(site).checks
    tables = {}  # k -> (i, restriction tables of legs i and k) per check of k

    def sections(k, chosen):
        if k not in tables:
            tables[k] = [
                (i, res[left].assignment, res[right].assignment)
                for i, left, right in checks[k]
            ]
        wants = [(right, left[chosen[i]]) for i, left, right in tables[k]]
        return [x for x in at[doms[k]] if all(m[x] == y for m, y in wants)]

    return backtrack(len(doms), sections)


def compatible_families(f: Presheaf, cover: CoverFamily) -> list:
    """All compatible section tuples for a cover, by backtracking."""
    return list(_families(f.site, f._at, f._res, cover))


def _glue_buckets(site, at, res, cover: CoverFamily) -> dict:
    """Restriction signature -> sections over the target, read as `_families` reads."""
    maps = [res[key].assignment for key in cover.compiled(site).legs]
    buckets = {}
    for z in at[cover.target]:
        buckets.setdefault(tuple([m[z] for m in maps]), []).append(z)
    return buckets


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


def _cover_outcome(f: Presheaf, cover: CoverFamily) -> CoverOutcome:
    """The family count: compatible families with no gluing, or several."""
    buckets = _glue_buckets(f.site, f._at, f._res, cover)
    families = compatible_families(f, cover)
    unglued = ambiguous = 0
    for fam in families:
        n = len(buckets.get(fam, ()))
        if n == 0:
            unglued += 1
        elif n > 1:
            ambiguous += 1
    return CoverOutcome(cover, len(families), unglued, ambiguous)


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

    def add(self, outcome: CoverOutcome) -> None:
        """Record a cover's outcome; a worse one lowers the verdict and is named."""
        self.outcomes.append(outcome)
        if _GRADE[outcome.verdict] < _GRADE[self.verdict]:
            self.verdict = outcome.verdict
            self.witness = f"cover {outcome.cover!r}"


def diagram_verdicts(f: Presheaf, covers: list) -> list:
    """Each cover's verdict read off its literal equalizer diagram, or None.

    Every literal diagram of the library is built here, for
    `check_sheaf_equalizer` and for the battery's audit alike. A cover
    gets a diagram when it has at most 8 legs and at most
    `CROSSCHECK_THRESHOLD` leg tuples. The diagrams are built as the
    summands of a few shared ones: covers join a shared diagram in order
    until the next would take it past `_SHARED_TUPLES` leg tuples, so a
    larger cover gets one of its own.
    """
    at = f._at
    verdicts = [None] * len(covers)
    batch, size = [], 0
    for idx, cover in enumerate(covers):
        count = 1
        for d in cover.domains():
            count *= len(at[d])
        if count > CROSSCHECK_THRESHOLD or len(cover.legs) > 8:
            continue
        if batch and size + count > _SHARED_TUPLES:
            _shared_diagram(f, covers, batch, verdicts)
            batch, size = [], 0
        batch.append(idx)
        size += count
    if batch:
        _shared_diagram(f, covers, batch, verdicts)
    return verdicts


def _audit_verdicts(f: Presheaf, covers: list) -> list:
    """Each cover's verdict by its literal diagram, or by the family count
    where the cover is too large to diagram."""
    return [
        _cover_outcome(f, cover).verdict if verdict is None else verdict
        for cover, verdict in zip(covers, diagram_verdicts(f, covers))
    ]


def _shared_diagram(f: Presheaf, covers: list, batch: list, verdicts: list):
    """Equalize the sum of the diagrams ``F(U) -> prod F(U_i) => prod F(U_ij)``
    of the covers at `batch`, and set each one's verdict in `verdicts`."""
    site, at, res = f.site, f._at, f._res
    # A leg tuple is labelled by its position in `tuples`, and an overlap
    # tuple, keyed by its cover's index, by its position of first
    # appearance, so the labels are integers whatever the presheaf's and
    # no two summands share one.
    tuples, owners = [], []
    overlap_ids, first_table, second_table = {}, {}, {}
    for idx in batch:
        cover = covers[idx]
        values = [at[d] for d in cover.domains()]
        if not all(values):
            continue  # an empty value set leaves the cover no leg tuple
        # restrictions of legs i and j to their overlap, for i != j: a pair
        # (i, i) restricts one section along one key on both sides
        lefts, rights = [], []
        for i, row in enumerate(cover.compiled(site).pairs):
            for j, (left, right) in enumerate(row):
                if i == j:
                    continue
                lefts.append((i, res[left].assignment))
                rights.append((j, res[right].assignment))
        for t in itertools.product(*values):
            k = len(tuples)
            tuples.append(t)
            owners.append(idx)
            first_table[k] = overlap_ids.setdefault(
                (idx, *[m[t[i]] for i, m in lefts]), len(overlap_ids)
            )
            second_table[k] = overlap_ids.setdefault(
                (idx, *[m[t[j]] for j, m in rights]), len(overlap_ids)
            )
    leg_obj = FinSetObj(range(len(tuples)))
    pair_obj = FinSetObj(range(len(overlap_ids)))
    sub, _ = finset.equalizer(
        FinMap(leg_obj, pair_obj, first_table),
        FinMap(leg_obj, pair_obj, second_table),
    )
    equalized = {idx: set() for idx in batch}
    for k in sub:
        equalized[owners[k]].add(tuples[k])
    for idx in batch:
        cover = covers[idx]
        maps = [res[key].assignment for key in cover.compiled(site).legs]
        sections = [tuple([m[z] for m in maps]) for z in at[cover.target]]
        image = set(sections)
        injective = len(image) == len(sections)
        verdicts[idx] = (
            VERDICT_SHEAF
            if injective and image == equalized[idx]
            else VERDICT_SEPARATED
            if injective
            else VERDICT_PRESHEAF
        )


def check_sheaf_equalizer(f: Presheaf, coverage: Coverage) -> SheafReport:
    """Count gluings of every compatible family of every assigned cover,
    and cross-check each count against the cover's literal diagram."""
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    report = SheafReport("equalizer", VERDICT_SHEAF)
    covers = list(coverage.all_families())
    for cover in covers:
        report.add(_cover_outcome(f, cover))
    for outcome, verdict in zip(report.outcomes, diagram_verdicts(f, covers)):
        if verdict is None:
            continue
        if verdict != outcome.verdict:
            raise InternalDefect(
                "internal defect: family count and equalizer diagram disagree "
                f"on {outcome.cover!r} ({outcome.verdict} vs {verdict})"
            )
        report.cross_checked += 1
    return report


def check_sheaf_orthogonal(f: Presheaf, coverage: Coverage) -> SheafReport:
    """Test unique lifting against every canonical sieve inclusion.

    The outcome is a function of the sieve and `f` alone, so the homs out
    of a sieve are enumerated once per distinct `sieve_key`, and that
    outcome is recorded for every cover with the key.
    """
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    site = f.site
    report = SheafReport("orthogonal", VERDICT_SHEAF)
    hom_y_cache = {}
    by_sieve = {}  # sieve_key -> (families, unglued, ambiguous)
    for cover in coverage.all_families():
        u = cover.target
        if u not in hom_y_cache:
            homs_y = hom_y_cache[u] = hom_presheaves(yoneda(site, u), f)
            if len(homs_y) != len(f.value(u)):
                raise InternalDefect(
                    f"internal defect: {len(homs_y)} maps y({site.name(u)}) -> f for "
                    f"{len(f.value(u))} sections, against the Yoneda lemma"
                )
        key = sieve_key(site, cover)
        if key not in by_sieve:
            sv = sieve_of(site, cover)
            homs_sieve = hom_presheaves(sv.presheaf, f)
            precomposed = [sv.canonical.then(m) for m in hom_y_cache[u]]
            images = set(precomposed)
            by_sieve[key] = (
                len(homs_sieve),
                len(set(homs_sieve) - images),
                len(precomposed) - len(images),
            )
        report.add(CoverOutcome(cover, *by_sieve[key]))
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
