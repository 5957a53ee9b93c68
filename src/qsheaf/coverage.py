"""Covering families and the axiom checkers for all four coverage flavors.

A coverage assigns to each object a finite set of covering families
(indexed lists of morphisms into it, repeats allowed). Membership is a
predicate, not just a lookup: the canonical quantalic coverage answers
by a join computation, explicit coverages by multiset comparison, and
product coverages by testing both marginals. The checkers verify the
claimed flavor exhaustively and report every violated axiom instance
with a witness; they never raise on lawful input shapes.

Flavors, cumulative:
- weak prelopology: isomorphism singletons, closure under composition,
  tensor stability on both sides;
- prelopology: plus pseudo-pullback stability on both sides;
- strong prelopology: plus the projection-factorization searches;
- pretopology: the cartesian-site variant with genuine pullbacks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    InvalidSpec,
    NotCartesianSite,
    NotSemicartesian,
    UnverifiedInput,
)
from .moncat import (
    MonoidalCategory,
    ThinCategory,
    canon,
    exists_l_r_factorizations,
    pseudo_pullback,
)
from .quantale import Quantale


class CoverFamily:
    """An indexed family of morphisms into a common target.

    The legs are checked against the target on construction. The sort
    key, the target's name with the sorted leg keys, is built on first
    use by `key`, `clamped_key`, equality or hashing: membership under
    the join rule never reads it.
    """

    __slots__ = ("target", "legs", "_key")

    def __init__(self, target, legs):
        legs = tuple(legs)
        for leg in legs:
            if leg.cod != target:
                raise InvalidSpec(
                    f"cover leg {leg!r} does not target {canon(target)}"
                )
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("CoverFamily is immutable")

    def key(self):
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                (canon(self.target), tuple(sorted(m.key() for m in self.legs))),
            )
        return self._key

    def clamped_key(self, cap):
        name, legs = self.key()
        kept, counts = [], {}
        for k in legs:
            counts[k] = counts.get(k, 0) + 1
            if counts[k] <= cap:
                kept.append(k)
        return (name, tuple(kept))

    def domains(self):
        return [leg.dom for leg in self.legs]

    def __eq__(self, other):
        return isinstance(other, CoverFamily) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __len__(self):
        return len(self.legs)

    def __repr__(self):
        doms = ",".join(canon(d) for d in self.domains())
        return f"{{{doms}}} -> {canon(self.target)}"


@dataclass(frozen=True)
class AxiomEntry:
    axiom: str
    ok: bool
    checked: int
    witness: str | None = None

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{status} {self.axiom} ({self.checked} instances){tail}"


@dataclass
class CoverageReport:
    flavor: str
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]

    def summary(self) -> str:
        lines = [f"coverage flavor check: {self.flavor}"]
        lines += ["  " + e.describe() for e in self.entries]
        return "\n".join(lines)


class Coverage:
    """Per-object covering families plus a membership predicate.

    `join_rule=True` means membership is decided by the canonical
    quantalic rule (the legs' domains join to the target); otherwise a
    family is a member when its leg multiset, with multiplicities
    clamped to `mult_cap`, equals a stored family's.
    """

    def __init__(self, site: MonoidalCategory, assign, flavor="prelopology",
                 join_rule=False, quantale=None, mult_cap=2, components=None):
        self.site = site
        self.flavor = flavor
        self.join_rule = join_rule
        self.quantale = quantale
        self.mult_cap = mult_cap
        self.components = components
        self._assign = {}  # target -> families, targets in name order
        for fam in sorted(assign, key=CoverFamily.key):
            self._assign.setdefault(fam.target, []).append(fam)
        self._member_keys = {
            fam.clamped_key(self.mult_cap)
            for fams in self._assign.values()
            for fam in fams
        }

    def families(self, obj):
        return list(self._assign.get(obj, []))

    def all_families(self):
        for fams in self._assign.values():
            yield from fams

    def family_count(self) -> int:
        return sum(len(v) for v in self._assign.values())

    def contains(self, fam: CoverFamily) -> bool:
        if self.components is not None:
            left, right = self.components
            s1, s2 = left.site, right.site
            legs1 = [s1.arrow(leg.dom[0], fam.target[0]) for leg in fam.legs]
            legs2 = [s2.arrow(leg.dom[1], fam.target[1]) for leg in fam.legs]
            return left.contains(
                CoverFamily(fam.target[0], legs1)
            ) and right.contains(CoverFamily(fam.target[1], legs2))
        if self.join_rule:
            joined = self.quantale.join(sorted(set(fam.domains())))
            return joined == fam.target and all(
                self.site.leq(d, fam.target) for d in fam.domains()
            )
        return fam.clamped_key(self.mult_cap) in self._member_keys

    def without_family(self, fam: CoverFamily) -> "Coverage":
        """Explicit copy with one family removed; membership follows."""
        remaining = [f for f in self.all_families() if f != fam]
        if len(remaining) == self.family_count():
            raise InvalidSpec(f"family {fam!r} is not assigned")
        return Coverage(
            self.site,
            remaining,
            flavor=self.flavor,
            join_rule=False,
            quantale=self.quantale,
            mult_cap=self.mult_cap,
        )

    def with_family(self, fam: CoverFamily) -> "Coverage":
        """Explicit copy with one family added."""
        return Coverage(
            self.site,
            list(self.all_families()) + [fam],
            flavor=self.flavor,
            join_rule=False,
            quantale=self.quantale,
            mult_cap=self.mult_cap,
        )

    def to_raw(self) -> dict:
        covers = [
            {
                "target": canon(fam.target),
                "legs": [{"dom": canon(d)} for d in fam.domains()],
            }
            for fam in self.all_families()
        ]
        return {"flavor": self.flavor, "covers": covers}

    def __repr__(self):
        rule = "canonical" if self.join_rule else "explicit"
        return f"Coverage({rule}, {self.family_count()} families)"


# ---------------------------------------------------------------------------
# construction


def default_mult_cap(q: Quantale) -> int:
    return 2 if len(q.elements) <= 4 else 1


def canonical_quantale_coverage(q: Quantale, site: ThinCategory = None,
                                mult_cap=None) -> Coverage:
    """All families whose domains join to the target, repeats capped."""
    from .quantale import classify_quantale

    if not classify_quantale(q).semicartesian:
        raise NotSemicartesian("canonical coverage needs a semicartesian quantale")
    if site is None:
        site = ThinCategory.from_quantale(q)
    if mult_cap is None:
        mult_cap = default_mult_cap(q)
    bottom = q.bottom
    assign = []
    for u in q.elements:
        down = sorted((v for v in q.elements if q.leq(v, u)), key=canon)
        for counts in itertools.product(range(mult_cap + 1), repeat=len(down)):
            doms = [v for v, k in zip(down, counts) for _ in range(k)]
            if not doms:
                if u == bottom:
                    assign.append(CoverFamily(u, []))
                continue
            if q.join(sorted(set(doms))) == u:
                assign.append(
                    CoverFamily(u, [site.arrow(v, u) for v in doms])
                )
    return Coverage(
        site,
        assign,
        flavor="strong_prelopology",
        join_rule=True,
        quantale=q,
        mult_cap=mult_cap,
    )


def trivial_coverage(site: ThinCategory, quantale=None) -> Coverage:
    """Identity singletons only; the smallest lawful coverage."""
    assign = [
        CoverFamily(u, [site.identity(u)]) for u in site.objects()
    ]
    return Coverage(
        site,
        assign,
        flavor="strong_prelopology",
        join_rule=False,
        quantale=quantale,
        mult_cap=1,
    )


def parse_coverage(site: ThinCategory, raw: dict, quantale=None) -> Coverage:
    if not isinstance(raw, dict):
        raise InvalidSpec("coverage spec must be an object")
    if raw.get("canonical"):
        if quantale is None:
            raise InvalidSpec("canonical coverage needs a quantale site")
        return canonical_quantale_coverage(quantale, site=site)
    if "covers" not in raw:
        raise InvalidSpec("coverage spec needs 'covers' or 'canonical'")
    by_name = {canon(u): u for u in site.objects()}
    assign = []
    for entry in raw["covers"]:
        target = entry.get("target")
        if target not in by_name:
            raise InvalidSpec(f"unknown cover target {target!r}")
        legs = []
        for leg in entry.get("legs", []):
            dom = leg.get("dom") if isinstance(leg, dict) else leg
            if dom not in by_name:
                raise InvalidSpec(f"unknown leg domain {dom!r}")
            if not site.leq(by_name[dom], by_name[target]):
                raise InvalidSpec(f"no arrow {dom} -> {target}")
            legs.append(site.arrow(by_name[dom], by_name[target]))
        assign.append(CoverFamily(by_name[target], legs))
    return Coverage(
        site,
        assign,
        flavor=raw.get("flavor", "prelopology"),
        join_rule=False,
        quantale=quantale,
        mult_cap=int(raw.get("mult_cap", 2)),
    )


def product_coverage(left: Coverage, right: Coverage) -> Coverage:
    """Pair families positionally; membership is the two marginal tests."""
    for cov in (left, right):
        if not check_prelopology(cov).ok:
            raise UnverifiedInput(
                "product coverage needs verified prelopology components"
            )
    site = ThinCategory.product(left.site, right.site)
    assign = []
    for c in left.site.objects():
        fams1 = left.families(c)
        for d in right.site.objects():
            for f1 in fams1:
                for f2 in right.families(d):
                    d1, d2 = list(f1.domains()), list(f2.domains())
                    if (not d1) != (not d2):
                        continue  # cannot pad an empty family
                    n = max(len(d1), len(d2))
                    d1 += [d1[-1]] * (n - len(d1)) if d1 else []
                    d2 += [d2[-1]] * (n - len(d2)) if d2 else []
                    legs = [
                        site.arrow((a, b), (c, d))
                        for a, b in zip(d1, d2)
                    ]
                    assign.append(CoverFamily((c, d), legs))
    return Coverage(
        site,
        sorted(set(assign), key=lambda f: f.key()),
        flavor="prelopology",
        join_rule=False,
        quantale=None,
        mult_cap=max(left.mult_cap, right.mult_cap),
        components=(left, right),
    )


# ---------------------------------------------------------------------------
# axiom checkers


def _check_iso_singletons(cov: Coverage):
    site = cov.site
    checked = 0
    for u in site.objects():
        for w in site.objects():
            for m in site.hom(w, u):
                if not site.is_iso(m):
                    continue
                checked += 1
                if not cov.contains(CoverFamily(u, [m])):
                    return AxiomEntry(
                        "iso-singletons",
                        False,
                        checked,
                        f"iso singleton {canon(w)} -> {canon(u)} missing",
                    )
    return AxiomEntry("iso-singletons", True, checked)


def _check_composition(cov: Coverage):
    checked = 0
    site = cov.site
    for fam in cov.all_families():
        for i, leg in enumerate(fam.legs):
            for refinement in cov.families(leg.dom):
                composite = (
                    fam.legs[:i]
                    + tuple(site.compose(leg, g) for g in refinement.legs)
                    + fam.legs[i + 1:]
                )
                checked += 1
                if not cov.contains(CoverFamily(fam.target, composite)):
                    return AxiomEntry(
                        "composition",
                        False,
                        checked,
                        f"refining leg {i} of {fam!r} by {refinement!r}",
                    )
    return AxiomEntry("composition", True, checked)


def _check_tensor_stability(cov: Coverage):
    checked = 0
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
                checked += 1
                if not cov.contains(tensored):
                    return AxiomEntry(
                        "tensor-stability",
                        False,
                        checked,
                        f"{fam!r} tensored with {canon(v)} on the {side}",
                    )
    return AxiomEntry("tensor-stability", True, checked)


def _check_ppb_stability(cov: Coverage):
    checked = 0
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        id_u = site.identity(u)
        for v in site.objects():
            for g in site.hom(v, u):
                # the left side is the right side with every pair swapped
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
                    checked += 1
                    if any(phi is None for phi in phis):
                        return AxiomEntry(
                            "ppb-stability",
                            False,
                            checked,
                            f"{fam!r} along {canon(v)} -> {canon(u)} ({side}): "
                            "no equalizer factorization",
                        )
                    if not cov.contains(CoverFamily(base.obj, phis)):
                        return AxiomEntry(
                            "ppb-stability",
                            False,
                            checked,
                            f"{fam!r} along {canon(v)} -> {canon(u)} ({side})",
                        )
    return AxiomEntry("ppb-stability", True, checked)


def _check_projection_factorizations(cov: Coverage):
    checked = 0
    site = cov.site
    for fam in cov.all_families():
        if not fam.legs:
            continue
        for v in site.objects():
            checked += 1
            ok, details = exists_l_r_factorizations(site, fam.legs, v)
            if not ok:
                bad = next(
                    d["pair"] for d in details
                    if d["l"] is None or d["r"] is None
                )
                return AxiomEntry(
                    "projection-factorizations",
                    False,
                    checked,
                    f"{fam!r} with {canon(v)}: no l/r for leg pair {bad}",
                )
    return AxiomEntry("projection-factorizations", True, checked)


def _check_pullback_stability(cov: Coverage):
    checked = 0
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        for v in site.objects():
            for g in site.hom(v, u):
                legs = [
                    pseudo_pullback(site, f, g).p2 for f in fam.legs
                ]
                checked += 1
                if not cov.contains(CoverFamily(v, legs)):
                    return AxiomEntry(
                        "pullback-stability",
                        False,
                        checked,
                        f"pullbacks of {fam!r} along {canon(v)} -> {canon(u)}",
                    )
    return AxiomEntry("pullback-stability", True, checked)


def check_weak_prelopology(cov: Coverage) -> CoverageReport:
    report = CoverageReport("weak_prelopology")
    report.entries.append(_check_iso_singletons(cov))
    report.entries.append(_check_composition(cov))
    report.entries.append(_check_tensor_stability(cov))
    return report


def check_prelopology(cov: Coverage) -> CoverageReport:
    report = check_weak_prelopology(cov)
    report.flavor = "prelopology"
    report.entries.append(_check_ppb_stability(cov))
    return report


def check_strong_prelopology(cov: Coverage) -> CoverageReport:
    report = check_prelopology(cov)
    report.flavor = "strong_prelopology"
    report.entries.append(_check_projection_factorizations(cov))
    return report


def check_pretopology(cov: Coverage) -> CoverageReport:
    if not cov.site.is_cartesian:
        raise NotCartesianSite(
            "pretopology checks need tensor = categorical product"
        )
    report = CoverageReport("pretopology")
    report.entries.append(_check_iso_singletons(cov))
    report.entries.append(_check_composition(cov))
    report.entries.append(_check_pullback_stability(cov))
    return report


def check_flavor(cov: Coverage, flavor=None) -> CoverageReport:
    flavor = flavor or cov.flavor
    checkers = {
        "weak_prelopology": check_weak_prelopology,
        "prelopology": check_prelopology,
        "strong_prelopology": check_strong_prelopology,
        "pretopology": check_pretopology,
    }
    if flavor not in checkers:
        raise InvalidSpec(f"unknown coverage flavor {flavor!r}")
    return checkers[flavor](cov)
