"""Covering families and the axiom checkers for all four coverage flavors.

A coverage assigns to each object of a thin site a finite set of
covering families (indexed lists of morphisms into it, repeats allowed).
On a thin site a family is fixed by its target and the multiset of its
leg domains, so membership reads only those, and each coverage decides
it once per target and domain multiset. Membership is a predicate, not
just a lookup: the canonical quantalic coverage answers by a join
computation, explicit coverages by multiset comparison, and product
coverages by testing both marginals. The checkers verify the claimed
flavor exhaustively and report, per axiom, the number of instances
checked and the first violated instance with a witness; they never
raise on lawful input shapes.

Flavors, cumulative:
- weak prelopology: isomorphism singletons, closure under composition,
  tensor stability on both sides;
- prelopology: plus pseudo-pullback stability on both sides;
- strong prelopology: plus the projection factorizations l and r for
  every leg pair and every v. On a thin site every diagram commutes, so
  l exists exactly when its domain, the pseudo-pullback of the legs
  tensored with v on the left, lies below v tensored with the legs'
  pseudo-pullback, and r likewise on the right: one order test each
  (`ThinCategory.l_r_factor`);
- pretopology: the cartesian-site variant with genuine pullbacks.
"""

from __future__ import annotations

import itertools

from .checks import CheckReport, drain
from .errors import (
    InvalidSpec,
    NotCartesianSite,
    NotSemicartesian,
    UnverifiedInput,
)
from .moncat import ThinCategory, canon, pseudo_pullback, require_thin
from .quantale import Quantale


class CoverFamily:
    """An indexed family of morphisms into a common target.

    The legs are checked against the target on construction, and their
    domains, all that membership reads, are kept as a tuple. The sort
    key, the target's name with the sorted leg keys, is built on first
    use by `key`, equality or hashing.
    """

    __slots__ = ("target", "legs", "_domains", "_key")

    def __init__(self, target, legs):
        legs = tuple(legs)
        for leg in legs:
            if leg.cod != target:
                raise InvalidSpec(
                    f"cover leg {leg!r} does not target {canon(target)}"
                )
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "_domains", tuple(leg.dom for leg in legs))
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

    def domains(self) -> tuple:
        return self._domains

    def __eq__(self, other):
        return isinstance(other, CoverFamily) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __len__(self):
        return len(self.legs)

    def __repr__(self):
        doms = ",".join(canon(d) for d in self.domains())
        return f"{{{doms}}} -> {canon(self.target)}"


def clamped_multiset(doms, cap) -> tuple:
    """The sorted domains, each repeated at most `cap` times."""
    doms = sorted(doms)
    return tuple(
        d for i, d in enumerate(doms) if i < cap or doms[i - cap] != d
    )


class Coverage:
    """Per-object covering families on a thin site, plus membership.

    A family is a member when `covers(target, doms)` holds for its target
    and leg domains, the only data a family has on a thin site. Each
    coverage decides that once per key, where the key holds only what
    the rule reads:

    - `join_rule=True` (the canonical quantalic rule): the domains lie
      below the target and join to it; keyed by the target and the set
      of domains;
    - an explicit coverage: the domain multiset, with multiplicities
      clamped to `mult_cap`, equals an assigned family's; the set of
      assigned keys is the table;
    - a product coverage (`components` set): both marginal domain lists
      are covered by their component; keyed by the target and the exact
      multiset, since clamping at the product's cap would merge families
      whose marginals differ.
    """

    def __init__(self, site: ThinCategory, assign, flavor="prelopology",
                 join_rule=False, quantale=None, mult_cap=2, components=None):
        require_thin(site)
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
            (fam.target, clamped_multiset(fam.domains(), mult_cap))
            for fams in self._assign.values()
            for fam in fams
        }
        self._verdicts = {}  # key -> membership, under the join or product rule

    def families(self, obj):
        return list(self._assign.get(obj, []))

    def all_families(self):
        for fams in self._assign.values():
            yield from fams

    def family_count(self) -> int:
        return sum(len(v) for v in self._assign.values())

    def covers(self, target, doms) -> bool:
        """Whether the arrows ``d -> target``, one per entry of `doms`, cover."""
        if self.components is not None:
            key = (target, tuple(sorted(doms)))
        elif self.join_rule:
            key = (target, frozenset(doms))
        else:
            return (target, clamped_multiset(doms, self.mult_cap)) in self._member_keys
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._decide(target, doms)
        return verdict

    def _decide(self, target, doms) -> bool:
        if self.components is not None:
            left, right = self.components
            return left.covers(target[0], [d[0] for d in doms]) and right.covers(
                target[1], [d[1] for d in doms]
            )
        return self.quantale.join(sorted(set(doms))) == target and all(
            self.site.leq(d, target) for d in doms
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
    covers, mult_cap = raw["covers"], raw.get("mult_cap", 2)
    if not isinstance(covers, list) or not all(isinstance(e, dict) for e in covers):
        raise InvalidSpec("'covers' must be a list of objects")
    if type(mult_cap) is not int:
        raise InvalidSpec(f"'mult_cap' must be an integer, not {mult_cap!r}")
    if mult_cap < 1:
        raise InvalidSpec(f"'mult_cap' must be at least 1, not {mult_cap}")
    by_name = {canon(u): u for u in site.objects()}
    assign = []
    for entry in covers:
        target = entry.get("target")
        if not isinstance(target, str) or target not in by_name:
            raise InvalidSpec(f"unknown cover target {target!r}")
        leg_specs = entry.get("legs", [])
        if not isinstance(leg_specs, list):
            raise InvalidSpec(f"legs of a cover of {target} must be a list")
        legs = []
        for leg in leg_specs:
            dom = leg.get("dom") if isinstance(leg, dict) else leg
            if not isinstance(dom, str) or dom not in by_name:
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
        mult_cap=mult_cap,
    )


def product_coverage(left: Coverage, right: Coverage) -> Coverage:
    """Pair families positionally; membership is the two marginal tests."""
    for cov in (left, right):
        if not check_flavor(cov, "prelopology").ok:
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
# axiom checkers: generators drained by `checks.drain`


def _iso_singletons(cov: Coverage):
    # on a thin site the isomorphisms are the identities
    for u in cov.site.objects():
        yield None if cov.covers(u, [u]) else (
            f"iso singleton {canon(u)} -> {canon(u)} missing"
        )


def _composition(cov: Coverage):
    # on a thin site the composite of leg i with a refinement's legs has
    # the refinement's domains in place of leg i's
    for fam in cov.all_families():
        doms = fam.domains()
        for i, dom in enumerate(doms):
            for refinement in cov.families(dom):
                composite = doms[:i] + refinement.domains() + doms[i + 1:]
                yield None if cov.covers(fam.target, composite) else (
                    f"refining leg {i} of {fam!r} by {refinement!r}"
                )


def _tensor_stability(cov: Coverage):
    site = cov.site
    for fam in cov.all_families():
        doms = fam.domains()
        for v in site.objects():
            right = cov.covers(
                site.tensor_obj(fam.target, v),
                [site.tensor_obj(d, v) for d in doms],
            )
            left = cov.covers(
                site.tensor_obj(v, fam.target),
                [site.tensor_obj(v, d) for d in doms],
            )
            for side, tensored in (("right", right), ("left", left)):
                yield None if tensored else (
                    f"{fam!r} tensored with {canon(v)} on the {side}"
                )


def _ppb_stability(cov: Coverage):
    # On a thin site the tensor is monotone, so each leg's piece factors
    # through the base's equalizer: the family to test is the pieces'
    # apexes into the base's.
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        id_u = site.identity(u)
        for v in site.objects():
            for g in site.hom(v, u):
                # the left side is the right side with every pair swapped
                for side, turn in (("right", 1), ("left", -1)):
                    base = pseudo_pullback(site, *(id_u, g)[::turn])
                    doms = [
                        pseudo_pullback(site, *(f, g)[::turn]).obj
                        for f in fam.legs
                    ]
                    yield None if cov.covers(base.obj, doms) else (
                        f"{fam!r} along {canon(v)} -> {canon(u)} ({side})"
                    )


def _projection_factorizations(cov: Coverage):
    site = cov.site
    for fam in cov.all_families():
        if not fam.legs:
            continue
        pairs = list(itertools.product(enumerate(fam.legs), repeat=2))
        for v in site.objects():
            # every pair is decided, also after a bad one, so that an
            # error from a later pair still propagates
            bad = [
                (i, j) for (i, fi), (j, fj) in pairs
                if not site.l_r_factor(fi, fj, v)
            ]
            yield None if not bad else (
                f"{fam!r} with {canon(v)}: no l/r for leg pair {bad[0]}"
            )


def _pullback_stability(cov: Coverage):
    site = cov.site
    for fam in cov.all_families():
        u = fam.target
        for v in site.objects():
            for g in site.hom(v, u):
                doms = [pseudo_pullback(site, f, g).obj for f in fam.legs]
                yield None if cov.covers(v, doms) else (
                    f"pullbacks of {fam!r} along {canon(v)} -> {canon(u)}"
                )


_WEAK = (
    ("iso-singletons", _iso_singletons),
    ("composition", _composition),
    ("tensor-stability", _tensor_stability),
)
_PRELOPOLOGY = _WEAK + (("ppb-stability", _ppb_stability),)
_AXIOMS = {
    "weak_prelopology": _WEAK,
    "prelopology": _PRELOPOLOGY,
    "strong_prelopology": _PRELOPOLOGY + (
        ("projection-factorizations", _projection_factorizations),
    ),
    "pretopology": _WEAK[:2] + (("pullback-stability", _pullback_stability),),
}


def check_flavor(cov: Coverage, flavor=None) -> CheckReport:
    """Check every axiom of `flavor`, by default the coverage's own."""
    flavor = flavor or cov.flavor
    if flavor not in _AXIOMS:
        raise InvalidSpec(f"unknown coverage flavor {flavor!r}")
    if flavor == "pretopology" and not cov.site.is_cartesian:
        raise NotCartesianSite(
            "pretopology checks need tensor = categorical product"
        )
    return CheckReport(
        f"coverage flavor check: {flavor}",
        [drain(name, axiom(cov)) for name, axiom in _AXIOMS[flavor]],
    )
