"""Reflection into sheaves by bounded forcing, and what it preserves.

Sheafification repeatedly scans every assigned cover: compatible
families without a gluing get a fresh glue point attached (a pushout
against the cover's sieve inclusion), and sections that agree on every
leg get merged (a coequalizer). Each sweep applies all forcing steps
simultaneously and canonically relabels; a sweep with nothing to do is
the fixpoint. The construction is certified, never trusted: the result
must pass both sheaf checks and the unit must induce hom-set bijections
against an exhaustively enumerated battery of small sheaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import finset
from .checks import CheckEntry, CheckReport, drain
from .coverage import Coverage
from .errors import (
    InternalDefect,
    InvalidSpec,
    MulNotAssociative,
    NotConverged,
    QsheafError,
    SiteMismatch,
    UnverifiedInput,
)
from .finset import FinMap, FinSetObj, UnionFind, label_key
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    day_convolve,
    day_projection1,
    day_projection2,
    backtrack,
    hom_presheaves,
    identity_morphism,
    iso_presheaves,
    site_order,
    terminal_presheaf,
)
from .quantale import _closure, _least_upper_bound, parse_raw
from .sheaf import (
    _glue_buckets,
    check_sheaf,
    check_sheaf_equalizer,
    compatible_families,
)


@dataclass
class ReflectionResult:
    sheaf: Presheaf
    unit: PresheafMorphism
    iterations: int
    converged: bool
    history: list = field(default_factory=list)


def _forcing_ops(f: Presheaf, coverage: Coverage):
    """Missing gluings and ambiguous gluings, scanned over all covers."""
    exist, unify = [], []
    for cover in coverage.all_families():
        buckets = _glue_buckets(f, cover)
        for sig in sorted(buckets):
            zs = buckets[sig]
            for z in zs[1:]:
                unify.append((cover.target, zs[0], z))
        for fam in compatible_families(f, cover):
            if fam not in buckets:
                exist.append((cover.target, cover.legs, fam))
    return exist, unify


def _fresh_labels(count, used):
    out, n = [], 0
    while len(out) < count:
        cand = f"+{n}"
        while cand in used:
            cand += "'"
        out.append(cand)
        used.add(cand)
        n += 1
    return out


def _forcing_step(f: Presheaf, exist, unify):
    """Apply all forcing operations at once; returns (next, step unit)."""
    site = f.site
    tags_at, dsu_at, label_at = {}, {}, {}
    for u in site.objects():
        tags = [("o", x) for x in f.value(u)]
        for k, (target, _, _) in enumerate(exist):
            if site.leq(u, target):
                tags.append(("g", k))
        index = {t: i for i, t in enumerate(tags)}
        dsu = UnionFind(range(len(tags)))
        for k, (target, legs, fam) in enumerate(exist):
            if not site.leq(u, target):
                continue
            for leg, x in zip(legs, fam):
                if site.leq(u, leg.dom):
                    dsu.union(
                        index[("g", k)],
                        index[("o", f.restrict(u, leg.dom)(x))],
                    )
        for target, z1, z2 in unify:
            if site.leq(u, target):
                dsu.union(
                    index[("o", f.restrict(u, target)(z1))],
                    index[("o", f.restrict(u, target)(z2))],
                )
        roots = {}
        for i, t in enumerate(tags):
            roots.setdefault(dsu.find(i), []).append(t)
        labels, fresh_roots, used = {}, [], set()
        for root in sorted(roots):
            olds = [x for kind, x in roots[root] if kind == "o"]
            if olds:
                labels[root] = min(olds, key=label_key)
                used.add(labels[root])
            else:
                fresh_roots.append(root)
        for root, lab in zip(fresh_roots, _fresh_labels(len(fresh_roots), used)):
            labels[root] = lab
        tags_at[u], dsu_at[u], label_at[u] = (tags, index), dsu, labels

    def label_of(u, tag):
        tags, index = tags_at[u]
        return label_at[u][dsu_at[u].find(index[tag])]

    at = {u: set(labels.values()) for u, labels in label_at.items()}
    res = {}
    for v, u in site.pairs():
        table = res[(v, u)] = {}
        for tag in tags_at[u][0]:
            if tag[0] == "o":
                down = ("o", f.restrict(v, u)(tag[1]))
            else:
                down = tag
            src, dst = label_of(u, tag), label_of(v, down)
            if table.get(src, dst) != dst:
                raise InternalDefect(
                    "internal defect: forcing step restriction is "
                    f"ill-defined at {site.name(v)} <= {site.name(u)}"
                )
            table[src] = dst
    nxt = Presheaf(site, at, res)
    comps = {
        u: {x: label_of(u, ("o", x)) for x in f.value(u)} for u in site.objects()
    }
    return nxt, PresheafMorphism(f, nxt, comps)


def sheafify(f: Presheaf, coverage: Coverage, max_iter: int = 16) -> ReflectionResult:
    """Bounded orthogonal forcing; never raises on hitting the bound."""
    if f.site != coverage.site:
        raise SiteMismatch("presheaf and coverage live on different sites")
    current, unit = f, identity_morphism(f)
    history = []
    for step in range(max_iter + 1):
        exist, unify = _forcing_ops(current, coverage)
        if not exist and not unify:
            return ReflectionResult(current, unit, step, True, history)
        if step == max_iter:
            break
        history.append((len(exist), len(unify)))
        current, step_unit = _forcing_step(current, exist, unify)
        unit = unit.then(step_unit)
    return ReflectionResult(current, unit, max_iter, False, history)


# ---------------------------------------------------------------------------
# the battery: every small sheaf, enumerated bottom-up


def enumerate_sheaves(site, coverage: Coverage, max_size: int = 2) -> list:
    """All sheaf tables with value sets of at most the given size."""
    if site != coverage.site:
        raise SiteMismatch("coverage lives on a different site")
    labels = [f"v{i}" for i in range(max_size)]
    order, children, _ = site_order(site)
    at, res = {}, {}

    def sheaf_ok_at(u):
        for cover in coverage.families(u):
            maps = [res[(leg.dom, u)] for leg in cover.legs]
            buckets = {}
            for z in at[u]:
                buckets.setdefault(tuple(m(z) for m in maps), []).append(z)
            if any(len(zs) > 1 for zs in buckets.values()):
                return False
            legs = cover.legs

            def agree(i, k, xi, xk):
                t = site.overlap(legs[i], legs[k])
                return res[(t, legs[i].dom)](xi) == res[(t, legs[k].dom)](xk)

            def sections(k, chosen):
                return [
                    x
                    for x in at[legs[k].dom]
                    if all(agree(i, k, xi, x) for i, xi in enumerate(chosen))
                ]

            families = backtrack(len(legs), sections)
            if any(fam not in buckets for fam in families):
                return False
        return True

    def tables(k, chosen):
        """Value sets and restrictions at order[k] that keep a sheaf so far.

        Each value is yielded with its tables entered in ``at`` and
        ``res``, and removed again before the next one.
        """
        u = order[k]
        strict_below = [w for w in order[:k] if site.leq(w, u)]
        kids = children[u]
        for size in range(max_size + 1):
            at[u] = FinSetObj(labels[:size])
            res[(u, u)] = finset.identity(at[u])
            options = [
                [
                    FinMap(at[u], at[v], dict(zip(at[u], targets)))
                    for targets in itertools.product(at[v], repeat=size)
                ]
                for v in kids
            ]
            for combo in itertools.product(*options):
                for v, m in zip(kids, combo):
                    res[(v, u)] = m
                consistent = True
                for w in strict_below:
                    if (w, u) in res:
                        continue
                    derived = {
                        finset.compose(res[(w, v)], m)
                        for v, m in zip(kids, combo)
                        if site.leq(w, v)
                    }
                    if len(derived) > 1:
                        consistent = False
                        break
                    res[(w, u)] = derived.pop()
                if consistent and sheaf_ok_at(u):
                    yield combo
                for w in strict_below:
                    res.pop((w, u), None)
            del at[u], res[(u, u)]

    results = [
        Presheaf(site, dict(at), dict(res))
        for _ in backtrack(len(order), tables)
    ]
    for p in results:
        if not check_sheaf_equalizer(p, coverage).ok:
            raise InternalDefect("internal defect: battery admitted a non-sheaf")
    return results


def certify_reflection(
    f: Presheaf,
    result: ReflectionResult,
    coverage: Coverage,
    battery: list | None = None,
) -> CheckReport:
    """Check the universal property, not just the sheaf condition."""
    report = CheckReport()
    report.entries.append(CheckEntry("converged", result.converged))
    equalizer, orthogonal = check_sheaf(result.sheaf, coverage)
    report.entries.append(CheckEntry("result-sheaf-equalizer", equalizer.ok))
    report.entries.append(CheckEntry("result-sheaf-orthogonal", orthogonal.ok))
    report.entries.append(CheckEntry("unit-natural", result.unit.is_natural()))
    if battery is None:
        battery = enumerate_sheaves(f.site, coverage, max_size=2)
    bad = None
    for idx, g in enumerate(battery):
        into = hom_presheaves(result.sheaf, g)
        through = [result.unit.then(m) for m in into]
        direct = hom_presheaves(f, g)
        if len(set(through)) != len(through):
            bad = f"battery[{idx}]: unit precomposition not injective"
            break
        if set(through) != set(direct):
            bad = f"battery[{idx}]: unit precomposition not onto"
            break
    report.entries.append(
        CheckEntry(
            f"battery-bijections ({len(battery)} sheaves)", bad is None, witness=bad
        )
    )
    return report


# ---------------------------------------------------------------------------
# monoidal structure carried through the reflection


def sheaf_tensor(f: Presheaf, g: Presheaf, coverage: Coverage,
                 max_iter: int = 16) -> Presheaf:
    """Reflect the convolution back into sheaves."""
    result = sheafify(day_convolve(f, g), coverage, max_iter)
    if not result.converged:
        raise NotConverged("tensor reflection hit the iteration bound")
    return result.sheaf


def preserves_terminal(coverage: Coverage, max_iter: int = 16) -> CheckEntry:
    """Does reflecting the terminal presheaf leave it terminal?

    On failure the witness is the reflected section counts, or
    "not converged" when forcing hit `max_iter`.
    """
    site = coverage.site
    result = sheafify(terminal_presheaf(site), coverage, max_iter)
    if not result.converged:
        return CheckEntry("terminal-preserved", False, witness="not converged")
    sizes = {site.name(u): len(result.sheaf.value(u)) for u in site.objects()}
    if all(n == 1 for n in sizes.values()):
        return CheckEntry("terminal-preserved", True)
    return CheckEntry("terminal-preserved", False, witness=f"sizes {sizes}")


# ---------------------------------------------------------------------------
# subobjects


@dataclass
class SubobjectLattice:
    ambient: Presheaf
    coverage: Coverage
    members: list
    inclusions: list

    def index_of(self, sub: Presheaf) -> int:
        for i, m in enumerate(self.members):
            if m == sub:
                return i
        raise QsheafError("presheaf is not a member of this lattice")

    def leq(self, i: int, j: int) -> bool:
        a, b = self.members[i], self.members[j]
        return all(
            set(a.value(u).elements) <= set(b.value(u).elements)
            for u in self.ambient.objects()
        )

    def meet(self, i: int, j: int) -> int:
        a, b = self.members[i], self.members[j]
        want = {
            u: set(a.value(u).elements) & set(b.value(u).elements)
            for u in self.ambient.objects()
        }
        for k, m in enumerate(self.members):
            if all(set(m.value(u).elements) == want[u] for u in want):
                return k
        raise InternalDefect(
            "internal defect: subsheaves are not closed under intersection"
        )

    def join(self, i: int, j: int) -> int:
        uppers = [
            k
            for k in range(len(self.members))
            if self.leq(i, k) and self.leq(j, k)
        ]
        least = [
            k for k in uppers if all(self.leq(k, other) for other in uppers)
        ]
        if len(least) != 1:
            raise InternalDefect(
                "internal defect: join of subsheaves is not unique"
            )
        return least[0]


# the most candidate subpresheaves (the product of 2^|f(u)|) enumerated
SUBOBJECT_CAP = 1 << 16


def _subpresheaves(f: Presheaf):
    site = f.site
    order, _, ups = site_order(site)
    order = order[::-1]
    slot = {u: k for k, u in enumerate(order)}
    total = 1
    for u in site.objects():
        total *= 2 ** len(f.value(u))
        if total > SUBOBJECT_CAP:
            raise UnverifiedInput(
                "subobject enumeration would be too large; refusing to guess"
            )

    def subsets(k, chosen):
        """Subsets of f at order[k] holding the restrictions from above."""
        u = order[k]
        forced = set()
        for up in ups[u]:
            m = f.restrict(u, up)
            forced.update(m(x) for x in chosen[slot[up]])
        free = sorted(set(f.value(u).elements) - forced, key=label_key)
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                yield forced | set(extra)

    out = []
    for choice in backtrack(len(order), subsets):
        at = dict(zip(order, choice))
        res = {}
        for v, u in site.pairs():
            m = f.restrict(v, u)
            res[(v, u)] = {x: m(x) for x in at[u]}
        out.append(Presheaf(site, at, res))
    return out


def subsheaf_lattice(f: Presheaf, coverage: Coverage) -> SubobjectLattice:
    """All subpresheaves that pass the sheaf check, ordered pointwise."""
    if not check_sheaf_equalizer(f, coverage).ok:
        raise UnverifiedInput("subobject lattices are built over sheaves")
    members = [
        p
        for p in _subpresheaves(f)
        if check_sheaf_equalizer(p, coverage).ok
    ]
    members.sort(key=lambda p: (p.total_size(), repr(p.to_raw())))
    inclusions = []
    for p in members:
        comps = {u: {x: x for x in p.value(u)} for u in f.objects()}
        inclusions.append(PresheafMorphism(p, f, comps, check=False))
    return SubobjectLattice(f, coverage, members, inclusions)


@dataclass
class ExtremalFactorization:
    epi: PresheafMorphism
    mono: PresheafMorphism
    epi_certified: bool
    battery_size: int


def extremal_factorize(
    m: PresheafMorphism,
    coverage: Coverage,
    lattice: SubobjectLattice | None = None,
    battery: list | None = None,
) -> ExtremalFactorization:
    """Corestrict onto the least subsheaf containing the image."""
    f = m.dst
    if lattice is None:
        lattice = subsheaf_lattice(f, coverage)
    image = {
        u: {m.component(u)(x) for x in m.src.value(u)} for u in f.objects()
    }
    candidates = [
        i
        for i, s in enumerate(lattice.members)
        if all(image[u] <= set(s.value(u).elements) for u in image)
    ]
    if not candidates:
        raise InternalDefect(
            "internal defect: ambient sheaf does not contain the image"
        )
    least = candidates[0]
    for i in candidates[1:]:
        least = lattice.meet(least, i)
    target = lattice.members[least]
    comps = {u: c.assignment for u, c in m.components.items()}
    epi = PresheafMorphism(m.src, target, comps)
    mono = lattice.inclusions[least]
    if battery is None:
        battery = enumerate_sheaves(f.site, coverage, max_size=2)
    certified = True
    for g in battery:
        seen = {}
        for alpha in hom_presheaves(target, g):
            key = epi.then(alpha)
            if seen.setdefault(key, alpha) != alpha:
                certified = False
                break
        if not certified:
            break
    return ExtremalFactorization(epi, mono, certified, len(battery))


def _extend_along_unit(result: ReflectionResult, psi: PresheafMorphism):
    """The unique map out of the reflection agreeing with psi on the unit."""
    matches = [
        m
        for m in hom_presheaves(result.sheaf, psi.dst)
        if result.unit.then(m) == psi
    ]
    if len(matches) != 1:
        raise InternalDefect(
            f"internal defect: expected one extension, found {len(matches)}"
        )
    return matches[0]


def star(
    left: PresheafMorphism,
    right: PresheafMorphism,
    coverage: Coverage,
    lattice: SubobjectLattice | None = None,
    battery: list | None = None,
    max_iter: int = 16,
) -> ExtremalFactorization:
    """The subobject reached by tensoring two subobjects inside a sheaf.

    Convolve the two sources, reflect, equalize the two induced maps back
    into the ambient sheaf, then take the extremal image.
    """
    if left.dst != right.dst:
        raise SiteMismatch("star needs two subobjects of one sheaf")
    if not left.is_mono() or not right.is_mono():
        raise UnverifiedInput("star needs mono inclusions")
    f = left.dst
    conv = day_convolve(left.src, right.src)
    p1 = day_projection1(left.src, right.src, conv)
    p2 = day_projection2(left.src, right.src, conv)
    result = sheafify(conv, coverage, max_iter)
    if not result.converged:
        raise NotConverged("star reflection hit the iteration bound")
    phi1 = _extend_along_unit(result, p1.then(left))
    phi2 = _extend_along_unit(result, p2.then(right))
    site = f.site
    r = result.sheaf
    at = {
        u: [e for e in r.value(u) if phi1.component(u)(e) == phi2.component(u)(e)]
        for u in site.objects()
    }
    res = {}
    for v, u in site.pairs():
        m = r.restrict(v, u)
        if any(m(e) not in at[v] for e in at[u]):
            raise InternalDefect(
                "internal defect: equalizer is not restriction-closed"
            )
        res[(v, u)] = {e: m(e) for e in at[u]}
    eq = Presheaf(site, at, res)
    comps = {u: {e: phi1.component(u)(e) for e in es} for u, es in at.items()}
    into_f = PresheafMorphism(eq, f, comps)
    return extremal_factorize(into_f, coverage, lattice, battery)


# ---------------------------------------------------------------------------
# the down-set criterion


# the most elements whose down-sets (up to 2^16 subsets) are enumerated
LOPOS_CAP = 16


def lopos_check(raw: dict) -> tuple:
    """Does the down-set algebra of a multiplicative poset stay lattice-like?

    Joins must commute with the product induced on down-sets. For a
    complete poset with an associative multiplication this holds exactly
    when the original data is a quantale, and a failure pins a concrete
    witness pair of down-sets. Returns the number of down-sets and the
    drained `down-set-joins` entry, one instance per pair of down-sets.
    """
    norm = parse_raw(raw)
    elements, mul = norm["elements"], norm["mul"]
    if len(elements) > LOPOS_CAP:
        raise UnverifiedInput("down-set enumeration would be too large")
    leq = _closure(elements, norm["pairs"])
    for a, b in itertools.combinations(elements, 2):
        if (a, b) in leq and (b, a) in leq:
            raise InvalidSpec(f"order is not antisymmetric at {a!r}, {b!r}")
    for a, b, c in itertools.product(elements, repeat=3):
        if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
            raise MulNotAssociative(
                f"({a}.{b}).{c} != {a}.({b}.{c}); the criterion needs "
                "an associative product"
            )

    def sup(items):
        least = _least_upper_bound(elements, leq, items)
        if least is None:
            raise InvalidSpec(
                f"poset lacks a least upper bound for {sorted(items)}"
            )
        return least

    down_sets = []
    for mask in itertools.product([False, True], repeat=len(elements)):
        chosen = frozenset(
            e for e, keep in zip(elements, mask) if keep
        )
        if all(
            d in chosen
            for e in chosen
            for d in elements
            if (d, e) in leq
        ):
            down_sets.append(chosen)
    down_sets.sort(key=lambda s: (len(s), tuple(sorted(s))))

    def down_close(items):
        return frozenset(
            d for d in elements if any((d, e) in leq for e in items)
        )

    def pairs():
        for d_set, e_set in itertools.product(down_sets, repeat=2):
            lhs = sup(down_close({mul[(d, e)] for d in d_set for e in e_set}))
            rhs = mul[(sup(d_set), sup(e_set))]
            yield None if lhs == rhs else (
                f"FAIL: down-sets D={sorted(d_set)} E={sorted(e_set)}: "
                f"sup(D.E)={lhs} but sup(D).sup(E)={rhs}"
            )

    return len(down_sets), drain("down-set-joins", pairs())


def pointwise_pullback(phi1: PresheafMorphism, phi2: PresheafMorphism):
    """Pullback of two presheaf morphisms with a common codomain.

    Computed objectwise: sections are the pairs whose images agree in
    the shared codomain, restrictions act componentwise. Returns the
    pullback presheaf together with its two projection morphisms.
    """
    if phi1.dst != phi2.dst:
        raise SiteMismatch("pullback needs morphisms into a common codomain")
    left, right = phi1.src, phi2.src
    site = left.site
    sections = {
        u: [
            (x, y)
            for x in left.value(u)
            for y in right.value(u)
            if phi1.component(u)(x) == phi2.component(u)(y)
        ]
        for u in site.objects()
    }
    at = {
        u: [finset.pair_label(x, y) for x, y in xys] for u, xys in sections.items()
    }
    res = {}
    for v, u in site.pairs():
        lr, rr = left.restrict(v, u), right.restrict(v, u)
        res[(v, u)] = {
            finset.pair_label(x, y): finset.pair_label(lr(x), rr(y))
            for x, y in sections[u]
        }
    apex = Presheaf(site, at, res)
    proj1, proj2 = (
        PresheafMorphism(apex, factor, {
            u: {finset.pair_label(*xy): xy[side] for xy in xys}
            for u, xys in sections.items()
        })
        for side, factor in enumerate((left, right))
    )
    return apex, proj1, proj2


def probe_pullback_preservation(
    phi1: PresheafMorphism,
    phi2: PresheafMorphism,
    coverage: Coverage,
    max_iter: int = 16,
) -> dict:
    """Record whether reflection commutes with one pullback instance.

    Compares the reflection of the presheaf-level pullback of
    ``phi1, phi2`` against the pullback of their reflected extensions.
    This is an observation, not a law: the outcome is returned as data
    (``preserved`` is None when a reflection fails to converge) and
    nothing is asserted.
    """
    apex, _, _ = pointwise_pullback(phi1, phi2)
    site = apex.site
    r_left = sheafify(phi1.src, coverage, max_iter)
    r_right = sheafify(phi2.src, coverage, max_iter)
    r_mid = sheafify(phi1.dst, coverage, max_iter)
    r_apex = sheafify(apex, coverage, max_iter)
    record = {
        "converged": all(
            r.converged for r in (r_left, r_right, r_mid, r_apex)
        ),
        "apex_sizes": {site.name(u): len(apex.value(u)) for u in site.objects()},
    }
    if not record["converged"]:
        record["preserved"] = None
        return record
    ext1 = _extend_along_unit(r_left, phi1.then(r_mid.unit))
    ext2 = _extend_along_unit(r_right, phi2.then(r_mid.unit))
    sheaf_apex, _, _ = pointwise_pullback(ext1, ext2)
    iso = iso_presheaves(r_apex.sheaf, sheaf_apex)
    record["reflected_apex_sizes"] = {
        site.name(u): len(r_apex.sheaf.value(u)) for u in site.objects()
    }
    record["sheaf_pullback_sizes"] = {
        site.name(u): len(sheaf_apex.value(u)) for u in site.objects()
    }
    record["preserved"] = iso is not None
    return record
