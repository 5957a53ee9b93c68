"""Set-valued presheaves on thin sites.

A presheaf assigns a finite set to every object and a restriction map to
every comparable pair, contravariantly. Everything downstream (sheaf
checks, sieves, Day convolution, sheafification) works with the literal
tables built here. Natural transformations are enumerated by fiber
filtering along the Hasse diagram, which is complete because naturality
on covering edges composes to naturality on all comparable pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from . import finset
from .coverage import CoverFamily
from .errors import (
    InvalidSpec,
    MissingRestriction,
    NotSemicartesian,
    NotThinSite,
    SiteMismatch,
)
from .finset import FinMap, FinSetObj, UnionFind, label_key
from .moncat import ThinCategory, is_semicartesian


def _require_thin(site):
    if not getattr(site, "is_thin", False):
        raise NotThinSite("presheaf machinery needs a thin site")


class Presheaf:
    """Object-indexed finite sets with contravariant restriction maps."""

    def __init__(self, site: ThinCategory, at: dict, res: dict):
        _require_thin(site)
        self.site = site
        self._at = {}
        for u in site.objects():
            cu = site.name(u)
            if cu not in at:
                raise InvalidSpec(f"no value set for object {cu}")
            value = at[cu]
            if not isinstance(value, FinSetObj):
                value = FinSetObj(value)
            self._at[cu] = value
        self._res = {(cu, cu): finset.identity(a) for cu, a in self._at.items()}
        for v, u in site.pairs():
            cv, cu = site.name(v), site.name(u)
            if (cv, cu) not in res:
                raise MissingRestriction(f"no restriction for {cv} <= {cu}")
            m = res[(cv, cu)]
            if not isinstance(m, FinMap):
                m = FinMap(self._at[cu], self._at[cv], m)
            if m.dom != self._at[cu] or m.cod != self._at[cv]:
                raise MissingRestriction(
                    f"restriction for {cv} <= {cu} has wrong endpoints"
                )
            self._res[(cv, cu)] = m

    def value(self, u) -> FinSetObj:
        return self._at[self.site.name(u)]

    def restrict(self, v, u) -> FinMap:
        """The map F(u) -> F(v) for v <= u."""
        key = (self.site.name(v), self.site.name(u))
        if key not in self._res:
            raise MissingRestriction(f"no restriction for {key[0]} <= {key[1]}")
        return self._res[key]

    def objects(self):
        return self.site.objects()

    def total_size(self) -> int:
        return sum(len(v) for v in self._at.values())

    def to_raw(self) -> dict:
        at = {cu: list(v.elements) for cu, v in sorted(self._at.items())}
        res = {}
        for (cv, cu), m in sorted(self._res.items()):
            if cv == cu:
                continue
            res[f"{cv}<={cu}"] = {x: m(x) for x in m.dom}
        return {"at": at, "res": res}

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.site == other.site
            and self._at == other._at
            and self._res == other._res
        )

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self._at.items())))

    def __repr__(self):
        sizes = ",".join(
            f"{cu}:{len(v)}" for cu, v in sorted(self._at.items())
        )
        return f"Presheaf({sizes})"


@dataclass(frozen=True)
class PresheafCheck:
    kind: str
    ok: bool
    witness: str | None = None


@dataclass
class PresheafValidation:
    presheaf: Presheaf | None
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.presheaf is not None and all(e.ok for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "pass" if e.ok else "FAIL"
            tail = f" [{e.witness}]" if e.witness else ""
            lines.append(f"{status} {e.kind}{tail}")
        return "\n".join(lines)


def parse_presheaf(site: ThinCategory, raw: dict) -> Presheaf:
    if not isinstance(raw, dict) or "at" not in raw:
        raise InvalidSpec("presheaf spec needs an 'at' table")
    names = {site.name(u) for u in site.objects()}
    at = {}
    for cu, labels in raw["at"].items():
        if cu not in names:
            raise InvalidSpec(f"unknown object {cu!r} in presheaf spec")
        at[cu] = FinSetObj(labels)
    missing = names - set(at)
    if missing:
        raise InvalidSpec(f"presheaf spec misses objects {sorted(missing)}")
    res = {}
    for key, table in raw.get("res", {}).items():
        if "<=" not in key:
            raise InvalidSpec(f"restriction key {key!r} is not 'v<=u'")
        cv, cu = key.split("<=", 1)
        if cv not in names or cu not in names:
            raise InvalidSpec(f"restriction key {key!r} names unknown objects")
        res[(cv, cu)] = FinMap(at[cu], at[cv], dict(table))
    return Presheaf(site, at, res)


def validate_presheaf(site: ThinCategory, raw_or_presheaf) -> PresheafValidation:
    """Functoriality audit: identities and all composition triangles."""
    if isinstance(raw_or_presheaf, Presheaf):
        p = raw_or_presheaf
    else:
        try:
            p = parse_presheaf(site, raw_or_presheaf)
        except (InvalidSpec, MissingRestriction) as exc:
            out = PresheafValidation(None)
            out.entries.append(PresheafCheck("structure", False, str(exc)))
            return out
    out = PresheafValidation(p)
    objs = site.objects()
    for u in objs:
        if p.restrict(u, u) != finset.identity(p.value(u)):
            out.entries.append(
                PresheafCheck("identity", False, f"res({site.name(u)}) is not id")
            )
    bad = None
    for u in objs:
        for v in objs:
            if not site.leq(v, u):
                continue
            for w in objs:
                if not site.leq(w, v):
                    continue
                lhs = finset.compose(p.restrict(w, v), p.restrict(v, u))
                if lhs != p.restrict(w, u):
                    bad = f"{site.name(w)} <= {site.name(v)} <= {site.name(u)}"
                    break
            if bad:
                break
        if bad:
            break
    out.entries.append(PresheafCheck("composition", bad is None, bad))
    if not out.entries or all(e.kind != "identity" for e in out.entries):
        out.entries.insert(0, PresheafCheck("identity", True))
    return out


# ---------------------------------------------------------------------------
# standard presheaves


def yoneda(site: ThinCategory, u) -> Presheaf:
    """y(u): singleton below u, empty elsewhere, forced restrictions."""
    _require_thin(site)
    at = {site.name(w): ["*"] if site.leq(w, u) else [] for w in site.objects()}
    res = {
        (site.name(a), site.name(b)): {"*": "*"} if site.leq(b, u) else {}
        for a, b in site.pairs()
    }
    return Presheaf(site, at, res)


def terminal_presheaf(site: ThinCategory) -> Presheaf:
    at = {site.name(u): ["*"] for u in site.objects()}
    res = {(site.name(v), site.name(u)): {"*": "*"} for v, u in site.pairs()}
    return Presheaf(site, at, res)


def empty_presheaf(site: ThinCategory) -> Presheaf:
    at = {site.name(u): [] for u in site.objects()}
    res = {(site.name(v), site.name(u)): {} for v, u in site.pairs()}
    return Presheaf(site, at, res)


# ---------------------------------------------------------------------------
# natural transformations


class PresheafMorphism:
    """A natural transformation given by one component map per object."""

    __slots__ = ("src", "dst", "components", "_key")

    def __init__(self, src: Presheaf, dst: Presheaf, components: dict,
                 check=True):
        if src.site != dst.site:
            raise SiteMismatch("morphism endpoints live on different sites")
        comps = {}
        for u in src.objects():
            cu = src.site.name(u)
            if cu not in components:
                raise InvalidSpec(f"missing component at {cu}")
            m = components[cu]
            if not isinstance(m, FinMap):
                m = FinMap(src.value(u), dst.value(u), m)
            if m.dom != src.value(u) or m.cod != dst.value(u):
                raise InvalidSpec(f"component at {cu} has wrong endpoints")
            comps[cu] = m
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "components", comps)
        object.__setattr__(
            self,
            "_key",
            tuple(
                (cu, tuple(sorted((x, m(x)) for x in m.dom)))
                for cu, m in sorted(comps.items())
            ),
        )
        if check and not self.is_natural():
            raise InvalidSpec("components are not natural")

    def __setattr__(self, name, value):
        raise AttributeError("PresheafMorphism is immutable")

    def component(self, u) -> FinMap:
        return self.components[self.src.site.name(u)]

    def is_natural(self) -> bool:
        site = self.src.site
        for u in site.objects():
            for v in site.objects():
                if not site.leq(v, u):
                    continue
                lhs = finset.compose(
                    self.dst.restrict(v, u), self.component(u)
                )
                rhs = finset.compose(
                    self.component(v), self.src.restrict(v, u)
                )
                if lhs != rhs:
                    return False
        return True

    def is_mono(self) -> bool:
        return all(m.is_injective() for m in self.components.values())

    def is_iso(self) -> bool:
        return all(m.is_bijective() for m in self.components.values())

    def then(self, other: "PresheafMorphism") -> "PresheafMorphism":
        """other after self."""
        if self.dst != other.src:
            raise SiteMismatch("composition endpoints do not match")
        comps = {
            cu: finset.compose(other.components[cu], m)
            for cu, m in self.components.items()
        }
        return PresheafMorphism(self.src, other.dst, comps, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, PresheafMorphism)
            and self.src == other.src
            and self.dst == other.dst
            and self._key == other._key
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"PresheafMorphism({self.src!r} -> {self.dst!r})"


def identity_morphism(p: Presheaf) -> PresheafMorphism:
    comps = {p.site.name(u): finset.identity(p.value(u)) for u in p.objects()}
    return PresheafMorphism(p, p, comps, check=False)


def hasse_edges(site: ThinCategory):
    """Covering pairs (v, u) with v < u and nothing strictly between."""
    objs = site.objects()
    edges = []
    for u in objs:
        for v in objs:
            if site.name(v) == site.name(u) or not site.leq(v, u):
                continue
            if any(
                site.leq(v, w) and site.leq(w, u)
                and site.name(w) not in (site.name(v), site.name(u))
                for w in objs
            ):
                continue
            edges.append((v, u))
    return edges


def site_order(site: ThinCategory):
    """Objects bottom-up and their Hasse neighbours, built once per site.

    Returns ``(order, downs, ups)``. ``order`` is a tuple of the objects
    sorted by the size of their down-set, then by name, so everything
    below an object comes before it. ``downs[u]`` and ``ups[u]`` are
    tuples of the objects just below and just above ``u``, in
    `hasse_edges` order. The first call makes the site's one `hasse_edges`
    scan and keeps the read-only result on the site for every later call.
    """
    if site._order is None:
        objs = site.objects()
        below = {u: frozenset(v for v in objs if site.leq(v, u)) for u in objs}
        if len(set(below.values())) < len(below):
            raise InvalidSpec("site order is not antisymmetric")
        downs = {u: [] for u in objs}
        ups = {u: [] for u in objs}
        for v, u in hasse_edges(site):
            downs[u].append(v)
            ups[v].append(u)
        site._order = (
            tuple(sorted(objs, key=lambda u: (len(below[u]), site.name(u)))),
            MappingProxyType({u: tuple(vs) for u, vs in downs.items()}),
            MappingProxyType({u: tuple(vs) for u, vs in ups.items()}),
        )
    return site._order


def backtrack(slots: int, options):
    """Every tuple filling slots ``0..slots-1`` in turn, depth first.

    ``options(k, chosen)`` gives the values slot ``k`` may take, where
    ``chosen`` holds the values of slots ``0..k-1``. It may be a
    generator: it is resumed for its next value only after every tuple
    extending the current one has been yielded, so it can keep state
    between its yields. Tuples come out in the order the values do.
    """
    if not slots:
        yield ()
        return
    end = object()
    chosen = []
    pending = [iter(options(0, chosen))]
    while pending:
        k = len(pending) - 1
        del chosen[k:]
        x = next(pending[-1], end)
        if x is end:
            pending.pop()
            continue
        chosen.append(x)
        if k + 1 == slots:
            yield tuple(chosen)
        else:
            pending.append(iter(options(k + 1, chosen)))


def hom_presheaves(f: Presheaf, g: Presheaf) -> list:
    """All natural transformations f -> g, via downward fiber filtering."""
    if f.site != g.site:
        raise SiteMismatch("hom needs presheaves on one site")
    site = f.site
    order, _, ups = site_order(site)
    order = order[::-1]
    names = [site.name(v) for v in order]
    slot = {v: k for k, v in enumerate(order)}

    def components(k, chosen):
        v = order[k]
        forced = {}
        for u in ups[v]:
            fvu, gvu = f.restrict(v, u), g.restrict(v, u)
            comp_u = chosen[slot[u]]
            for y in f.value(u):
                want = gvu(comp_u(y))
                if forced.setdefault(fvu(y), want) != want:
                    return
        fibers = [
            [forced[x]] if x in forced else g.value(v).elements
            for x in f.value(v)
        ]
        for combo in itertools.product(*fibers):
            yield FinMap(f.value(v), g.value(v), dict(zip(f.value(v), combo)))

    results = [
        PresheafMorphism(f, g, dict(zip(names, comps)), check=False)
        for comps in backtrack(len(order), components)
    ]
    results.sort(key=lambda m: m._key)
    return results


def iso_presheaves(f: Presheaf, g: Presheaf):
    """An isomorphism f -> g if one exists, else None."""
    sizes_f = sorted((cu, len(v)) for cu, v in f._at.items())
    sizes_g = sorted((cu, len(v)) for cu, v in g._at.items())
    if sizes_f != sizes_g:
        return None
    for m in hom_presheaves(f, g):
        if m.is_iso():
            return m
    return None


# ---------------------------------------------------------------------------
# Day convolution


def _day_tag(cv, cw, x, y):
    return f"{cv}|{cw}|{x}|{y}"


def day_convolve(f: Presheaf, g: Presheaf) -> Presheaf:
    """Pointwise coend: factorizations u <= v*w, quotiented by restriction."""
    if f.site != g.site:
        raise SiteMismatch("convolution needs presheaves on one site")
    site = f.site
    _require_thin(site)
    objs = site.objects()

    def tags_at(u):
        out = []
        for v in objs:
            for w in objs:
                if not site.leq(u, site.tensor_obj(v, w)):
                    continue
                for x in f.value(v):
                    for y in g.value(w):
                        out.append((v, w, x, y))
        return out

    classes = {}
    uf_by_obj = {}
    for u in objs:
        tags = tags_at(u)
        labels = [_day_tag(site.name(v), site.name(w), x, y) for v, w, x, y in tags]
        uf = UnionFind(labels)
        for v, w, x, y in tags:
            lab = _day_tag(site.name(v), site.name(w), x, y)
            for v2 in objs:
                if not site.leq(v2, v):
                    continue
                for w2 in objs:
                    if not site.leq(w2, w):
                        continue
                    if not site.leq(u, site.tensor_obj(v2, w2)):
                        continue
                    x2 = f.restrict(v2, v)(x)
                    y2 = g.restrict(w2, w)(y)
                    uf.union(lab, _day_tag(site.name(v2), site.name(w2), x2, y2))
        uf_by_obj[site.name(u)] = uf
        classes[site.name(u)] = sorted(
            {uf.find(lab) for lab in labels}, key=label_key
        )

    res = {}
    for v, u in site.pairs():
        cv, cu = site.name(v), site.name(u)
        res[(cv, cu)] = {rep: uf_by_obj[cv].find(rep) for rep in classes[cu]}
    return Presheaf(site, classes, res)


def _day_parts(f: Presheaf, g: Presheaf, u):
    """Tag label -> (v, w, x, y) for every factorization of u."""
    site = f.site
    out = {}
    for v in site.objects():
        for w in site.objects():
            if not site.leq(u, site.tensor_obj(v, w)):
                continue
            for x in f.value(v):
                for y in g.value(w):
                    out[_day_tag(site.name(v), site.name(w), x, y)] = (v, w, x, y)
    return out


def _day_projection(f: Presheaf, g: Presheaf, conv, side: int):
    """The map (f*g)(u) -> f(u) (side 0) or g(u) (side 1), restricting down to u."""
    site = f.site
    if not is_semicartesian(site):
        raise NotSemicartesian(
            f"convolution projections need u <= v*w <= {'vw'[side]}"
        )
    if conv is None:
        conv = day_convolve(f, g)
    factor = (f, g)[side]
    comps = {}
    for u in site.objects():
        parts = _day_parts(f, g, u)
        comps[site.name(u)] = {
            rep: factor.restrict(u, parts[rep][side])(parts[rep][2 + side])
            for rep in conv.value(u)
        }
    return PresheafMorphism(conv, factor, comps)


def day_projection1(f: Presheaf, g: Presheaf, conv: Presheaf = None):
    """The map (f*g)(u) -> f(u) restricting the left factor down to u."""
    return _day_projection(f, g, conv, 0)


def day_projection2(f: Presheaf, g: Presheaf, conv: Presheaf = None):
    """The map (f*g)(u) -> g(u) restricting the right factor down to u."""
    return _day_projection(f, g, conv, 1)


# ---------------------------------------------------------------------------
# sieves


@dataclass
class Sieve:
    cover: CoverFamily
    presheaf: Presheaf
    canonical: PresheafMorphism


def sieve_of(site: ThinCategory, cover: CoverFamily) -> Sieve:
    """Pointwise coequalizer of the pseudo-pullback legs of a cover.

    At each object w the two parallel maps send the tag (i,j) of an
    arrow into the pseudo-pullback of legs i and j to the tags i and j;
    their coequalizer classes form the sieve's value at w.
    """
    _require_thin(site)
    legs = cover.legs
    target = cover.target
    at, res, uf_by_obj = {}, {}, {}
    for w in site.objects():
        cw = site.name(w)
        pieces = [
            FinSetObj(["*"] if site.leq(w, leg.dom) else []) for leg in legs
        ]
        total, _ = finset.coproduct(pieces)
        pair_tags = []
        for i, j in itertools.product(range(len(legs)), repeat=2):
            if site.leq(w, site.overlap(legs[i], legs[j])):
                pair_tags.append((i, j))
        pairs = FinSetObj([f"{i},{j}" for i, j in pair_tags])
        first = FinMap(
            pairs, total, {f"{i},{j}": finset.tag_label(i, "*") for i, j in pair_tags}
        )
        second = FinMap(
            pairs, total, {f"{i},{j}": finset.tag_label(j, "*") for i, j in pair_tags}
        )
        quotient, q = finset.coequalizer(first, second)
        at[cw] = quotient
        uf_by_obj[cw] = q
    for v, u in site.pairs():
        cv, cu = site.name(v), site.name(u)
        res[(cv, cu)] = {rep: uf_by_obj[cv](rep) for rep in at[cu]}
    s = Presheaf(site, at, res)
    comps = {cw: {rep: "*" for rep in reps} for cw, reps in at.items()}
    canonical = PresheafMorphism(s, yoneda(site, target), comps)
    return Sieve(cover, s, canonical)
