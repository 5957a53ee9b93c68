"""Set-valued presheaves on thin sites.

A presheaf assigns a finite set to every object and a restriction map to
every comparable pair, contravariantly. Everything downstream (sheaf
checks, sieves, Day convolution, sheafification) works with the literal
tables built here. The tables are keyed by the site's objects: ``u`` for
value sets and morphism components, ``(v, u)`` for restrictions. An
object's canonical name (``"(0,h)"`` for the pair ``("0", "h")`` of a
product site) appears only where text enters or leaves: in
`parse_presheaf`, `Presheaf.to_raw`, reprs and messages. Natural
transformations are enumerated by fiber filtering along the Hasse
diagram, which is complete because naturality on covering edges composes
to naturality on all comparable pairs. A cover's sieve is built as a
presheaf by `sieve_of`, or read as plain tables by `sieve_key`, which
tells covers with isomorphic sieves alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType

from . import finset
from .checks import CheckEntry, CheckReport
from .coverage import CoverFamily
from .errors import (
    InvalidSpec,
    MissingRestriction,
    NotSemicartesian,
    SiteMismatch,
)
from .finset import FinMap, FinSetObj, UnionFind, label_key
from .moncat import ThinCategory, is_semicartesian, require_thin


class Presheaf:
    """Object-indexed finite sets with contravariant restriction maps."""

    def __init__(self, site: ThinCategory, at: dict, res: dict):
        require_thin(site)
        self.site = site
        self._at = {}
        for u in site.objects():
            if u not in at:
                raise InvalidSpec(f"no value set for object {site.name(u)}")
            value = at[u]
            if not isinstance(value, FinSetObj):
                value = FinSetObj(value)
            self._at[u] = value
        self._res = {(u, u): finset.identity(a) for u, a in self._at.items()}
        for v, u in site.pairs():
            if (v, u) not in res:
                raise MissingRestriction(
                    f"no restriction for {site.name(v)} <= {site.name(u)}"
                )
            m = res[(v, u)]
            if not isinstance(m, FinMap):
                m = FinMap(self._at[u], self._at[v], m)
            if m.dom != self._at[u] or m.cod != self._at[v]:
                raise MissingRestriction(
                    f"restriction for {site.name(v)} <= {site.name(u)} "
                    "has wrong endpoints"
                )
            self._res[(v, u)] = m

    def value(self, u) -> FinSetObj:
        return self._at[u]

    def restrict(self, v, u) -> FinMap:
        """The map F(u) -> F(v) for v <= u."""
        try:
            return self._res[(v, u)]
        except KeyError:
            raise MissingRestriction(
                f"no restriction for {self.site.name(v)} <= {self.site.name(u)}"
            ) from None

    def objects(self):
        return self.site.objects()

    def total_size(self) -> int:
        return sum(len(v) for v in self._at.values())

    def to_raw(self) -> dict:
        """The file form: tables keyed by names, in name order."""
        name = self.site.name
        at = {name(u): list(v.elements) for u, v in self._at.items()}
        res = {}
        pairs = sorted(self.site.pairs(), key=lambda vu: tuple(map(name, vu)))
        for v, u in pairs:
            m = self._res[(v, u)]
            res[f"{name(v)}<={name(u)}"] = {x: m(x) for x in m.dom}
        return {"at": at, "res": res}

    def __eq__(self, other):
        return (
            isinstance(other, Presheaf)
            and self.site == other.site
            and self._at == other._at
            and self._res == other._res
        )

    def __hash__(self):
        return hash(tuple(self._at.items()))

    def __repr__(self):
        sizes = ",".join(
            f"{self.site.name(u)}:{len(v)}" for u, v in self._at.items()
        )
        return f"Presheaf({sizes})"


def parse_presheaf(site: ThinCategory, raw: dict) -> Presheaf:
    require_thin(site)
    if not isinstance(raw, dict) or not isinstance(raw.get("at"), dict):
        raise InvalidSpec("presheaf spec needs an 'at' table")
    if not isinstance(raw.get("res", {}), dict):
        raise InvalidSpec("the 'res' table of a presheaf spec must be an object")
    objs = {site.name(u): u for u in site.objects()}
    at = {}
    for cu, labels in raw["at"].items():
        if cu not in objs:
            raise InvalidSpec(f"unknown object {cu!r} in presheaf spec")
        # FinSetObj itself rejects labels other than strings and integers
        if not isinstance(labels, list) or any(isinstance(x, int) for x in labels):
            raise InvalidSpec(f"value set of {cu} must be a list of string labels")
        at[objs[cu]] = FinSetObj(labels)
    missing = objs.keys() - raw["at"].keys()
    if missing:
        raise InvalidSpec(f"presheaf spec misses objects {sorted(missing)}")
    res = {}
    for key, table in raw.get("res", {}).items():
        if "<=" not in key:
            raise InvalidSpec(f"restriction key {key!r} is not 'v<=u'")
        cv, cu = key.split("<=", 1)
        if cv not in objs or cu not in objs:
            raise InvalidSpec(f"restriction key {key!r} names unknown objects")
        v, u = objs[cv], objs[cu]
        if not site.leq(v, u):
            raise InvalidSpec(f"restriction key {key!r}: no arrow {cv} -> {cu}")
        if not isinstance(table, dict):
            raise InvalidSpec(f"restriction {key!r} must be an object")
        res[(v, u)] = FinMap(at[u], at[v], table)
        if v == u and res[(v, u)] != finset.identity(at[u]):
            raise InvalidSpec(f"restriction {key!r} must be the identity")
    return Presheaf(site, at, res)


def validate_presheaf(site: ThinCategory, raw_or_presheaf) -> CheckReport:
    """Functoriality audit: all composition triangles.

    Identities need no audit: `Presheaf` stores the identity at every
    ``(u, u)``, and `parse_presheaf` rejects a ``"u<=u"`` table that is
    not one.
    """
    if isinstance(raw_or_presheaf, Presheaf):
        p = raw_or_presheaf
    else:
        try:
            p = parse_presheaf(site, raw_or_presheaf)
        except (InvalidSpec, MissingRestriction) as exc:
            return CheckReport(
                entries=[CheckEntry("structure", False, witness=str(exc))]
            )
    objs = site.objects()
    bad = next(
        (
            f"{site.name(w)} <= {site.name(v)} <= {site.name(u)}"
            for u in objs
            for v in objs
            if site.leq(v, u)
            for w in objs
            if site.leq(w, v)
            and finset.compose(p.restrict(w, v), p.restrict(v, u)) != p.restrict(w, u)
        ),
        None,
    )
    return CheckReport(entries=[CheckEntry("composition", bad is None, witness=bad)])


# ---------------------------------------------------------------------------
# standard presheaves


def yoneda(site: ThinCategory, u) -> Presheaf:
    """The site's one y(u): singleton below u, empty elsewhere, forced restrictions."""
    require_thin(site)
    y = site._yoneda.get(u)
    if y is None:
        at = {w: ["*"] if site.leq(w, u) else [] for w in site.objects()}
        res = {(a, b): {"*": "*"} if site.leq(b, u) else {} for a, b in site.pairs()}
        y = site._yoneda[u] = Presheaf(site, at, res)
    return y


def terminal_presheaf(site: ThinCategory) -> Presheaf:
    require_thin(site)
    at = {u: ["*"] for u in site.objects()}
    res = {vu: {"*": "*"} for vu in site.pairs()}
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
            if u not in components:
                raise InvalidSpec(f"missing component at {src.site.name(u)}")
            m = components[u]
            if not isinstance(m, FinMap):
                m = FinMap(src.value(u), dst.value(u), m)
            if m.dom != src.value(u) or m.cod != dst.value(u):
                raise InvalidSpec(
                    f"component at {src.site.name(u)} has wrong endpoints"
                )
            comps[u] = m
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "components", comps)
        # in site.objects() (name) order: hom_presheaves sorts by this key
        object.__setattr__(
            self,
            "_key",
            tuple(tuple(sorted(m.assignment.items())) for m in comps.values()),
        )
        if check and not self.is_natural():
            raise InvalidSpec("components are not natural")

    def __setattr__(self, name, value):
        raise AttributeError("PresheafMorphism is immutable")

    def component(self, u) -> FinMap:
        return self.components[u]

    def is_natural(self) -> bool:
        """Do the squares of the strict pairs commute? Identity squares do.

        Compared pointwise, as `__init__` has checked the components' endpoints.
        """
        comps = self.components
        src_res, dst_res = self.src._res, self.dst._res
        for v, u in self.src.site.pairs():
            down_src, down_dst = src_res[v, u].assignment, dst_res[v, u].assignment
            at_u, at_v = comps[u].assignment, comps[v].assignment
            if any(down_dst[at_u[x]] != at_v[down_src[x]] for x in at_u):
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
            u: finset.compose(other.components[u], m)
            for u, m in self.components.items()
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
    comps = {u: finset.identity(p.value(u)) for u in p.objects()}
    return PresheafMorphism(p, p, comps, check=False)


def hasse_edges(site: ThinCategory):
    """Covering pairs (v, u) with v < u and nothing strictly between."""
    objs = site.objects()
    edges = []
    for u in objs:
        for v in objs:
            if v == u or not site.leq(v, u):
                continue
            if any(
                site.leq(v, w) and site.leq(w, u) and w not in (v, u)
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
        PresheafMorphism(f, g, dict(zip(order, comps)), check=False)
        for comps in backtrack(len(order), components)
    ]
    results.sort(key=lambda m: m._key)
    return results


def iso_presheaves(f: Presheaf, g: Presheaf):
    """An isomorphism f -> g if one exists, else None."""
    sizes_f = {u: len(v) for u, v in f._at.items()}
    if sizes_f != {u: len(v) for u, v in g._at.items()}:
        return None
    for m in hom_presheaves(f, g):
        if m.is_iso():
            return m
    return None


# ---------------------------------------------------------------------------
# Day convolution


def _day_tag(cv, cw, x, y):
    """The fields of a part joined by "|": a string field with "\\" and "|"
    escaped, an integer one after a "\\", so distinct parts get distinct tags."""
    return "|".join([
        f"\\{p}" if isinstance(p, int) else p.replace("\\", "\\\\").replace("|", "\\|")
        for p in (cv, cw, x, y)
    ])


def day_convolve(f: Presheaf, g: Presheaf) -> Presheaf:
    """Pointwise coend: factorizations u <= v*w, quotiented by restriction."""
    return _day_coend(f, g)[0]


def _day_coend(f: Presheaf, g: Presheaf):
    """``day_convolve(f, g)`` with each object's parts, as `_day_parts` tags them."""
    if f.site != g.site:
        raise SiteMismatch("convolution needs presheaves on one site")
    site = f.site
    objs = site.objects()
    classes, parts = {}, {}
    uf_by_obj = {}
    for u in objs:
        tags = parts[u] = _day_parts(f, g, u)
        uf = UnionFind(tags)
        for lab, (v, w, x, y) in tags.items():
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
        uf_by_obj[u] = uf
        classes[u] = sorted({uf.find(lab) for lab in tags}, key=label_key)
    res = {
        (v, u): {rep: uf_by_obj[v].find(rep) for rep in classes[u]}
        for v, u in site.pairs()
    }
    return Presheaf(site, classes, res), parts


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


def day_projections(f: Presheaf, g: Presheaf):
    """The convolution ``conv`` of f and g with its maps (f*g)(u) -> f(u) and
    -> g(u), restricting each factor down to u along ``u <= v*w <= v, w``.

    Returns ``(conv, to_f, to_g)``. Each object's parts are built once, for
    the convolution and both maps."""
    site = f.site
    if not is_semicartesian(site):
        raise NotSemicartesian("convolution projections need u <= v*w <= v")
    conv, parts = _day_coend(f, g)
    left, right = {}, {}
    for u in site.objects():
        left[u], right[u] = {}, {}
        for rep in conv.value(u):
            v, w, x, y = parts[u][rep]
            left[u][rep] = f.restrict(u, v)(x)
            right[u][rep] = g.restrict(u, w)(y)
    return conv, PresheafMorphism(conv, f, left), PresheafMorphism(conv, g, right)


# ---------------------------------------------------------------------------
# sieves


@dataclass
class Sieve:
    cover: CoverFamily
    presheaf: Presheaf
    canonical: PresheafMorphism


def sieve_key(site: ThinCategory, cover: CoverFamily) -> tuple:
    """The cover's sieve as plain tables, equal for covers whose sieves
    are isomorphic over y(target), built without a `Presheaf`.

    At each object w the sieve's classes are those of `sieve_of`: the
    legs i with ``w <= dom_i``, joined when ``w <= overlap(i, j)``. Here
    they are numbered in the order of their first leg. The key is the
    target, the number of classes at each object (in ``site.objects()``
    order) and, for each pair ``(v, u)`` of ``site.pairs()``, the number
    at v of the class each class at u restricts to. The key is kept on
    the cover for its site with each object's class number of each leg,
    which `sieve_of` names, so a cover's classes are found once per site.
    """
    found = cover._sieve_key
    if found is not None and found[0] is site:
        return found[1]
    doms = cover.domains()
    overlaps = cover.compiled(site).overlaps
    leq = site.leq
    numbers, firsts = {}, {}
    for w in site.objects():
        live = [i for i, d in enumerate(doms) if leq(w, d)]
        number = numbers[w] = [None] * len(doms)  # None where a leg is dead
        first = firsts[w] = []
        for i in live:
            if number[i] is not None:
                continue
            number[i] = len(first)
            first.append(i)
            stack = [i]
            while stack:
                a = stack.pop()
                for b in live:
                    if number[b] is None and (
                        leq(w, overlaps[a][b]) or leq(w, overlaps[b][a])
                    ):
                        number[b] = number[i]
                        stack.append(b)
    key = (
        cover.target,
        tuple(len(first) for first in firsts.values()),
        tuple(
            tuple(numbers[v][i] for i in firsts[u]) for v, u in site.pairs()
        ),
    )
    object.__setattr__(cover, "_sieve_key", (site, key, numbers))
    return key


def sieve_of(site: ThinCategory, cover: CoverFamily) -> Sieve:
    """Pointwise coequalizer of the pseudo-pullback legs of a cover.

    At each object w the two parallel maps send the tag (i,j) of an
    arrow into the pseudo-pullback of legs i and j to the tags i and j;
    their coequalizer classes over the tags ``i:*`` form the sieve's value
    at w. They are the classes `sieve_key` finds, each named here by its
    least tag, as the test oracle `finset_oracles.coequalizer` names them.
    """
    require_thin(site)
    key = sieve_key(site, cover)
    tags = [finset.tag_label(i, "*") for i in range(len(cover.legs))]
    names = {}  # w -> the name of each class at w, by class number
    for w, classes in cover._sieve_key[2].items():
        least = {}
        for tag, c in zip(tags, classes):
            if c is not None:
                least[c] = min(least.get(c, tag), tag)
        names[w] = [least[c] for c in range(len(least))]
    at = {w: FinSetObj(reps) for w, reps in names.items()}
    res = {
        (v, u): {names[u][c]: names[v][down] for c, down in enumerate(row)}
        for (v, u), row in zip(site.pairs(), key[2])
    }
    s = Presheaf(site, at, res)
    comps = {w: {rep: "*" for rep in reps} for w, reps in at.items()}
    canonical = PresheafMorphism(s, yoneda(site, cover.target), comps)
    return Sieve(cover, s, canonical)
