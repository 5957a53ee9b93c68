"""Semicartesian monoidal instances with equalizers.

Three instance families share one interface:

- `ThinCategory`: at most one arrow between objects; backed by a
  quantale, an ordered monoid, or a product of thin instances.
- `FinSetCategory`: finite sets under cartesian product, truncated to a
  generator list of sizes 0..max_size. Structure morphisms are stored
  on the instance and can be overridden, so deliberately broken
  instances can be injected for mutation testing.
- `ProductCategory`: the componentwise pairing of two instances.

On top of the interface: projections out of a tensor and
pseudo-pullbacks (the equalizer of the two projections pushed along a
cospan). A thin site also answers the projection-factorization question of the strong
prelopology axiom (`ThinCategory.l_r_factor`), by one order test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .. import finset
from ..errors import (
    CodomainMismatch,
    DomainMismatch,
    InternalDefect,
    InvalidSpec,
    NotSemicartesian,
    NotThinSite,
    QsheafError,
)
from ..finset import FinMap, FinSetObj
from ..quantale import _closure


def canon(obj) -> str:
    """Canonical display string for an object of any instance."""
    if isinstance(obj, FinSetObj):
        return "{" + ",".join(str(x) for x in obj.elements) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(canon(x) for x in obj) + ")"
    return str(obj)


def _data_key(data):
    if data is None:
        return ""
    if isinstance(data, FinMap):
        return repr(data)
    if isinstance(data, tuple):
        return "(" + "|".join(_data_key(d.data) for d in data) + ")"
    return repr(data)


class Mor:
    """A morphism handle: domain, codomain, instance-specific payload.

    The hash is computed at first use and kept, so a `Mor` that keys an
    instance's tables hashes its payload once.
    """

    __slots__ = ("dom", "cod", "data", "_hash")

    def __init__(self, dom, cod, data=None):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mor is immutable")

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Mor)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.data == other.data
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.dom, self.cod, self.data))
            object.__setattr__(self, "_hash", h)
        return h

    def key(self):
        return (canon(self.dom), canon(self.cod), _data_key(self.data))

    def __repr__(self):
        return f"Mor({canon(self.dom)} -> {canon(self.cod)})"


class MonoidalCategory:
    """Interface shared by the three instance families."""

    is_cartesian = False
    unit_obj = None

    @property
    def unit(self):
        if self.unit_obj is None:
            raise QsheafError("instance has no unit object")
        return self.unit_obj

    def objects(self) -> list:
        raise NotImplementedError

    def hom(self, a, b) -> list:
        raise NotImplementedError

    def identity(self, a) -> Mor:
        raise NotImplementedError

    def compose(self, g: Mor, f: Mor) -> Mor:
        """The composite g after f."""
        raise NotImplementedError

    def tensor_obj(self, a, b):
        raise NotImplementedError

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        raise NotImplementedError

    def associator(self, x, y, z) -> Mor:
        raise NotImplementedError

    def left_unitor(self, a) -> Mor:
        raise NotImplementedError

    def right_unitor(self, a) -> Mor:
        raise NotImplementedError

    def braiding(self, a, b):
        return None

    def terminal(self, x) -> Mor:
        """The unique arrow x -> unit; raises if the unit is not terminal."""
        raise NotImplementedError

    def equalizer(self, f: Mor, g: Mor):
        raise NotImplementedError

    def is_iso(self, m: Mor) -> bool:
        raise NotImplementedError

    def factor_through_mono(self, m: Mor, h: Mor):
        """The unique u with m . u = h, or None."""
        raise NotImplementedError

    def _check_composable(self, g, f):
        if f.cod != g.dom:
            raise DomainMismatch(
                f"cannot compose {canon(g.dom)} after {canon(f.cod)}"
            )

    def _check_parallel(self, f, g):
        if f.dom != g.dom:
            raise DomainMismatch("parallel pair needs equal domains")
        if f.cod != g.cod:
            raise CodomainMismatch("parallel pair needs equal codomains")


def is_semicartesian(c: MonoidalCategory) -> bool:
    """Unit terminal over the instance's generator objects."""
    try:
        return all(len(c.hom(x, c.unit)) == 1 for x in c.objects())
    except QsheafError:
        return False


# ---------------------------------------------------------------------------
# thin instances


class ThinCategory(MonoidalCategory):
    """A poset with a monotone associative tensor; at most one arrow.

    Each site keeps per-site tables, built once or at first use: object
    names and order, the strictly comparable pairs, one `Mor` per
    comparable pair (every arrow the site returns comes from this
    table), one `PseudoPullback` per ``(a.dom, b.dom, cod)``, one
    `l_r_factor` answer per ``(a.dom, b.dom, cod, v)`` and one
    representable presheaf ``y(u)`` per object.
    """

    def __init__(self, elements, leq_pairs, mul, unit=None, components=None):
        self._elements = list(elements)
        self._leq = frozenset(leq_pairs)
        self._mul = dict(mul)
        self.unit_obj = unit
        self.components = components
        eset = set(self._elements)
        for (a, b), c in self._mul.items():
            if a not in eset or b not in eset or c not in eset:
                raise InvalidSpec("mul table mentions unknown element")
        for a, b, c in itertools.product(self._elements, repeat=3):
            if self._mul[(self._mul[(a, b)], c)] != self._mul[(a, self._mul[(b, c)])]:
                raise InvalidSpec(f"tensor not associative at ({a},{b},{c})")
        for a, b in self._leq:
            for v in self._elements:
                if not self.leq(self._mul[(v, a)], self._mul[(v, b)]) or not self.leq(
                    self._mul[(a, v)], self._mul[(b, v)]
                ):
                    raise InvalidSpec(f"tensor not monotone at ({a},{b}) with {v}")
        if unit is not None:
            for a in self._elements:
                if self._mul[(unit, a)] != a or self._mul[(a, unit)] != a:
                    raise InvalidSpec(f"unit law fails at {a}")
        self._commutative = all(
            self._mul[(a, b)] == self._mul[(b, a)]
            for a, b in itertools.product(self._elements, repeat=2)
        )
        self.is_cartesian = self._tensor_is_meet()
        self._names = {u: canon(u) for u in self._elements}
        self._sorted = sorted(self._elements, key=self._names.__getitem__)
        self._pairs = tuple(
            (v, u)
            for u in self._sorted
            for v in self._sorted
            if v != u and (v, u) in self._leq
        )
        self._order = None  # (order, downs, ups), built by presheaf.site_order
        self._yoneda = {}  # u -> the presheaf y(u), built by presheaf.yoneda
        self._arrows = {}  # (a, b) -> the one arrow a -> b, made at first use
        self._pullbacks = {}  # (a.dom, b.dom, cod) -> PseudoPullback
        self._factorizations = {}  # (a.dom, b.dom, cod, v) -> l_r_factor answer

    @classmethod
    def from_quantale(cls, q):
        return cls(q.elements, q._leq, q._mul, unit=q.unit)

    @classmethod
    def from_ordered_monoid(cls, elements, leq_pairs, mul, unit):
        closure = _closure(elements, [tuple(p) for p in leq_pairs])
        return cls(elements, closure, mul, unit=unit)

    @classmethod
    def product(cls, s1: "ThinCategory", s2: "ThinCategory"):
        elements = [
            (a, b) for a in s1._elements for b in s2._elements
        ]
        leq = {
            ((a, b), (c, d))
            for (a, b) in elements
            for (c, d) in elements
            if s1.leq(a, c) and s2.leq(b, d)
        }
        mul = {
            ((a, b), (c, d)): (s1.tensor_obj(a, c), s2.tensor_obj(b, d))
            for (a, b) in elements
            for (c, d) in elements
        }
        unit = None
        if s1.unit_obj is not None and s2.unit_obj is not None:
            unit = (s1.unit_obj, s2.unit_obj)
        return cls(elements, leq, mul, unit=unit, components=(s1, s2))

    def _tensor_is_meet(self) -> bool:
        for a, b in itertools.product(self._elements, repeat=2):
            lbs = [
                v for v in self._elements if self.leq(v, a) and self.leq(v, b)
            ]
            m = self._mul[(a, b)]
            if m not in lbs or not all(self.leq(v, m) for v in lbs):
                return False
        return True

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def objects(self):
        return list(self._sorted)

    def pairs(self) -> tuple:
        """Every ``(v, u)`` with ``v`` strictly below ``u``, built once per site.

        Ordered by ``u`` and then by ``v``, each in `objects` order. These
        are the pairs a presheaf gives a restriction map besides the
        identities.
        """
        return self._pairs

    def name(self, u) -> str:
        """The canonical name of an object, looked up for members."""
        try:
            return self._names[u]
        except KeyError:
            return canon(u)

    def overlap(self, a: Mor, b: Mor):
        """The pseudo-pullback apex of two legs into one object."""
        ppb = self._pullbacks.get((a.dom, b.dom, a.cod))
        if ppb is None:
            ppb = pseudo_pullback(self, a, b)
        return ppb.obj

    def l_r_factor(self, fi: Mor, fj: Mor, v) -> bool:
        """Whether the maps l and r of the strong prelopology exist for a leg pair.

        With ``base`` the pseudo-pullback of ``(fi, fj)``, l runs from the
        pseudo-pullback of ``(id_v (x) fi, id_v (x) fj)`` into
        ``v (x) base`` and r from that of ``(fi (x) id_v, fj (x) id_v)``
        into ``base (x) v``; each must commute with both projections. On a
        thin site every diagram commutes, so each exists exactly when its
        domain lies below its codomain. The answer depends only on
        ``(fi.dom, fj.dom, cod, v)`` and is kept under that key.
        """
        if fi.cod != fj.cod:
            raise CodomainMismatch("legs must share a codomain")
        key = (fi.dom, fj.dom, fi.cod, v)
        found = self._factorizations.get(key)
        if found is None:
            id_v = self.identity(v)
            base = self.overlap(fi, fj)
            left = self.overlap(self.tensor_mor(id_v, fi), self.tensor_mor(id_v, fj))
            right = self.overlap(self.tensor_mor(fi, id_v), self.tensor_mor(fj, id_v))
            found = self.leq(left, self.tensor_obj(v, base)) and self.leq(
                right, self.tensor_obj(base, v)
            )
            self._factorizations[key] = found
        return found

    def _mor(self, a, b) -> Mor:
        """The site's one arrow a -> b from its arrow table."""
        mor = self._arrows.get((a, b))
        if mor is None:
            mor = self._arrows[(a, b)] = Mor(a, b)
        return mor

    def hom(self, a, b):
        return [self._mor(a, b)] if self.leq(a, b) else []

    def arrow(self, a, b) -> Mor:
        if not self.leq(a, b):
            raise DomainMismatch(f"no arrow {canon(a)} -> {canon(b)}")
        return self._mor(a, b)

    def identity(self, a):
        return self._mor(a, a)

    def compose(self, g, f):
        self._check_composable(g, f)
        return self._mor(f.dom, g.cod)

    def tensor_obj(self, a, b):
        return self._mul[(a, b)]

    def tensor_mor(self, f, g):
        return self._mor(
            self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod)
        )

    def associator(self, x, y, z):
        lhs = self.tensor_obj(self.tensor_obj(x, y), z)
        rhs = self.tensor_obj(x, self.tensor_obj(y, z))
        if lhs != rhs:
            raise InternalDefect(f"tensor not associative at {canon((x, y, z))}")
        return self._mor(lhs, rhs)

    def left_unitor(self, a):
        return self._mor(self.tensor_obj(self.unit, a), a)

    def right_unitor(self, a):
        return self._mor(self.tensor_obj(a, self.unit), a)

    def braiding(self, a, b):
        if not self._commutative:
            return None
        return self._mor(self.tensor_obj(a, b), self.tensor_obj(b, a))

    def terminal(self, x):
        if not self.leq(x, self.unit):
            raise NotSemicartesian(
                f"unit is not terminal: no arrow from {canon(x)}"
            )
        return self._mor(x, self.unit)

    def equalizer(self, f, g):
        self._check_parallel(f, g)
        return f.dom, self.identity(f.dom)

    def is_iso(self, m):
        return m.dom == m.cod

    def factor_through_mono(self, m, h):
        if h.cod != m.cod:
            raise CodomainMismatch("factorization needs a common codomain")
        if self.leq(h.dom, m.dom):
            return self._mor(h.dom, m.dom)
        return None

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ThinCategory)
            and self._elements == other._elements
            and self._leq == other._leq
            and self._mul == other._mul
            and self.unit_obj == other.unit_obj
        )

    def __hash__(self):
        return hash((tuple(self._elements), self.unit_obj is None))

    def __repr__(self):
        kind = "product thin" if self.components else "thin"
        return f"ThinCategory({kind}, {len(self._elements)} objects)"


def require_thin(site):
    """Raise `NotThinSite` unless `site` is a `ThinCategory`.

    Coverages and presheaves exist only on thin sites; every constructor
    of either calls this first.
    """
    if not isinstance(site, ThinCategory):
        raise NotThinSite(f"coverages and presheaves need a thin site, not {site!r}")


# ---------------------------------------------------------------------------
# finite sets under cartesian product


class FinSetCategory(MonoidalCategory):
    """Finite sets and all maps, tensor = cartesian product.

    Generator objects are the canonical sets of sizes 0..max_size; the
    operations are total on arbitrary FinSetObj. The instance keeps two
    tables, filled at first use:

    - `_tensors`: one tensor object `a (x) b` per ``(a, b)``;
    - `_maps`: one structure map per ``(kind, objects)``, for the
      identities, the maps to the unit, both unitors, and the default
      associator and braiding.

    Composites and tensored maps are built on every call. Structure
    morphisms can be injected through the constructor, so broken
    instances can be built for mutation testing; an injected `*_fn` is
    called on every use and never enters `_maps`.
    """

    is_cartesian = True

    def __init__(self, max_size=3, associator_fn=None, braiding_fn=None,
                 left_unitor_fn=None, right_unitor_fn=None, equalizer_fn=None):
        if not 0 <= max_size <= 4:
            raise InvalidSpec("max_size must be between 0 and 4")
        base = [f"s{i}" for i in range(max_size)]
        self._objects = [FinSetObj(base[:k]) for k in range(max_size + 1)]
        self.max_size = max_size
        self.unit_obj = FinSetObj(("*",))
        self._associator_fn = associator_fn
        self._braiding_fn = braiding_fn
        self._left_unitor_fn = left_unitor_fn
        self._right_unitor_fn = right_unitor_fn
        self._equalizer_fn = equalizer_fn
        self._tensors = {}  # (a, b) -> a (x) b, built at first use
        self._maps = {}  # (kind, objects) -> structure map, built at first use

    def _structure(self, kind, objs, build):
        """The default structure map `kind` at `objs`, from `_maps`.

        `build` gives ``(dom, cod, assignment)``. The kept map is keyed and
        valued by the label strings of `dom` and `cod` themselves, so the
        table holds no copies of them.
        """
        key = (kind, objs)
        mor = self._maps.get(key)
        if mor is None:
            dom, cod, assignment = build(*objs)
            own = {y: y for y in cod}
            mor = self._maps[key] = Mor(
                dom, cod, FinMap(dom, cod, {x: own[assignment[x]] for x in dom})
            )
        return mor

    def objects(self):
        return list(self._objects)

    def hom(self, a, b):
        return [Mor(a, b, m) for m in finset.all_maps(a, b)]

    def identity(self, a):
        return self._structure("identity", (a,), self._build_identity)

    def _build_identity(self, a):
        return a, a, {x: x for x in a}

    def compose(self, g, f):
        self._check_composable(g, f)
        return Mor(f.dom, g.cod, finset.compose(g.data, f.data))

    def tensor_obj(self, a, b):
        key = (a, b)
        obj = self._tensors.get(key)
        if obj is None:
            obj = self._tensors[key] = finset.product_object(a, b)
        return obj

    def tensor_mor(self, f, g):
        dom = self.tensor_obj(f.dom, g.dom)
        cod = self.tensor_obj(f.cod, g.cod)
        assignment = {}
        for x in f.dom:
            for y in g.dom:
                assignment[finset.pair_label(x, y)] = finset.pair_label(
                    f.data(x), g.data(y)
                )
        return Mor(dom, cod, FinMap(dom, cod, assignment))

    def associator(self, x, y, z):
        if self._associator_fn is not None:
            return self._associator_fn(self, x, y, z)
        return self._structure("associator", (x, y, z), self._build_associator)

    def _build_associator(self, x, y, z):
        dom = self.tensor_obj(self.tensor_obj(x, y), z)
        cod = self.tensor_obj(x, self.tensor_obj(y, z))
        assignment = {}
        for p in x:
            for q in y:
                for r in z:
                    assignment[
                        finset.pair_label(finset.pair_label(p, q), r)
                    ] = finset.pair_label(p, finset.pair_label(q, r))
        return dom, cod, assignment

    def braiding(self, a, b):
        if self._braiding_fn is not None:
            return self._braiding_fn(self, a, b)
        return self._structure("braiding", (a, b), self._build_braiding)

    def _build_braiding(self, a, b):
        dom = self.tensor_obj(a, b)
        cod = self.tensor_obj(b, a)
        assignment = {
            finset.pair_label(x, y): finset.pair_label(y, x) for x in a for y in b
        }
        return dom, cod, assignment

    def left_unitor(self, a):
        if self._left_unitor_fn is not None:
            return self._left_unitor_fn(self, a)
        return self._structure("left_unitor", (a,), self._build_left_unitor)

    def _build_left_unitor(self, a):
        dom = self.tensor_obj(self.unit, a)
        return dom, a, {finset.pair_label("*", x): x for x in a}

    def right_unitor(self, a):
        if self._right_unitor_fn is not None:
            return self._right_unitor_fn(self, a)
        return self._structure("right_unitor", (a,), self._build_right_unitor)

    def _build_right_unitor(self, a):
        dom = self.tensor_obj(a, self.unit)
        return dom, a, {finset.pair_label(x, "*"): x for x in a}

    def terminal(self, x):
        return self._structure("terminal", (x,), self._build_terminal)

    def _build_terminal(self, x):
        return x, self.unit, {p: "*" for p in x}

    def equalizer(self, f, g):
        self._check_parallel(f, g)
        if self._equalizer_fn is not None:
            return self._equalizer_fn(self, f, g)
        sub, incl = finset.equalizer(f.data, g.data)
        return sub, Mor(sub, f.dom, incl)

    def is_iso(self, m):
        return m.data.is_bijective()

    def factor_through_mono(self, m, h):
        if h.cod != m.cod:
            raise CodomainMismatch("factorization needs a common codomain")
        preimage = {}
        for y in m.dom:
            preimage.setdefault(m.data(y), y)
        assignment = {}
        for x in h.dom:
            val = h.data(x)
            if val not in preimage:
                return None
            assignment[x] = preimage[val]
        return Mor(h.dom, m.dom, FinMap(h.dom, m.dom, assignment))

    def __repr__(self):
        return f"FinSetCategory(max_size={self.max_size})"


# ---------------------------------------------------------------------------
# componentwise products


class ProductCategory(MonoidalCategory):
    """The product of two instances; everything is componentwise.

    The instance keeps three tables, filled at first use:

    - `_pairs`: one pair `Mor` per pair of component morphisms; every
      morphism the instance returns comes from it;
    - `_composites`: ``g . f`` per pair ``(g, f)`` of pair morphisms;
    - `_tensor_mors`: ``f (x) g`` per pair ``(f, g)``.

    Structure maps are paired from the components on every call, so a
    component's injected structure map is still called on every use.
    """

    def __init__(self, c1: MonoidalCategory, c2: MonoidalCategory):
        self.c1 = c1
        self.c2 = c2
        self.is_cartesian = c1.is_cartesian and c2.is_cartesian
        if c1.unit_obj is not None and c2.unit_obj is not None:
            self.unit_obj = (c1.unit, c2.unit)
        self._pairs = {}  # (m1, m2) -> the pair Mor with those components
        self._composites = {}  # (g, f) -> g . f
        self._tensor_mors = {}  # (f, g) -> f (x) g

    def objects(self):
        return [(a, b) for a in self.c1.objects() for b in self.c2.objects()]

    def _pair(self, m1, m2):
        key = (m1, m2)
        mor = self._pairs.get(key)
        if mor is None:
            mor = self._pairs[key] = Mor((m1.dom, m2.dom), (m1.cod, m2.cod), key)
        return mor

    def hom(self, a, b):
        return [
            self._pair(m1, m2)
            for m1 in self.c1.hom(a[0], b[0])
            for m2 in self.c2.hom(a[1], b[1])
        ]

    def identity(self, a):
        return self._pair(self.c1.identity(a[0]), self.c2.identity(a[1]))

    def compose(self, g, f):
        key = (g, f)
        mor = self._composites.get(key)
        if mor is None:
            self._check_composable(g, f)
            mor = self._composites[key] = self._pair(
                self.c1.compose(g.data[0], f.data[0]),
                self.c2.compose(g.data[1], f.data[1]),
            )
        return mor

    def tensor_obj(self, a, b):
        return (self.c1.tensor_obj(a[0], b[0]), self.c2.tensor_obj(a[1], b[1]))

    def tensor_mor(self, f, g):
        key = (f, g)
        mor = self._tensor_mors.get(key)
        if mor is None:
            mor = self._tensor_mors[key] = self._pair(
                self.c1.tensor_mor(f.data[0], g.data[0]),
                self.c2.tensor_mor(f.data[1], g.data[1]),
            )
        return mor

    def associator(self, x, y, z):
        return self._pair(
            self.c1.associator(x[0], y[0], z[0]),
            self.c2.associator(x[1], y[1], z[1]),
        )

    def left_unitor(self, a):
        return self._pair(self.c1.left_unitor(a[0]), self.c2.left_unitor(a[1]))

    def right_unitor(self, a):
        return self._pair(self.c1.right_unitor(a[0]), self.c2.right_unitor(a[1]))

    def braiding(self, a, b):
        b1 = self.c1.braiding(a[0], b[0])
        b2 = self.c2.braiding(a[1], b[1])
        if b1 is None or b2 is None:
            return None
        return self._pair(b1, b2)

    def terminal(self, x):
        return self._pair(self.c1.terminal(x[0]), self.c2.terminal(x[1]))

    def equalizer(self, f, g):
        self._check_parallel(f, g)
        o1, e1 = self.c1.equalizer(f.data[0], g.data[0])
        o2, e2 = self.c2.equalizer(f.data[1], g.data[1])
        return (o1, o2), self._pair(e1, e2)

    def is_iso(self, m):
        return self.c1.is_iso(m.data[0]) and self.c2.is_iso(m.data[1])

    def factor_through_mono(self, m, h):
        u1 = self.c1.factor_through_mono(m.data[0], h.data[0])
        u2 = self.c2.factor_through_mono(m.data[1], h.data[1])
        if u1 is None or u2 is None:
            return None
        return self._pair(u1, u2)

    def __repr__(self):
        return f"ProductCategory({self.c1!r}, {self.c2!r})"


# ---------------------------------------------------------------------------
# projections and pseudo-pullbacks


def projection1(c: MonoidalCategory, a, b) -> Mor:
    """First projection a (x) b -> a: right unitor after (id (x) !)."""
    return c.compose(c.right_unitor(a), c.tensor_mor(c.identity(a), c.terminal(b)))


def projection2(c: MonoidalCategory, a, b) -> Mor:
    """Second projection a (x) b -> b: left unitor after (! (x) id)."""
    return c.compose(c.left_unitor(b), c.tensor_mor(c.terminal(a), c.identity(b)))


@dataclass(frozen=True)
class PseudoPullback:
    obj: object
    into: Mor  # the equalizer mono into the tensor
    p1: Mor
    p2: Mor
    tensor: object


def pseudo_pullback(c: MonoidalCategory, f: Mor, g: Mor) -> PseudoPullback:
    """Equalizer of f . proj1 and g . proj2 over dom(f) (x) dom(g).

    On a thin site the result depends only on ``(f.dom, g.dom, cod)``,
    and the site keeps it in a table under that key, built at first
    use. Other instances construct it on every call.
    """
    if f.cod != g.cod:
        raise CodomainMismatch("pseudo-pullback needs a cospan")
    if not isinstance(c, ThinCategory):
        return _build_pseudo_pullback(c, f, g)
    key = (f.dom, g.dom, f.cod)
    ppb = c._pullbacks.get(key)
    if ppb is None:
        ppb = c._pullbacks[key] = _build_pseudo_pullback(c, f, g)
    return ppb


def _build_pseudo_pullback(c: MonoidalCategory, f: Mor, g: Mor) -> PseudoPullback:
    """The pseudo-pullback of a cospan, constructed without any table."""
    t = c.tensor_obj(f.dom, g.dom)
    pi1 = projection1(c, f.dom, g.dom)
    pi2 = projection2(c, f.dom, g.dom)
    obj, into = c.equalizer(c.compose(f, pi1), c.compose(g, pi2))
    return PseudoPullback(
        obj=obj,
        into=into,
        p1=c.compose(pi1, into),
        p2=c.compose(pi2, into),
        tensor=t,
    )


def trivial_equalizer(instance, f, g):
    """A deliberately wrong equalizer: the whole object with identity.

    Used to build adversarial instances on which the pseudo-pullback
    laws of the appendix suite genuinely fail.
    """
    return f.dom, instance.identity(f.dom)
