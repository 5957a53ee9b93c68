"""Finite sets and maps, with the constructions the program uses.

Objects are finite sets of string or integer labels, kept in a
canonical sorted order. Maps are total assignments. `equalizer` returns
the subset with its inclusion, `product_object` the set of pair labels,
and `UnionFind` merges labels into classes named after their least
member; the universal properties are audited exhaustively in the test
suite via `all_maps`.

Constructed labels are strings: pairs become "(a,b)", tagged copies
become "i:a".
"""

from __future__ import annotations

import itertools

from .errors import CodomainMismatch, DomainMismatch, InvalidSpec

def label_key(label):
    """Sort key placing integer labels before string labels."""
    if isinstance(label, bool) or not isinstance(label, (int, str)):
        raise InvalidSpec(f"labels must be str or int, got {label!r}")
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, label)


class FinSetObj:
    """A finite set of distinct labels in canonical sorted order."""

    __slots__ = ("elements",)

    def __init__(self, labels):
        elems = tuple(sorted(labels, key=label_key))
        if len(set(elems)) != len(elems):
            raise InvalidSpec(f"duplicate labels in {elems!r}")
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name, value):
        raise AttributeError("FinSetObj is immutable")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label):
        return label in self.elements

    def __eq__(self, other):
        return isinstance(other, FinSetObj) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        inner = ",".join(str(x) for x in self.elements)
        return f"FinSetObj({{{inner}}})"


EMPTY = FinSetObj(())


class FinMap:
    """A total map between two FinSetObj, given by an assignment dict.

    Construction checks that the assignment's keys are the domain and its
    values lie in the codomain, against a set of the codomain's labels
    built for that one check, not kept.
    """

    __slots__ = ("dom", "cod", "assignment", "_key")

    def __init__(self, dom: FinSetObj, cod: FinSetObj, assignment: dict):
        if set(assignment) != set(dom.elements):
            raise DomainMismatch(
                f"assignment keys {sorted(assignment, key=label_key)} "
                f"do not match domain {dom!r}"
            )
        try:
            within = set(cod.elements).issuperset(assignment.values())
        except TypeError:  # an unhashable value is no label
            within = False
        if not within:  # name the first value outside the codomain
            for x, y in assignment.items():
                if y not in cod.elements:
                    raise CodomainMismatch(
                        f"value {y!r} at {x!r} not in codomain {cod!r}"
                    )
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "assignment", dict(assignment))
        key = tuple(assignment[x] for x in dom.elements)
        object.__setattr__(self, "_key", (dom.elements, cod.elements, key))

    def __setattr__(self, name, value):
        raise AttributeError("FinMap is immutable")

    def __call__(self, x):
        try:
            return self.assignment[x]
        except KeyError:
            raise DomainMismatch(f"{x!r} not in domain of {self!r}") from None

    def __eq__(self, other):
        return isinstance(other, FinMap) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        pairs = ",".join(f"{x}->{self.assignment[x]}" for x in self.dom.elements)
        return f"FinMap({pairs})"

    def is_injective(self) -> bool:
        return len(set(self.assignment.values())) == len(self.dom)

    def is_surjective(self) -> bool:
        return set(self.assignment.values()) == set(self.cod.elements)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def identity(a: FinSetObj) -> FinMap:
    return FinMap(a, a, {x: x for x in a})


def compose(g: FinMap, f: FinMap) -> FinMap:
    """The composite g after f."""
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose: {f.cod!r} != {g.dom!r}")
    return FinMap(f.dom, g.cod, {x: g(f(x)) for x in f.dom})


def all_maps(a: FinSetObj, b: FinSetObj):
    """Every map a -> b, in deterministic order. |b|^|a| of them."""
    if len(a) == 0:
        yield FinMap(a, b, {})
        return
    if len(b) == 0:
        return
    for values in itertools.product(b.elements, repeat=len(a)):
        yield FinMap(a, b, dict(zip(a.elements, values)))


def pair_label(x, y) -> str:
    return f"({x},{y})"


def tag_label(i: int, x) -> str:
    return f"{i}:{x}"


def equalizer(f: FinMap, g: FinMap):
    """Equalizer of a parallel pair: (subset object, inclusion map)."""
    if f.dom != g.dom:
        raise DomainMismatch(f"parallel pair needs equal domains: {f.dom!r}, {g.dom!r}")
    if f.cod != g.cod:
        raise CodomainMismatch(
            f"parallel pair needs equal codomains: {f.cod!r}, {g.cod!r}"
        )
    sub = FinSetObj([x for x in f.dom if f(x) == g(x)])
    return sub, FinMap(sub, f.dom, {x: x for x in sub})


class UnionFind:
    """Union-find over labels; representatives are least by label_key."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if label_key(ry) < label_key(rx):
            rx, ry = ry, rx
        self.parent[ry] = rx


def product_object(a: FinSetObj, b: FinSetObj) -> FinSetObj:
    """The set of pair labels "(x,y)" for x in a, y in b, without projections."""
    labels = [pair_label(x, y) for x in a for y in b]
    if len(set(labels)) != len(labels):
        raise InvalidSpec("pair labels collide; use simpler element labels")
    return FinSetObj(labels)
