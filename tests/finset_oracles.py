"""Finite-set constructions that only the tests use, as reference oracles.

`qsheaf.finset` keeps what the program runs. The constructions here,
each with its structure maps, are what the sieve oracle in
`test_presheaf.py` and the pseudo-pullback and tensor checks in
`test_moncat.py` compare the program against; `test_finset.py` audits
their universal properties.

Labels follow `qsheaf.finset`: pairs become "(a,b)", tagged copies
become "i:a", quotient classes are named after their least member.
"""

from qsheaf.errors import CodomainMismatch, DomainMismatch
from qsheaf.finset import (
    FinMap,
    FinSetObj,
    UnionFind,
    label_key,
    pair_label,
    product_object,
    tag_label,
)


def inverse(f: FinMap) -> FinMap:
    """The inverse of a bijection."""
    if not f.is_bijective():
        raise DomainMismatch(f"{f!r} is not invertible")
    return FinMap(f.cod, f.dom, {y: x for x, y in f.assignment.items()})


def coequalizer(f: FinMap, g: FinMap):
    """Coequalizer of a parallel pair: (quotient object, projection map).

    Classes are labeled by their least member.
    """
    if f.dom != g.dom:
        raise DomainMismatch(f"parallel pair needs equal domains: {f.dom!r}, {g.dom!r}")
    if f.cod != g.cod:
        raise CodomainMismatch(
            f"parallel pair needs equal codomains: {f.cod!r}, {g.cod!r}"
        )
    uf = UnionFind(f.cod.elements)
    for x in f.dom:
        uf.union(f(x), g(x))
    reps = {y: uf.find(y) for y in f.cod}
    quo = FinSetObj(sorted(set(reps.values()), key=label_key))
    return quo, FinMap(f.cod, quo, reps)


def product(a: FinSetObj, b: FinSetObj):
    """Binary product with canonical pair labels: (object, proj1, proj2)."""
    obj = product_object(a, b)
    p1 = {pair_label(x, y): x for x in a for y in b}
    p2 = {pair_label(x, y): y for x in a for y in b}
    return obj, FinMap(obj, a, p1), FinMap(obj, b, p2)


def pullback(f: FinMap, g: FinMap):
    """Pullback of f: A -> C, g: B -> C: (object, to A, to B)."""
    if f.cod != g.cod:
        raise CodomainMismatch(f"pullback needs a cospan: {f.cod!r} != {g.cod!r}")
    labels, p1, p2 = [], {}, {}
    for x in f.dom:
        for y in g.dom:
            if f(x) == g(y):
                lab = pair_label(x, y)
                labels.append(lab)
                p1[lab] = x
                p2[lab] = y
    obj = FinSetObj(labels)
    return obj, FinMap(obj, f.dom, p1), FinMap(obj, g.dom, p2)


def coproduct(objs: list):
    """Finite coproduct with tagged labels: (object, list of injections)."""
    obj = FinSetObj([tag_label(i, x) for i, a in enumerate(objs) for x in a])
    injections = [
        FinMap(a, obj, {x: tag_label(i, x) for x in a}) for i, a in enumerate(objs)
    ]
    return obj, injections
