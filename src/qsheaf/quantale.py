"""Finite quantales: complete lattices with a join-distributing multiplication.

A raw table is a dict {"elements": [...], "leq": [[a,b], ...],
"mul": {"a,b": c, ...}, "unit": optional}. The "leq" pairs generate the
order; the reflexive-transitive closure is taken at parse time. The
multiplication table must be total.

`validate_quantale` either returns a `Quantale` or a `CheckReport` with
one failing entry per violated law instance, named after the law; each
law is a check generator in the `qsheaf.checks` protocol.
`classify_quantale` computes the derived flags. `build_standard`
produces the bundled families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .checks import CheckReport, collect
from .errors import InternalDefect, InvalidSpec


def _least_upper_bound(elements, leq, items):
    """The least of `elements` above every one of `items` under `leq`, or None."""
    ubs = [u for u in elements if all((x, u) in leq for x in items)]
    least = [u for u in ubs if all((u, v) in leq for v in ubs)]
    return least[0] if least else None


# ---------------------------------------------------------------------------
# the structure


class Quantale:
    """Validated finite quantale. Construct through validate_quantale."""

    def __init__(self, elements, leq_pairs, mul, unit=None):
        self.elements = tuple(elements)
        self._leq = frozenset(leq_pairs)
        self._mul = dict(mul)
        self.unit = unit
        self._joins = {
            (a, b): _least_upper_bound(self.elements, self._leq, (a, b))
            for a, b in itertools.product(self.elements, repeat=2)
        }
        self.bottom = _least_upper_bound(self.elements, self._leq, ())
        self.top = self.join(self.elements)

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def mul(self, a, b):
        return self._mul[(a, b)]

    def join(self, items):
        items = list(items)
        if not items:
            return self.bottom
        out = items[0]
        for x in items[1:]:
            out = self._joins[(out, x)]
        return out

    def meet(self, a, b):
        lbs = [v for v in self.elements if self.leq(v, a) and self.leq(v, b)]
        return self.join(lbs)

    def __eq__(self, other):
        return (
            isinstance(other, Quantale)
            and self.elements == other.elements
            and self._leq == other._leq
            and self._mul == other._mul
            and self.unit == other.unit
        )

    def __repr__(self):
        return f"Quantale({len(self.elements)} elements, unit={self.unit})"

    def to_raw(self):
        return {
            "elements": list(self.elements),
            "leq": sorted([a, b] for (a, b) in self._leq),
            "mul": {f"{a},{b}": c for (a, b), c in sorted(self._mul.items())},
            **({"unit": self.unit} if self.unit is not None else {}),
        }


@dataclass(frozen=True)
class QuantaleFlags:
    commutative: bool
    idempotent: bool
    right_sided: bool
    semicartesian: bool
    integral: bool
    unital: bool
    locale: bool


# ---------------------------------------------------------------------------
# parsing and validation


def _closure(elements, pairs):
    leq = {(a, a) for a in elements}
    leq.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
            if b == c and (a, d) not in leq:
                leq.add((a, d))
                changed = True
    return leq


def parse_raw(raw: dict) -> dict:
    """Structural validation of a raw table; returns a normalized copy."""
    if not isinstance(raw, dict) or "elements" not in raw:
        raise InvalidSpec("raw table must be a dict with an 'elements' list")
    elements = raw["elements"]
    if not isinstance(elements, list) or not elements:
        raise InvalidSpec("'elements' must be a nonempty list")
    elements = [str(e) for e in elements]
    if len(set(elements)) != len(elements):
        raise InvalidSpec("duplicate element labels")
    if any("," in e for e in elements):
        raise InvalidSpec("element labels must not contain commas (mul keys are 'a,b')")
    eset = set(elements)
    leq = raw.get("leq", [])
    if not isinstance(leq, list):
        raise InvalidSpec(f"'leq' must be a list of [a, b] pairs, not {leq!r}")
    pairs = []
    for entry in leq:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise InvalidSpec(f"bad leq entry {entry!r}")
        a, b = str(entry[0]), str(entry[1])
        if a not in eset or b not in eset:
            raise InvalidSpec(f"leq entry {entry!r} mentions unknown element")
        pairs.append((a, b))
    mul_raw = raw.get("mul")
    if not isinstance(mul_raw, dict):
        raise InvalidSpec("'mul' must be a dict keyed by 'a,b'")
    mul = {}
    for key, val in mul_raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise InvalidSpec(f"bad mul key {key!r}")
        a, b = parts[0], parts[1]
        if a not in eset or b not in eset or str(val) not in eset:
            raise InvalidSpec(f"mul entry {key!r}: {val!r} mentions unknown element")
        mul[(a, b)] = str(val)
    missing = [
        (a, b) for a, b in itertools.product(elements, repeat=2) if (a, b) not in mul
    ]
    if missing:
        raise InvalidSpec(f"mul table not total, missing {missing[:3]}...")
    unit = raw.get("unit")
    if unit is not None:
        unit = str(unit)
        if unit not in eset:
            raise InvalidSpec(f"unit {unit!r} not an element")
    return {"elements": elements, "pairs": pairs, "mul": mul, "unit": unit}


def _antisymmetry(elements, leq):
    for a, b in itertools.combinations(elements, 2):
        clash = (a, b) in leq and (b, a) in leq
        yield f"antisymmetry fails: {a} <= {b} <= {a}" if clash else None


def _completeness(elements, leq):
    no_bottom = _least_upper_bound(elements, leq, ()) is None
    yield "no bottom element" if no_bottom else None
    for a, b in itertools.combinations_with_replacement(elements, 2):
        missing = _least_upper_bound(elements, leq, (a, b)) is None
        yield f"pair ({a},{b}) has no least upper bound" if missing else None


def _associativity(elements, mul):
    for a, b, c in itertools.product(elements, repeat=3):
        holds = mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
        yield None if holds else f"({a}*{b})*{c} != {a}*({b}*{c})"


def _distributivity(elements, leq, mul):
    """Both distributive laws, left then right, over every subset (sites are tiny)."""
    for a in elements:
        for r in range(len(elements) + 1):
            for subs in itertools.combinations(elements, r):
                j = _least_upper_bound(elements, leq, subs)
                lhs = _least_upper_bound(elements, leq, [mul[(a, s)] for s in subs])
                rhs = _least_upper_bound(elements, leq, [mul[(s, a)] for s in subs])
                yield None if mul[(a, j)] == lhs else (
                    f"{a} * join{{{','.join(subs)}}} != join of pointwise products")
                yield None if mul[(j, a)] == rhs else (
                    f"join{{{','.join(subs)}}} * {a} != join of pointwise products")


def _unit_law(elements, mul, unit):
    if unit is None:
        return
    for a in elements:
        holds = mul[(unit, a)] == a and mul[(a, unit)] == a
        yield None if holds else f"declared unit {unit} does not absorb at {a}"


def validate_quantale(raw: dict):
    """Check every law; return a Quantale or a CheckReport of the failures.

    Three stages run in turn: the order (`NotAPoset`), its joins
    (`NotComplete`), then the multiplication (`NotAssociative`,
    `NotDistributive`, `UnitLawFails`). Each stage collects every failing
    instance, and the first stage that fails ends the check.
    """
    norm = parse_raw(raw)
    elements, mul, unit = norm["elements"], norm["mul"], norm["unit"]
    leq = _closure(elements, norm["pairs"])
    stages = [
        [("NotAPoset", _antisymmetry(elements, leq))],
        [("NotComplete", _completeness(elements, leq))],
        [
            ("NotAssociative", _associativity(elements, mul)),
            ("NotDistributive", _distributivity(elements, leq, mul)),
            ("UnitLawFails", _unit_law(elements, mul, unit)),
        ],
    ]
    for stage in stages:
        failures = [e for name, laws in stage for e in collect(name, laws)]
        if failures:
            return CheckReport(entries=failures)
    return Quantale(elements, leq, mul, unit)


def classify_quantale(q: Quantale) -> QuantaleFlags:
    els = q.elements
    commutative = all(q.mul(a, b) == q.mul(b, a) for a, b in itertools.product(els, repeat=2))
    idempotent = all(q.mul(a, a) == a for a in els)
    right_sided = all(q.mul(a, q.top) == a for a in els)
    semicartesian = all(
        q.leq(q.mul(a, b), a) and q.leq(q.mul(a, b), b)
        for a, b in itertools.product(els, repeat=2)
    )
    unital = q.unit is not None
    integral = unital and q.unit == q.top
    locale = all(q.mul(a, b) == q.meet(a, b) for a, b in itertools.product(els, repeat=2))
    if unital and integral != semicartesian:
        # for unital quantales these two notions provably coincide
        raise InternalDefect("integral and semicartesian disagree on a unital quantale")
    return QuantaleFlags(
        commutative=commutative,
        idempotent=idempotent,
        right_sided=right_sided,
        semicartesian=semicartesian,
        integral=integral,
        unital=unital,
        locale=locale,
    )


# ---------------------------------------------------------------------------
# bundled families


def _subset_label(sub, base):
    return "{" + "".join(x for x in base if x in sub) + "}"


def powerset_locale(n: int) -> dict:
    """Subsets of an n-point set, ordered by inclusion, mul = intersection."""
    if not 1 <= n <= 3:
        raise InvalidSpec("powerset_locale supports 1 <= n <= 3")
    base = ["x", "y", "z"][:n]
    subs = []
    for r in range(n + 1):
        subs.extend(frozenset(c) for c in itertools.combinations(base, r))
    label = {s: _subset_label(s, base) for s in subs}
    leq = [[label[a], label[b]] for a in subs for b in subs if a <= b]
    mul = {f"{label[a]},{label[b]}": label[a & b] for a in subs for b in subs}
    top = label[frozenset(base)]
    return {"elements": [label[s] for s in subs], "leq": leq, "mul": mul, "unit": top}


def chain_locale(n: int) -> dict:
    """The n-element chain 0 < 1 < ... with mul = min."""
    if not 2 <= n <= 5:
        raise InvalidSpec("chain_locale supports 2 <= n <= 5")
    els = [str(i) for i in range(n)]
    leq = [[str(i), str(j)] for i in range(n) for j in range(i, n)]
    mul = {f"{i},{j}": str(min(i, j)) for i in range(n) for j in range(n)}
    return {"elements": els, "leq": leq, "mul": mul, "unit": str(n - 1)}


def lukasiewicz_chain(n: int) -> dict:
    """The n-element chain with a*b = max(a+b-(n-1), 0); 3 elements: 0,h,1."""
    if not 2 <= n <= 5:
        raise InvalidSpec("lukasiewicz_chain supports 2 <= n <= 5")
    if n == 3:
        names = ["0", "h", "1"]
    else:
        names = ["0"] + [f"h{i}" for i in range(1, n - 1)] + ["1"]
    leq = [[names[i], names[j]] for i in range(n) for j in range(i, n)]
    mul = {
        f"{names[i]},{names[j]}": names[max(i + j - (n - 1), 0)]
        for i in range(n)
        for j in range(n)
    }
    return {"elements": names, "leq": leq, "mul": mul, "unit": names[-1]}


def truncated_nat(k: int) -> dict:
    """Naturals 0..k under addition truncated at k, ordered by reverse size.

    0 is both the unit and the top; join is numeric min.
    """
    if not 1 <= k <= 6:
        raise InvalidSpec("truncated_nat supports 1 <= k <= 6")
    els = [str(i) for i in range(k + 1)]
    leq = [[str(i), str(j)] for i in range(k + 1) for j in range(k + 1) if i >= j]
    mul = {
        f"{i},{j}": str(min(i + j, k)) for i in range(k + 1) for j in range(k + 1)
    }
    return {"elements": els, "leq": leq, "mul": mul, "unit": "0"}


def ideals_zmod(n: int) -> dict:
    """Ideals of Z/n: one per divisor d, ordered by inclusion, mul = product.

    The ideal generated by d is the set of multiples of d; (n) = (0) is
    labeled "(0)". Join is ideal sum (gcd), multiplication is ideal
    product (gcd(d*e, n)), unit is the whole ring (1).
    """
    if not 2 <= n <= 16:
        raise InvalidSpec("ideals_zmod supports 2 <= n <= 16")
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    def lab(d):
        return "(0)" if d == n else f"({d})"

    # (a) <= (b) iff multiples of a are inside multiples of b, i.e. b | a
    leq = [[lab(a), lab(b)] for a in divisors for b in divisors if a % b == 0]
    mul = {
        f"{lab(a)},{lab(b)}": lab(math.gcd(a * b, n))
        for a in divisors
        for b in divisors
    }
    return {
        "elements": [lab(d) for d in divisors],
        "leq": leq,
        "mul": mul,
        "unit": "(1)",
    }


STANDARD = {
    "powerset_locale": powerset_locale,
    "chain_locale": chain_locale,
    "lukasiewicz_chain": lukasiewicz_chain,
    "truncated_nat": truncated_nat,
    "ideals_zmod": ideals_zmod,
}


def build_standard(name: str, param: int) -> Quantale:
    if name not in STANDARD:
        raise InvalidSpec(f"unknown standard quantale {name!r}; know {sorted(STANDARD)}")
    out = validate_quantale(STANDARD[name](param))
    if not isinstance(out, Quantale):
        raise InternalDefect(f"bundled {name}({param}) failed validation")
    return out
