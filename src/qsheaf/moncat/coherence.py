"""Exhaustive coherence checks for semicartesian monoidal instances.

`verify_monoidal_laws` audits the categorical axioms (composition laws,
pentagon, triangle, unit terminal, braiding laws). `verify_appendix_suite`
additionally checks every interaction law between projections, the
associator, the braiding, and pseudo-pullback equalizers that the sheaf
machinery depends on. Both quantify over all objects within an optional
size bound and report one entry per named law with a witness tuple for
the first failure found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..finset import FinMap
from .core import Mor, MonoidalCategory, canon, projection1, projection2


@dataclass(frozen=True)
class CheckEntry:
    name: str
    ok: bool
    checked: int
    witness: str | None = None

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{status} {self.name} ({self.checked} instances){tail}"


@dataclass
class CoherenceReport:
    instance: str
    size_bound: int | None
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]

    def summary(self) -> str:
        head = f"coherence on {self.instance}"
        if self.size_bound is not None:
            head += f" (size bound {self.size_bound})"
        lines = [head] + ["  " + e.describe() for e in self.entries]
        return "\n".join(lines)


def _size_of(c: MonoidalCategory, obj) -> int:
    if hasattr(obj, "elements"):
        return len(obj.elements)
    if isinstance(obj, tuple):
        return max((_size_of(c, x) for x in obj), default=0)
    return 1


def _objects_within(c: MonoidalCategory, bound):
    objs = c.objects()
    if bound is None:
        return objs
    return [o for o in objs if _size_of(c, o) <= bound]


def _first_diff(lhs: Mor, rhs: Mor) -> str:
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        return f"type mismatch: {lhs!r} vs {rhs!r}"
    if isinstance(lhs.data, FinMap) and isinstance(rhs.data, FinMap):
        for x in lhs.dom:
            if lhs.data(x) != rhs.data(x):
                return f"at {x}: {lhs.data(x)} vs {rhs.data(x)}"
    if isinstance(lhs.data, tuple) and isinstance(rhs.data, tuple):
        for k, (a, b) in enumerate(zip(lhs.data, rhs.data)):
            if a != b:
                return f"component {k}: " + _first_diff(a, b)
    return "morphisms differ"


class _Failed(Exception):
    def __init__(self, witness):
        self.witness = witness


def _run_check(name, gen):
    """Drain a generator of (ok, witness) pairs into a CheckEntry."""
    checked = 0
    try:
        for ok, witness in gen:
            checked += 1
            if not ok:
                return CheckEntry(name, False, checked, witness)
    except _Failed as stop:
        return CheckEntry(name, False, checked + 1, stop.witness)
    except Exception as exc:  # a broken instance may not even typecheck
        return CheckEntry(name, False, checked + 1, f"exception: {exc}")
    return CheckEntry(name, True, checked)


def _expect(tag, lhs, rhs):
    if lhs != rhs:
        return False, f"{tag}: {_first_diff(lhs, rhs)}"
    return True, None


# ---------------------------------------------------------------------------
# categorical law generators


def _gen_compose_assoc(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        homs_ab = c.hom(a, b)
        for d in objs:
            homs_bd = c.hom(b, d)
            for e in objs:
                homs_de = c.hom(d, e)
                for f, g, h in itertools.product(homs_ab, homs_bd, homs_de):
                    lhs = c.compose(h, c.compose(g, f))
                    rhs = c.compose(c.compose(h, g), f)
                    yield _expect(f"(h.g).f at {canon(a)}->{canon(e)}", lhs, rhs)


def _gen_compose_identity(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        ida, idb = c.identity(a), c.identity(b)
        for f in c.hom(a, b):
            yield _expect(f"id.f at {canon(a)}->{canon(b)}", c.compose(idb, f), f)
            yield _expect(f"f.id at {canon(a)}->{canon(b)}", c.compose(f, ida), f)


def _gen_pentagon(c, objs):
    for w, x, y, z in itertools.product(objs, repeat=4):
        lhs = c.compose(
            c.tensor_mor(c.identity(w), c.associator(x, y, z)),
            c.compose(
                c.associator(w, c.tensor_obj(x, y), z),
                c.tensor_mor(c.associator(w, x, y), c.identity(z)),
            ),
        )
        rhs = c.compose(
            c.associator(w, x, c.tensor_obj(y, z)),
            c.associator(c.tensor_obj(w, x), y, z),
        )
        yield _expect(
            f"pentagon({canon(w)},{canon(x)},{canon(y)},{canon(z)})", lhs, rhs
        )


def _gen_triangle(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), c.left_unitor(b)),
            c.associator(a, c.unit, b),
        )
        rhs = c.tensor_mor(c.right_unitor(a), c.identity(b))
        yield _expect(f"triangle({canon(a)},{canon(b)})", lhs, rhs)


def _gen_unit_terminal(c, objs):
    for x in objs:
        n = len(c.hom(x, c.unit))
        yield n == 1, f"|hom({canon(x)},1)| = {n}"


def _gen_unitor_vs_associator(c, objs, side):
    for a, b in itertools.product(objs, repeat=2):
        if side == "left":
            lhs = c.compose(
                c.left_unitor(c.tensor_obj(a, b)), c.associator(c.unit, a, b)
            )
            rhs = c.tensor_mor(c.left_unitor(a), c.identity(b))
        else:
            lhs = c.compose(
                c.tensor_mor(c.identity(a), c.right_unitor(b)),
                c.associator(a, b, c.unit),
            )
            rhs = c.right_unitor(c.tensor_obj(a, b))
        yield _expect(f"unitor-{side}({canon(a)},{canon(b)})", lhs, rhs)


def _gen_braid_symmetry(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        braid = c.braiding(a, b)
        back = c.braiding(b, a)
        yield _expect(
            f"b.b at ({canon(a)},{canon(b)})",
            c.compose(back, braid),
            c.identity(c.tensor_obj(a, b)),
        )


def _gen_braid_hexagon(c, objs):
    for a, b, d in itertools.product(objs, repeat=3):
        lhs = c.compose(
            c.associator(b, d, a),
            c.compose(c.braiding(a, c.tensor_obj(b, d)), c.associator(a, b, d)),
        )
        rhs = c.compose(
            c.tensor_mor(c.identity(b), c.braiding(a, d)),
            c.compose(
                c.associator(b, a, d),
                c.tensor_mor(c.braiding(a, b), c.identity(d)),
            ),
        )
        yield _expect(f"hexagon({canon(a)},{canon(b)},{canon(d)})", lhs, rhs)


def _gen_braid_unitors(c, objs):
    for a in objs:
        yield _expect(
            f"l.b_(a,1) at {canon(a)}",
            c.compose(c.left_unitor(a), c.braiding(a, c.unit)),
            c.right_unitor(a),
        )
        yield _expect(
            f"r.b_(1,a) at {canon(a)}",
            c.compose(c.right_unitor(a), c.braiding(c.unit, a)),
            c.left_unitor(a),
        )


# ---------------------------------------------------------------------------
# projection interaction generators


def _gen_proj_assoc_right(c, objs):
    # second projection through the associator deletes the left factor
    for x, a, b in itertools.product(objs, repeat=3):
        lhs = c.compose(
            projection2(c, x, c.tensor_obj(a, b)), c.associator(x, a, b)
        )
        rhs = c.tensor_mor(projection2(c, x, a), c.identity(b))
        yield _expect(f"({canon(x)},{canon(a)},{canon(b)})", lhs, rhs)


def _gen_proj_assoc_left(c, objs):
    # first projection through the associator deletes the right factor
    for a, b, x in itertools.product(objs, repeat=3):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), projection1(c, b, x)),
            c.associator(a, b, x),
        )
        rhs = projection1(c, c.tensor_obj(a, b), x)
        yield _expect(f"({canon(a)},{canon(b)},{canon(x)})", lhs, rhs)


def _gen_proj_middle_deletion(c, objs):
    # deleting the middle factor agrees with the tensored projections
    for a, x, b in itertools.product(objs, repeat=3):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), projection2(c, x, b)),
            c.associator(a, x, b),
        )
        rhs = c.tensor_mor(projection1(c, a, x), c.identity(b))
        yield _expect(f"({canon(a)},{canon(x)},{canon(b)})", lhs, rhs)


def _gen_proj_tensor_factor(c, objs, which):
    # projections out of (X(x)A)(x)(X(x)B) factor through one-sided deletions
    for x, a, b in itertools.product(objs, repeat=3):
        xa = c.tensor_obj(x, a)
        xb = c.tensor_obj(x, b)
        if which == 1:
            lhs = projection1(c, xa, xb)
            rhs = c.compose(
                c.tensor_mor(c.identity(x), projection1(c, a, b)),
                c.compose(
                    c.associator(x, a, b),
                    c.tensor_mor(c.identity(xa), projection2(c, x, b)),
                ),
            )
        else:
            lhs = projection2(c, xa, xb)
            rhs = c.compose(
                projection2(c, a, xb),
                c.tensor_mor(projection2(c, x, a), c.identity(xb)),
            )
        yield _expect(f"({canon(x)},{canon(a)},{canon(b)})", lhs, rhs)


def _gen_braid_projections(c, objs, which):
    for a, b in itertools.product(objs, repeat=2):
        braid = c.braiding(a, b)
        if which == 1:
            lhs = c.compose(projection2(c, b, a), braid)
            rhs = projection1(c, a, b)
        else:
            lhs = c.compose(projection1(c, b, a), braid)
            rhs = projection2(c, a, b)
        yield _expect(f"({canon(a)},{canon(b)})", lhs, rhs)


# ---------------------------------------------------------------------------
# pseudo-pullback equalizing and comparison generators


def _gen_ppb_equalizing(c, objs, also_compare):
    """The composite into X(x)(A(x)B) equalizes the tensored cospan.

    When `also_compare` is set, additionally factor that composite
    through the tensored base equalizer, certifying the comparison
    morphism that tensor-preservation promises.
    """
    for x in objs:
        id_x = c.identity(x)
        for a in objs:
            xa = c.tensor_obj(x, a)
            id_xa = c.identity(xa)
            for b in objs:
                xb = c.tensor_obj(x, b)
                pi1_big = projection1(c, xa, xb)
                pi2_big = projection2(c, xa, xb)
                mid = c.compose(
                    c.associator(x, a, b),
                    c.tensor_mor(id_xa, projection2(c, x, b)),
                )
                pi1_small = projection1(c, a, b)
                pi2_small = projection2(c, a, b)
                for cod in objs:
                    tag = (
                        f"X={canon(x)}, f:{canon(a)}->{canon(cod)}, "
                        f"g:{canon(b)}->{canon(cod)}"
                    )
                    homs_g = c.hom(b, cod)
                    for f in c.hom(a, cod):
                        xf = c.tensor_mor(id_x, f)
                        big_left = c.compose(xf, pi1_big)
                        f_small = c.compose(f, pi1_small)
                        x_f_small = c.tensor_mor(id_x, f_small)
                        for g in homs_g:
                            xg = c.tensor_mor(id_x, g)
                            _, e_big = c.equalizer(
                                big_left, c.compose(xg, pi2_big)
                            )
                            m = c.compose(mid, e_big)
                            lhs = c.compose(x_f_small, m)
                            g_small = c.compose(g, pi2_small)
                            rhs = c.compose(c.tensor_mor(id_x, g_small), m)
                            if lhs != rhs:
                                yield False, f"{tag}: {_first_diff(lhs, rhs)}"
                                continue
                            if also_compare:
                                _, e_base = c.equalizer(f_small, g_small)
                                xe = c.tensor_mor(id_x, e_base)
                                u = c.factor_through_mono(xe, m)
                                if u is None:
                                    yield False, f"{tag}: no factorization through tensored equalizer"
                                    continue
                                if isinstance(xe.data, FinMap) and not xe.data.is_injective():
                                    yield False, f"{tag}: tensored equalizer not mono"
                                    continue
                            yield True, None


# ---------------------------------------------------------------------------
# public entry points


def verify_monoidal_laws(instance: MonoidalCategory, size_bound=None) -> CoherenceReport:
    """Category, monoidal, unit-terminal, and braiding axioms."""
    objs = _objects_within(instance, size_bound)
    report = CoherenceReport(repr(instance), size_bound)
    report.entries.append(
        _run_check("compose-assoc", _gen_compose_assoc(instance, objs))
    )
    report.entries.append(
        _run_check("compose-identity", _gen_compose_identity(instance, objs))
    )
    report.entries.append(_run_check("pentagon", _gen_pentagon(instance, objs)))
    report.entries.append(_run_check("triangle", _gen_triangle(instance, objs)))
    report.entries.append(
        _run_check("unit-terminal", _gen_unit_terminal(instance, objs))
    )
    if _has_braiding(instance, objs):
        report.entries.append(
            _run_check("braid-symmetry", _gen_braid_symmetry(instance, objs))
        )
        report.entries.append(
            _run_check("braid-hexagon", _gen_braid_hexagon(instance, objs))
        )
    else:
        report.entries.append(
            CheckEntry("braid-symmetry", True, 0, "skipped: no braiding")
        )
        report.entries.append(
            CheckEntry("braid-hexagon", True, 0, "skipped: no braiding")
        )
    return report


def _has_braiding(instance, objs) -> bool:
    if not objs:
        return True
    try:
        return instance.braiding(objs[0], objs[0]) is not None
    except Exception:
        return False


def verify_appendix_suite(instance: MonoidalCategory, size_bound=None,
                          fail_fast=False) -> CoherenceReport:
    """Every projection/associator/braiding/equalizer interaction law."""
    objs = _objects_within(instance, size_bound)
    report = CoherenceReport(repr(instance), size_bound)
    braided = _has_braiding(instance, objs)
    checks = [
        ("pentagon", lambda: _gen_pentagon(instance, objs)),
        ("triangle", lambda: _gen_triangle(instance, objs)),
        ("unit-terminal", lambda: _gen_unit_terminal(instance, objs)),
        ("unitor-associator-left",
         lambda: _gen_unitor_vs_associator(instance, objs, "left")),
        ("unitor-associator-right",
         lambda: _gen_unitor_vs_associator(instance, objs, "right")),
        ("proj-assoc-right", lambda: _gen_proj_assoc_right(instance, objs)),
        ("proj-assoc-left", lambda: _gen_proj_assoc_left(instance, objs)),
        ("proj-middle-deletion",
         lambda: _gen_proj_middle_deletion(instance, objs)),
        ("proj-tensor-factor-1",
         lambda: _gen_proj_tensor_factor(instance, objs, 1)),
        ("proj-tensor-factor-2",
         lambda: _gen_proj_tensor_factor(instance, objs, 2)),
    ]
    braid_checks = [
        ("braid-unitors", lambda: _gen_braid_unitors(instance, objs)),
        ("braid-projections-1",
         lambda: _gen_braid_projections(instance, objs, 1)),
        ("braid-projections-2",
         lambda: _gen_braid_projections(instance, objs, 2)),
    ]
    for name, gen in braid_checks:
        if braided:
            checks.append((name, gen))
        else:
            report.entries.append(CheckEntry(name, True, 0, "skipped: no braiding"))
    checks.append(
        ("ppb-equalizing", lambda: _gen_ppb_equalizing(instance, objs, False))
    )
    checks.append(
        ("ppb-tensor-compare", lambda: _gen_ppb_equalizing(instance, objs, True))
    )
    for name, gen in checks:
        entry = _run_check(name, gen())
        report.entries.append(entry)
        if fail_fast and not entry.ok:
            break
    report.entries.sort(key=lambda e: e.name)
    return report
