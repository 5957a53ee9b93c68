"""Exhaustive coherence checks for semicartesian monoidal instances.

`verify_appendix_suite` checks the monoidal axioms the sheaf machinery
depends on (pentagon, triangle, unit terminal) and every interaction law
between projections, the associator, the braiding, and pseudo-pullback
equalizers. It quantifies over all objects within an optional size bound
and reports one entry per named law with a witness tuple for the first
failure found. The two pseudo-pullback laws share one
enumeration of their instances and keep separate counts and witnesses.
"""

from __future__ import annotations

import itertools

from ..checks import CheckEntry, CheckReport, drain, drain_each
from ..finset import FinMap
from .core import Mor, MonoidalCategory, canon, projection1, projection2


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


def _guarded(failures, laws=1):
    """Report an exception of a broken instance as the failing instance
    of each of the `laws` the generator decides (a tuple when several)."""
    try:
        yield from failures
    except Exception as exc:  # a broken instance may not even typecheck
        witness = f"exception: {exc}"
        yield witness if laws == 1 else (witness,) * laws


def _mismatch(lhs: Mor, rhs: Mor, where: str, *objs):
    """None when lhs == rhs, else `where` filled with the objects' names
    followed by the first difference."""
    if lhs == rhs:
        return None
    return where.format(*map(canon, objs)) + ": " + _first_diff(lhs, rhs)


# ---------------------------------------------------------------------------
# categorical law generators


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
        yield _mismatch(lhs, rhs, "pentagon({},{},{},{})", w, x, y, z)


def _gen_triangle(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), c.left_unitor(b)),
            c.associator(a, c.unit, b),
        )
        rhs = c.tensor_mor(c.right_unitor(a), c.identity(b))
        yield _mismatch(lhs, rhs, "triangle({},{})", a, b)


def _gen_unit_terminal(c, objs):
    for x in objs:
        n = len(c.hom(x, c.unit))
        yield None if n == 1 else f"|hom({canon(x)},1)| = {n}"


def _gen_unitor_vs_associator(c, objs, side):
    where = "unitor-" + side + "({},{})"
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
        yield _mismatch(lhs, rhs, where, a, b)


def _gen_braid_unitors(c, objs):
    for a in objs:
        yield _mismatch(
            c.compose(c.left_unitor(a), c.braiding(a, c.unit)),
            c.right_unitor(a),
            "l.b_(a,1) at {}", a,
        )
        yield _mismatch(
            c.compose(c.right_unitor(a), c.braiding(c.unit, a)),
            c.left_unitor(a),
            "r.b_(1,a) at {}", a,
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
        yield _mismatch(lhs, rhs, "({},{},{})", x, a, b)


def _gen_proj_assoc_left(c, objs):
    # first projection through the associator deletes the right factor
    for a, b, x in itertools.product(objs, repeat=3):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), projection1(c, b, x)),
            c.associator(a, b, x),
        )
        rhs = projection1(c, c.tensor_obj(a, b), x)
        yield _mismatch(lhs, rhs, "({},{},{})", a, b, x)


def _gen_proj_middle_deletion(c, objs):
    # deleting the middle factor agrees with the tensored projections
    for a, x, b in itertools.product(objs, repeat=3):
        lhs = c.compose(
            c.tensor_mor(c.identity(a), projection2(c, x, b)),
            c.associator(a, x, b),
        )
        rhs = c.tensor_mor(projection1(c, a, x), c.identity(b))
        yield _mismatch(lhs, rhs, "({},{},{})", a, x, b)


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
        yield _mismatch(lhs, rhs, "({},{},{})", x, a, b)


def _gen_braid_projections(c, objs, which):
    for a, b in itertools.product(objs, repeat=2):
        braid = c.braiding(a, b)
        if which == 1:
            lhs = c.compose(projection2(c, b, a), braid)
            rhs = projection1(c, a, b)
        else:
            lhs = c.compose(projection1(c, b, a), braid)
            rhs = projection2(c, a, b)
        yield _mismatch(lhs, rhs, "({},{})", a, b)


# ---------------------------------------------------------------------------
# pseudo-pullback equalizing and comparison generators


def _ppb_tag(x, a, b, cod):
    return f"X={canon(x)}, f:{canon(a)}->{canon(cod)}, g:{canon(b)}->{canon(cod)}"


def _gen_ppb_laws(c, objs):
    """Both pseudo-pullback laws on one walk, a witness pair per instance.

    `ppb-equalizing`: the composite `m` into X(x)(A(x)B) equalizes the
    tensored cospan; its failure is also the second law's witness.
    `ppb-tensor-compare`: `m` also factors through the tensored base
    equalizer by a mono, certifying the comparison morphism that
    tensor-preservation promises; an exception there fails only this
    law. The maps that depend on `g` alone are built once per
    ``(x, a, b, cod)`` ahead of the `f` loop, and only when that loop
    has an `f` to run.
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
                    homs_f = c.hom(a, cod)
                    if not homs_f:
                        continue
                    # per g: g.pi2_small, (id_x (x) g).pi2_big, id_x (x) g.pi2_small
                    g_side = []
                    for g in c.hom(b, cod):
                        big_right = c.compose(c.tensor_mor(id_x, g), pi2_big)
                        g_small = c.compose(g, pi2_small)
                        g_side.append(
                            (g_small, big_right, c.tensor_mor(id_x, g_small))
                        )
                    for f in homs_f:
                        xf = c.tensor_mor(id_x, f)
                        big_left = c.compose(xf, pi1_big)
                        f_small = c.compose(f, pi1_small)
                        x_f_small = c.tensor_mor(id_x, f_small)
                        for g_small, big_right, x_g_small in g_side:
                            _, e_big = c.equalizer(big_left, big_right)
                            m = c.compose(mid, e_big)
                            lhs = c.compose(x_f_small, m)
                            rhs = c.compose(x_g_small, m)
                            if lhs != rhs:
                                witness = f"{_ppb_tag(x, a, b, cod)}: {_first_diff(lhs, rhs)}"
                                yield witness, witness
                                continue
                            try:
                                why = _ppb_compare_failure(c, id_x, f_small, g_small, m)
                            except Exception as exc:  # a broken equalizer may raise
                                yield None, f"exception: {exc}"
                                continue
                            yield None, None if why is None else f"{_ppb_tag(x, a, b, cod)}: {why}"


def _ppb_compare_failure(c, id_x, f_small, g_small, m):
    """Why `m` does not factor through id_x (x) eq(f_small, g_small) by a mono."""
    _, e_base = c.equalizer(f_small, g_small)
    xe = c.tensor_mor(id_x, e_base)
    if c.factor_through_mono(xe, m) is None:
        return "no factorization through tensored equalizer"
    if isinstance(xe.data, FinMap) and not xe.data.is_injective():
        return "tensored equalizer not mono"
    return None


# ---------------------------------------------------------------------------
# public entry points


def _has_braiding(instance, objs) -> bool:
    if not objs:
        return True
    try:
        return instance.braiding(objs[0], objs[0]) is not None
    except Exception:
        return False


def _run_suite(instance, size_bound, laws) -> CheckReport:
    """One entry per law in order; laws named `braid-*` need a braiding.
    A tuple of names is one generator deciding those laws on one walk."""
    objs = _objects_within(instance, size_bound)
    heading = f"coherence on {instance!r}"
    if size_bound is not None:
        heading += f" (size bound {size_bound})"
    report = CheckReport(heading)
    braided = _has_braiding(instance, objs)
    for names, gen in laws:
        if not isinstance(names, str):
            entries = drain_each(names, _guarded(gen(instance, objs), len(names)))
        elif not braided and names.startswith("braid-"):
            entries = [CheckEntry(names, True, 0, "skipped: no braiding")]
        else:
            entries = [drain(names, _guarded(gen(instance, objs)))]
        report.entries.extend(entries)
    return report


_APPENDIX_LAWS = (
    ("pentagon", _gen_pentagon),
    ("triangle", _gen_triangle),
    ("unit-terminal", _gen_unit_terminal),
    ("unitor-associator-left",
     lambda c, objs: _gen_unitor_vs_associator(c, objs, "left")),
    ("unitor-associator-right",
     lambda c, objs: _gen_unitor_vs_associator(c, objs, "right")),
    ("proj-assoc-right", _gen_proj_assoc_right),
    ("proj-assoc-left", _gen_proj_assoc_left),
    ("proj-middle-deletion", _gen_proj_middle_deletion),
    ("proj-tensor-factor-1", lambda c, objs: _gen_proj_tensor_factor(c, objs, 1)),
    ("proj-tensor-factor-2", lambda c, objs: _gen_proj_tensor_factor(c, objs, 2)),
    ("braid-unitors", _gen_braid_unitors),
    ("braid-projections-1", lambda c, objs: _gen_braid_projections(c, objs, 1)),
    ("braid-projections-2", lambda c, objs: _gen_braid_projections(c, objs, 2)),
    (("ppb-equalizing", "ppb-tensor-compare"), _gen_ppb_laws),
)


def verify_appendix_suite(instance: MonoidalCategory, size_bound=None) -> CheckReport:
    """Every projection/associator/braiding/equalizer interaction law."""
    report = _run_suite(instance, size_bound, _APPENDIX_LAWS)
    report.entries.sort(key=lambda e: e.name)
    return report
