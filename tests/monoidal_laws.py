"""The categorical-law suite and the iso test that only the tests run.

`qsheaf.moncat.coherence.verify_appendix_suite` checks what the sheaf
machinery depends on. The composition, identity and braiding laws here
complete the monoidal axioms; `test_coherence.py` runs them on lawful
and deliberately broken instances through the same suite runner.
"""

import itertools

from qsheaf.moncat import FinSetCategory, ProductCategory
from qsheaf.moncat.coherence import (
    _gen_pentagon,
    _gen_triangle,
    _gen_unit_terminal,
    _mismatch,
    _run_suite,
)


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
                    yield _mismatch(lhs, rhs, "(h.g).f at {}->{}", a, e)


def _gen_compose_identity(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        ida, idb = c.identity(a), c.identity(b)
        for f in c.hom(a, b):
            yield _mismatch(c.compose(idb, f), f, "id.f at {}->{}", a, b)
            yield _mismatch(c.compose(f, ida), f, "f.id at {}->{}", a, b)


def _gen_braid_symmetry(c, objs):
    for a, b in itertools.product(objs, repeat=2):
        braid = c.braiding(a, b)
        back = c.braiding(b, a)
        yield _mismatch(
            c.compose(back, braid),
            c.identity(c.tensor_obj(a, b)),
            "b.b at ({},{})", a, b,
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
        yield _mismatch(lhs, rhs, "hexagon({},{},{})", a, b, d)


_MONOIDAL_LAWS = (
    ("compose-assoc", _gen_compose_assoc),
    ("compose-identity", _gen_compose_identity),
    ("pentagon", _gen_pentagon),
    ("triangle", _gen_triangle),
    ("unit-terminal", _gen_unit_terminal),
    ("braid-symmetry", _gen_braid_symmetry),
    ("braid-hexagon", _gen_braid_hexagon),
)


def is_iso(c, m) -> bool:
    """Is the morphism `m` of the instance `c` invertible?

    A finite-set map is when it is a bijection, a pair when both
    components are, and an arrow of a thin site when it is an identity.
    """
    if isinstance(c, ProductCategory):
        return is_iso(c.c1, m.data[0]) and is_iso(c.c2, m.data[1])
    if isinstance(c, FinSetCategory):
        return m.data.is_bijective()
    return m.dom == m.cod


def verify_monoidal_laws(instance, size_bound=None):
    """Category, monoidal, unit-terminal, and braiding axioms."""
    return _run_suite(instance, size_bound, _MONOIDAL_LAWS)
