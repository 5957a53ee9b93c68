"""Acceptance work the command line cannot reach, as direct library calls.

Each function takes the corpus directory and the task's arguments and
returns the boolean that `answers` expects.  qsheaf is reached through
module attributes (`reflect.sheafify`, not a name imported from it) so
that a traced pass sees these calls too.
"""

import json

from qsheaf import coverage, finset, moncat, presheaf, quantale, reflect, sheaf


def site_of(raw):
    """The site a site file describes, with its (quantale, site) factors.

    A plain site has one factor; a `{"product": ...}` site has two.
    """
    if "product" in raw:
        qs = [quantale.validate_quantale(raw["product"][side]) for side in ("left", "right")]
        factors = [(q, moncat.ThinCategory.from_quantale(q)) for q in qs]
        return moncat.ThinCategory.product(*(s for _, s in factors)), factors
    q = quantale.validate_quantale(raw)
    site = moncat.ThinCategory.from_quantale(q)
    return site, [(q, site)]


def _load(corpus, site_file):
    """(site, canonical coverage) for a corpus site file, as the CLI builds them."""
    site, factors = site_of(json.loads((corpus / site_file).read_text(encoding="utf-8")))
    covs = [coverage.canonical_quantale_coverage(q, s) for q, s in factors]
    return site, covs[0] if len(covs) == 1 else coverage.product_coverage(*covs)


def _presheaf(corpus, site, name):
    raw = json.loads((corpus / name).read_text(encoding="utf-8"))
    return presheaf.parse_presheaf(site, raw)


def shifts_stay_sheaves(corpus, site, presheaf_file):
    """Every shift v -> F(u * v) of a sheaf F is again a sheaf."""
    s, cov = _load(corpus, site)
    f = _presheaf(corpus, s, presheaf_file)
    return all(
        sheaf.check_sheaf_equalizer(sheaf.shift_presheaf(f, u), cov).ok
        for u in s.objects()
    )


def plus_plus_is_sheafify(corpus, site, presheaf_file):
    """On a locale, sheafification agrees with the plus construction twice."""
    s, cov = _load(corpus, site)
    f = _presheaf(corpus, s, presheaf_file)
    reflected = reflect.sheafify(f, cov).sheaf
    twice = sheaf.plus_construction(sheaf.plus_construction(f, cov), cov)
    return presheaf.iso_presheaves(reflected, twice) is not None


def preserves_terminal(corpus, site):
    _, cov = _load(corpus, site)
    return reflect.preserves_terminal(cov).ok


def _reversed_zip(dom, cod):
    return finset.FinMap(dom, cod, dict(zip(list(dom), reversed(list(cod)))))


def _broken_associator(c, x, y, z):
    dom = c.tensor_obj(c.tensor_obj(x, y), z)
    cod = c.tensor_obj(x, c.tensor_obj(y, z))
    return moncat.Mor(dom, cod, _reversed_zip(dom, cod))


def _broken_braiding(c, a, b):
    dom = c.tensor_obj(a, b)
    cod = c.tensor_obj(b, a)
    return moncat.Mor(dom, cod, _reversed_zip(dom, cod))


def mutated_appendix(corpus, which):
    """Does the coherence suite pass on a deliberately broken finite-set instance?"""
    broken = {
        "associator": {"associator_fn": _broken_associator},
        "braiding": {"braiding_fn": _broken_braiding},
        "equalizer": {"equalizer_fn": moncat.trivial_equalizer},
    }[which]
    instance = moncat.FinSetCategory(max_size=2, **broken)
    return moncat.verify_appendix_suite(instance, size_bound=2).ok
