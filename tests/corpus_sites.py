"""The six shipped corpus sites with their canonical and trivial coverages,
and the corpus presheaves on each."""

import json

from qsheaf.cli import corpus_dir
from qsheaf.coverage import (
    canonical_quantale_coverage,
    parse_coverage,
    product_coverage,
)
from qsheaf.moncat import ThinCategory
from qsheaf.presheaf import parse_presheaf
from qsheaf.quantale import validate_quantale

CORPUS_SITES = ["chain3", "ideals4", "luk3", "powerset2", "product_chain2_luk3", "tnat3"]


def corpus(name):
    return json.loads((corpus_dir() / name).read_text())


def corpus_site(name):
    """(site, canonical coverage, trivial coverage) of a corpus site file.

    A product site's canonical coverage pairs its factors' canonical
    coverages and lives on the product site that pairing builds.
    """
    raw = corpus(f"site_{name}.json")
    trivial = corpus(f"coverage_trivial_{name}.json")
    if "product" in raw:
        qs = [validate_quantale(raw["product"][side]) for side in ("left", "right")]
        canonical = product_coverage(*(
            canonical_quantale_coverage(q, ThinCategory.from_quantale(q)) for q in qs
        ))
        return canonical.site, canonical, parse_coverage(canonical.site, trivial)
    q = validate_quantale(raw)
    site = ThinCategory.from_quantale(q)
    canonical = canonical_quantale_coverage(q, site)
    return site, canonical, parse_coverage(site, trivial, quantale=q)


def corpus_presheaves(name, site):
    """Every corpus presheaf on the named corpus site, in file-name order."""
    prefix = "product" if name.startswith("product") else name
    files = sorted(corpus_dir().glob(f"presheaf_{prefix}_*.json"))
    assert files
    return [parse_presheaf(site, json.loads(path.read_text())) for path in files]
