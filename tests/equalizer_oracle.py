"""One cover's literal equalizer diagram, built on its own.

This is the diagram `check_sheaf_equalizer` once built for every small
cover, kept as the oracle for the shared diagrams that replaced it: the
sections over the target against the equalizer of the two maps
``prod F(U_i) => prod F(U_i x_U U_j)``, read through `site.overlap` and
`Presheaf.restrict`.
"""

import itertools

from qsheaf import finset, sheaf
from qsheaf.finset import FinMap, FinSetObj


def one_cover_verdict(f, cover):
    """The cover's verdict from its own diagram, or None when it is too
    large to build (the threshold is read at call time)."""
    site = f.site
    legs = cover.legs
    prod = 1
    for leg in legs:
        prod *= len(f.value(leg.dom))
    if prod > sheaf.CROSSCHECK_THRESHOLD or len(legs) > 8:
        return None
    lefts, rights = [], []
    for i, j in itertools.product(range(len(legs)), repeat=2):
        w = site.overlap(legs[i], legs[j])
        lefts.append((i, f.restrict(w, legs[i].dom).assignment))
        rights.append((j, f.restrict(w, legs[j].dom).assignment))
    tuples = list(itertools.product(*(f.value(leg.dom) for leg in legs)))
    leg_obj = FinSetObj(range(len(tuples)))
    overlap_ids = {}
    first_table, second_table = {}, {}
    for k, t in enumerate(tuples):
        first_table[k] = overlap_ids.setdefault(
            tuple([m[t[i]] for i, m in lefts]), len(overlap_ids)
        )
        second_table[k] = overlap_ids.setdefault(
            tuple([m[t[j]] for j, m in rights]), len(overlap_ids)
        )
    pair_obj = FinSetObj(range(len(overlap_ids)))
    sub, _ = finset.equalizer(
        FinMap(leg_obj, pair_obj, first_table),
        FinMap(leg_obj, pair_obj, second_table),
    )
    maps = [f.restrict(leg.dom, cover.target).assignment for leg in legs]
    sections = [tuple([m[z] for m in maps]) for z in f.value(cover.target)]
    image = set(sections)
    if len(image) != len(sections):
        return sheaf.VERDICT_PRESHEAF
    if image != {tuples[k] for k in sub}:
        return sheaf.VERDICT_SEPARATED
    return sheaf.VERDICT_SHEAF
