"""The per-cover orthogonal check and the composite epi certificate.

`check_sheaf_orthogonal` once built a sieve and enumerated its homs for
every cover, and `extremal_factorize` once certified an epi by composing
it with every hom out of its codomain. Both are kept here as oracles for
the forms that replaced them: one hom enumeration per distinct sieve,
and homs compared by their values on the image.
"""

from qsheaf.presheaf import hom_presheaves, sieve_of, yoneda


def per_cover_orthogonal(f, coverage):
    """``(families, unglued, ambiguous)`` of every cover, in coverage order."""
    site = f.site
    out = []
    for cover in coverage.all_families():
        homs_y = hom_presheaves(yoneda(site, cover.target), f)
        sv = sieve_of(site, cover)
        homs_sieve = hom_presheaves(sv.presheaf, f)
        precomposed = [sv.canonical.then(m) for m in homs_y]
        images = set(precomposed)
        out.append((
            len(homs_sieve),
            len(set(homs_sieve) - images),
            len(precomposed) - len(images),
        ))
    return out


def composite_epi_certified(epi, battery):
    """Are the composites ``epi.then(alpha)``, for the homs alpha out of
    ``epi.dst`` into each battery sheaf, pairwise distinct?"""
    for g in battery:
        seen = {}
        for alpha in hom_presheaves(epi.dst, g):
            if seen.setdefault(epi.then(alpha), alpha) != alpha:
                return False
    return True
