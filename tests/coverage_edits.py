"""Explicit coverages one family away from another, for mutation tests.

The program never edits a coverage; the tests add or drop one family to
show that the axiom checks, the sheaf checks and the sieves notice.
"""

from qsheaf.coverage import Coverage
from qsheaf.errors import InvalidSpec


def without_family(cov: Coverage, fam) -> Coverage:
    """Explicit copy with one family removed; membership follows."""
    remaining = [f for f in cov.all_families() if f != fam]
    if len(remaining) == cov.family_count():
        raise InvalidSpec(f"family {fam!r} is not assigned")
    return _explicit_copy(cov, remaining)


def with_family(cov: Coverage, fam) -> Coverage:
    """Explicit copy with one family added."""
    return _explicit_copy(cov, list(cov.all_families()) + [fam])


def _explicit_copy(cov: Coverage, families) -> Coverage:
    if cov.components is not None:
        # membership would become the clamped multisets of the
        # positional pairings the product assigns
        raise InvalidSpec(
            "a product coverage has no explicit copy: its membership is"
            " the two-marginal rule, which no list of families"
            " reproduces; edit a component and take the product again"
        )
    return Coverage(
        cov.site,
        families,
        flavor=cov.flavor,
        join_rule=False,
        quantale=cov.quantale,
        mult_cap=cov.mult_cap,
    )
