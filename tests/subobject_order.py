"""The pointwise order of a subsheaf lattice, which only the tests read.

`qsheaf.reflect.SubobjectLattice` keeps its members, their inclusions
and the `meet` that the extremal factorization needs; the tests compare
this order and its joins with the quantale a lattice should reproduce.
"""


def subsheaf_leq(lattice, i: int, j: int) -> bool:
    """Is member i contained in member j at every object?"""
    a, b = lattice.members[i], lattice.members[j]
    return all(
        set(a.value(u).elements) <= set(b.value(u).elements)
        for u in lattice.ambient.objects()
    )


def subsheaf_join(lattice, i: int, j: int) -> int:
    """The index of the least member above members i and j."""
    uppers = [
        k
        for k in range(len(lattice.members))
        if subsheaf_leq(lattice, i, k) and subsheaf_leq(lattice, j, k)
    ]
    least = [
        k for k in uppers if all(subsheaf_leq(lattice, k, other) for other in uppers)
    ]
    assert len(least) == 1, f"{len(least)} least upper bounds of S{i} and S{j}"
    return least[0]
