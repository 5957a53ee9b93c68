"""The pointwise order of a subsheaf lattice, which only the tests read.

`qsheaf.reflect.SubobjectLattice` keeps its members, sorted by size, and
their inclusions; the tests compare this order, its meets and its joins
with the quantale a lattice should reproduce.
"""


def subsheaf_leq(lattice, i: int, j: int) -> bool:
    """Is member i contained in member j at every object?"""
    a, b = lattice.members[i], lattice.members[j]
    return all(
        set(a.value(u).elements) <= set(b.value(u).elements)
        for u in lattice.ambient.objects()
    )


def subsheaf_meet(lattice, i: int, j: int) -> int:
    """The index of the member that is the intersection of members i and j."""
    a, b = lattice.members[i], lattice.members[j]
    want = {
        u: set(a.value(u).elements) & set(b.value(u).elements)
        for u in lattice.ambient.objects()
    }
    meets = [
        k
        for k, m in enumerate(lattice.members)
        if all(set(m.value(u).elements) == want[u] for u in want)
    ]
    assert len(meets) == 1, f"S{i} and S{j} meet outside the lattice"
    return meets[0]


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
