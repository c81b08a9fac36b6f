"""The nerve of a cover by finite sets: the cover fixtures of the
cohomology command, which imports this module when a fixture gives a
'cover' field instead of a 'nerve'."""

from __future__ import annotations

from .cech import NERVE_DIM_CAP, CechError, Nerve
from .intlinalg import CapExceeded


def nerve_of_cover(cover, dim_cap: int = NERVE_DIM_CAP,
                   reads: int | None = None) -> Nerve:
    """Nerve of a cover by finite sets, up to the dimension cap.

    reads, when given, is the highest dimension the caller reads: no
    level above it is built, and if the cap cuts off a simplex of
    dimension at most reads, the answer would be that of a truncated
    nerve, and CapExceeded is raised instead.
    """
    sets = [frozenset(c) for c in cover]
    if not sets:
        raise CechError("empty cover")
    n = len(sets)
    levels = []
    current = [((i,), sets[i]) for i in range(n) if sets[i]]
    if not current:
        raise CechError("cover has no nonempty set")
    levels.append(tuple(s for s, _ in current))
    p, top = 0, dim_cap if reads is None else min(dim_cap, reads)
    while p < top and current:
        nxt = []
        for simplex, inter in current:
            for v in range(simplex[-1] + 1, n):
                meet = inter & sets[v]
                if meet:
                    nxt.append((simplex + (v,), meet))
        if not nxt:
            break
        levels.append(tuple(s for s, _ in nxt))
        current = nxt
        p += 1
    if reads is not None and p == dim_cap < reads and any(
            inter & sets[v] for simplex, inter in current
            for v in range(simplex[-1] + 1, n)):
        raise CapExceeded(
            f"nerve has simplices of dimension {dim_cap + 1}, over the "
            f"dimension cap {dim_cap}")
    return Nerve(n, tuple(levels))
