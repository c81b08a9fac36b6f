"""Weyl groups as permutations of the roots, with exact integer actions.

An element is the permutation it induces on the root index set (the
CHEVIE convention): perm[k] is the index of w(alpha_k).  It is keyed by
the images of the simple roots, which determine it because W acts
trivially on the annihilator of the coroots; a product is therefore one
composition on the simple roots and one dictionary lookup, O(rank).

Each element has one integer matrix, its action on X*(T) (elements[i]);
its action on X_*(T) is held by rows, which repeat across W (D4's 192
cocharacter matrices have 16 distinct rows): each distinct row once
(cochar_rows), and element i's matrix as its rows' indices there
(cochar_ids[i]).  A scan point takes one dot product per distinct row
and reads every element's images off those values: the stabilizer
sweep, the cocycle differences (obstruction) and a scan's orbit walk.
Every matrix action of W comes from one RowTable over the simple
reflections, each element's matrix from its parent's: the character
matrices from the datum's reflections, the cocharacter matrices from
their transposes (w's is the transpose of w^-1's character matrix, and
a reflection is its own inverse), and the source actions of
levels.SharedWeylAction from the source reflections.

The group's order comes from the Cartan matrix of the simple roots
(group_order), with no element built: that is all the generation cap
needs, and classifying levels reads only the simple reflections, the
datum's own reflection matrices.  W is enumerated only where an index is
read, by generate, or by _enumerate where the order is already known:
one breadth-first search on root permutations that builds each element's
character matrix alongside and must find exactly the computed order.
Then come the canonical order (lexicographic on the flattened character
matrix, so that subgroup serializations and reports are deterministic),
the generation tree (a Schreier vector) on canonical indices, the maps
behind mult and index_of, the cocharacter rows and ids, and the index
of each root's reflection.  Beyond the generation cap the engine refuses
outright: downstream obstruction certificates need exhaustive subgroup
verification, and an approximate group would silently invalidate them.

A subgroup (a stabilizer W_L, or the subgroup generated by integral
reflections) is its sorted members, a small generating set and the
generators' rows: the position of s * w for each generator s and member
w.  Each row is computed once, when the greedy search picks its
generator, and the search closes on positions along the rows: those
are the only products in W a subgroup is built from.  The closure check
reads only the rows: each must be a permutation of the positions, and a
breadth-first search from the identity along them must reach every
member.  The cocycle identity is checked on generator edges
(obstruction).  A subgroup is built and closure-checked once per member
set per group: the group keeps each verified subgroup by its sorted
members (subgroups), so scan points that share a stabilizer share its
generators, rows and closure check, while each point still tests every
element of W for its members.  The integral reflections are closed in W
itself by the same greedy search, its products read through mult.  The
full left-regular table, each further row a generator row composed with
the row of its parent in that search, is built on its first read, by
its one reader: the bar complex of H^1, in certificates, after its cell
cap, and is kept with its subgroup.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, getitem, mul, sub

from .intlinalg import (
    CapExceeded,
    Frozen,
    Matrix,
    RatVector,
    Vector,
    _greedy_generators,
    det,
    identity,
    matvec,
    transpose,
)
from .rootdata import DatumError, RootDatum

Permutation = tuple[int, ...]


class RowTable:
    """Products of the n x n integer matrices gens, kept by their rows:
    each distinct row once (rows), a matrix as its rows' ids there.
    child(k, ids) is gens[k] M for M with row ids ids: only the rows where
    gens[k] differs from the identity are computed, as sums of M's rows
    over their nonzero entries, 1 and -1 adding and subtracting whole rows."""

    def __init__(self, gens, n: int):
        eye = identity(n)
        self.rows: list[Vector] = []
        self._ids: dict[Vector, int] = {}
        self.identity = tuple(map(self._intern, eye))
        # for each generator, (i, its nonzero (j, entry) in row i) over the
        # rows i where it differs from the identity
        self._changed = [[(i, [(j, c) for j, c in enumerate(row) if c])
                          for i, (row, e) in enumerate(zip(m, eye)) if row != e]
                         for m in gens]

    def _intern(self, row: Vector) -> int:
        j = self._ids.setdefault(row, len(self.rows))
        if j == len(self.rows):
            self.rows.append(row)
        return j

    def child(self, k: int, ids: tuple[int, ...]) -> tuple[int, ...]:
        rows = self.rows
        out = list(ids)
        for i, terms in self._changed[k]:
            acc = repeat(0)
            for j, c in terms:
                row = rows[ids[j]]
                if c == 1:
                    acc = map(add, acc, row)
                elif c == -1:
                    acc = map(sub, acc, row)
                else:
                    acc = map(add, acc, map(c.__mul__, row))
            out[i] = self._intern(tuple(acc))
        return tuple(out)


class WeylGroup:
    """A Weyl group as generate enumerates it, in canonical order:
    elements (character matrices), perms (root permutations), the
    generation tree (tree[i] = (g, parent) with elements[i] =
    elements[g] * elements[parent], where g is a generator;
    tree[identity_index] is None), generators, identity_index and
    reflections (reflections[k] is the index of the reflection in
    root k, None when that reflection is not in the group).  The
    cocharacter matrix of elements[i], the transpose of the character
    matrix of its inverse, is kept by its rows: row k of it is
    cochar_rows[cochar_ids[i][k]], each distinct row held once
    (RowTable).  subgroups holds each subgroup built so far
    (subgroup_from_members).  It is built from the search's perms,
    chars and steps (g, parent) in the order found: the identity, then
    each simple reflection."""

    def __init__(self, datum: RootDatum, perms: list[Permutation],
                 chars: list[Matrix], steps: list[tuple[int, int] | None]):
        order = sorted(range(len(chars)), key=chars.__getitem__)
        pos = [0] * len(order)
        for i, b in enumerate(order):
            pos[b] = i
        simple = datum.simple_indices
        self.datum = datum
        self.elements = tuple(chars[b] for b in order)
        self.perms = tuple(perms[b] for b in order)
        self.generators = tuple(pos[1:len(simple) + 1])
        self.tree = tuple(
            None if steps[b] is None else (self.generators[steps[b][0]], pos[steps[b][1]])
            for b in order)
        self.identity_index = pos[0]
        self._keys = tuple(tuple(p[s] for s in simple) for p in self.perms)
        self._by_key = {k: i for i, k in enumerate(self._keys)}
        self._index = {m: i for i, m in enumerate(self.elements)}
        self.reflections = tuple(self._index.get(datum.reflection_char(k))
                                 for k in range(len(datum.roots)))
        # the cocharacter matrix of s w is s^T times that of w, as a
        # reflection is its own inverse; the search puts parents first
        table = RowTable([transpose(datum.reflection_char(s)) for s in simple],
                         datum.rank)
        ids = [table.identity]
        for g, parent in steps[1:]:
            ids.append(table.child(g, ids[parent]))
        self.cochar_rows = tuple(table.rows)
        self.cochar_ids = tuple(map(ids.__getitem__, order))
        # each verified subgroup, by its sorted members (subgroup_from_members)
        self.subgroups: dict[tuple[int, ...], Subgroup] = {}

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, char_action: Matrix) -> int:
        return self._index[char_action]

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (i acts after j)."""
        return self._by_key[tuple(map(self.perms[i].__getitem__, self._keys[j]))]


def simple_root_permutations(rd: RootDatum) -> tuple[Permutation, ...]:
    """The permutation of the root indices induced by each simple reflection."""
    coords = rd.root_coords()
    where = {c: k for k, c in enumerate(coords)}
    out = []
    for i in rd.simple_indices:
        m = rd.reflection_char(i)
        try:
            out.append(tuple(where[matvec(m, c)] for c in coords))
        except KeyError:
            raise DatumError(
                f"reflection in root[{i}] does not permute the roots") from None
    return tuple(out)


# the default bound on |W|: D7 (322,560) is under it, D8 (5,160,960) over
WEYL_ORDER_CAP = 10**6


@lru_cache(maxsize=64)
def group_order(rd: RootDatum, cap: int = WEYL_ORDER_CAP) -> int:
    """|W| without enumerating W: the product over k of [W_k : W_{k-1}] =
    |W_k . omega_k^vee|, where W_k = <s_1, ..., s_k> and the stabilizer
    of omega_k^vee in W_k is W_{k-1} (Humphreys, Reflection Groups and
    Coxeter Groups, 1.10-1.12).  A coweight is the tuple v of its
    pairings with the simple roots: omega_k^vee is the k-th unit tuple and
    s_i sends v to v - v_i c[i], for the Cartan matrix c[i][j] =
    <alpha_j, alpha_i^vee>.  That counts the group the simple reflections
    generate when they pair non-positively and are linearly independent;
    otherwise DatumError.  Raises CapExceeded as soon as the running
    product passes cap; it is checked only as an orbit grows, so a group
    of order 1 is never refused.  The 64 most recent counts are kept by
    (rd, cap), so the command line's check on the target datum, made
    before the isogeny is built, and the action built after it count
    once; a refusal is not kept.
    """
    simple = rd.simple_indices
    c = rd.cartan_matrix
    r = len(c)
    acute = [f"root[{simple[i]}] and root[{simple[j]}]" for i in range(r)
             for j in range(r) if i != j and c[i][j] > 0]
    if acute:
        raise DatumError(f"simple roots {acute[0]} pair positively")
    if det(c) == 0:
        raise DatumError("simple roots are linearly dependent")
    total = 1
    for k in range(r):
        start = tuple(int(j == k) for j in range(r))
        orbit, frontier = {start}, [start]
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(k + 1):
                    if v[i]:
                        u = tuple(x - v[i] * y for x, y in zip(v, c[i]))
                        if u not in orbit:
                            orbit.add(u)
                            nxt.append(u)
                            if total * len(orbit) > cap:
                                raise _over_cap(cap)
            frontier = nxt
        total *= len(orbit)
    return total


def classical_order(series: str, rank: int, cap: int = WEYL_ORDER_CAP) -> int:
    """|W| of the classical root system of this series and rank, from its
    closed form, with no datum built: (n+1)! for A_n, 2^n n! for B_n and
    C_n, and 2^(n-1) n! for D_n (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, plates I-IV).  Raises CapExceeded as group_order does, when
    |W| is over cap.  Every factor is at least 2, so a refusal comes
    within log2(cap) + 1 of them, whatever the rank."""
    n = rank
    if series == "A":
        factors = range(2, n + 2)
    else:
        factors = chain(range(2, n + 1), repeat(2, n - (series == "D")))
    order = 1
    for f in factors:
        order *= f
        if order > cap:
            raise _over_cap(cap)
    return order


def _over_cap(cap: int) -> CapExceeded:
    return CapExceeded(f"Weyl group order exceeds the configured cap {cap}")


def generate(rd: RootDatum, cap: int = WEYL_ORDER_CAP) -> WeylGroup:
    """W enumerated in full.  Raises CapExceeded when group_order
    refuses, before any element is built."""
    return _enumerate(rd, group_order(rd, cap))


def _enumerate(rd: RootDatum, n: int) -> WeylGroup:
    """Breadth-first closure of the simple reflections on root
    permutations, each element's character matrix built alongside from
    its parent's (RowTable), for a group of order n (group_order).
    Raises AssertionError unless the search finds exactly n elements."""
    simple = rd.simple_indices
    gen_perms = simple_root_permutations(rd)
    table = RowTable([rd.reflection_char(s) for s in simple], rd.rank)
    perms = [tuple(range(len(rd.roots)))]
    ids = [table.identity]
    steps: list[tuple[int, int] | None] = [None]  # (generator position, parent)
    found = {tuple(simple)}
    frontier = [0]
    while frontier:
        new_frontier = []
        for w in frontier:
            pw = perms[w]
            for g, pg in enumerate(gen_perms):
                key = tuple(pg[pw[s]] for s in simple)
                if key in found:
                    continue
                found.add(key)
                new_frontier.append(len(perms))
                perms.append(tuple(map(pg.__getitem__, pw)))
                ids.append(table.child(g, ids[w]))
                steps.append((g, w))
        frontier = new_frontier
    if len(perms) != n:
        raise AssertionError(
            f"Weyl group has {len(perms)} elements, not its order {n}")
    chars = [tuple(map(table.rows.__getitem__, m)) for m in ids]
    return WeylGroup(rd, perms, chars, steps)


class Subgroup(Frozen):
    """Subgroup given by sorted element indices against the canonical order.

    gen_rows[k][a] is the position in members of generators[k] *
    members[a]; these rows are the only products in W a subgroup is
    built from (group.mult), each taken once.  table, the left-regular
    table (table[a][b] is the position of members[a] * members[b]), is
    composed from them on its first read and kept: only the H^1 bar
    complex reads it.
    """

    _fields = ("group", "members", "generators", "gen_rows")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        e = self.members.index(self.group.identity_index)
        return _compose_table(self.gen_rows, e, len(self.members))

    def verify_closed(self) -> bool:
        """The identity is a member, each generator row is a permutation
        of the positions, and a breadth-first search from the identity
        along the rows reaches every member.  Then the members are closed
        under left multiplication by the generators and are all words in
        them: they are the subgroup the generators span."""
        if self.group.identity_index not in self.members:
            return False
        n = len(self.members)
        everyone = set(range(n))
        if any(len(row) != n or set(row) != everyone for row in self.gen_rows):
            return False
        e = self.members.index(self.group.identity_index)
        return len(_tree_steps(self.gen_rows, e)) == n - 1


_NOT_CLOSED = "member set is not closed under the group operations"


def _generators_and_rows(group: WeylGroup, members: tuple[int, ...]
                         ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The greedy generators of a subgroup given by its sorted members
    (with the identity), and their rows (intlinalg._greedy_generators), made
    with group.mult.  Raises ValueError when a product leaves members."""
    pos = {w: a for a, w in enumerate(members)}

    def row(a: int) -> tuple[int, ...]:
        try:
            return tuple(pos[group.mult(members[a], w)] for w in members)
        except KeyError:
            raise ValueError(_NOT_CLOSED) from None

    n = len(members)
    gens, rows, _ = _greedy_generators(range(n), pos[group.identity_index], row, n)
    return tuple(members[a] for a in gens), rows


def _tree_steps(gen_rows: tuple[tuple[int, ...], ...],
                e: int) -> list[tuple[int, int, int]]:
    """The breadth-first tree from position e along the generator rows:
    steps (b, k, a) with b = gen_rows[k][a], in the order found."""
    seen = {e}
    steps = []
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for k, row in enumerate(gen_rows):
                b = row[a]
                if b not in seen:
                    seen.add(b)
                    steps.append((b, k, a))
                    nxt.append(b)
        frontier = nxt
    return steps


def _compose_table(gen_rows: tuple[tuple[int, ...], ...], e: int,
                   n: int) -> tuple[tuple[int, ...], ...]:
    """The left-regular table on n positions from the generator rows of
    a closed subgroup: each row is a generator row composed with the row
    of its parent in the breadth-first tree, (g w) * v = g * (w v)."""
    rows: list[tuple[int, ...]] = [()] * n
    rows[e] = tuple(range(n))
    for b, k, a in _tree_steps(gen_rows, e):
        rows[b] = tuple(map(gen_rows[k].__getitem__, rows[a]))
    return tuple(rows)


def subgroup_from_members(group: WeylGroup, members) -> Subgroup:
    """The subgroup with the given members (the identity added), built
    and closure-checked the first time its member set is asked for and
    then kept in group.subgroups for as long as the group lives.  Raises
    ValueError when the members are not closed; such a set is not kept."""
    members = tuple(sorted(set(members) | {group.identity_index}))
    sub = group.subgroups.get(members)
    if sub is None:
        sub = Subgroup(group, members, *_generators_and_rows(group, members))
        if not sub.verify_closed():
            raise ValueError(_NOT_CLOSED)
        group.subgroups[members] = sub
    return sub


def stabilizer(group: WeylGroup, xi: RatVector, cap: int | None = None) -> Subgroup:
    """Elements w with w.xi - xi in the cocharacter lattice.

    xi is given in X_*(T) basis coordinates; the test is exact, on the
    integer numerators of xi, and is made for every element of W: the
    value of each distinct cocharacter row on the numerators is taken
    once (group.cochar_rows), and element i is a member when, for every
    coordinate k, the value of its k-th row (group.cochar_ids[i][k]) is
    congruent to the k-th numerator modulo the denominator.  Raises
    CapExceeded when the stabilizer has more than cap members, before
    any generator or table is built.  Points with the same member set
    share one Subgroup (subgroup_from_members).
    """
    nums, den = xi.nums, xi.den
    values = [sum(map(mul, row, nums)) for row in group.cochar_rows]
    # fixed[k][j]: row j's value is the k-th numerator modulo den
    fixed = [[(v - x) % den == 0 for v in values] for x in nums]
    members = [i for i, ids in enumerate(group.cochar_ids)
               if all(map(getitem, fixed, ids))]
    if cap is not None and len(members) > cap:
        raise CapExceeded(f"stabilizer W_L of order {len(members)} exceeds "
                          f"the exhaustive verification cap {cap}")
    return subgroup_from_members(group, members)


def integral_reflections(group: WeylGroup, xi: RatVector,
                         stab: Subgroup) -> list[int]:
    """Indices in W of the reflections s_alpha with <alpha, xi>
    integral, where stab is stabilizer(group, xi).  Each of them fixes xi
    modulo the lattice, so raises AssertionError when one is not a
    member of stab."""
    members = set(stab.members)
    nums, den = xi.nums, xi.den
    seeds = set()
    for alpha, w in zip(group.datum.root_coords(), group.reflections):
        if sum(map(mul, alpha, nums)) % den:
            continue
        if w not in members:
            raise AssertionError(
                "integral reflection subgroup escaped the stabilizer"
            )
        seeds.add(w)
    return sorted(seeds)


def integral_reflection_subgroup(group: WeylGroup, xi: RatVector,
                                 stab: Subgroup) -> Subgroup:
    """Subgroup generated by reflections s_alpha with <alpha, xi> integral,
    where stab is stabilizer(group, xi).

    They are closed in W by intlinalg._greedy_generators, reading products
    through group.mult on demand.  The closure lies inside stab, and
    differs from it when the centralizer is disconnected; when the member
    sets are equal, stab itself is returned, with its generators.
    """
    _, _, have = _greedy_generators(integral_reflections(group, xi, stab),
                                    group.identity_index,
                                    lambda s: _LeftRow(group.mult, s), len(stab))
    members = tuple(sorted(have))
    return stab if members == stab.members else subgroup_from_members(group, members)


class _LeftRow:
    """The row of s in W, read on demand: [w] is the index of s * w."""

    def __init__(self, mult, s: int):
        self.mult, self.s = mult, s

    def __getitem__(self, w: int) -> int:
        return self.mult(self.s, w)
