"""Weyl groups as permutations of the roots, with exact integer actions.

An element is the permutation it induces on the root index set (the
CHEVIE convention): perm[k] is the index of w(alpha_k).  It is keyed by
the images of the simple roots, which determine it because W acts
trivially on the annihilator of the coroots; a product is therefore one
composition on the simple roots and one dictionary lookup, O(rank).
Each element also carries its integer actions on both lattices,
computed once when generation first reaches it, and one entry of the
generation tree (a Schreier vector) that writes it as a generator times
an element found earlier.

Elements are stored in a canonical order (lexicographic on the
flattened character-action matrix) so that subgroup serializations and
reports are deterministic.  Beyond the generation cap the engine refuses
outright: downstream obstruction certificates need exhaustive subgroup
verification, and an approximate group would silently invalidate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .intlinalg import Matrix, RatVector, Vector, identity, matvec
from .rootdata import DatumError, RootDatum


class WeylCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"Weyl group order exceeds the configured cap {cap}")
        self.cap = cap


@dataclass(frozen=True)
class WeylElement:
    """One Weyl group element acting on both lattices.

    char_action and cochar_action are contragredient integer matrices
    (char_action^T @ cochar_action = identity).
    """

    char_action: Matrix
    cochar_action: Matrix


Permutation = tuple[int, ...]


class WeylGroup:
    """Elements in canonical order, with their root permutations and the
    generation tree: tree[i] = (g, parent) with
    elements[i] = elements[g] * elements[parent], where g is a generator;
    tree[identity_index] is None."""

    def __init__(self, datum: RootDatum, elements: tuple[WeylElement, ...],
                 generators: tuple[int, ...], perms: tuple[Permutation, ...],
                 tree: tuple[tuple[int, int] | None, ...]):
        self.datum = datum
        self.elements = elements
        self.generators = generators
        self.perms = perms
        self.tree = tree
        simple = datum.simple_indices
        self._keys = tuple(tuple(p[s] for s in simple) for p in perms)
        self._by_key = {k: i for i, k in enumerate(self._keys)}
        self._index = {e.char_action: i for i, e in enumerate(elements)}
        self.identity_index = self._index[identity(datum.rank)]

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

    def inverse(self, i: int) -> int:
        p = self.perms[i]
        return self._by_key[tuple(p.index(s) for s in self.datum.simple_indices)]

    def element_order(self, i: int) -> int:
        k = 1
        j = i
        while j != self.identity_index:
            j = self.mult(j, i)
            k += 1
        return k


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


def _reflect(a: Vector, c: Vector, m: Matrix) -> Matrix:
    """(I - a c^T) @ m as a rank-one update of m."""
    cm = [sum(ck * x for ck, x in zip(c, col)) for col in zip(*m)]
    return tuple(tuple(x - ai * y for x, y in zip(row, cm))
                 for ai, row in zip(a, m))


def generate(rd: RootDatum, cap: int = 10**6) -> WeylGroup:
    """Breadth-first closure of the simple reflections on root permutations.

    Raises WeylCapExceeded when more than cap elements appear.
    """
    r = rd.rank
    simple = rd.simple_indices
    gen_perms = simple_root_permutations(rd)
    roots, coroots = rd.root_coords(), rd.coroot_coords()
    perms = [tuple(range(len(rd.roots)))]
    chars, cochars = [identity(r)], [identity(r)]
    steps: list[tuple[int, int] | None] = [None]  # (generator position, parent)
    found = {tuple(simple): 0}
    frontier = [0]
    while frontier:
        new_frontier = []
        for w in frontier:
            pw = perms[w]
            for g, pg in enumerate(gen_perms):
                key = tuple(pg[pw[s]] for s in simple)
                if key in found:
                    continue
                if len(perms) >= cap:
                    raise WeylCapExceeded(cap)
                found[key] = len(perms)
                new_frontier.append(len(perms))
                perms.append(tuple(map(pg.__getitem__, pw)))
                a, c = roots[simple[g]], coroots[simple[g]]
                chars.append(_reflect(a, c, chars[w]))
                cochars.append(_reflect(c, a, cochars[w]))
                steps.append((g, w))
        frontier = new_frontier
    order = sorted(range(len(chars)), key=chars.__getitem__)
    pos = [0] * len(order)
    for i, b in enumerate(order):
        pos[b] = i
    gen_pos = tuple(pos[found[tuple(pg[s] for s in simple)]] for pg in gen_perms)
    tree = tuple(
        None if steps[b] is None else (gen_pos[steps[b][0]], pos[steps[b][1]])
        for b in order
    )
    return WeylGroup(
        rd,
        tuple(WeylElement(chars[b], cochars[b]) for b in order),
        gen_pos,
        tuple(perms[b] for b in order),
        tree,
    )


def act_cochar(elem: WeylElement, lam: RatVector) -> RatVector:
    """Image of a rational cocharacter vector (basis coordinates)."""
    return lam.apply(elem.cochar_action)


def act_char(elem: WeylElement, chi: RatVector) -> RatVector:
    return chi.apply(elem.char_action)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup given by sorted element indices against the canonical order."""

    group: WeylGroup
    members: tuple[int, ...]
    generators: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def verify_closed(self) -> bool:
        mset = set(self.members)
        if self.group.identity_index not in mset:
            return False
        for i in self.members:
            if self.group.inverse(i) not in mset:
                return False
            for j in self.members:
                if self.group.mult(i, j) not in mset:
                    return False
        return True

    def exponent(self) -> int:
        out = 1
        for i in self.members:
            out = lcm(out, self.group.element_order(i))
        return out

    def element(self, i: int) -> WeylElement:
        return self.group.elements[i]


def _closure(group: WeylGroup, seeds) -> tuple[int, ...]:
    members = {group.identity_index}
    frontier = [group.identity_index]
    seeds = list(seeds)
    while frontier:
        nxt = []
        for i in frontier:
            for s in seeds:
                m = group.mult(s, i)
                if m not in members:
                    members.add(m)
                    nxt.append(m)
        frontier = nxt
    return tuple(sorted(members))


def _minimal_generators(group: WeylGroup, members: tuple[int, ...]) -> tuple[int, ...]:
    """Greedy small generating set of a subgroup given by its members."""
    gens: list[int] = []
    have = {group.identity_index}
    for i in members:
        if i in have:
            continue
        gens.append(i)
        have = set(_closure(group, gens))
        if len(have) == len(members):
            break
    return tuple(gens)


def subgroup_from_members(group: WeylGroup, members) -> Subgroup:
    members = tuple(sorted(set(members) | {group.identity_index}))
    sub = Subgroup(group, members, _minimal_generators(group, members))
    if not sub.verify_closed():
        raise ValueError("member set is not closed under the group operations")
    return sub


def stabilizer(group: WeylGroup, xi: RatVector) -> Subgroup:
    """Elements w with w.xi - xi in the cocharacter lattice.

    xi is given in X_*(T) basis coordinates; the test is exact.
    """
    members = []
    for i, e in enumerate(group.elements):
        diff = act_cochar(e, xi) - xi
        if diff.is_integral:
            members.append(i)
    return subgroup_from_members(group, members)


@dataclass(frozen=True)
class ReflectionComparison:
    """Reflection subgroup of the integrality stabilizer, with the
    stabilizer itself and whether the two agree (they can differ when the
    centralizer is disconnected)."""

    reflection_subgroup: Subgroup
    stabilizer: Subgroup
    equal: bool


def integral_reflection_subgroup(group: WeylGroup, xi: RatVector,
                                 stab: Subgroup | None = None) -> ReflectionComparison:
    """Subgroup generated by reflections s_alpha with <alpha, xi> integral.

    stab, when the caller already has it, is stabilizer(group, xi).
    """
    datum = group.datum
    seeds = []
    seen = set()
    for k, alpha in enumerate(datum.root_coords()):
        if sum(a * x for a, x in zip(alpha, xi.nums)) % xi.den:
            continue
        m = datum.reflection_char(k)
        if m in seen:
            continue
        seen.add(m)
        seeds.append(group.index_of(m))
    members = _closure(group, seeds)
    refl = subgroup_from_members(group, members)
    if stab is None:
        stab = stabilizer(group, xi)
    stab_set = set(stab.members)
    if not set(refl.members) <= stab_set:
        raise AssertionError(
            "integral reflection subgroup escaped the stabilizer"
        )
    return ReflectionComparison(refl, stab, refl.members == stab.members)
