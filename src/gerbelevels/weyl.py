"""Weyl groups as exact integer matrix groups on both lattices.

Elements are stored densely in a canonical order (lexicographic on the
flattened character-action matrix) so that subgroup serializations and
reports are deterministic.  Beyond the generation cap the engine refuses
outright: downstream obstruction certificates need exhaustive subgroup
verification, and an approximate group would silently invalidate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intlinalg import Matrix, RatVector, identity, matmul
from .rootdata import RootDatum


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


class WeylGroup:
    def __init__(self, datum: RootDatum, elements: tuple[WeylElement, ...],
                 generators: tuple[int, ...]):
        self.datum = datum
        self.elements = elements
        self.generators = generators
        self._index = {e.char_action: i for i, e in enumerate(elements)}
        self.identity_index = self._index[identity(datum.rank)]
        self._mult_cache: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, char_action: Matrix) -> int:
        return self._index[char_action]

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (i acts after j)."""
        key = (i, j)
        got = self._mult_cache.get(key)
        if got is None:
            prod = matmul(self.elements[i].char_action, self.elements[j].char_action)
            got = self._index[prod]
            self._mult_cache[key] = got
        return got

    def inverse(self, i: int) -> int:
        e = self.elements[i]
        # inverse char action = transpose of the cochar action
        inv = tuple(
            tuple(e.cochar_action[r][c] for r in range(len(e.cochar_action)))
            for c in range(len(e.cochar_action))
        )
        return self._index[inv]

    def element_order(self, i: int) -> int:
        k = 1
        j = i
        while j != self.identity_index:
            j = self.mult(j, i)
            k += 1
        return k


def generate(rd: RootDatum, cap: int = 10**6) -> WeylGroup:
    """Breadth-first closure of the simple reflections.

    Raises WeylCapExceeded when more than cap elements appear.
    """
    r = rd.rank
    gens = []
    for i in rd.simple_indices:
        gens.append((rd.reflection_char(i), rd.reflection_cochar(i)))
    seen: dict[Matrix, Matrix] = {identity(r): identity(r)}
    frontier = list(seen)
    while frontier:
        new_frontier = []
        for chm in frontier:
            cochm = seen[chm]
            for gch, gco in gens:
                nch = matmul(gch, chm)
                if nch in seen:
                    continue
                seen[nch] = matmul(gco, cochm)
                if len(seen) > cap:
                    raise WeylCapExceeded(cap)
                new_frontier.append(nch)
        frontier = new_frontier
    ordered = sorted(seen.keys())
    elements = tuple(WeylElement(ch, seen[ch]) for ch in ordered)
    group = WeylGroup(rd, elements, ())
    gen_indices = tuple(group.index_of(g[0]) for g in gens)
    group.generators = gen_indices
    return group


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


def integral_reflection_subgroup(group: WeylGroup, xi: RatVector) -> ReflectionComparison:
    """Subgroup generated by reflections s_alpha with <alpha, xi> integral."""
    datum = group.datum
    xi_amb = datum.cochar_ambient(xi.fractions())
    seeds = []
    seen = set()
    for k, alpha in enumerate(datum.roots):
        val = sum((a * x for a, x in zip(alpha, xi_amb)), Fraction(0))
        if val.denominator != 1:
            continue
        m = datum.reflection_char(k)
        if m in seen:
            continue
        seen.add(m)
        seeds.append(group.index_of(m))
    members = _closure(group, seeds)
    refl = subgroup_from_members(group, members)
    stab = stabilizer(group, xi)
    stab_set = set(stab.members)
    if not set(refl.members) <= stab_set:
        raise AssertionError(
            "integral reflection subgroup escaped the stabilizer"
        )
    return ReflectionComparison(refl, stab, refl.members == stab.members)
