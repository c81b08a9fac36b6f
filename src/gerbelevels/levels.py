"""Classification of bilinear level tensors over an isogeny datum.

A level is an element b of X*(S) (x) X*(T), stored as the integer matrix
B of the associated bilinear form over the cocharacter bases:
B[i][j] = b(mu_i, lambda_j).  In these coordinates integrality of b on
the cocharacter lattices is automatic and the induced map
bmap: X_*(T) -> X*(S) is plain matrix-vector multiplication (the
character-basis coordinates of b agree with B because the bases are
dual pairs).

The classification pipeline: the Weyl-invariant sublattice of all
levels, the even-values sublattice cut out by b(acheck, acheck) = 0
mod 2 over every root, and the comparison of their intersection with a
bundled reference table of classical results.  Disagreements with the
reference table are reported as data, never patched.  Lattices of
levels are computed on row-major vectors vec(B), B[i][j] at
i * rank(T) + j, and a basis becomes LevelTensors only as output.  The
coroot values are one integer matrix Q, row k the row-major
coroot_lift[k] (x) (k-th target coroot), so b(acheck_k, acheck_k) is
vec(B) . Q[k] and one product gives every value of every basis level.

Symmetry of b is not assumed anywhere; a symmetric projection helper is
provided as a labeled convenience only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .intlinalg import (
    Frozen,
    Matrix,
    RatVector,
    Vector,
    hnf_basis,
    identity,
    kernel_basis,
    matmul,
    matvec,
    over_common_denominator,
    transpose,
)
from .rootdata import DatumError, IsogenyDatum, RootDatum, _vector_text
from .weyl import (WEYL_ORDER_CAP, RowTable, WeylGroup, _enumerate,
                   group_order, simple_root_permutations)


class LevelTensor(Frozen):
    """A level b over an isogeny datum, as its cocharacter Gram matrix."""

    _fields = ("iso", "matrix")

    def __init__(self, iso: IsogenyDatum, matrix: Matrix):
        if len(matrix) != iso.source.rank:
            raise DatumError("level matrix has wrong row count")
        if any(len(row) != iso.target.rank for row in matrix):
            raise DatumError("level matrix has wrong column count")
        super().__init__(iso, matrix)

    def bmap(self, lam: Vector) -> Vector:
        """Induced map X_*(T) -> X*(S) on basis coordinates."""
        return matvec(self.matrix, lam)

    def value(self, mu: Vector, lam: Vector) -> int:
        """b(mu, lambda) for cocharacter coordinate vectors."""
        return sum(map(mul, mu, self.bmap(lam)))

    def add(self, other: "LevelTensor") -> "LevelTensor":
        if other.iso is not self.iso and other.iso != self.iso:
            raise DatumError("levels live over different isogeny data")
        return LevelTensor(
            self.iso,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.matrix, other.matrix)
            ),
        )

    def scale(self, k: int) -> "LevelTensor":
        return LevelTensor(
            self.iso, tuple(tuple(k * x for x in row) for row in self.matrix)
        )

    def neg(self) -> "LevelTensor":
        return self.scale(-1)

    def ambient_form(self) -> tuple[tuple[Fraction, ...], ...]:
        """Coefficient matrix of b on reference coordinates (for display)."""
        amb, den = self._ambient_numerators()
        return tuple(tuple(Fraction(x, den) for x in row) for row in amb)

    def _ambient_numerators(self) -> tuple[Matrix, int]:
        """(a, d) with a / d the ambient form: C_S^T B C_T over the
        character bases C_S, C_T written over common denominators."""
        cs, ds = over_common_denominator(self.iso.source.char_basis)
        ct, dt = over_common_denominator(self.iso.target.char_basis)
        n_s, n_t = self.iso.source.ambient_dim, self.iso.target.ambient_dim
        bct = [[sum(b * row[t] for b, row in zip(brow, ct)) for t in range(n_t)]
               for brow in self.matrix]
        amb = tuple(
            tuple(sum(row[s] * x[t] for row, x in zip(cs, bct)) for t in range(n_t))
            for s in range(n_s)
        )
        return amb, ds * dt


# ---------------------------------------------------------------------------
# Weyl actions over an isogeny


class SharedWeylAction:
    """The target's Weyl group with its induced action on the source
    character lattice.

    An element is its character matrix on the target (weyl.WeylGroup);
    on either side, w acts on cocharacters by the transpose of w^-1's
    character matrix.  On the source, each simple reflection acts as
    iso.source_reflections, the matrices the isogeny check verified.
    Every other element's action is the integer product along the
    generation tree, each from its parent's (weyl.RowTable): restricting
    the target action to a stable source lattice is a homomorphism, and
    products of lattice-preserving maps preserve it.  The isogeny check
    also verifies the source reflections' Coxeter relations, so a
    product along any word for w is the same matrix.  An action is built
    on its first read, with the tree ancestors it is multiplied down
    from: source_rows holds each distinct row of the actions built so far
    once, and source_row_ids gives an action as the indices of its rows
    there, so that a check over many elements takes one dot product per
    distinct row.  Nothing is built at construction.  The Weyl cap is
    decided there, on |W| from the Cartan matrix (weyl.group_order).  W is
    enumerated to that order on the first read of group, which the
    invariance tests never make: once per target datum per process for
    a group of order at most _CACHED_ORDER_MAX, where actions over equal
    targets share one WeylGroup, and once per action for a larger one
    (_weyl_group).
    """

    def __init__(self, iso: IsogenyDatum, cap: int = WEYL_ORDER_CAP):
        self.iso = iso
        self._order = group_order(iso.target, cap)
        self._source_char: dict[int, Matrix] = {}
        self._source_ids: dict[int, tuple[int, ...]] = {}

    @cached_property
    def group(self) -> WeylGroup:
        return _weyl_group(self.iso.target, self._order)

    @cached_property
    def simple_char_pairs(self) -> tuple[tuple[Matrix, Matrix], ...]:
        """(source, target) character actions of each simple reflection,
        in the order of the target's simple_indices."""
        tgt = self.iso.target
        return tuple(zip(self.iso.source_reflections,
                         map(tgt.reflection_char, tgt.simple_indices)))

    @cached_property
    def _source(self) -> RowTable:
        return RowTable(self.iso.source_reflections, self.iso.source.rank)

    @property
    def source_rows(self) -> list[Vector]:
        return self._source.rows

    def source_char_action(self, idx: int) -> Matrix:
        """The action of element idx on X*(S) basis coordinates."""
        got = self._source_char.get(idx)
        if got is not None:
            return got
        group, table, known = self.group, self._source, self._source_ids
        if not known:
            known[group.identity_index] = table.identity
        # climb the generation tree to a known element, then multiply back down
        path = []
        i = idx
        while i not in known:
            path.append(i)
            i = group.tree[i][1]
        for i in reversed(path):
            g, parent = group.tree[i]
            known[i] = table.child(group.generators.index(g), known[parent])
        got = self._source_char[idx] = tuple(map(table.rows.__getitem__, known[idx]))
        return got

    def source_row_ids(self, members) -> list[tuple[int, ...]]:
        """For each index in members, the ids in source_rows of the rows
        of its source action, building the actions not yet built."""
        known = self._source_ids
        for i in members:
            if i not in known:
                self.source_char_action(i)
        return list(map(known.__getitem__, members))


# every classical group of rank at most 4; the default atlas's scans
# read 19 distinct target data, none of order over 192
_CACHED_ORDER_MAX = 384


def _weyl_group(target: RootDatum, order: int) -> WeylGroup:
    """W of target, of the given order (group_order).  A group of order
    at most _CACHED_ORDER_MAX is enumerated once per process, and every
    action over an equal target reads the same one: its elements and
    tables are never changed after it is built, and what grows is its
    subgroups, each built and verified once (weyl.subgroup_from_members)
    and kept with it.  The 64 most recently asked for are kept, and one
    such group with its tables holds under 0.4 MB before subgroups.  A
    larger group is enumerated for each action that reads it and freed
    with it, so that the groups a process holds at once stay bounded by
    the actions alive, as --max-weyl-order intends; its enumeration is
    small beside any scan over it."""
    if order > _CACHED_ORDER_MAX:
        return _enumerate(target, order)
    return _cached_weyl_group(target, order)


@lru_cache(maxsize=64)
def _cached_weyl_group(target: RootDatum, order: int) -> WeylGroup:
    return _enumerate(target, order)


def is_invariant(action: SharedWeylAction, b: LevelTensor) -> bool:
    """Exact invariance test over the simple reflections: Ms B Mt^T = B
    for their source and target character matrices."""
    for ms, mt in action.simple_char_pairs:
        if matmul(matmul(ms, b.matrix), transpose(mt)) != b.matrix:
            return False
    return True


# ---------------------------------------------------------------------------
# invariant lattice and the evenness filter


def invariant_level_lattice(action: SharedWeylAction) -> tuple[LevelTensor, ...]:
    """Basis of the lattice of Weyl-invariant levels, canonical (HNF rows)."""
    iso = action.iso
    rs, rt = iso.source.rank, iso.target.rank
    rows = []
    for ms, mt in action.simple_char_pairs:
        # constraint (Ms B Mt^T - B) = 0, vectorized row-major
        for i in range(rs):
            for j in range(rt):
                row = []
                for k in range(rs):
                    for l in range(rt):
                        coef = ms[i][k] * mt[j][l]
                        if k == i and l == j:
                            coef -= 1
                        row.append(coef)
                rows.append(tuple(row))
    if not rows:
        basis_vecs = tuple(identity(rs * rt))
    else:
        basis_vecs = kernel_basis(tuple(rows))
    out = tuple(LevelTensor(iso, m) for m in _matrices(iso, hnf_basis(basis_vecs)))
    for b in out:
        if not is_invariant(action, b):
            raise AssertionError("invariant-lattice basis element fails invariance")
    return out


def root_orbits(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Indices of the roots grouped into Weyl orbits (deterministic order)."""
    gens = simple_root_permutations(rd)
    seen = set()
    orbits = []
    for start in range(len(rd.roots)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for k in frontier:
                for p in gens:
                    if p[k] not in orbit:
                        orbit.add(p[k])
                        nxt.append(p[k])
            frontier = nxt
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def coroot_value(b: LevelTensor, root_index: int) -> int:
    """b(acheck, acheck) with the first coroot lifted into X_*(S)."""
    iso = b.iso
    lift = iso.coroot_lift[root_index]
    lam = iso.target.coroot_coords()[root_index]
    return b.value(lift, lam)


class EvReport(Frozen):
    """Even-values sublattice plus the per-orbit value table.

    value_table[k][j] is b_j(acheck, acheck) for the k-th root orbit
    representative and the j-th output basis element.
    """

    _fields = ("basis", "orbit_representatives", "value_table")


def ev_filter(basis: tuple[LevelTensor, ...], action: SharedWeylAction) -> EvReport:
    """Sublattice where every b(acheck, acheck) is even, over all roots.

    The levels are row-major vectors here.  Row k of Q is coroot_lift[k]
    (x) the k-th target coroot, row-major, so Q V^T holds every coroot
    value (coroot_value) of every basis vector, root by root: the
    parities, the evenness re-check and the value table are each read
    off one product.  The coefficient vectors x with even values are
    those with P x = 2 y for some integer y, P the distinct parity rows
    that are not all even: the first k entries of the integer kernel of
    [P | -2I].  The even sublattice is the HNF of their images.
    """
    iso = action.iso
    k = len(basis)
    reps = tuple(o[0] for o in root_orbits(iso.target))
    if k == 0:
        return EvReport((), reps, tuple(() for _ in reps))
    q = tuple(tuple(x * y for x in lift for y in lam)
              for lift, lam in zip(iso.coroot_lift, iso.target.coroot_coords()))

    def values(vecs: Matrix) -> Matrix:
        # a matrix with no rows loses its column count, so no roots means
        # no values rather than a product
        return matmul(q, transpose(vecs)) if q else ()

    vecs = _vectorize(b.matrix for b in basis)
    odd = sorted({tuple(x & 1 for x in row) for row in values(vecs)} - {(0,) * k})
    gens = identity(k)
    if odd:
        m = len(odd)
        gens = tuple(v[:k] for v in kernel_basis(tuple(
            row + tuple(-2 * (i == j) for j in range(m)) for i, row in enumerate(odd))))
    even = hnf_basis(matmul(gens, vecs))
    table = values(even)
    if any(x & 1 for row in table for x in row):
        raise AssertionError("even-values filter let an odd value through")
    return EvReport(tuple(LevelTensor(iso, m) for m in _matrices(iso, even)),
                    reps, tuple(table[rep] for rep in reps))


# ---------------------------------------------------------------------------
# the basic level


class BasicLevelResult(Frozen):
    """Whether the basic level lies in the tensor lattice for this datum.

    The basic level is c * sum(t_i^2) with c normalized so that the
    value on a short coroot is 2; minimal_multiple is the least k >= 1
    with k * basic inside the lattice, and tensor is k * basic.
    """

    _fields = ("member", "minimal_multiple", "tensor")

    @property
    def rational_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basic level itself, tensor / minimal_multiple (for display)."""
        k = self.minimal_multiple
        return tuple(tuple(Fraction(x, k) for x in row) for row in self.tensor.matrix)


def _cochar_gram(iso: IsogenyDatum) -> tuple[Matrix, int]:
    """(g, d) with g[i][j] / d = <mu_i, lambda_j> over the source and
    target cocharacter bases."""
    ms, ds = over_common_denominator(iso.source.cochar_basis)
    mt, dt = over_common_denominator(iso.target.cochar_basis)
    return tuple(tuple(sum(map(mul, a, b)) for b in mt)
                 for a in ms), ds * dt


def basic_level(iso: IsogenyDatum) -> BasicLevelResult:
    gram, den = _cochar_gram(iso)
    coroots, cden = over_common_denominator(iso.target.coroots)
    num = 1
    if coroots:
        # the scale 2 / min <acheck, acheck> is 2 cden^2 / least
        least = min(sum(x * x for x in ac) for ac in coroots)
        num, den = 2 * cden * cden, den * least
    # the basic level is num * gram / den, and g cancels their common factor
    g = gcd(den, *(num * x for row in gram for x in row))
    mat = tuple(tuple(num * x // g for x in row) for row in gram)
    return BasicLevelResult(den == g, den // g, LevelTensor(iso, mat))


def named_basic_level(series: str, rank: int, form: str) -> BasicLevelResult:
    from .rootdata import classical_datum, identity_isogeny

    rd = classical_datum(series, rank, form)
    return basic_level(identity_isogeny(rd))


# ---------------------------------------------------------------------------
# rank-one restriction


class RankOneRestriction(Frozen):
    """Parity data of b on the rank-one subgroup attached to one root.

    subgroup_type is "SL2" when the coroot cocharacter is injective
    (does not kill -1) and "PGL2" when it does; descent across the
    corresponding divisor is blocked exactly in the odd SL2 case.
    """

    _fields = ("root_index", "subgroup_type", "value", "parity_obstruction")


def restrict_to_rank_one(b: LevelTensor, root) -> RankOneRestriction:
    iso = b.iso
    tgt = iso.target
    ridx = root if isinstance(root, int) else tgt.root_index(root)
    if ridx is None or not (0 <= ridx < len(tgt.roots)):
        text = str(root) if isinstance(root, int) else _vector_text(root)
        raise DatumError(f"{text} is not a root of {tgt.name}")
    acheck = tgt.coroots[ridx]
    kills_minus_one = tgt.cochar_coords(
        RatVector.make(acheck.nums, 2 * acheck.den)) is not None
    subgroup_type = "PGL2" if kills_minus_one else "SL2"
    value = coroot_value(b, ridx)
    return RankOneRestriction(
        root_index=ridx,
        subgroup_type=subgroup_type,
        value=value,
        parity_obstruction=(subgroup_type == "SL2" and value % 2 == 1),
    )


def symmetric_projection(b: LevelTensor) -> tuple[tuple[Fraction, ...], ...]:
    """(b + b^T)/2 on ambient coordinates; labeled convenience, H = G only."""
    if b.iso.source != b.iso.target:
        raise DatumError("symmetric projection needs source == target")
    amb, den = b._ambient_numerators()
    n = len(amb)
    return tuple(
        tuple(Fraction(amb[i][j] + amb[j][i], 2 * den) for j in range(n))
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# reference comparison


class AtlasEntry(Frozen):
    """One atlas row; verdict is "match", "mismatch" or "no-claim"."""

    _fields = ("series", "rank", "source_form", "target_form", "computed_basis",
               "claim", "claimed_basis", "claim_note", "verdict")

    def to_json_dict(self) -> dict:
        return {
            "series": self.series,
            "rank": self.rank,
            "source_form": self.source_form,
            "target_form": self.target_form,
            "computed_basis": [[list(r) for r in m] for m in self.computed_basis],
            "claim": self.claim,
            "claimed_basis": None
            if self.claimed_basis is None
            else [[list(r) for r in m] for m in self.claimed_basis],
            "claim_note": self.claim_note,
            "verdict": self.verdict,
        }


def allowable_lattice(action: SharedWeylAction) -> tuple[LevelTensor, ...]:
    """Invariant levels with even values on all coroots (canonical basis)."""
    inv = invariant_level_lattice(action)
    return ev_filter(inv, action).basis


def _vectorize(mats) -> Matrix:
    return tuple(tuple(x for row in m for x in row) for m in mats)


def _matrices(iso: IsogenyDatum, vecs: Matrix) -> tuple[Matrix, ...]:
    """The inverse of _vectorize: source-rank rows of target-rank entries."""
    rt = iso.target.rank
    return tuple(tuple(v[i * rt:(i + 1) * rt] for i in range(iso.source.rank))
                 for v in vecs)


def claimed_lattice(iso: IsogenyDatum, claim: dict) -> tuple[tuple[Matrix, ...] | None, str | None]:
    """Expand a reference claim into a concrete lattice basis, if possible."""
    kind = claim["kind"]
    if kind == "basic_multiple":
        mult = claim["multiple"]
        if mult == "n":
            mult = iso.target.ambient_dim
        basic = basic_level(iso)
        k = basic.minimal_multiple
        if any(mult * x % k for row in basic.tensor.matrix for x in row):
            return None, (
                f"claimed generator {mult}*basic is not integral on the "
                "cocharacter lattices"
            )
        return (tuple(tuple(mult * x // k for x in row)
                      for row in basic.tensor.matrix),), None
    if kind == "gl_family":
        # spanned by sum(t_i^2) and (t_1 + ... + t_n)^2
        gram, den = _cochar_gram(iso)
        ms, ds = over_common_denominator(iso.source.cochar_basis)
        mt, dt = over_common_denominator(iso.target.cochar_basis)
        eye = tuple(tuple(_truncated(x, den) for x in row) for row in gram)
        ones = tuple(tuple(_truncated(sum(a) * sum(b), den) for b in mt)
                     for a in ms)
        return (eye, ones), None
    raise DatumError(f"unknown claim kind {kind!r}")


def _truncated(num: int, den: int) -> int:
    """num / den rounded toward zero, as int() rounds a rational."""
    q = abs(num) // den
    return q if num >= 0 else -q


def compare_with_reference(action: SharedWeylAction, claim: dict | None) -> AtlasEntry:
    iso = action.iso
    computed = tuple(b.matrix for b in allowable_lattice(action))
    series, rank, sf, tf = claim_key_of(iso)
    if claim is None:
        return AtlasEntry(series, rank, sf, tf, computed, None, None, None, "no-claim")
    claimed, note = claimed_lattice(iso, claim)
    if claimed is None:
        return AtlasEntry(
            series, rank, sf, tf, computed, claim, None, note, "mismatch"
        )
    canon = hnf_basis(_vectorize(claimed))
    return AtlasEntry(
        series, rank, sf, tf, computed, claim, _matrices(iso, canon), None,
        # the computed basis is already canonical: ev_filter's HNF rows
        "match" if _vectorize(computed) == canon else "mismatch",
    )


def claim_key_of(iso: IsogenyDatum) -> tuple[str, int, str, str]:
    """(series, rank, source_form, target_form) recovered from datum names.

    Data that do not follow the classical naming scheme are reported
    under the series label "custom" with their full names as forms.
    """
    import re

    def split(name):
        m = re.fullmatch(r"(SL|GL|PGL|Spin|SO|PSO|Sp|PSp)(\d+)", name)
        if not m:
            return None, 0
        return m.group(1), int(m.group(2))

    sf, _ = split(iso.source.name)
    tf, nt = split(iso.target.name)
    if sf is None or tf is None:
        return "custom", iso.target.rank, iso.source.name, iso.target.name
    if tf in ("SL", "GL", "PGL"):
        return "A", nt - 1, sf, tf
    if tf in ("Spin", "SO") and nt % 2 == 1:
        return "B", (nt - 1) // 2, sf, tf
    if tf in ("Sp", "PSp"):
        return "C", nt // 2, sf, tf
    return "D", nt // 2, sf, tf
