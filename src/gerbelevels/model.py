"""Paper-facing API that no subcommand calls: named nerves, group
cohomology on a point, the 2-cocycle check, the circle-cover model of a
torus with its log cocycle and the level-induced gerbe cocycle, the
torus datum, coroot values, the named basic level and the restriction
of a level to a rank-one subgroup.

Nothing in the command line imports this module, so no command
compiles it.  Each function here is built from the layers the commands
run (cech, cochains, covers, levels, rootdata).

Overlap line bundles are modeled by their classes in the coefficient
group (powers of one fixed bundle); section-level data is collapsed to
the cocycle identities it satisfies.  Infinite multiplicative coefficient
groups are modeled by finite cyclic truncations Z/N with configurable N;
classification statements are exercised on torsion content only, as a
model choice, not an equivalence claim.
"""

from __future__ import annotations

import itertools

from .cech import (
    COMPLEX_SIZE_CAP,
    CechError,
    CoefficientGroup,
    FiniteAction,
    FiniteGroupTable,
    Nerve,
    _addition_table,
    _cocycle_positions,
    _first_cocycle_failure,
    equivariant_cohomology,
)
from .cochains import Cochain, coboundary
from .covers import nerve_of_cover
from .intlinalg import AbelianInvariants, Frozen, RatVector, Vector, identity, matvec
from .levels import BasicLevelResult, LevelTensor, basic_level
from .rootdata import (
    DatumError,
    RootDatum,
    _std_basis,
    _vector_text,
    classical_datum,
    identity_isogeny,
)


# ---------------------------------------------------------------------------
# named nerves


def nerve_from_maximal(n_vertices: int, maximal) -> Nerve:
    """The nerve whose simplices are the faces of the given maximal ones."""
    by_dim: dict[int, set] = {}
    for s in maximal:
        s = tuple(sorted(set(s)))
        for k in range(1, len(s) + 1):
            for face in itertools.combinations(s, k):
                by_dim.setdefault(k - 1, set()).add(face)
    top = max(by_dim) if by_dim else -1
    return Nerve(
        n_vertices,
        tuple(tuple(sorted(by_dim.get(p, ()))) for p in range(top + 1)),
    )


def simplex_cone_nerve(n_vertices: int) -> Nerve:
    """Full simplex on the vertices: contractible reference complex."""
    return nerve_from_maximal(n_vertices, [tuple(range(n_vertices))])


def circle_nerve(arcs: int = 3) -> Nerve:
    if arcs < 3:
        raise CechError("a circle cover needs at least 3 arcs")
    edges = [(i, i + 1) for i in range(arcs - 1)] + [(0, arcs - 1)]
    return nerve_from_maximal(arcs, edges)


def octahedron_nerve() -> Nerve:
    """Nerve of the 6-cap cover of a sphere: the octahedron boundary."""
    opposite = {0: 5, 1: 3, 2: 4, 3: 1, 4: 2, 5: 0}
    faces = []
    for f in itertools.combinations(range(6), 3):
        if all(opposite[a] not in f for a in f):
            faces.append(f)
    return nerve_from_maximal(6, faces)


# ---------------------------------------------------------------------------
# group cohomology and 2-cocycles


def point_action(group: FiniteGroupTable, coefficients: CoefficientGroup,
                 coeff_actions=None) -> FiniteAction:
    nerve = simplex_cone_nerve(1)
    if coeff_actions is None:
        coeff_actions = tuple(
            identity(coefficients.size) for _ in range(group.n)
        )
    return FiniteAction(
        group, nerve, coefficients,
        tuple((0,) for _ in range(group.n)),
        tuple(coeff_actions),
    )


def group_cohomology(table: FiniteGroupTable, coefficients: CoefficientGroup,
                     degree: int, coeff_actions=None,
                     cap: int = COMPLEX_SIZE_CAP) -> AbelianInvariants:
    """Group cohomology via the one-point equivariant model."""
    act = point_action(table, coefficients, coeff_actions)
    return equivariant_cohomology(act, degree, cap)


def check_two_cocycle(group: FiniteGroupTable, coeff: CoefficientGroup,
                      psi: dict) -> tuple[int, int, int] | None:
    """First violating triple of the (central) 2-cocycle identity, if any,
    for a normalised psi with finite coefficients.

    The identity is checked with its middle entry g2 = s a generator of G
    (FiniteGroupTable.generators), k |G|^2 checks instead of |G|^3.  It
    says that (0, s) passes Light's test in A x_psi G, whose associators
    are the identity's two sides minus each other.  A normalised psi makes
    every (a, e) central, so it passes too, and these elements generate
    the extension: it is associative, which is the identity for every
    triple.  The triple returned has a generator in the middle.
    """
    if coeff.free_rank:
        raise CechError("2-cocycle checks need finite coefficients")
    return _first_cocycle_failure(group, _addition_table(coeff),
                                  _cocycle_positions(group, coeff, psi))


# ---------------------------------------------------------------------------
# circle covers of a torus and the level-induced cocycle


class TorusCoverModel(Frozen):
    """Product of subdivided circles with branch offsets on overlaps.

    arc_counts[i] arcs cover the i-th circle factor; offsets assign to
    every nerve edge the lattice jump between adjacent branches, and must
    satisfy the additive cocycle relation on triple overlaps.
    """

    _fields = ("arc_counts", "windings", "nerve", "vertex_labels", "offsets")

    def __init__(self, arc_counts: tuple[int, ...], windings: tuple[int, ...],
                 nerve: Nerve, vertex_labels: tuple[tuple[int, ...], ...],
                 offsets: dict):
        super().__init__(arc_counts, windings, nerve, vertex_labels, offsets)
        lam = self.cocycle()
        if not coboundary(lam).is_zero():
            raise CechError("branch offsets violate the triple-overlap relation")

    @property
    def rank(self) -> int:
        return len(self.arc_counts)

    def cocycle(self) -> Cochain:
        group = CoefficientGroup(self.rank, ())
        return Cochain(self.nerve, 1, group, dict(self.offsets))


def torus_cover_model(arc_counts, windings) -> TorusCoverModel:
    """Standard model: branch jumps concentrated on the wraparound edges."""
    arc_counts = tuple(int(k) for k in arc_counts)
    windings = tuple(int(w) for w in windings)
    if len(arc_counts) != len(windings):
        raise CechError("one winding per circle factor required")
    if any(k < 3 for k in arc_counts):
        raise CechError("each circle needs at least 3 arcs")
    rank = len(arc_counts)
    # ground set: 2k sample points per circle, arc a covers {2a, 2a+1, 2a+2}
    factors = []
    for k in arc_counts:
        arcs = []
        for a in range(k):
            arcs.append(frozenset({(2 * a) % (2 * k), 2 * a + 1, (2 * a + 2) % (2 * k)}))
        factors.append(arcs)
    labels = list(itertools.product(*[range(k) for k in arc_counts]))
    cover = []
    for lab in labels:
        pts = set(itertools.product(*[factors[i][a] for i, a in enumerate(lab)]))
        cover.append(pts)
    nerve = nerve_of_cover(cover, dim_cap=2 * rank)
    label_of = {i: labels[i] for i in range(len(labels))}

    def factor_jump(i, a, b):
        k = arc_counts[i]
        if a == b:
            return 0
        if (a, b) == (0, k - 1):
            return windings[i]
        if (a, b) == (k - 1, 0):
            return -windings[i]
        if b == a + 1:
            return 0
        if b == a - 1:
            return 0
        raise CechError("non-adjacent arcs sharing points")

    offsets = {}
    for (u, v) in nerve.level(1):
        la, lb = label_of[u], label_of[v]
        vec = tuple(
            factor_jump(i, la[i], lb[i]) for i in range(rank)
        )
        if any(vec):
            offsets[(u, v)] = vec
    return TorusCoverModel(arc_counts, windings, nerve, tuple(labels), offsets)


def torus_log_cocycle(model: TorusCoverModel) -> Cochain:
    """The branch-jump 1-cocycle; verified against the nerve."""
    lam = model.cocycle()
    if not coboundary(lam).is_zero():
        raise CechError("branch offsets do not form a cocycle")
    return lam


def winding_pairing(model: TorusCoverModel, c: Cochain) -> tuple[Vector, ...]:
    """Sums of a 1-cochain along each coordinate loop of the model.

    The traversal orientation is fixed so that the branch-jump cocycle of
    the standard model pairs to exactly its winding vector (values are
    taken on (next arc, this arc), matching jump = new branch - old).
    The pairing kills coboundaries, so it reads off the cohomology class.
    """
    rank = model.rank
    label_pos = {lab: i for i, lab in enumerate(model.vertex_labels)}
    out = []
    for i in range(rank):
        k = model.arc_counts[i]
        total = c.group.zero()
        base = [0] * rank
        for a in range(k):
            u = list(base)
            v = list(base)
            u[i] = a
            v[i] = (a + 1) % k
            total = c.group.add(
                total, c.value((label_pos[tuple(v)], label_pos[tuple(u)]))
            )
        out.append(total)
    return tuple(out)


def gerbe_cocycle_from_level(lam: Cochain, level) -> Cochain:
    """Push a lattice-valued 1-cocycle through bmap of a level tensor.

    Additive in the level and odd under lam -> -lam; the output is the
    overlap-class cocycle of the induced construction.
    """
    b = level
    r_t = b.iso.target.rank
    if lam.group.torsion or lam.group.free_rank != r_t:
        raise CechError(
            f"cocycle values must live in the rank-{r_t} cocharacter lattice"
        )
    out_group = CoefficientGroup(b.iso.source.rank, ())
    return lam.map_values(lambda v: matvec(b.matrix, v), out_group)


# ---------------------------------------------------------------------------
# root data and levels


def torus_datum(rank: int, name: str = "") -> RootDatum:
    """Rank-n torus: full integer lattices, no roots."""
    return RootDatum(
        name or f"T{rank}",
        rank,
        _std_basis(rank),
        _std_basis(rank),
        (),
        (),
        (),
    )


def coroot_value(b: LevelTensor, root_index: int) -> int:
    """b(acheck, acheck) with the first coroot lifted into X_*(S)."""
    iso = b.iso
    lift = iso.coroot_lift[root_index]
    lam = iso.target.coroot_coords()[root_index]
    return b.value(lift, lam)


def named_basic_level(series: str, rank: int, form: str) -> BasicLevelResult:
    rd = classical_datum(series, rank, form)
    return basic_level(identity_isogeny(rd))


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
