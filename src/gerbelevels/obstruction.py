"""Centralizer extension obstructions for semisimple points.

A semisimple point is a rational cocharacter vector xi (a chosen
logarithm of a torus element).  The subgroup of the Weyl group fixing
the point is the integrality stabilizer W_L = {w : w.xi - xi integral};
for w in W_L the differences d_w = w.xi - xi form a 1-cocycle valued in
X_*(T), and a Weyl-invariant level b pushes it to the group cocycle
c_w = bmap(d_w) valued in X*(S).  Everything downstream is exact
integer cohomology: triviality witnesses, the order of the class, and
the full degree-1 group cohomology of the stabilizer on X*(S).

The reference-coordinate picture writes the multiplicative cocycle
h -> prod_i chi_i(h)^(d zeta_i(d_w)) additively as the X*(S) vector
bmap(d_w); the dictionary is exp(2 pi i <.,.>), applied once here and
nowhere else.

Triviality is decided on a generating set and then re-verified over the
whole subgroup: the generator system is what keeps solves small, the
full sweep is what makes the certificate self-contained.

Each record is built once, verified, and never changed:
centralizer_cocycle makes a point's StabilizerCocycle, class_order
returns the order of its class with a verified witness, and
obstruction_report adds the closure of the integral reflections and H^1
and makes the ObstructionResult in one call.

The per-point work runs on integers.  xi is held as integer numerators
over one denominator, which an integer action keeps, so d_w is an exact
division of w.xi - xi by it and c_w = B d_w.  The cocharacter matrices
of W share few rows (weyl.WeylGroup.cochar_rows), so a point takes one
dot product per distinct row and reads each member's w.xi off those
values by its row ids (_differences), and c is taken once per distinct
d.  The witness check reads w.u the same way, off one dot product per
distinct row of the source actions (SharedWeylAction.source_rows), and
still compares every coordinate of every member.  The cocycle identity is
checked on generator edges, c_{s w} = s.c_w + c_s for each generator s
of W_L and each member w, with c_e = 0: each distinct value of c gets a
small id, each generator's row maps the ids to the ids of their images,
and a row is compared as one list.  Since
w -> M_w is a homomorphism (the isogeny check verifies the source
reflections' Coxeter relations), that implies the identity on every
ordered pair, by induction on word length.  A scan checks the level
once, walks its points as numerators over one common denominator, and
pays per point only for what its row prints: the stabilizer, the
cocycle and the class order.  What depends on W_L alone is made once per
distinct W_L, and points that share a stabilizer share it: its
generators, rows and closure check (weyl.subgroup_from_members) and the
Smith factor of the coboundary system on its generators
(_generator_factor).  Each point still tests every element of W for its
members, and checks its own differences, generator-edge identity, solves
and witness over all of W_L.  The closure of the integral reflections,
taken in W, is left to certificates, and the full product table of W_L
to their H^1, which builds it only under its cell cap.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from operator import mul

from .cech import _bar_rows
from .intlinalg import (
    CapExceeded,
    Frozen,
    Matrix,
    RatVector,
    Smith,
    Vector,
    matvec,
    subquotient,
)
from .levels import LevelTensor, SharedWeylAction, is_invariant
from .weyl import (
    Subgroup,
    WeylGroup,
    integral_reflection_subgroup,
    integral_reflections,
    stabilizer,
)


class ObstructionError(ValueError):
    pass


# Dense cells of delta^1 that h1_group_lattice may build, (|W_L|^2 r) rows
# by |W_L| r columns.  The B3 and C3 origins need 995,328 each; their whole
# certificate commands take 0.30 and 0.32 s at about 31 MB peak RSS (best
# of 5, fresh interpreters, Python 3.11 on a shared 2-core Xeon, where an
# empty interpreter takes 0.09 s).  D4 at the origin would need
# 113,246,208 and exhaust memory.
H1_CELL_CAP = 2**22


# Default caps of the command line and of the calls below: an exhaustively
# verified stabilizer W_L may have at most SUBGROUP_ORDER_CAP elements, and
# a scan may enumerate at most SCAN_POINT_CAP points.
SUBGROUP_ORDER_CAP = 384
SCAN_POINT_CAP = 20000


class StabilizerCocycle(Frozen):
    """One point xi with its stabilizer W_L, the d and c cocycles on W_L
    (element index -> vector) and the rational witness b(xi), made and
    verified by centralizer_cocycle.  Not hashable, as the cocycles are
    dicts."""

    _fields = ("action", "level", "xi", "w_l", "d_cocycle", "c_cocycle",
               "rational_witness")


class ObstructionResult(Frozen):
    """One point's certificate, made by obstruction_report: its cocycle,
    the order of its class, the witness u of a trivial class (None for a
    nontrivial one), H^1 of W_L on X*(S) and the closure of the integral
    reflections in W.  Not hashable, as the cocycle is not."""

    _fields = ("cocycle", "class_order", "witness_u", "h1", "reflection_sub")

    @property
    def trivial(self) -> bool:
        return self.class_order == 1

    def to_json_dict(self) -> dict:
        c = self.cocycle
        return {
            "isogeny": c.action.iso.name,
            "level": [list(r) for r in c.level.matrix],
            "xi": {"num": list(c.xi.nums), "den": c.xi.den},
            "stabilizer_order": len(c.w_l),
            "stabilizer_members": list(c.w_l.members),
            "d_cocycle": {str(k): list(v) for k, v in sorted(c.d_cocycle.items())},
            "c_cocycle": {str(k): list(v) for k, v in sorted(c.c_cocycle.items())},
            "rational_witness": {
                "num": list(c.rational_witness.nums),
                "den": c.rational_witness.den,
            },
            "trivial": self.trivial,
            "witness_u": None if self.witness_u is None else list(self.witness_u),
            "class_order": self.class_order,
            "h1_invariants": {
                "free_rank": self.h1.invariants.free_rank,
                "torsion": list(self.h1.invariants.torsion),
            },
            "h1_class_coords": None
            if self.h1.class_coords is None
            else list(self.h1.class_coords),
            "reflection_subgroup_agrees": self.reflection_sub is c.w_l,
        }


def check_level(action: SharedWeylAction, b: LevelTensor) -> None:
    """Rejects a level over other isogeny data or one that is not Weyl
    invariant: invariance is exactly what makes w -> bmap(d_w) a
    cocycle."""
    if b.iso != action.iso:
        raise ObstructionError("level and action live over different isogeny data")
    if not is_invariant(action, b):
        raise ObstructionError("level tensor is not Weyl invariant")


def centralizer_cocycle(
    action: SharedWeylAction,
    b: LevelTensor,
    xi: RatVector,
    verify_cap: int = SUBGROUP_ORDER_CAP,
    *,
    level_checked: bool = False,
) -> StabilizerCocycle:
    """Stabilizer subgroup with its d and c cocycles, fully verified.

    Runs check_level first, unless the caller already has
    (level_checked; scan_points does, once per scan).  The differences
    are taken on the integer numerators of xi.  The cocycle identity is
    checked on generator edges: c_e = 0 and c_{s w} = s.c_w + c_s for
    each generator s of W_L and each member w.  That implies
    c_{u v} = u.c_v + c_u for every pair, by induction on the length of
    u as a word in the generators (W_L's closure check reaches every
    member by such words), because w -> M_w (source_char_action) is a
    homomorphism: the isogeny check verifies the source reflections'
    Coxeter relations.  Every integral reflection must lie in W_L;
    closing them is left to certificates (obstruction_report).
    """
    if not level_checked:
        check_level(action, b)
    if len(xi) != action.iso.target.rank:
        raise ObstructionError("xi has the wrong rank")
    group = action.group
    w_l = stabilizer(group, xi, cap=verify_cap)
    d_cocycle = _differences(group, w_l.members, xi)
    c_of: dict[Vector, Vector] = {}
    c_cocycle = {}
    for i, d in d_cocycle.items():
        c = c_of.get(d)
        if c is None:
            c = c_of[d] = tuple(sum(map(mul, row, d)) for row in b.matrix)
        c_cocycle[i] = c
    if not _holds_on_generator_edges(action, w_l, c_cocycle):
        raise AssertionError("cocycle identity failed")
    # raises unless every integral reflection lies in W_L
    integral_reflections(group, xi, w_l)
    rational_witness = RatVector.make(list(matvec(b.matrix, xi.nums)), xi.den)
    return StabilizerCocycle(action, b, xi, w_l, d_cocycle, c_cocycle,
                             rational_witness)


def _differences(group: WeylGroup, members: tuple[int, ...],
                 xi: RatVector) -> dict[int, Vector]:
    """d_w = w.xi - xi for each of the members w, from the numerators of
    xi over its denominator: the value of each distinct cocharacter row
    on the numerators is taken once (group.cochar_rows), and row k of
    w's matrix is group.cochar_ids[w][k].  Raises AssertionError when a
    difference is not integral."""
    nums, den = xi.nums, xi.den
    values = [sum(map(mul, row, nums)) for row in group.cochar_rows]
    ids = group.cochar_ids
    out: dict[int, Vector] = {}
    for i in members:
        qr = [divmod(values[j] - x, den) for j, x in zip(ids[i], nums)]
        if any(rem for _, rem in qr):
            raise AssertionError("stabilizer member with non-integral difference")
        out[i] = tuple(q for q, _ in qr)
    return out


def _holds_on_generator_edges(action: SharedWeylAction, w_l: Subgroup,
                              c_cocycle: dict[int, Vector]) -> bool:
    """c_e = 0 and c_{s w} = M_s c_w + c_s for each generator s and
    member w, on ids of the distinct values of c: generator s maps each
    value v to the id of M_s v + c_s, or -1 when that image is no value
    of c, and its row is compared as one list."""
    if any(c_cocycle[w_l.group.identity_index]):
        return False
    ids_of: dict[Vector, int] = {}
    ids = [ids_of.setdefault(c_cocycle[i], len(ids_of)) for i in w_l.members]
    values = list(ids_of)
    for s, prod_row in zip(w_l.generators, w_l.gen_rows):
        ms = action.source_char_action(s)
        cs = c_cocycle[s]
        img = [ids_of.get(tuple(sum(map(mul, row, v)) + c for row, c in zip(ms, cs)), -1)
               for v in values]
        if list(map(img.__getitem__, ids)) != list(map(ids.__getitem__, prod_row)):
            return False
    return True


def _coboundary_matrix(actions) -> Matrix:
    """The bar differential delta^0, (w - 1) u, stacked over the given
    source actions: the matrix of the system (w - 1) u = c_w."""
    return tuple(_bar_rows(0, None, actions, [((0, 1),)] * len(actions)))


@lru_cache(maxsize=256)
def _generator_factor(actions: tuple[Matrix, ...]) -> Smith:
    """Smith factor of _coboundary_matrix(actions).  The actions are the
    whole input of that matrix, so points whose stabilizers have equal
    generator actions share one factor; a Smith is never changed after
    it is made."""
    return Smith.of(_coboundary_matrix(actions))


def _verify_witness(cocycle: StabilizerCocycle, u: Vector, k: int) -> bool:
    """w.u - u = k c_w for every w in W_L, on every coordinate: the value
    of each distinct source row on u is taken once
    (SharedWeylAction.source_rows), and each member's image is read off
    its row ids."""
    members = cocycle.w_l.members
    ids = cocycle.action.source_row_ids(members)
    values = [sum(map(mul, row, u)) for row in cocycle.action.source_rows]
    c_cocycle = cocycle.c_cocycle
    for i, row_ids in zip(members, ids):
        if any(values[j] - x != k * y
               for j, x, y in zip(row_ids, u, c_cocycle[i])):
            return False
    return True


def class_order(cocycle: StabilizerCocycle) -> tuple[int, Vector]:
    """Smallest k >= 1 with k*c a coboundary; it divides |W_L|, as the
    order of a finite group kills its cohomology in positive degrees
    (Brown, Cohomology of Groups, III.10.2).  It need not divide the
    exponent of W_L: the D4 Spin -> PSO point (0, 1, 2, 2)/4 has
    W_L = (Z/2)^3 and class order 4.

    k and the witness are solved over the generators of W_L, against
    the Smith factor of their coboundary system (_generator_factor, made
    once per tuple of generator actions), then the witness is verified
    over all of W_L.  Returns k with that witness u: w.u - u = k c_w for
    every w in W_L, so the class is trivial, with witness u, when k = 1.
    """
    w_l = cocycle.w_l
    gens = w_l.generators or (w_l.group.identity_index,)
    system = _generator_factor(tuple(map(cocycle.action.source_char_action, gens)))
    y = tuple(x for i in gens for x in cocycle.c_cocycle[i])
    sol = system.solve(y)
    k = sol.min_multiplier
    if k is None:
        raise AssertionError("cocycle class has infinite order against generators")
    u = sol.solution if k == 1 else system.solve(tuple(k * x for x in y)).solution
    if u is None or not _verify_witness(cocycle, u, k):
        raise AssertionError("scaled witness failed full verification")
    if len(w_l) % k:
        raise AssertionError(
            f"class order {k} does not divide the subgroup order {len(w_l)}"
        )
    return k, u


# ---------------------------------------------------------------------------
# full H^1 of the stabilizer on X*(S)


class H1Result(Frozen):
    _fields = ("invariants", "class_coords", "class_order_in_h1")


def h1_group_lattice(
    sub: Subgroup,
    lattice_action,
    cocycle: dict[int, Vector] | None = None,
) -> H1Result:
    """H^1 of a finite subgroup acting on a lattice, by the bar complex.

    lattice_action maps an element index to its integer action matrix.
    Z^1 = ker(delta^1) with (delta^1 c)_{w1,w2} = w1.c_{w2} - c_{w1 w2}
    + c_{w1}; B^1 = im(delta^0) with (delta^0 u)_w = w.u - u.  Both come
    from cech._bar_rows, the bar differential that the equivariant complex
    uses too, on W_L relabelled by position in its members, with products
    read from the subgroup's left-regular table.  When a
    cocycle is supplied, its coordinates in the quotient presentation
    and its exact order there are reported.  Raises CapExceeded before
    building anything when delta^1 would exceed H1_CELL_CAP cells.
    """
    members = sub.members
    r = len(lattice_action(sub.group.identity_index))
    n1 = len(members) * r
    cells = len(members) ** 2 * r * n1
    if cells > H1_CELL_CAP:
        raise CapExceeded(f"H^1 bar complex needs about {cells} matrix cells, "
                          f"over the cap {H1_CELL_CAP}")
    actions = [lattice_action(w) for w in members]
    point = [((0, 1),)] * len(members)
    d1 = tuple(_bar_rows(1, sub.table, actions, point))
    d0 = tuple(_bar_rows(0, sub.table, actions, point))
    locate = None
    if cocycle is not None:
        locate = tuple(x for w in members for x in cocycle[w])
    return H1Result(*subquotient(n1, d1, (), d0, (), locate))


# ---------------------------------------------------------------------------
# the full report and point scans


def obstruction_report(
    action: SharedWeylAction,
    b: LevelTensor,
    xi: RatVector,
    verify_cap: int = SUBGROUP_ORDER_CAP,
) -> ObstructionResult:
    """The certificate of one point: its cocycle (centralizer_cocycle),
    the closure of the integral reflections in W, which agrees when it
    is W_L itself, the class order with its witness, and H^1 of W_L on
    X*(S), whose order of the class must equal the class order."""
    cocycle = centralizer_cocycle(action, b, xi, verify_cap)
    w_l = cocycle.w_l
    reflection_sub = integral_reflection_subgroup(w_l.group, xi, w_l)
    k, u = class_order(cocycle)
    h1 = h1_group_lattice(w_l, action.source_char_action, cocycle.c_cocycle)
    if h1.class_order_in_h1 is not None and h1.class_order_in_h1 != k:
        raise AssertionError("H^1 class order disagrees with the coboundary solve")
    return ObstructionResult(cocycle, k, u if k == 1 else None, h1, reflection_sub)


class ScanRow(Frozen):
    _fields = ("xi", "stabilizer_order", "class_order", "trivial")


class ScanTable(Frozen):
    _fields = ("rows",)

    @property
    def trivial_count(self) -> int:
        return sum(1 for r in self.rows if r.trivial)

    @property
    def nontrivial_count(self) -> int:
        return sum(1 for r in self.rows if not r.trivial)


def _power_sum(r: int, n: int) -> int:
    """sum(d**r for d in range(1, n + 1)) in O(r^2) steps, whatever n:
    d^r = sum_k F(r, k) C(d, k), F(r, k) = k! S(r, k) with S the Stirling
    numbers of the second kind, and sum_{d=0..n} C(d, k) = C(n+1, k+1);
    the term d = 0 is 0^r, which is 1 only for r = 0."""
    surj = [1]  # F(r, k) for k = 0..r: F(r, k) = k (F(r-1, k) + F(r-1, k-1))
    for _ in range(r):
        surj = [k * (a + b) for k, (a, b) in enumerate(zip(surj + [0], [0] + surj))]
    return sum(f * comb(n + 1, k + 1) for k, f in enumerate(surj)) - (r == 0)


def scan_points(
    action: SharedWeylAction,
    b: LevelTensor,
    max_denominator: int,
    point_cap: int = SCAN_POINT_CAP,
    verify_cap: int = SUBGROUP_ORDER_CAP,
) -> ScanTable:
    """Exhaustive scan of torsion points with denominator <= max_denominator.

    Points are coordinate vectors in (1/d) Z^r modulo Z^r for d up to the
    bound; one lexicographically minimal representative per Weyl orbit is
    evaluated, in deterministic order.  Each orbit is walked once under
    the Weyl generators, so every point costs one action per generator:
    the cocharacter matrix of a simple reflection, its own inverse, read
    from the group's rows.
    The walk runs on integer numerators over common = lcm(1..bound),
    which order points as the rationals do; only the representatives
    become RatVectors.
    """
    r = action.iso.target.rank
    estimate = _power_sum(r, max_denominator)
    if estimate > point_cap:
        raise CapExceeded(f"scan would enumerate about {estimate} points, "
                          f"over the cap {point_cap}")
    check_level(action, b)
    common = lcm(*range(1, max_denominator + 1))
    points = set()
    for d in range(1, max_denominator + 1):
        stack = [()]
        for _ in range(r):
            stack = [t + (k,) for t in stack for k in range(0, common, common // d)]
        points.update(stack)
    # the cocharacter matrices of the simple reflections, by their rows
    group = action.group
    gens = [tuple(map(group.cochar_rows.__getitem__, group.cochar_ids[g]))
            for g in group.generators]
    reps = []
    visited = set()
    for xi in sorted(points):
        if xi in visited:
            continue
        # the first point of an orbit in sorted order is its minimum
        reps.append(RatVector.make(xi, common))
        visited.add(xi)
        frontier = [xi]
        while frontier:
            nxt = []
            for v in frontier:
                for e in gens:
                    img = tuple(sum(map(mul, row, v)) % common for row in e)
                    if img not in visited:
                        visited.add(img)
                        nxt.append(img)
            frontier = nxt
    rows = []
    for xi in reps:
        cocycle = centralizer_cocycle(action, b, xi, verify_cap, level_checked=True)
        k, _ = class_order(cocycle)
        rows.append(ScanRow(xi, len(cocycle.w_l), k, k == 1))
    return ScanTable(tuple(rows))
