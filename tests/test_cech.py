import itertools
import json
import random
import re

import pytest

from gerbelevels.cech import (
    CechError,
    CoefficientGroup,
    FiniteAction,
    FiniteGroupTable,
    Nerve,
    central_extension_from_cocycle,
    cohomology,
    cyclic_group,
    equivariant_cohomology,
    parse_group_label,
)
from gerbelevels.cochains import (
    Cochain,
    coboundary,
    cocycle_class,
    trivialize,
    zero_cochain,
)
from gerbelevels.covers import nerve_of_cover
from gerbelevels.intlinalg import (
    AbelianInvariants,
    CapExceeded,
    identity,
    matmul,
    transpose,
)
from gerbelevels.levels import LevelTensor, basic_level
from gerbelevels.model import (
    check_two_cocycle,
    circle_nerve,
    gerbe_cocycle_from_level,
    group_cohomology,
    octahedron_nerve,
    simplex_cone_nerve,
    torus_cover_model,
    torus_log_cocycle,
    winding_pairing,
)
from gerbelevels.rootdata import classical_datum, identity_isogeny

from helpers import trivial_action

ZZ = CoefficientGroup(1, ())


# --- nerves -----------------------------------------------------------------


def test_nerve_two_overlapping_sets():
    n = nerve_of_cover([{1, 2}, {2, 3}])
    assert n.level(0) == ((0,), (1,))
    assert n.level(1) == ((0, 1),)
    assert n.dim == 1


def test_nerve_hollow_triangle():
    n = nerve_of_cover([{1, 2}, {2, 3}, {3, 1}])
    assert len(n.level(1)) == 3
    assert n.dim == 1  # empty triple intersection: no 2-simplex


def test_nerve_octahedron_from_cover():
    # cover of the 8 faces of an octahedron by its 6 vertex stars
    faces = []
    for a in (0, 5):
        for b in (1, 3):
            for c in (2, 4):
                faces.append(frozenset({a, b, c}))
    cover = [set(i for i, f in enumerate(faces) if v in f) for v in range(6)]
    n = nerve_of_cover(cover)
    direct = octahedron_nerve()
    assert n.simplices == direct.simplices
    assert len(n.level(0)) == 6
    assert len(n.level(1)) == 12
    assert len(n.level(2)) == 8
    assert n.dim == 2


def test_nerve_stops_at_the_dimension_read():
    # a star: 8 sets through one point, whose nerve is the full 7-simplex
    star = [{0, v} for v in range(1, 9)]
    full = nerve_of_cover(star, dim_cap=7)
    for reads in (1, 2, 3):
        n = nerve_of_cover(star, dim_cap=4, reads=reads)
        assert n.dim == reads and n.simplices == full.simplices[:reads + 1]
        for degree in range(reads):
            assert cohomology(n, degree, ZZ) == cohomology(full, degree, ZZ)
    # reads past the cap: the cap still refuses, and builds to the cap
    assert nerve_of_cover(star, dim_cap=4).dim == 4
    with pytest.raises(CapExceeded, match="dimension 5, over the dimension cap 4"):
        nerve_of_cover(star, dim_cap=4, reads=5)


def test_nerve_downward_closure_enforced():
    with pytest.raises(CechError):
        Nerve(3, (((0,), (1,)), (((0, 2)),)))


# --- coboundary and plain cohomology -----------------------------------------


def test_coboundary_of_zero_cochain_on_triangle():
    n = nerve_of_cover([{1, 2}, {2, 3}, {3, 1}])
    u = Cochain(n, 0, ZZ, {(0,): (5,), (1,): (1,), (2,): (0,)})
    du = coboundary(u)
    assert du.value((0, 1)) == (-4,)  # u_b - u_a
    assert du.value((1, 2)) == (-1,)
    assert du.value((0, 2)) == (-5,)
    assert du.value((2, 0)) == (5,)  # alternation under index swap


def test_delta_delta_zero_random():
    rng = random.Random(3)
    n = octahedron_nerve()
    g = CoefficientGroup(2, (4,))
    for _ in range(10):
        vals = {}
        for s in n.level(0):
            vals[s] = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3))
        c = Cochain(n, 0, g, vals)
        assert coboundary(coboundary(c)).is_zero()
        vals1 = {}
        for s in n.level(1):
            vals1[s] = (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(0, 3))
        c1 = Cochain(n, 1, g, vals1)
        assert coboundary(coboundary(c1)).is_zero()


def test_point_cohomology():
    n = simplex_cone_nerve(1)
    assert cohomology(n, 0, ZZ) == AbelianInvariants(1, ())
    assert cohomology(n, 1, ZZ) == AbelianInvariants(0, ())


def test_circle_cohomology():
    n = circle_nerve(3)
    assert cohomology(n, 0, ZZ) == AbelianInvariants(1, ())
    assert cohomology(n, 1, ZZ) == AbelianInvariants(1, ())
    assert cohomology(n, 1, CoefficientGroup(0, (4,))) == AbelianInvariants(0, (4,))


def test_octahedron_sphere_cohomology():
    n = octahedron_nerve()
    assert cohomology(n, 0, ZZ) == AbelianInvariants(1, ())
    assert cohomology(n, 1, ZZ) == AbelianInvariants(0, ())
    assert cohomology(n, 2, ZZ) == AbelianInvariants(1, ())


def test_cone_positive_degrees_vanish():
    n = simplex_cone_nerve(5)
    for p in (1, 2, 3):
        assert cohomology(n, p, ZZ) == AbelianInvariants(0, ())
        assert cohomology(n, p, CoefficientGroup(0, (6,))) == AbelianInvariants(0, ())


def test_hollow_triangle_generator_class():
    n = nerve_of_cover([{1, 2}, {2, 3}, {3, 1}])
    c = Cochain(n, 1, ZZ, {(0, 1): (1,), (1, 2): (1,), (0, 2): (1,)})
    assert coboundary(c).is_zero()  # no 2-simplices
    inv, coords, order = cocycle_class(c)
    assert inv == AbelianInvariants(1, ())
    assert order is None  # infinite order: a free generator
    assert any(coords)


# --- trivialization -----------------------------------------------------------


def test_trivialize_zero():
    n = circle_nerve(4)
    z = zero_cochain(n, 1, ZZ)
    w = trivialize(z)
    assert w is not None and w.is_zero()


def test_trivialize_detects_nonzero_class():
    n = circle_nerve(3)
    c = Cochain(n, 1, ZZ, {(0, 1): (1,), (1, 2): (1,), (0, 2): (1,)})
    assert trivialize(c) is None


def test_trivialize_recovers_witness():
    rng = random.Random(12)
    n = octahedron_nerve()
    vals = {s: (rng.randint(-4, 4),) for s in n.level(0)}
    u = Cochain(n, 0, ZZ, vals)
    du = coboundary(u)
    w = trivialize(du)
    assert w is not None
    assert coboundary(w).values == du.values
    with pytest.raises(CechError):
        trivialize(Cochain(n, 1, ZZ, {(0, 1): (1,)}))


# --- torus cover models --------------------------------------------------------


def test_single_circle_winding_class():
    model = torus_cover_model([3], [1])
    lam = torus_log_cocycle(model)
    assert coboundary(lam).is_zero()
    assert winding_pairing(model, lam) == ((1,),)
    inv, coords, order = cocycle_class(lam)
    assert inv == AbelianInvariants(1, ())
    assert order is None  # generator of H^1


def test_no_loop_trivial_class():
    model = torus_cover_model([4], [0])
    lam = torus_log_cocycle(model)
    assert trivialize(lam) is not None
    assert winding_pairing(model, lam) == ((0,),)


def test_two_torus_product_class():
    model = torus_cover_model([3, 3], [1, 1])
    lam = torus_log_cocycle(model)
    assert coboundary(lam).is_zero()
    assert winding_pairing(model, lam) == ((1, 0), (0, 1))
    inv = cohomology(model.nerve, 1, CoefficientGroup(1, ()))
    assert inv == AbelianInvariants(2, ())


def test_two_torus_nerve_is_torus():
    model = torus_cover_model([3, 4], [0, 0])
    n = model.nerve
    assert cohomology(n, 0, ZZ) == AbelianInvariants(1, ())
    assert cohomology(n, 1, ZZ) == AbelianInvariants(2, ())
    assert cohomology(n, 2, ZZ) == AbelianInvariants(1, ())


# --- level-induced cocycles -----------------------------------------------------


def sl2_level(m):
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    return LevelTensor(iso, ((m,),))


def test_gerbe_cocycle_zero_level():
    model = torus_cover_model([3], [1])
    lam = torus_log_cocycle(model)
    out = gerbe_cocycle_from_level(lam, sl2_level(0))
    assert out.is_zero()


def test_gerbe_cocycle_sl2_class():
    model = torus_cover_model([3], [1])
    lam = torus_log_cocycle(model)
    for m in (1, 2, 5):
        out = gerbe_cocycle_from_level(lam, sl2_level(m))
        assert winding_pairing(model, out) == ((m,),)


def test_gerbe_cocycle_additive_and_odd():
    rng = random.Random(7)
    model = torus_cover_model([4], [2])
    lam = torus_log_cocycle(model)
    for _ in range(10):
        m1 = rng.randint(-4, 4)
        m2 = rng.randint(-4, 4)
        b1, b2 = sl2_level(m1), sl2_level(m2)
        out = gerbe_cocycle_from_level(lam, b1.add(b2))
        split = gerbe_cocycle_from_level(lam, b1).add(
            gerbe_cocycle_from_level(lam, b2)
        )
        assert out.values == split.values
        assert gerbe_cocycle_from_level(lam.neg(), b1).values == \
            gerbe_cocycle_from_level(lam, b1).neg().values


def test_gerbe_cocycle_weyl_compatibility():
    # acting on coefficients by w and on lam by w commute for invariant b
    from gerbelevels.levels import SharedWeylAction

    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    model = torus_cover_model([3], [1])
    lam = torus_log_cocycle(model)
    group = action.group
    for g in group.generators:
        # the cocharacter action, the transpose of the inverse's character
        # matrix, g being its own inverse
        assert group.mult(g, g) == group.identity_index
        wt = transpose(group.elements[g])
        ws = action.source_char_action(g)
        lam_w = lam.map_values(lambda v: tuple(
            sum(wt[i][j] * v[j] for j in range(len(v))) for i in range(len(v))
        ), lam.group)
        left = gerbe_cocycle_from_level(lam_w, b)
        right = gerbe_cocycle_from_level(lam, b).map_values(
            lambda v: tuple(
                sum(ws[i][j] * v[j] for j in range(len(v))) for i in range(len(v))
            ),
            CoefficientGroup(iso.source.rank, ()),
        )
        assert left.values == right.values


# --- equivariant cohomology -------------------------------------------------------


def test_trivial_group_reduces_to_plain():
    e = cyclic_group(1)
    for nerve, degree in [
        (octahedron_nerve(), 0),
        (octahedron_nerve(), 1),
        (octahedron_nerve(), 2),
        (circle_nerve(3), 1),
    ]:
        act = trivial_action(e, nerve, ZZ)
        assert equivariant_cohomology(act, degree) == cohomology(nerve, degree, ZZ)


def test_group_cohomology_cyclic_degree_two():
    for n in range(2, 7):
        inv = group_cohomology(cyclic_group(n), ZZ, 2)
        assert inv == AbelianInvariants(0, (n,)), n


def test_group_cohomology_z2_degrees():
    z2 = cyclic_group(2)
    assert group_cohomology(z2, ZZ, 0) == AbelianInvariants(1, ())
    assert group_cohomology(z2, ZZ, 1) == AbelianInvariants(0, ())
    assert group_cohomology(z2, ZZ, 2) == AbelianInvariants(0, (2,))
    assert group_cohomology(z2, ZZ, 3) == AbelianInvariants(0, ())


def test_group_cohomology_cyclic_high_degree():
    # T^10 of Z/3 counts 3^10 = 59049 bar coordinates, just under the
    # default cap; the resolution's layers are 1 x 1
    assert group_cohomology(cyclic_group(3), ZZ, 9) == AbelianInvariants(0, ())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cyclic_resolution_has_one_generator_per_degree(n):
    # the greedy steps give a resolution of a cyclic group with one
    # generator in every degree: d_1 = s - 1, d_2 the norm element
    from gerbelevels import cech

    ds = cech._differentials(cyclic_group(n), 15)
    assert [len(d) for d in ds] == [1] * 15
    assert ds[0] == ((-1, 1) + (0,) * (n - 2),)
    assert ds[1] == ((1,) * n,)
    if n == 2:
        # T^15 counts 2^15 = 32768 bar coordinates, under the default cap
        assert group_cohomology(cyclic_group(2), ZZ, 14) == AbelianInvariants(0, (2,))


def test_group_cohomology_sign_action():
    # Z/2 acting by -1 on Z: H^1 = Z/2, H^2 = 0
    z2 = cyclic_group(2)
    acts = (identity(1), ((-1,),))
    assert group_cohomology(z2, ZZ, 1, acts) == AbelianInvariants(0, (2,))
    assert group_cohomology(z2, ZZ, 2, acts) == AbelianInvariants(0, ())


def test_group_cohomology_mod2_coefficients():
    z2 = cyclic_group(2)
    a = CoefficientGroup(0, (2,))
    assert group_cohomology(z2, a, 2) == AbelianInvariants(0, (2,))


def test_equivariant_with_vertex_swap():
    # Z/2 swapping the endpoints of an interval: equivariantly still a point
    z2 = cyclic_group(2)
    nerve = simplex_cone_nerve(2)
    act = FiniteAction(
        z2, nerve, ZZ,
        ((0, 1), (1, 0)),
        (identity(1), identity(1)),
    )
    assert equivariant_cohomology(act, 1) == AbelianInvariants(0, ())
    assert equivariant_cohomology(act, 2) == AbelianInvariants(0, (2,))


def test_equivariant_total_differential_squares_to_zero():
    from gerbelevels.cech import _equivariant_matrices

    z2 = cyclic_group(2)
    nerve = circle_nerve(4)
    # rotate the 4-cycle by two steps: a free action on the nerve
    act = FiniteAction(
        z2, nerve, ZZ,
        ((0, 1, 2, 3), (2, 3, 0, 1)),
        (identity(1), identity(1)),
    )
    for n in (0, 1, 2):
        d_n, _, _ = _equivariant_matrices(act, n, 100000)
        d_n1, _, _ = _equivariant_matrices(act, n + 1, 100000)
        if d_n and d_n1:
            prod = matmul(d_n1, d_n)
            assert all(all(x == 0 for x in row) for row in prod)


def test_equivariant_free_circle_action():
    # Z/2 rotating a 4-arc circle freely: quotient is again a circle
    z2 = cyclic_group(2)
    nerve = circle_nerve(4)
    act = FiniteAction(
        z2, nerve, ZZ,
        ((0, 1, 2, 3), (2, 3, 0, 1)),
        (identity(1), identity(1)),
    )
    assert equivariant_cohomology(act, 1) == AbelianInvariants(1, ())


# --- central extensions -------------------------------------------------------------


def test_extension_zero_cocycle_is_product():
    z2 = cyclic_group(2)
    a = CoefficientGroup(0, (2,))
    res = central_extension_from_cocycle(z2, a, {})
    assert res.table.n == 4
    assert res.order_multiset == (1, 2, 2, 2)  # Klein four group
    assert res.center_size == 4


def test_extension_nontrivial_cocycle_is_cyclic_four():
    z2 = cyclic_group(2)
    a = CoefficientGroup(0, (2,))
    psi = {(1, 1): (1,)}
    res = central_extension_from_cocycle(z2, a, psi)
    assert res.table.n == 4
    assert res.order_multiset == (1, 2, 4, 4)  # cyclic of order 4
    assert res.center_size == 4


def test_extension_rejects_non_cocycle():
    z3 = cyclic_group(3)
    a = CoefficientGroup(0, (3,))
    psi = {(1, 1): (1,)}  # not a cocycle for Z/3
    bad = check_two_cocycle(z3, a, psi)
    assert bad is not None
    with pytest.raises(CechError) as err:
        central_extension_from_cocycle(z3, a, psi)
    assert "triple" in str(err.value)


@pytest.mark.parametrize("pair", [(1, 2), (2, 1), (-1, 1), (1, -1)])
def test_two_cochain_pairs_outside_the_group_are_refused(pair):
    z2, a = cyclic_group(2), CoefficientGroup(0, (2,))
    psi = {(1, 1): (1,), pair: (1,)}
    for check in (check_two_cocycle, central_extension_from_cocycle):
        with pytest.raises(CechError, match=re.escape(f"pair {pair} is outside")):
            check(z2, a, psi)


def test_extension_cohomologous_cocycles_isomorphic_probe():
    z2 = cyclic_group(2)
    a = CoefficientGroup(0, (2,))
    psi = {(1, 1): (1,)}
    # add the coboundary of eta(g): psi'(g,h) = psi + eta(gh)-eta(g)-eta(h)
    eta = {0: (0,), 1: (1,)}
    psi2 = {}
    for g in range(2):
        for h in range(2):
            base = psi.get((g, h), (0,))
            gh = z2.mult(g, h)
            val = (base[0] + eta[gh][0] - eta[g][0] - eta[h][0]) % 2
            if val:
                psi2[(g, h)] = (val,)
    r1 = central_extension_from_cocycle(z2, a, psi)
    r2 = central_extension_from_cocycle(z2, a, psi2)
    assert r1.order_multiset == r2.order_multiset
    assert r1.center_size == r2.center_size


def test_group_table_validation():
    with pytest.raises(CechError):
        FiniteGroupTable(((0, 1), (1, 1)))  # not a group
    t = cyclic_group(4)
    assert oracle_element_order(t, 1) == 4
    assert t.order_multiset() == (1, 2, 4, 4)


def oracle_element_order(t, a):
    """The per-element walk that order_multiset replaced: a's powers up
    to the identity, counted."""
    k, x = 1, a
    while x != t.identity:
        x = t.table[x][a]
        k += 1
    return k


def _symmetric_group_3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroupTable(tuple(
        tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms)
        for p in perms))


def test_order_multiset_matches_per_element_walk():
    z2 = CoefficientGroup(0, (2,))
    c120 = cyclic_group(120)
    # the carry cocycle of Z/240 -> Z/120, and the zero cocycle
    carry = {(g, h): (1,) for g in range(120) for h in range(120) if g + h >= 120}
    groups = [cyclic_group(n) for n in (1, 2, 6, 12, 30)]
    groups += [central_extension_from_cocycle(cyclic_group(2), z2, {}).table,
               _symmetric_group_3(),
               central_extension_from_cocycle(c120, z2, carry).table,
               central_extension_from_cocycle(c120, z2, {}).table]
    for t in groups:
        assert t.order_multiset() == tuple(sorted(
            oracle_element_order(t, a) for a in range(t.n)))
    assert groups[5].order_multiset() == (1, 2, 2, 2)  # Klein four group
    assert groups[6].order_multiset() == (1, 2, 2, 2, 3, 3)
    assert groups[7].n == groups[8].n == 240
    assert groups[7].order_multiset().count(240) == 64  # cyclic of order 240


def test_parse_group_label():
    assert parse_group_label("Z") == CoefficientGroup(1, ())
    assert parse_group_label("Z/4") == CoefficientGroup(0, (4,))
    assert parse_group_label("Z^2+Z/2+Z/6") == CoefficientGroup(2, (2, 6))
    assert parse_group_label("0") == CoefficientGroup(0, ())
    for bad in ("Q", "Z/x", "Z^x", "Z^-1", "Z^-1+Z^2", "Z/", 4):
        with pytest.raises(CechError):
            parse_group_label(bad)


@pytest.mark.parametrize("data", [
    {"n_vertices": "x", "simplices": []},
    {"simplices": [[[0]]]},
    {"n_vertices": 1, "simplices": 5},
    {"n_vertices": 1.5, "simplices": [[[0]]]},
    {"n_vertices": 1, "simplices": [[[0.0]]]},
    {"n_vertices": 1, "simplices": [[[True]]]},
])
def test_nerve_from_json_rejects_malformed(data):
    with pytest.raises(CechError, match="malformed nerve"):
        Nerve.from_json_dict(data)


def test_action_from_json_rejects_missing_group():
    with open("fixtures/z2_point.json") as fh:
        data = json.load(fh)
    FiniteAction.from_json_dict(data)
    del data["group"]
    with pytest.raises(CechError, match="malformed action: missing field 'group'"):
        FiniteAction.from_json_dict(data)


@pytest.mark.parametrize("path, value, bad", [
    (("coeff_actions", 1), [[1.9]], 1.9),
    (("group", "table", 0, 1), 1.2, 1.2),
    (("vertex_perms", 1, 0), 0.0, 0.0),
])
def test_action_from_json_rejects_non_integers(path, value, bad):
    with open("fixtures/z2_point.json") as fh:
        data = json.load(fh)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(CechError, match=f"malformed action: expected an integer, "
                                        f"got {bad}"):
        FiniteAction.from_json_dict(data)


def test_cocycle_from_json_rejects_non_integers():
    nerve = circle_nerve(3)
    with pytest.raises(CechError, match="malformed cocycle: expected an integer"):
        Cochain.from_json_dict(nerve, CoefficientGroup(1), {
            "degree": 1, "values": [{"simplex": [0, 1], "value": [1.5]}]}, 1)


def test_torus_model_rejects_inconsistent_offsets():
    good = torus_cover_model([3, 3], [1, 0])
    from gerbelevels.model import TorusCoverModel

    bad_offsets = dict(good.offsets)
    # corrupt one edge so the triple-overlap relation breaks
    some_edge = good.nerve.level(1)[0]
    cur = bad_offsets.get(some_edge, (0, 0))
    bad_offsets[some_edge] = (cur[0] + 1, cur[1])
    with pytest.raises(CechError):
        TorusCoverModel(
            good.arc_counts, good.windings, good.nerve,
            good.vertex_labels, bad_offsets,
        )
