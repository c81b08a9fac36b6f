import random
from fractions import Fraction

import pytest

from gerbelevels import obstruction
from gerbelevels.intlinalg import (
    AbelianInvariants,
    CapExceeded,
    RatVector,
    matvec,
)
from gerbelevels.levels import LevelTensor, SharedWeylAction, basic_level
from gerbelevels.obstruction import (
    ObstructionError,
    _power_sum,
    centralizer_cocycle,
    h1_group_lattice,
    obstruction_report,
    scan_points,
)
from gerbelevels.rootdata import classical_datum, classical_isogeny, identity_isogeny
from gerbelevels.weyl import stabilizer, subgroup_from_members

from helpers import vec_sub


def spin7_setup():
    iso = identity_isogeny(classical_datum("B", 3, "Spin"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    xi = iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    return action, b, xi


def test_spin7_cocycle_values():
    action, b, pt = spin7_setup()
    res = centralizer_cocycle(action, b, pt)
    assert len(res.w_l) == 8
    # (Z/2)^3: every member squares to the identity
    g = action.group
    for i in res.w_l.members:
        assert g.mult(i, i) == g.identity_index
    # the reflection in t1 - t2: d_w = -(e1 - e2), c_w = -t1 + t2
    tgt = action.iso.target
    refl = g.index_of(tgt.reflection_char(tgt.simple_indices[0]))
    assert refl in res.w_l.members
    d_amb = tgt.cochar_ambient(RatVector.make(res.d_cocycle[refl]))
    assert d_amb.fractions() == (Fraction(-1), Fraction(1), Fraction(0))
    c_amb = action.iso.source.char_ambient(RatVector.make(res.c_cocycle[refl]))
    assert c_amb.fractions() == (Fraction(-1), Fraction(1), Fraction(0))


def test_spin7_class_is_order_two():
    action, b, pt = spin7_setup()
    res = obstruction_report(action, b, pt)
    assert res.trivial is False
    assert res.witness_u is None
    assert res.class_order == 2
    # the only rational witness is (t1 - t2)/2, outside the lattice
    w_amb = action.iso.source.char_ambient(res.cocycle.rational_witness).fractions()
    assert w_amb == (Fraction(1, 2), Fraction(-1, 2), Fraction(0))
    assert not res.cocycle.rational_witness.is_integral
    assert res.reflection_sub is res.cocycle.w_l
    # H^1 sees the same order-2 class
    assert res.h1.invariants is not None
    assert 2 in res.h1.invariants.torsion
    assert res.h1.class_coords is not None
    assert any(x for x in res.h1.class_coords)


def test_sl2_half_coroot_is_trivial_with_witness_chi():
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    assert b.matrix == ((2,),)
    pt = RatVector.make([1], 2)
    res = obstruction_report(action, b, pt)
    assert res.trivial is True
    assert res.witness_u == (1,)  # the generating character
    assert res.class_order == 1


def test_regular_point_trivial_stabilizer():
    iso = identity_isogeny(classical_datum("B", 3, "Spin"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    xi = RatVector.make([1, 2, 3], 7)
    res = obstruction_report(action, b, xi)
    assert len(res.cocycle.w_l) == 1
    assert res.trivial is True
    assert res.witness_u == (0, 0, 0)
    assert res.class_order == 1


def test_integral_point_full_stabilizer_coboundary():
    iso = identity_isogeny(classical_datum("A", 2, "SL"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    xi = RatVector.make([2, -1], 1)
    res = obstruction_report(action, b, xi)
    assert len(res.cocycle.w_l) == action.group.order
    assert res.trivial is True
    # bmap(xi) itself is an integral witness
    u = matvec(b.matrix, xi.nums)
    for i in res.cocycle.w_l.members:
        m = action.source_char_action(i)
        assert vec_sub(matvec(m, u), u) == res.cocycle.c_cocycle[i]


def test_non_invariant_level_rejected():
    iso = identity_isogeny(classical_datum("A", 2, "SL"))
    action = SharedWeylAction(iso)
    bad = LevelTensor(iso, ((1, 0), (0, 0)))
    with pytest.raises(ObstructionError):
        centralizer_cocycle(action, bad, RatVector.zero(2))


def test_cocycle_identity_exhaustive():
    action, b, pt = spin7_setup()
    res = centralizer_cocycle(action, b, pt)
    g = action.group
    from helpers import vec_add

    for i in res.w_l.members:
        mi = action.source_char_action(i)
        for j in res.w_l.members:
            k = g.mult(i, j)
            assert res.c_cocycle[k] == vec_add(
                matvec(mi, res.c_cocycle[j]), res.c_cocycle[i]
            )


def test_cocycle_identity_catches_any_single_corrupted_value(monkeypatch):
    # at the origin W_L = W and every c_w is 0; shifting d_w at one element
    # breaks the identity only at pairs involving that element, so each
    # shift is caught only if those pairs are compared
    iso = identity_isogeny(classical_datum("B", 2, "Spin"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    pt = RatVector.zero(2)
    g = action.group
    shift = (1, 0)
    real = obstruction._differences
    for target in range(len(g.elements)):
        if target == g.identity_index:
            continue

        def shifted(group, members, xi, target=target):
            out = real(group, members, xi)
            out[target] = tuple(x + y for x, y in zip(out[target], shift))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(obstruction, "_differences", shifted)
            with pytest.raises(AssertionError, match="cocycle identity"):
                centralizer_cocycle(action, b, pt)
    assert len(centralizer_cocycle(action, b, pt).w_l) == 8


def corrupted_cocycles(monkeypatch, action, b, pt, corrupt):
    """Runs centralizer_cocycle once per non-identity element, with that
    element's difference d replaced by corrupt(d, ds), where ds holds the
    point's differences, and returns the members whose corruption went
    through."""
    real = obstruction._differences
    passed = []
    for bad in range(action.group.order):
        if bad == action.group.identity_index:
            continue

        def corrupted(group, members, xi, bad=bad):
            out = real(group, members, xi)
            out[bad] = corrupt(out[bad], out)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(obstruction, "_differences", corrupted)
            try:
                centralizer_cocycle(action, b, pt)
            except AssertionError as err:
                assert "cocycle identity" in str(err)
                continue
        passed.append(bad)
    return passed


def regular_integral_point_setup():
    # at an integral point W_L = W, and off every reflecting hyperplane
    # c_w = b(w.xi - xi) takes a different value at each of the 8 members
    iso = identity_isogeny(classical_datum("B", 2, "Spin"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    pt = RatVector.make([3, 1])
    res = centralizer_cocycle(action, b, pt)
    assert len(res.w_l) == 8 and len(set(res.c_cocycle.values())) == 8
    return action, b, pt, res


def test_cocycle_identity_catches_a_value_no_member_has(monkeypatch):
    # c_w moved far outside the values of c, and its own value was no
    # other member's: every pair the corruption breaks has an image that
    # is no value of c, the -1 of the interned comparison
    action, b, pt, res = regular_integral_point_setup()
    values = set(res.c_cocycle.values())
    far = (100, 0)
    assert all(b.bmap(tuple(x + y for x, y in zip(d, far))) not in values
               for d in res.d_cocycle.values())
    assert corrupted_cocycles(
        monkeypatch, action, b, pt,
        lambda d, ds: tuple(x + y for x, y in zip(d, far))) == []


def test_cocycle_identity_catches_another_members_value(monkeypatch):
    # c_w replaced by c_u of another member u with a different value: no
    # new value appears, only the ids of the pairs through w change
    action, b, pt, res = regular_integral_point_setup()

    def other(d, ds):
        return next(y for y in ds.values() if y != d)

    assert corrupted_cocycles(monkeypatch, action, b, pt, other) == []


def test_h1_bar_complex_cap_edges(monkeypatch):
    action, b, pt = spin7_setup()
    res = centralizer_cocycle(action, b, pt)
    cells = (8 * 8 * 3) * (8 * 3)  # delta^1 of |W_L| = 8 on rank 3
    monkeypatch.setattr(obstruction, "H1_CELL_CAP", cells)
    assert h1_group_lattice(res.w_l, action.source_char_action).invariants == \
        AbelianInvariants(0, (2,))
    monkeypatch.setattr(obstruction, "H1_CELL_CAP", cells - 1)
    with pytest.raises(CapExceeded, match=f"^H\\^1 bar complex needs about {cells} "
                       f"matrix cells, over the cap {cells - 1}$"):
        h1_group_lattice(res.w_l, action.source_char_action)


def test_log_independence():
    action, b, pt = spin7_setup()
    base = obstruction_report(action, b, pt)
    rng = random.Random(11)
    for _ in range(10):
        lam = RatVector.make([rng.randint(-3, 3) for _ in range(3)], 1)
        shifted = obstruction_report(action, b, pt + lam)
        assert shifted.trivial == base.trivial
        assert shifted.class_order == base.class_order
        assert len(shifted.cocycle.w_l) == len(base.cocycle.w_l)


def test_pgl2_disconnected_centralizer_case():
    iso = identity_isogeny(classical_datum("A", 1, "PGL"))
    action = SharedWeylAction(iso)
    b = LevelTensor(iso, ((1,),))  # the basic allowable generator
    res = obstruction_report(action, b, RatVector.make([1], 2))
    # the integrality stabilizer is all of W but contains no integral
    # reflections: the report must surface the discrepancy
    assert len(res.cocycle.w_l) == 2
    assert res.to_json_dict()["reflection_subgroup_agrees"] is False
    assert len(res.reflection_sub) == 1
    assert res.class_order == 2


# --- H^1 -------------------------------------------------------------------


def test_h1_trivial_group():
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    action = SharedWeylAction(iso)
    sub = subgroup_from_members(action.group, [action.group.identity_index])
    h1 = h1_group_lattice(sub, action.source_char_action)
    assert h1.invariants == AbelianInvariants(0, ())


def test_h1_sign_action_on_z():
    # Z/2 acting by -1 on Z: Z^1 = Z, B^1 = 2Z, H^1 = Z/2
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    action = SharedWeylAction(iso)
    w = action.group
    sub = subgroup_from_members(w, range(w.order))
    h1 = h1_group_lattice(sub, action.source_char_action)
    assert h1.invariants == AbelianInvariants(0, (2,))


def test_h1_locates_spin7_class():
    action, b, pt = spin7_setup()
    res = centralizer_cocycle(action, b, pt)
    h1 = h1_group_lattice(res.w_l, action.source_char_action, res.c_cocycle)
    assert h1.class_order_in_h1 == 2
    assert 2 in h1.invariants.torsion


# --- scans -------------------------------------------------------------------


def test_scan_sl3_all_trivial():
    iso = identity_isogeny(classical_datum("A", 2, "SL"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    table = scan_points(action, b, 3)
    assert table.nontrivial_count == 0
    assert table.rows[0].xi == RatVector.zero(2)
    for row in table.rows:
        assert row.class_order == 1


def test_scan_spin7_finds_the_example():
    action, b, _ = spin7_setup()
    table = scan_points(action, b, 2)
    assert table.nontrivial_count >= 1
    found = [r for r in table.rows if r.stabilizer_order == 8 and r.class_order == 2]
    assert found


def test_scan_zero_level_all_trivial():
    iso = identity_isogeny(classical_datum("B", 2, "Spin"))
    action = SharedWeylAction(iso)
    zero = LevelTensor(iso, ((0, 0), (0, 0)))
    table = scan_points(action, zero, 2)
    assert table.nontrivial_count == 0


def test_scan_class_order_divides_stabilizer_order():
    # |W_L| kills H^1(W_L, X*(S)) (Brown, Cohomology of Groups, III.10.2),
    # but the exponent of W_L need not: at the D4 Spin -> PSO point
    # (0, 1, 2, 2)/4, W_L = (Z/2)^3 and the class has order 4
    action, b, _ = spin7_setup()
    for row in scan_points(action, b, 2).rows:
        assert len(stabilizer(action.group, row.xi)) % row.class_order == 0
    iso = classical_isogeny("D", 4, "Spin", "PSO")
    d4 = SharedWeylAction(iso)
    table = scan_points(d4, basic_level(iso).tensor, 4)
    for row in table.rows:
        assert len(stabilizer(d4.group, row.xi)) % row.class_order == 0
    row = next(r for r in table.rows if r.xi == RatVector.make((0, 1, 2, 2), 4))
    assert (row.stabilizer_order, row.class_order) == (8, 4)
    g = d4.group
    assert all(g.mult(i, i) == g.identity_index
               for i in stabilizer(g, row.xi).members)


def test_scan_size_refusal():
    iso = identity_isogeny(classical_datum("B", 2, "Spin"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    with pytest.raises(CapExceeded, match="^scan would enumerate about 338350 "
                       "points, over the cap 50$"):
        scan_points(action, b, 100, point_cap=50)


def test_point_count_matches_the_loop():
    for r in range(9):
        for n in range(30):
            assert _power_sum(r, n) == sum(d**r for d in range(1, n + 1))


def test_scan_computes_the_weyl_order_once_per_action(monkeypatch):
    # the cap check at construction computes |W| and enumerating W reuses
    # it: one Cartan-chain count per action, however much the scan reads
    from gerbelevels import levels, weyl

    calls = []
    real = weyl.group_order

    def counted(rd, cap=10**6):
        calls.append(rd.name)
        return real(rd, cap)

    monkeypatch.setattr(weyl, "group_order", counted)
    monkeypatch.setattr(levels, "group_order", counted)
    iso = identity_isogeny(classical_datum("B", 3, "Spin"))
    action = SharedWeylAction(iso)
    table = scan_points(action, basic_level(iso).tensor, 2)
    assert table.nontrivial_count >= 1 and len(action.group) == 48
    assert len(calls) == 1


def test_scan_deterministic():
    iso = identity_isogeny(classical_datum("A", 2, "SL"))
    action = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    t1 = scan_points(action, b, 3)
    t2 = scan_points(action, b, 3)
    assert t1 == t2


def test_scan_checks_the_level_once_and_each_point_its_reflections(monkeypatch):
    # the level is the same at every point: one invariance test per scan;
    # the integral reflections are not closed in a scan, but each point
    # still checks that they lie in W_L
    action, b, _ = spin7_setup()
    calls = []
    real = obstruction.is_invariant

    def counted(act, level):
        calls.append(level)
        return real(act, level)

    monkeypatch.setattr(obstruction, "is_invariant", counted)
    table = scan_points(action, b, 2)
    assert len(table.rows) == 3 and len(calls) == 1
    bad = LevelTensor(action.iso, ((1, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ObstructionError, match="not Weyl invariant"):
        scan_points(action, bad, 2)

    def trivial(group, xi, cap=None):
        return subgroup_from_members(group, ())

    def unreachable(*args):
        raise AssertionError("a scan closed the integral reflections")

    monkeypatch.setattr(obstruction, "integral_reflection_subgroup", unreachable)
    assert scan_points(action, b, 2) == table
    monkeypatch.setattr(obstruction, "stabilizer", trivial)
    with pytest.raises(AssertionError, match="escaped the stabilizer"):
        scan_points(action, b, 2)
