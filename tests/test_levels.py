import random
from fractions import Fraction

import pytest

from gerbelevels.claims import find_claim, load_claims
from gerbelevels.cli import DEFAULT_ATLAS_ROWS
from gerbelevels.intlinalg import (
    CapExceeded,
    RatVector,
    freeze,
    hnf_basis,
    matmul,
    transpose,
)
from gerbelevels.levels import (
    AtlasEntry,
    LevelTensor,
    SharedWeylAction,
    _vectorize,
    allowable_lattice,
    basic_level,
    compare_with_reference,
    ev_filter,
    invariant_level_lattice,
    is_invariant,
    root_orbits,
)
from gerbelevels.model import (
    coroot_value,
    named_basic_level,
    restrict_to_rank_one,
    torus_datum,
)
from gerbelevels.rootdata import (
    RootDatum,
    build_isogeny,
    classical_datum,
    classical_isogeny,
    identity_isogeny,
)

from helpers import lattices_equal

# a long and a short root of B3 in reference coordinates
LONG = RatVector.from_fractions((1, -1, 0))
SHORT = RatVector.from_fractions((0, 0, 1))


def action_for(series, rank, sf, tf):
    return SharedWeylAction(classical_isogeny(series, rank, sf, tf))


# --- invariant lattice ----------------------------------------------------


def test_sl2_invariant_lattice_is_chi_tensor_chi():
    act = action_for("A", 1, "SL", "SL")
    basis = invariant_level_lattice(act)
    assert len(basis) == 1
    # in coroot coordinates chi (x) chi is the 1x1 matrix [1]
    assert basis[0].matrix == ((1,),)


def test_gl_invariant_lattice_rank_two():
    for rank in (1, 2):
        act = action_for("A", rank, "GL", "GL")
        basis = invariant_level_lattice(act)
        assert len(basis) == 2
        n = rank + 1
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        ones = tuple((1,) * n for _ in range(n))
        vec = lambda m: tuple(x for row in m for x in row)  # noqa: E731
        assert lattices_equal(
            freeze([vec(b.matrix) for b in basis]), freeze([vec(eye), vec(ones)])
        )


def test_pgl2_invariant_lattice_is_alpha_tensor_alpha():
    act = action_for("A", 1, "PGL", "PGL")
    basis = invariant_level_lattice(act)
    assert len(basis) == 1
    # alpha (x) alpha takes value 1 on the fundamental coweight pair,
    # which is 2 * basic for PGL(2)
    assert basis[0].matrix == ((1,),)
    b = basic_level(act.iso)
    assert b.rational_matrix == ((Fraction(1, 2),),)


def test_actions_over_equal_targets_share_one_group():
    # the group is enumerated once per target datum per process: B3 Spin->SO
    # and SO->SO have the same target, Spin->Spin another
    spin_so = SharedWeylAction(classical_isogeny("B", 3, "Spin", "SO"))
    so_so = SharedWeylAction(classical_isogeny("B", 3, "SO", "SO"))
    spin_spin = SharedWeylAction(classical_isogeny("B", 3, "Spin", "Spin"))
    assert spin_so.group is so_so.group
    assert spin_spin.group is not so_so.group
    assert spin_so.group.order == spin_spin.group.order == 48
    # an equal target built afresh, outside the classical data cache
    rd = classical_datum("B", 3, "SO")
    copy = RootDatum.from_json_dict(rd.to_json_dict())
    assert copy is not rd
    assert SharedWeylAction(identity_isogeny(copy)).group is so_so.group


def test_only_groups_up_to_order_384_are_kept_for_the_process():
    # |W(B4)| = 384 is kept and shared; |W(A5)| = 720 is enumerated for
    # each action that reads it, and freed with it
    b4 = classical_isogeny("B", 4, "Spin", "Spin")
    assert SharedWeylAction(b4).group is SharedWeylAction(b4).group
    a5 = classical_isogeny("A", 5, "SL", "SL")
    first, second = SharedWeylAction(a5).group, SharedWeylAction(a5).group
    assert first.order == second.order == 720
    assert first is not second
    assert first.elements == second.elements


def test_weyl_cap_refuses_after_the_group_is_enumerated():
    iso = classical_isogeny("D", 4, "Spin", "Spin")
    group = SharedWeylAction(iso).group
    assert group.order == 192
    with pytest.raises(CapExceeded,
                       match="^Weyl group order exceeds the configured cap 191$"):
        SharedWeylAction(iso, cap=191)
    assert SharedWeylAction(iso, cap=192).group is group


def test_invariance_identity_over_all_generators():
    for args in [("A", 2, "SL", "SL"), ("B", 3, "Spin", "Spin"),
                 ("D", 3, "SO", "PSO"), ("C", 2, "Sp", "Sp")]:
        act = action_for(*args)
        group = act.group
        for b in invariant_level_lattice(act):
            for g in group.generators:
                # cocharacter actions: transposes of the inverse's character
                # matrices, g being its own inverse
                assert group.mult(g, g) == group.identity_index
                ns = transpose(act.source_char_action(g))
                nt = transpose(group.elements[g])
                assert matmul(matmul(transpose(ns), b.matrix), nt) == b.matrix


# --- evenness filter -------------------------------------------------------


def test_sl2_ev_filter_doubles():
    act = action_for("A", 1, "SL", "SL")
    inv = invariant_level_lattice(act)
    ev = ev_filter(inv, act)
    assert coroot_value(inv[0], 0) == 1
    assert len(ev.basis) == 1
    assert ev.basis[0].matrix == ((2,),)
    assert coroot_value(ev.basis[0], 0) == 2


def test_pgl2_ev_filter_passes_unchanged():
    act = action_for("A", 1, "PGL", "PGL")
    inv = invariant_level_lattice(act)
    ev = ev_filter(inv, act)
    assert ev.basis == inv
    assert coroot_value(inv[0], 0) == 4


def test_rootless_ev_filter_keeps_the_invariant_lattice():
    # no roots means no parity condition: every coefficient vector passes,
    # so the filter returns the invariant lattice itself, not twice it
    rd = torus_datum(2)
    act = SharedWeylAction(build_isogeny(rd, rd))
    inv = invariant_level_lattice(act)
    assert [b.matrix for b in inv] == [((1, 0), (0, 0)), ((0, 1), (0, 0)),
                                       ((0, 0), (1, 0)), ((0, 0), (0, 1))]
    ev = ev_filter(inv, act)
    assert ev.basis == inv
    assert ev.orbit_representatives == () and ev.value_table == ()
    assert allowable_lattice(act) == inv


def test_gl3_ev_passes_and_values():
    act = action_for("A", 2, "GL", "GL")
    inv = invariant_level_lattice(act)
    ev = ev_filter(inv, act)
    assert len(ev.basis) == 2
    # every value even on every root, single orbit for type A
    assert len(ev.orbit_representatives) == 1
    for row in ev.value_table:
        for v in row:
            assert v % 2 == 0


def test_c_series_ev_filter_cuts_index_two():
    # for Sp(2n) the invariant generator has odd value on the long-root
    # coroot, so the evenness filter genuinely cuts down the lattice
    act = action_for("C", 2, "Sp", "Sp")
    inv = invariant_level_lattice(act)
    ev = ev_filter(inv, act)
    assert len(inv) == 1 and len(ev.basis) == 1
    assert ev.basis[0].matrix == tuple(
        tuple(2 * x for x in row) for row in inv[0].matrix
    )


def test_values_constant_on_root_orbits():
    for args in [("B", 3, "Spin", "Spin"), ("D", 4, "SO", "SO")]:
        act = action_for(*args)
        tgt = act.iso.target
        orbits = root_orbits(tgt)
        for b in invariant_level_lattice(act):
            for orbit in orbits:
                vals = {coroot_value(b, i) for i in orbit}
                assert len(vals) == 1


def test_classification_is_linear_in_b():
    rng = random.Random(4)
    act = action_for("B", 2, "Spin", "Spin")
    basis = invariant_level_lattice(act)
    for _ in range(20):
        c1 = rng.randint(-3, 3)
        c2 = rng.randint(-3, 3)
        b1 = basis[0].scale(c1)
        b2 = basis[0].scale(c2)
        s = b1.add(b2)
        for ridx in range(len(act.iso.target.roots)):
            assert coroot_value(s, ridx) == coroot_value(b1, ridx) + coroot_value(b2, ridx)
        assert is_invariant(act, s)


# --- basic level ------------------------------------------------------------


def test_spin7_basic_level():
    res = named_basic_level("B", 3, "Spin")
    assert res.member
    assert res.minimal_multiple == 1
    b = res.tensor
    tgt = b.iso.target
    long_idx = tgt.root_index(LONG)
    short_idx = tgt.root_index(SHORT)
    assert coroot_value(b, long_idx) == 2
    assert coroot_value(b, short_idx) == 4
    # ambient form is t1^2 + t2^2 + t3^2
    amb = b.ambient_form()
    assert amb == tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
    )


def test_sl_basic_level_is_member():
    for rank in (1, 2, 3):
        res = named_basic_level("A", rank, "SL")
        assert res.member and res.minimal_multiple == 1


def test_pso8_basic_needs_doubling():
    res = named_basic_level("D", 4, "PSO")
    assert not res.member
    assert res.minimal_multiple == 2
    act = SharedWeylAction(identity_isogeny(classical_datum("D", 4, "PSO")))
    assert is_invariant(act, res.tensor)


def test_basic_level_invariant_everywhere():
    for args in [("A", 2, "PGL"), ("B", 2, "SO"), ("C", 2, "PSp"), ("D", 3, "Spin")]:
        res = named_basic_level(*args)
        act = SharedWeylAction(identity_isogeny(classical_datum(*args)))
        assert is_invariant(act, res.tensor)


# --- rank one restriction ----------------------------------------------------


def test_sl2_parity_rule():
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    for m in range(-3, 4):
        b = LevelTensor(iso, ((m,),))
        r = restrict_to_rank_one(b, 0)
        assert r.subgroup_type == "SL2"
        assert r.value == m
        assert r.parity_obstruction == (m % 2 == 1)


def test_pgl2_never_obstructed():
    iso = identity_isogeny(classical_datum("A", 1, "PGL"))
    for m in range(1, 4):
        b = LevelTensor(iso, ((m,),))
        r = restrict_to_rank_one(b, 0)
        assert r.subgroup_type == "PGL2"
        assert not r.parity_obstruction


def test_spin7_rank_one_values():
    res = named_basic_level("B", 3, "Spin")
    b = res.tensor
    tgt = b.iso.target
    long_r = restrict_to_rank_one(b, tgt.root_index(LONG))
    assert long_r.subgroup_type == "SL2"
    assert long_r.value == 2 and not long_r.parity_obstruction
    short_r = restrict_to_rank_one(b, tgt.root_index(SHORT))
    assert short_r.value == 4 and not short_r.parity_obstruction


def test_so7_short_root_is_pgl2_type():
    res = named_basic_level("B", 3, "SO")
    b = res.tensor
    tgt = b.iso.target
    r = restrict_to_rank_one(b, tgt.root_index(SHORT))
    assert r.subgroup_type == "PGL2"
    long_r = restrict_to_rank_one(b, tgt.root_index(LONG))
    assert long_r.subgroup_type == "SL2"


def test_restrict_rejects_non_root():
    res = named_basic_level("A", 2, "SL")
    from gerbelevels.rootdata import DatumError

    with pytest.raises(DatumError, match=r"^\(1, 1, 1\) is not a root of SL3$"):
        restrict_to_rank_one(res.tensor, RatVector.from_fractions((1, 1, 1)))
    with pytest.raises(DatumError, match=r"^\(1/2, 0, -1/2\) is not a root of SL3$"):
        restrict_to_rank_one(res.tensor, RatVector.from_fractions(
            (Fraction(1, 2), 0, Fraction(-1, 2))))
    with pytest.raises(DatumError, match="^6 is not a root of SL3$"):
        restrict_to_rank_one(res.tensor, 6)


def test_parity_flag_equals_value_mod_two():
    for args in [("B", 3, "Spin"), ("C", 2, "Sp"), ("D", 3, "SO")]:
        res = named_basic_level(*args)
        b = res.tensor
        for ridx in range(len(b.iso.target.roots)):
            r = restrict_to_rank_one(b, ridx)
            if r.subgroup_type == "SL2":
                assert r.parity_obstruction == (coroot_value(b, ridx) % 2 == 1)
            else:
                assert not r.parity_obstruction


# --- reference comparison -----------------------------------------------------


def entry_for(series, rank, sf, tf) -> AtlasEntry:
    act = action_for(series, rank, sf, tf)
    return compare_with_reference(act, find_claim(series, sf, tf))


def test_sl_entries_match():
    for rank in (1, 2, 3):
        e = entry_for("A", rank, "SL", "SL")
        assert e.verdict == "match"
        assert len(e.computed_basis) == 1


def test_pgl_entries_match():
    for rank in (1, 2, 3):
        assert entry_for("A", rank, "PGL", "PGL").verdict == "match"


def test_gl_entries_match():
    for rank in (1, 2):
        e = entry_for("A", rank, "GL", "GL")
        assert e.verdict == "match"
        assert len(e.computed_basis) == 2


def test_so_odd_entries_mismatch_with_both_lattices_reported():
    for rank in (2, 3):
        e = entry_for("B", rank, "SO", "SO")
        assert e.verdict == "mismatch"
        assert len(e.computed_basis) == 1
        assert e.claimed_basis is not None
        # computed generator is basic, claimed is twice it
        assert e.claimed_basis[0] == tuple(
            tuple(2 * x for x in row) for row in e.computed_basis[0]
        )


def test_so_to_pso_entries_match():
    for rank in (3, 4):
        assert entry_for("D", rank, "SO", "PSO").verdict == "match"


def test_pso_h_equals_g_rank_dependence():
    # with source = target = PSO the even-rank entry matches the
    # reference but the odd-rank lattice is generated by 4*basic
    e4 = entry_for("D", 4, "PSO", "PSO")
    assert e4.verdict == "match"
    e3 = entry_for("D", 3, "PSO", "PSO")
    assert e3.verdict == "mismatch"
    act = action_for("D", 3, "PSO", "PSO")
    basis = allowable_lattice(act)
    basic = basic_level(act.iso)
    assert len(basis) == 1
    quadrupled = tuple(
        tuple(int(4 * x) for x in row) for row in basic.rational_matrix
    )
    assert basis[0].matrix == quadrupled


def test_type_c_has_no_claim():
    assert entry_for("C", 2, "Sp", "Sp").verdict == "no-claim"
    assert find_claim("C", "Sp", "Sp") is None


def test_claims_table_loads():
    entries = load_claims()
    assert any(e["series"] == "B" and e["target_form"] == "SO" for e in entries)


def test_find_claim_hands_out_fresh_dicts():
    first = find_claim("B", "SO", "SO")
    first["multiple"] = 99
    first["kind"] = "changed"
    assert find_claim("B", "SO", "SO") == {"kind": "basic_multiple", "multiple": 2}
    assert find_claim("B", "SO", "SO", load_claims()) == find_claim("B", "SO", "SO")


def hand_built_g2():
    # exceptional system entered through the generic datum interface:
    # short roots e_i - e_j and long roots 2e_i - e_j - e_k in the
    # sum-zero plane of the rank-3 reference space
    from fractions import Fraction as F

    from gerbelevels.rootdata import RootDatum

    shorts, longs = [], []
    for i in range(3):
        for j in range(3):
            if i != j:
                v = [0, 0, 0]
                v[i], v[j] = 1, -1
                shorts.append(tuple(F(x) for x in v))
    for i in range(3):
        v = [-1, -1, -1]
        v[i] = 2
        longs.append(tuple(F(x) for x in v))
        longs.append(tuple(-F(x) for x in v))
    rv = RatVector.from_fractions
    roots = [rv(r) for r in shorts + longs]
    coroots = [rv(r) for r in shorts] + [rv(x / 3 for x in r) for r in longs]
    a1 = rv(F(x) for x in (1, -1, 0))
    a2 = rv(F(x) for x in (-2, 1, 1))
    return RootDatum(
        "G2", 3,
        (a1, a2),
        (rv((F(0), F(-1), F(1))), rv((F(-1, 3), F(-1, 3), F(2, 3)))),
        tuple(roots), tuple(coroots),
        (roots.index(a1), roots.index(a2)),
    )


def test_hand_built_g2_classification():
    from gerbelevels.rootdata import build_isogeny
    from gerbelevels.validation import validate_datum
    from gerbelevels.weyl import generate

    rd = hand_built_g2()
    assert validate_datum(rd).passed
    assert generate(rd).order == 12
    iso = build_isogeny(rd, rd)
    act = SharedWeylAction(iso)
    basis = allowable_lattice(act)
    res = basic_level(iso)
    assert res.member and res.minimal_multiple == 1
    assert basis == (res.tensor,)
    assert res.tensor.matrix == ((6, 3), (3, 2))
    # value 2 on long-root coroots, 6 on short-root coroots, all even
    values = {coroot_value(res.tensor, i) for i in range(len(rd.roots))}
    assert values == {2, 6}


def test_pso6_claim_note_when_claim_not_integral():
    # for source = target = PSO(6) the claimed generator 2*basic is not
    # even integral on the cocharacter lattices; the report says so
    # instead of silently inventing a lattice
    act = action_for("D", 3, "PSO", "PSO")
    e = compare_with_reference(act, find_claim("D", "PSO", "PSO"))
    assert e.verdict == "mismatch"
    assert e.claimed_basis is None
    assert "not integral" in e.claim_note


def test_symmetric_projection():
    from helpers import symmetric_projection
    from gerbelevels.rootdata import DatumError
    from fractions import Fraction as F

    iso = identity_isogeny(classical_datum("A", 1, "GL"))
    asym = LevelTensor(iso, ((0, 1), (0, 0)))
    sym = symmetric_projection(asym)
    assert sym == ((F(0), F(1, 2)), (F(1, 2), F(0)))
    other = classical_isogeny("A", 1, "SL", "GL")
    with pytest.raises(DatumError):
        symmetric_projection(LevelTensor(other, ((1, 0),)))


def test_ev_value_table_spin5():
    act = action_for("B", 2, "Spin", "Spin")
    inv = invariant_level_lattice(act)
    ev = ev_filter(inv, act)
    # two root orbits (long and short), one basis element; values 2 and 4
    assert len(ev.orbit_representatives) == 2
    flat = {row[0] for row in ev.value_table}
    assert flat == {2, 4}


def test_allowable_basis_is_already_canonical():
    # compare_with_reference compares it with the claim's HNF as it is
    for row in DEFAULT_ATLAS_ROWS:
        vecs = _vectorize(b.matrix for b in allowable_lattice(action_for(*row)))
        assert vecs and hnf_basis(vecs) == vecs, row
