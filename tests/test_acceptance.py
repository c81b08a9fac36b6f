"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with -v to get the one pass/fail line per criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from gerbelevels.cech import (
    CoefficientGroup,
    central_extension_from_cocycle,
    cohomology,
    cyclic_group,
)
from gerbelevels.claims import find_claim
from gerbelevels.cli import main as cli_main
from gerbelevels.intlinalg import (
    AbelianInvariants,
    RatVector,
    identity,
    matmul,
    matvec,
    transpose,
)
from gerbelevels.levels import (
    LevelTensor,
    SharedWeylAction,
    basic_level,
    compare_with_reference,
    ev_filter,
    invariant_level_lattice,
)
from gerbelevels.model import (
    circle_nerve,
    coroot_value,
    gerbe_cocycle_from_level,
    group_cohomology,
    octahedron_nerve,
    restrict_to_rank_one,
    simplex_cone_nerve,
    torus_cover_model,
    torus_log_cocycle,
    winding_pairing,
)
from gerbelevels.obstruction import (
    centralizer_cocycle,
    class_order,
    obstruction_report,
    scan_points,
)
from gerbelevels.rootdata import classical_datum, classical_isogeny, identity_isogeny
from gerbelevels.weyl import generate, stabilizer

from helpers import vec_sub

ZZ = CoefficientGroup(1, ())

_ACTIONS = {}


def action_for(series, rank, sf, tf) -> SharedWeylAction:
    key = (series, rank, sf, tf)
    if key not in _ACTIONS:
        _ACTIONS[key] = SharedWeylAction(classical_isogeny(series, rank, sf, tf))
    return _ACTIONS[key]


def entry_for(series, rank, sf, tf):
    act = action_for(series, rank, sf, tf)
    return act, compare_with_reference(act, find_claim(series, sf, tf))


def assert_matches_basic_multiple(act, entry, multiple):
    assert entry.verdict == "match", (entry.series, entry.rank, entry.verdict)
    res = basic_level(act.iso)
    want = tuple(
        tuple(int(multiple * x) for x in row) for row in res.rational_matrix
    )
    assert entry.computed_basis == (want,)


def test_criterion_1_atlas_reproduction():
    start = time.monotonic()
    # SL(n), n = 2..4: multiples of basic
    for rank in (1, 2, 3):
        act, e = entry_for("A", rank, "SL", "SL")
        assert_matches_basic_multiple(act, e, 1)
    # PGL(n), n = 2..4: multiples of n * basic
    for rank in (1, 2, 3):
        act, e = entry_for("A", rank, "PGL", "PGL")
        assert_matches_basic_multiple(act, e, rank + 1)
    # GL(n), n = 2, 3: the rank-2 family l*sum(t_i^2) + m*(sum t_i)^2
    for rank in (1, 2):
        act, e = entry_for("A", rank, "GL", "GL")
        assert e.verdict == "match"
        assert len(e.computed_basis) == 2
        n = rank + 1
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        ones = tuple((1,) * n for _ in range(n))
        from gerbelevels.intlinalg import freeze
        from helpers import lattices_equal

        vec = lambda m: tuple(x for row in m for x in row)  # noqa: E731
        assert lattices_equal(
            freeze([vec(m) for m in e.computed_basis]),
            freeze([vec(eye), vec(ones)]),
        )
    # SL(n) -> GL(n), n = 2..4: multiples of basic
    for rank in (1, 2, 3):
        act, e = entry_for("A", rank, "SL", "GL")
        assert_matches_basic_multiple(act, e, 1)
    # Spin(2n+1), n = 2, 3: multiples of basic
    for rank in (2, 3):
        act, e = entry_for("B", rank, "Spin", "Spin")
        assert_matches_basic_multiple(act, e, 1)
    # Spin(2n) and SO(2n), n = 3, 4: multiples of basic
    for rank in (3, 4):
        for form in ("Spin", "SO"):
            act, e = entry_for("D", rank, form, form)
            assert_matches_basic_multiple(act, e, 1)
    # PSO(2n), n = 3, 4: multiples of 2 * basic, via the SO -> PSO rows
    # (for H = G = PSO the even-rank entry also matches; the odd-rank
    # H = G lattice is 4 * basic and is asserted as computed below)
    for rank in (3, 4):
        act, e = entry_for("D", rank, "SO", "PSO")
        assert_matches_basic_multiple(act, e, 2)
    act, e = entry_for("D", 4, "PSO", "PSO")
    assert_matches_basic_multiple(act, e, 2)
    act, e = entry_for("D", 3, "PSO", "PSO")
    assert e.verdict == "mismatch"
    res = basic_level(act.iso)
    quadrupled = tuple(
        tuple(int(4 * x) for x in row) for row in res.rational_matrix
    )
    assert e.computed_basis == (quadrupled,)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"atlas reproduction took {elapsed:.1f}s"


def test_criterion_2_so_odd_discrepancy():
    for rank in (2, 3):
        act = action_for("B", rank, "SO", "SO")
        inv = invariant_level_lattice(act)
        res = basic_level(act.iso)
        assert res.member and res.minimal_multiple == 1
        # invariant lattice is exactly Z * basic
        assert len(inv) == 1
        assert inv[0].matrix == res.tensor.matrix
        # EV(basic) holds: long coroots give 2, short-root coroots give 4
        tgt = act.iso.target
        values = set()
        for ridx in range(len(tgt.roots)):
            v = coroot_value(res.tensor, ridx)
            assert v % 2 == 0
            values.add(v)
        assert values == {2, 4}
        ev = ev_filter(inv, act)
        assert ev.basis == inv
        # the discrepancy against the reference claim is emitted as data
        entry = compare_with_reference(act, find_claim("B", "SO", "SO"))
        assert entry.verdict == "mismatch"
        assert entry.computed_basis == (res.tensor.matrix,)
        assert entry.claimed_basis is not None
        assert entry.claimed_basis[0] == tuple(
            tuple(2 * x for x in row) for row in res.tensor.matrix
        )


def test_criterion_3_spin7_obstruction():
    start = time.monotonic()
    act = action_for("B", 3, "Spin", "Spin")
    b = basic_level(act.iso).tensor
    xi = act.iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    res = obstruction_report(act, b, xi)
    assert len(res.cocycle.w_l) == 8
    g = act.group
    for i in res.cocycle.w_l.members:
        assert g.mult(i, i) == g.identity_index  # elementary abelian: (Z/2)^3
    assert res.trivial is False
    assert res.class_order == 2
    # rational witness (t1 - t2)/2, reported as failing lattice membership
    amb = act.iso.source.char_ambient(res.cocycle.rational_witness).fractions()
    assert amb == (Fraction(1, 2), Fraction(-1, 2), Fraction(0))
    assert not res.cocycle.rational_witness.is_integral
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"obstruction took {elapsed:.2f}s"


def test_criterion_4_triviality_witnesses():
    # SL(2), basic, xi = coroot/2: trivial with witness the generator chi
    act = action_for("A", 1, "SL", "SL")
    b = basic_level(act.iso).tensor
    res = obstruction_report(act, b, RatVector.make([1], 2))
    assert res.trivial is True and res.witness_u == (1,)

    # integral xi: always trivial, with bmap(xi) an explicit witness
    rng = random.Random(20260808)
    for series, rank, form in [("A", 1, "SL"), ("A", 2, "SL"), ("B", 2, "Spin")]:
        a2 = action_for(series, rank, form, form)
        b2 = basic_level(a2.iso).tensor
        for _ in range(5):
            xi = RatVector.make(
                [rng.randint(-3, 3) for _ in range(a2.iso.target.rank)], 1
            )
            r2 = centralizer_cocycle(a2, b2, xi)
            assert class_order(r2)[0] == 1
            u = matvec(b2.matrix, xi.nums)
            for i in r2.w_l.members:
                m = a2.source_char_action(i)
                assert vec_sub(matvec(m, u), u) == r2.c_cocycle[i]

    # exhaustive scans with denominators <= 4; a nontrivial finding is
    # reported (not failed) and must be escalated for review
    findings = []
    for series, rank, form in [("A", 2, "SL"), ("A", 2, "GL")]:
        a3 = action_for(series, rank, form, form)
        b3 = basic_level(a3.iso).tensor
        table = scan_points(a3, b3, 4)
        for row in table.rows:
            if not row.trivial:
                findings.append((form, row))
    if findings:  # pragma: no cover - exploratory escalation path
        pytest.skip(
            "nontrivial classes found in SL/GL scans, escalate: "
            + "; ".join(str(f) for f in findings)
        )


def test_criterion_5_obstruction_property_suite():
    start = time.monotonic()
    act = action_for("B", 3, "Spin", "Spin")
    b = basic_level(act.iso).tensor
    xi = act.iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    base = centralizer_cocycle(act, b, xi)
    # cocycle identity over all pairs
    g = act.group
    from helpers import vec_add

    for i in base.w_l.members:
        mi = act.source_char_action(i)
        for j in base.w_l.members:
            k = g.mult(i, j)
            assert base.c_cocycle[k] == vec_add(
                matvec(mi, base.c_cocycle[j]), base.c_cocycle[i]
            )
    base_order, _ = class_order(base)

    # class invariance under xi -> xi + lambda for 100 random integral lambda
    rng = random.Random(99)
    for _ in range(100):
        lam = RatVector.make([rng.randint(-4, 4) for _ in range(3)], 1)
        shifted = centralizer_cocycle(act, b, xi + lam)
        assert shifted.w_l.members == base.w_l.members
        assert class_order(shifted)[0] == base_order

    # class_order divides |W_L| in all scan rows: the order of a finite
    # group kills its cohomology in positive degrees (Brown, Cohomology of
    # Groups, III.10.2); the exponent of W_L need not
    for series, rank, form, dmax in [
        ("B", 3, "Spin", 2), ("A", 2, "SL", 4), ("B", 2, "SO", 2),
    ]:
        a2 = action_for(series, rank, form, form)
        b2 = basic_level(a2.iso).tensor
        table = scan_points(a2, b2, dmax)
        for row in table.rows:
            sub = stabilizer(a2.group, row.xi)
            assert len(sub) == row.stabilizer_order
            assert len(sub) % row.class_order == 0

    # regular points: trivial stabilizer forces the trivial class, witness 0
    count = 0
    attempts = 0
    while count < 100 and attempts < 1000:
        attempts += 1
        den = rng.choice([5, 7, 11, 13])
        xi_r = RatVector.make([rng.randint(1, den - 1) for _ in range(3)], den)
        sub = stabilizer(act.group, xi_r)
        if len(sub) != 1:
            continue
        r = centralizer_cocycle(act, b, xi_r)
        assert class_order(r) == (1, (0, 0, 0))
        count += 1
    assert count == 100
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def test_criterion_6_weyl_engine():
    expected = [
        (("A", 1, "SL"), 2),
        (("A", 3, "SL"), 24),
        (("B", 3, "Spin"), 48),
        (("D", 4, "Spin"), 192),
        (("B", 4, "Spin"), 384),
    ]
    for args, order in expected:
        rd = classical_datum(*args)
        w = generate(rd)
        assert w.order == order, args
        for e, ids in zip(w.elements, w.cochar_ids):
            cochar = tuple(w.cochar_rows[j] for j in ids)
            assert matmul(transpose(e), cochar) == identity(rd.rank)


def test_criterion_7_cohomology_goldens():
    start = time.monotonic()
    assert cohomology(circle_nerve(3), 1, ZZ) == AbelianInvariants(1, ())
    octa = octahedron_nerve()
    assert cohomology(octa, 0, ZZ) == AbelianInvariants(1, ())
    assert cohomology(octa, 1, ZZ) == AbelianInvariants(0, ())
    assert cohomology(octa, 2, ZZ) == AbelianInvariants(1, ())
    cone = simplex_cone_nerve(5)
    for p in (1, 2, 3):
        assert cohomology(cone, p, ZZ) == AbelianInvariants(0, ())
    for n in range(2, 7):
        assert group_cohomology(cyclic_group(n), ZZ, 2) == \
            AbelianInvariants(0, (n,))
    mod2 = CoefficientGroup(0, (2,))
    assert group_cohomology(cyclic_group(2), mod2, 2) == \
        AbelianInvariants(0, (2,))
    ext = central_extension_from_cocycle(
        cyclic_group(2), mod2, {(1, 1): (1,)}
    )
    assert ext.order_multiset == (1, 2, 4, 4)  # cyclic of order 4
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"cohomology goldens took {elapsed:.1f}s"


def test_criterion_8_gerbe_cocycle_model():
    iso = identity_isogeny(classical_datum("A", 1, "SL"))
    model = torus_cover_model([3], [1])
    lam = torus_log_cocycle(model)
    rng = random.Random(5)
    for _ in range(20):
        m1, m2 = rng.randint(-5, 5), rng.randint(-5, 5)
        b1 = LevelTensor(iso, ((m1,),))
        b2 = LevelTensor(iso, ((m2,),))
        total = gerbe_cocycle_from_level(lam, b1.add(b2))
        split = gerbe_cocycle_from_level(lam, b1).add(
            gerbe_cocycle_from_level(lam, b2)
        )
        assert total.values == split.values
        assert gerbe_cocycle_from_level(lam.neg(), b1).values == \
            gerbe_cocycle_from_level(lam, b1).neg().values
        assert winding_pairing(model, gerbe_cocycle_from_level(lam, b1)) == \
            ((m1,),)
    # rank-one parity decision
    r1 = restrict_to_rank_one(LevelTensor(iso, ((1,),)), 0)
    assert r1.subgroup_type == "SL2" and r1.parity_obstruction
    r2 = restrict_to_rank_one(LevelTensor(iso, ((2,),)), 0)
    assert not r2.parity_obstruction


def test_criterion_9_determinism(capsys):
    commands = [
        ["levels", "A", "2", "SL", "SL", "--format", "json"],
        ["levels", "B", "2", "SO", "SO", "--format", "json"],
        ["obstruction", "B", "3", "Spin", "Spin", "--xi", "1/2,-1/2,0",
         "--format", "json"],
        ["scan", "A", "2", "SL", "SL", "--max-denominator", "3",
         "--format", "json"],
        ["atlas", "--row", "A,1,SL,SL", "--row", "D,4,SO,PSO",
         "--format", "csv"],
        ["cohomology", "--fixture", "fixtures/octahedron.json",
         "--degree", "2", "--format", "json"],
        ["extension", "--fixture", "fixtures/z2_extension_cyclic4.json",
         "--format", "json"],
        ["equivariant", "--fixture", "fixtures/z2_point.json",
         "--degree", "2", "--format", "json"],
        ["datum", "B", "3", "Spin", "--isogeny-target", "SO",
         "--format", "json"],
        ["levels", "--datum-fixture", "fixtures/g2_datum.json",
         "--format", "json"],
    ]
    for argv in commands:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2, argv
    code1 = cli_main(["atlas", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["atlas", "--format", "json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)  # payload is valid canonical JSON
