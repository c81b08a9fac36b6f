"""Independent-oracle cross checks.

Each test recomputes a quantity by a second route that shares no code
with the implementation path it is checking: determinantal divisors for
Smith forms, brute-force enumeration for invariant lattices, canonical
form invariance for Hermite forms, classical values for group and
sphere cohomology in degrees beyond the golden set, and rational
Gaussian elimination for root-datum coordinates and reflections.
"""

import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from gerbelevels.cech import (
    CoefficientGroup,
    cohomology,
    cyclic_group,
    group_cohomology,
    octahedron_nerve,
)
from gerbelevels.intlinalg import (
    AbelianInvariants,
    RatVector,
    det,
    diagonal,
    frac_solve,
    freeze,
    hnf,
    matmul,
    snf,
)
from gerbelevels.levels import (
    SharedWeylAction,
    basic_level,
    invariant_level_lattice,
    is_invariant,
    LevelTensor,
)
from gerbelevels.obstruction import SemisimplePoint, obstruction_report
from gerbelevels.cli import DEFAULT_ATLAS_ROWS
from gerbelevels.rootdata import (
    RootDatum,
    classical_datum,
    classical_isogeny,
    identity_isogeny,
)


def random_matrix(rng, m, n, lo=-6, hi=6):
    return freeze([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def determinantal_divisors(a):
    """gcd of all k x k minors, the textbook route to invariant factors."""
    m, n = len(a), len(a[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                minor = det(freeze([[a[i][j] for j in cols] for i in rows]))
                g = gcd(g, minor)
        out.append(g)
    return out


def test_snf_matches_determinantal_divisors():
    rng = random.Random(424242)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        s, _u, _v = snf(a)
        diag = [d for d in diagonal(s)]
        divisors = determinantal_divisors(a)
        d_prev = 1
        for k, big_d in enumerate(divisors):
            if big_d == 0:
                assert diag[k] == 0
                continue
            expected = big_d // d_prev
            assert diag[k] == expected, (a, diag, divisors)
            d_prev = big_d


def test_hnf_is_a_canonical_form():
    # row-equivalent matrices must produce the identical Hermite form
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h1, _ = hnf(a)
        # multiply by a random unimodular matrix built from an SNF transform
        _, u, _ = snf(random_matrix(rng, m, m, -3, 3))
        assert abs(det(u)) == 1
        h2, _ = hnf(matmul(u, a))
        assert h1 == h2


def brute_force_invariant_forms(action, box):
    """All invariant matrices with entries in the box, by enumeration."""
    iso = action.iso
    rs, rt = iso.source.rank, iso.target.rank
    found = []
    for entries in itertools.product(range(-box, box + 1), repeat=rs * rt):
        mat = tuple(
            tuple(entries[i * rt + j] for j in range(rt)) for i in range(rs)
        )
        if is_invariant(action, LevelTensor(iso, mat)):
            found.append(mat)
    return found


def test_invariant_lattice_matches_enumeration_sl2():
    action = SharedWeylAction(identity_isogeny(classical_datum("A", 1, "SL")))
    basis = invariant_level_lattice(action)
    enumerated = brute_force_invariant_forms(action, 3)
    spanned = set()
    for c in range(-3, 4):
        spanned.add(tuple(tuple(c * x for x in row) for row in basis[0].matrix))
    assert set(enumerated) == {m for m in spanned if all(
        abs(x) <= 3 for row in m for x in row
    )}


def test_invariant_lattice_matches_enumeration_gl2():
    action = SharedWeylAction(identity_isogeny(classical_datum("A", 1, "GL")))
    basis = invariant_level_lattice(action)
    assert len(basis) == 2
    enumerated = set(brute_force_invariant_forms(action, 2))
    spanned = set()
    for c1 in range(-4, 5):
        for c2 in range(-4, 5):
            m = tuple(
                tuple(
                    c1 * basis[0].matrix[i][j] + c2 * basis[1].matrix[i][j]
                    for j in range(2)
                )
                for i in range(2)
            )
            if all(abs(x) <= 2 for row in m for x in row):
                spanned.add(m)
    assert enumerated == spanned


def test_invariant_lattice_matches_enumeration_b2():
    action = SharedWeylAction(identity_isogeny(classical_datum("B", 2, "Spin")))
    basis = invariant_level_lattice(action)
    assert len(basis) == 1
    enumerated = set(brute_force_invariant_forms(action, 4))
    spanned = set()
    for c in range(-5, 6):
        m = tuple(tuple(c * x for x in row) for row in basis[0].matrix)
        if all(abs(x) <= 4 for row in m for x in row):
            spanned.add(m)
    assert enumerated == spanned


def test_spin7_h1_is_exactly_z2():
    iso = identity_isogeny(classical_datum("B", 3, "Spin"))
    act = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    xi = RatVector.from_fractions(
        iso.target.cochar_coords_q((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    res = obstruction_report(act, b, SemisimplePoint(xi))
    # the obstruction class generates the whole H^1
    assert res.h1_invariants == AbelianInvariants(0, (2,))


def test_spin_to_so7_obstruction():
    # the same point seen through Spin(7) -> SO(7): the stabilizer in W
    # is larger (integrality against Z^3 instead of the even lattice)
    # but the class survives with order 2
    iso = classical_isogeny("B", 3, "Spin", "SO")
    act = SharedWeylAction(iso)
    res_basic = basic_level(iso)
    assert res_basic.member
    xi = RatVector.from_fractions(
        iso.target.cochar_coords_q((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    res = obstruction_report(act, res_basic.tensor, SemisimplePoint(xi))
    assert len(res.w_l) == 16
    assert res.trivial is False
    assert res.class_order == 2
    assert res.h1_invariants == AbelianInvariants(0, (2,))


def test_cyclic_cohomology_period_two():
    z = CoefficientGroup(1, ())
    z2 = cyclic_group(2)
    # H^*(Z/2; Z) = Z, 0, Z/2, 0, Z/2, ...
    assert group_cohomology(z2, z, 4) == AbelianInvariants(0, (2,))
    z3 = cyclic_group(3)
    assert group_cohomology(z3, z, 3) == AbelianInvariants(0, ())


def test_sphere_mod_two_coefficients():
    octa = octahedron_nerve()
    mod2 = CoefficientGroup(0, (2,))
    assert cohomology(octa, 0, mod2) == AbelianInvariants(0, (2,))
    assert cohomology(octa, 1, mod2) == AbelianInvariants(0, ())
    assert cohomology(octa, 2, mod2) == AbelianInvariants(0, (2,))


# -- root-datum coordinates: dual-basis pairings vs Gaussian elimination ---


def solve_coords(basis, v):
    """Rational coordinates of v in the row basis by elimination, or None."""
    if not basis:
        return () if all(x == 0 for x in v) else None
    cols = tuple(tuple(basis[i][j] for i in range(len(basis))) for j in range(len(v)))
    return frac_solve(cols, v)


def solve_int_coords(basis, v):
    c = solve_coords(basis, v)
    if c is None or any(x.denominator != 1 for x in c):
        return None
    return tuple(x.numerator for x in c)


def loop_reflection(basis, alpha, along):
    """x -> x - <x, along> alpha, built one basis vector at a time: the
    image of each basis vector is re-solved in the basis (columns of the
    result)."""
    cols = []
    for b in basis:
        pair = sum((x * y for x, y in zip(b, along)), Fraction(0))
        assert pair.denominator == 1
        img = tuple(x - pair * a for x, a in zip(b, alpha))
        cols.append(solve_int_coords(basis, img))
    r = len(cols)
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def oracle_data():
    keys = sorted({(s, r, f) for s, r, sf, tf in DEFAULT_ATLAS_ROWS
                   for f in (sf, tf)})
    data = [classical_datum(*k) for k in keys]
    with open("fixtures/g2_datum.json") as fh:
        g2 = json.load(fh)
    data += [RootDatum.from_json_dict(g2[side]) for side in ("source", "target")]
    return data


ORACLE_DATA = oracle_data()


def probe_vectors(basis, n):
    """Basis vectors, rational combinations of them, and vectors that may
    lie outside the span (all ones, the first reference vector)."""
    out = list(basis)
    for coeffs in ((Fraction(1, 2), Fraction(-1, 3)), (3, 2), (Fraction(7, 5), 0)):
        out.append(tuple(
            sum((Fraction(c) * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
            for j in range(n)
        ))
    out.append(tuple(Fraction(1) for _ in range(n)))
    out.append(tuple(Fraction(1 if j == 0 else 0) for j in range(n)))
    return out


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_coordinates_match_elimination(rd):
    n = rd.ambient_dim
    for vecs in (rd.roots, rd.coroots, probe_vectors(rd.char_basis, n),
                 probe_vectors(rd.cochar_basis, n)):
        for v in vecs:
            assert rd.char_coords_q(v) == solve_coords(rd.char_basis, v)
            assert rd.cochar_coords_q(v) == solve_coords(rd.cochar_basis, v)
            assert rd.char_coords(v) == solve_int_coords(rd.char_basis, v)
            assert rd.cochar_coords(v) == solve_int_coords(rd.cochar_basis, v)
    assert rd.root_coords() == tuple(
        solve_int_coords(rd.char_basis, a) for a in rd.roots)
    assert rd.coroot_coords() == tuple(
        solve_int_coords(rd.cochar_basis, a) for a in rd.coroots)
    assert rd.coroot_coords() is rd.coroot_coords()


def test_coordinate_probes_cover_every_case():
    sl3 = classical_datum("A", 2, "SL")
    ones = (Fraction(1),) * 3
    assert sl3.char_coords_q(ones) is None
    assert sl3.cochar_coords_q(ones) is None
    half = tuple(Fraction(x, 2) for x in sl3.coroots[0])
    assert sl3.cochar_coords_q(half) is not None
    assert sl3.cochar_coords(half) is None


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_reflections_match_per_vector_loop(rd):
    for i, (alpha, acheck) in enumerate(zip(rd.roots, rd.coroots)):
        assert rd.reflection_char(i) == loop_reflection(rd.char_basis, alpha, acheck)
        assert rd.reflection_cochar(i) == loop_reflection(rd.cochar_basis, acheck, alpha)
