"""Independent-oracle cross checks.

Each test recomputes a quantity by a second route that shares no code
with the implementation path it is checking: determinantal divisors for
Smith forms, brute-force enumeration for invariant lattices, canonical
form invariance for Hermite forms, classical values for group and
sphere cohomology in degrees beyond the golden set, rational Gaussian
elimination for root-datum coordinates and reflections, the reduced
rational coordinates for the integer ones, the earlier
Fraction route for dual bases, projections, isogeny maps, source
actions and the basic level, the source-root rule for the source
reflections, the index comprehension for transposes, the earlier
solve-per-vector cohomology routes for Cech, equivariant and stabilizer
H^1, subquotient for the invariants read off elementary divisors, the
Smith form of a diagonal matrix for invariant factors, the per-entry
loops that built their coboundary matrices and the class-order system
before the row emitters, the earlier matrix route (cocharacter
matrices multiplied alongside) for Weyl products, per-element source
actions and orbit-minimum scan representatives, the rational-vector
scan walk, per-member differences and dict-per-row cocycle identity for
the scan's integer numerators, the per-member matrix products that the
lookups on distinct Weyl and source rows replaced in the stabilizer
sweep, the differences and the witness check, the counting searches
for the Weyl group's order computed from the Cartan matrix, the earlier full-scan Smith form that always
builds its left transform, the earlier subgroup routes that swept
W with rational vectors, recomputed a closure for every candidate
generator and multiplied every ordered pair of members with
WeylGroup.mult, and the full left-regular table (with its closure
check, its powers and the all-pairs cocycle identity) that the
generator rows, root-permutation orders and generator-edge identity
replaced, the Hermite form that carried its unimodular transform, and
the evenness filter that took a coefficient-space Hermite form and
summed LevelTensors before levels were carried as vectors, and the
checks of finite-group inputs on every element that the generator checks
replaced: associativity and the 2-cocycle identity on all triples, the
homomorphism on all pairs, automorphism and nerve stability for every
element, and the extension table built cell by cell; and the normalised
bar complex that the free resolution replaced in equivariant cohomology,
compared by invariants, with Smith forms checking that resolution exact.
"""

import copy
import functools
import glob
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbelevels import cech, intlinalg, levels, obstruction, rootdata, weyl
from gerbelevels.cech import (
    CoefficientGroup,
    FiniteAction,
    FiniteGroupTable,
    Nerve,
    _cech_matrix,
    _equivariant_matrices,
    _relations,
    cohomology,
    cyclic_group,
    equivariant_cohomology,
    parse_group_label,
)
from gerbelevels.cli import DEFAULT_ATLAS_ROWS
from gerbelevels.cochains import Cochain, _cech_presentation, cocycle_class
from gerbelevels.covers import nerve_of_cover
from gerbelevels.intlinalg import (
    AbelianInvariants,
    CapExceeded,
    DimensionMismatch,
    RatVector,
    Smith,
    det,
    diagonal,
    divisor_cohomology,
    freeze,
    hnf,
    hnf_basis,
    identity,
    invariant_factors,
    kernel_basis,
    lattice_coords,
    matmul,
    matvec,
    snf,
    subquotient,
    transpose,
    xgcd,
)
from gerbelevels.levels import (
    EvReport,
    LevelTensor,
    SharedWeylAction,
    basic_level,
    ev_filter,
    invariant_level_lattice,
    is_invariant,
    root_orbits,
)
from gerbelevels.model import (
    check_two_cocycle,
    circle_nerve,
    coroot_value,
    group_cohomology,
    nerve_from_maximal,
    octahedron_nerve,
    point_action,
    simplex_cone_nerve,
)
from gerbelevels.obstruction import (
    StabilizerCocycle,
    _holds_on_generator_edges,
    centralizer_cocycle,
    h1_group_lattice,
    obstruction_report,
    scan_points,
)
from gerbelevels.rootdata import (
    FORMS_BY_SERIES,
    DatumError,
    RootDatum,
    _dual_basis,
    _projection_onto_span,
    build_isogeny,
    classical_datum,
    classical_isogeny,
    identity_isogeny,
)
from gerbelevels.validation import _reflected, pairing
from gerbelevels.weyl import (
    Subgroup,
    _generators_and_rows,
    generate,
    group_order,
    integral_reflection_subgroup,
    simple_root_permutations,
    stabilizer,
    subgroup_from_members,
)

from helpers import cokernel, lattices_equal, vec_add, vec_sub


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


def test_smith_order_matches_hnf_membership():
    # the order of y modulo the column span, read off the Smith form, is
    # the least k with k*y in the span, where membership is decided by
    # comparing Hermite bases with and without k*y.  Half the matrices
    # are diag(2, 6) scrambled by unimodular factors, so that orders mix
    # invariant factors (lcm(2, 3) = 6 from the entries 2 and 6).
    rng = random.Random(99)
    seen = set()
    for trial in range(80):
        if trial % 2:
            m, n = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, m, n, -4, 4)
        else:
            m = n = 2
            _, left, _ = snf(random_matrix(rng, 2, 2, -3, 3))
            _, right, _ = snf(random_matrix(rng, 2, 2, -3, 3))
            a = matmul(matmul(left, freeze([[2, 0], [0, 6]])), right)
        y = tuple(rng.randint(-3, 3) for _ in range(m))
        _z, order = Smith.of(a).reduce(y)
        cols = transpose(a)
        hits = [k for k in range(1, 241)
                if lattices_equal(cols, cols + (tuple(k * x for x in y),))]
        assert order == (hits[0] if hits else None), (a, y)
        seen.add(order)
    assert {None, 1, 2, 3, 6} <= seen


def oracle_hnf(a):
    """(H, U) with U unimodular and U a = H: the Hermite form that carried
    its transform through every row operation, before hnf dropped it."""
    m, n = len(a), len(a[0]) if a else 0
    h = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    row = 0
    for col in range(n):
        pivot_row = next((r for r in range(row, m) if h[r][col]), None)
        if pivot_row is None:
            continue
        h[row], h[pivot_row] = h[pivot_row], h[row]
        u[row], u[pivot_row] = u[pivot_row], u[row]
        for r in range(row + 1, m):
            if h[r][col] == 0:
                continue
            aa, bb = h[row][col], h[r][col]
            if bb % aa == 0:
                q = bb // aa
                h[r] = [s - q * t for s, t in zip(h[r], h[row])]
                u[r] = [s - q * t for s, t in zip(u[r], u[row])]
                continue
            g, x, y = xgcd(aa, bb)
            p, q = aa // g, bb // g
            for w in (h, u):
                w[row], w[r] = ([x * s + y * t for s, t in zip(w[row], w[r])],
                                [-q * s + p * t for s, t in zip(w[row], w[r])])
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        d = h[row][col]
        for r in range(row):
            q = h[r][col] // d
            if q:
                h[r] = [s - q * t for s, t in zip(h[r], h[row])]
                u[r] = [s - q * t for s, t in zip(u[r], u[row])]
        row += 1
        if row == m:
            break
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def oracle_hnf_basis(rows):
    return tuple(r for r in oracle_hnf(rows)[0] if any(r)) if rows else ()


def test_hnf_is_a_canonical_form():
    # row-equivalent matrices must produce the identical Hermite form,
    # and it is the one the transform-carrying oracle finds
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        h1 = hnf(a)
        assert h1 == oracle_hnf(a)[0]
        # multiply by a random unimodular matrix built from an SNF transform
        _, u, _ = snf(random_matrix(rng, m, m, -3, 3))
        assert abs(det(u)) == 1
        h2 = hnf(matmul(u, a))
        assert h1 == h2 == oracle_hnf(matmul(u, a))[0]


def test_hnf_matches_transform_oracle_on_random_cases():
    # the random cases of test_intlinalg's hnf properties: the oracle's
    # transform is unimodular and carries a to H, and hnf returns that H
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n, -9, 9)
        h, u = oracle_hnf(a)
        assert matmul(u, a) == h
        assert abs(det(u)) == 1
        assert hnf(a) == h


def kernel_basis_mod2(a):
    """Basis of the kernel of a over GF(2); vectors have 0/1 entries.  The
    GF(2) elimination the evenness filter used before it read the
    integer kernel."""
    m, n = len(a), len(a[0])
    rows = [[x & 1 for x in row] for row in a]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        sel = None
        for i in range(r, m):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = [(x + y) & 1 for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for c, pr in pivot_of_col.items():
            if rows[pr][fc]:
                vec[c] = 1
        basis.append(tuple(vec))
    return tuple(basis)


def test_integer_kernel_matches_gf2_kernel():
    # {x : P x even} as the evenness filter reads it, the first k entries
    # of the integer kernel of [P | -2I], against the GF(2) kernel plus 2Z^k
    rng = random.Random(2)
    for _ in range(300):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        p = random_matrix(rng, m, k, 0, 1)
        system = tuple(row + tuple(-2 * (i == j) for j in range(m))
                       for i, row in enumerate(p))
        got = tuple(v[:k] for v in kernel_basis(system))
        twos = tuple(tuple(2 * x for x in row) for row in identity(k))
        assert hnf_basis(got) == hnf_basis(kernel_basis_mod2(p) + twos), p


def oracle_ev_filter(basis, action):
    """The evenness filter before levels were vectors: parities root by
    root, the HNF of the coefficient vectors, LevelTensor sums, and a
    second HNF of the sums in vector form."""
    iso = action.iso
    tgt = iso.target
    k = len(basis)
    reps = tuple(o[0] for o in root_orbits(tgt))
    if k == 0:
        return EvReport((), reps, tuple(() for _ in reps))
    parity_rows = tuple(tuple(coroot_value(b, ridx) & 1 for b in basis)
                        for ridx in range(len(tgt.roots)))
    gens = [tuple(v) for v in kernel_basis_mod2(parity_rows)]
    for i in range(k):
        gens.append(tuple(2 if j == i else 0 for j in range(k)))
    out = []
    for coeffs in oracle_hnf_basis(tuple(gens)):
        mat = None
        for c, b in zip(coeffs, basis):
            term = b.scale(c)
            mat = term if mat is None else mat.add(term)
        out.append(mat)
    rs, rt = iso.source.rank, iso.target.rank
    canon = oracle_hnf_basis(tuple(tuple(x for row in b.matrix for x in row)
                                   for b in out))
    out = tuple(LevelTensor(iso, tuple(tuple(v[i * rt + j] for j in range(rt))
                                       for i in range(rs)))
                for v in canon)
    for b in out:
        for ridx in range(len(tgt.roots)):
            assert coroot_value(b, ridx) % 2 == 0
    table = tuple(tuple(coroot_value(b, rep) for b in out) for rep in reps)
    return EvReport(out, reps, table)


def classical_entries(series, rank):
    """Every form pair of one series and rank that is an isogeny."""
    out = []
    for sf, tf in itertools.product(FORMS_BY_SERIES[series], repeat=2):
        try:
            out.append(classical_isogeny(series, rank, sf, tf))
        except DatumError:
            pass
    return out


def sl2_squared():
    """SL2 x SL2 on Z^2: roots +-2e_i, coroots +-e_i.  Its invariant levels
    are the diagonal ones, each odd on one coroot, so sublattices of them
    mix parities across generators, which no classical entry does."""
    vec = [{"num": list(v), "den": 1} for v in ((1, 0), (0, 1), (2, 0), (-2, 0),
                                                (0, 2), (0, -2), (-1, 0), (0, -1))]
    rd = RootDatum.from_json_dict({
        "name": "SL2xSL2", "ambient_dim": 2, "char_basis": vec[:2],
        "cochar_basis": vec[:2], "roots": vec[2:6],
        "coroots": [vec[0], vec[6], vec[1], vec[7]], "simple_indices": [0, 2]})
    return build_isogeny(rd, rd)


EV_CASES = [(s, r) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
            for r in range(lo, 7)] + ["G2", "SL2xSL2"]


@pytest.mark.parametrize("case", EV_CASES,
                         ids=lambda c: c if isinstance(c, str) else f"{c[0]}{c[1]}")
def test_ev_filter_matches_coefficient_space_oracle(case):
    # besides the invariant lattice itself, random sublattices of it: their
    # bases are invariant levels too, with parities mixed across generators
    rng = random.Random(str(case))
    if case == "G2":
        isos = [build_isogeny(*g2_data())]
    elif case == "SL2xSL2":
        isos = [sl2_squared()]
    else:
        isos = classical_entries(*case)
    assert isos
    for iso in isos:
        action = SharedWeylAction(iso)
        inv = invariant_level_lattice(action)
        subs = [inv]
        if len(inv) > 1:
            subs += [tuple(LevelTensor(iso, m) for m in (
                tuple(tuple(sum(c * b.matrix[i][j] for c, b in zip(coeffs, inv))
                            for j in range(iso.target.rank))
                      for i in range(iso.source.rank))
                for coeffs in random_matrix(rng, len(inv), len(inv), -3, 3)))
                for _ in range(3)]
        for basis in subs:
            got, want = ev_filter(basis, action), oracle_ev_filter(basis, action)
            assert got.basis == want.basis, iso.name
            assert got.orbit_representatives == want.orbit_representatives
            assert got.value_table == want.value_table


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
    xi = iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    res = obstruction_report(act, b, xi)
    # the obstruction class generates the whole H^1
    assert res.h1.invariants == AbelianInvariants(0, (2,))


def test_spin_to_so7_obstruction():
    # the same point seen through Spin(7) -> SO(7): the stabilizer in W
    # is larger (integrality against Z^3 instead of the even lattice)
    # but the class survives with order 2
    iso = classical_isogeny("B", 3, "Spin", "SO")
    act = SharedWeylAction(iso)
    res_basic = basic_level(iso)
    assert res_basic.member
    xi = iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    res = obstruction_report(act, res_basic.tensor, xi)
    assert len(res.cocycle.w_l) == 16
    assert res.trivial is False
    assert res.class_order == 2
    assert res.h1.invariants == AbelianInvariants(0, (2,))


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


# -- root data: integer pairings and Smith inverses vs the Fraction route ---
#
# The Fraction route below is the earlier implementation: vectors as tuples
# of fractions.Fraction, Gram inverses by Gauss-Jordan elimination, and
# coordinates as pairings checked by recombination.  It shares no code with
# the RatVector route it checks.


def frac_matvec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def frac_solve(a, y):
    """Solve a @ x = y exactly over the rationals (None if inconsistent);
    free variables are set to 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y2 for x, y2 in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return tuple(x)


def frac_inverse(a):
    n = len(a)
    cols = []
    for j in range(n):
        col = frac_solve(a, tuple(Fraction(int(i == j)) for i in range(n)))
        assert col is not None, "singular Gram matrix"
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def dot(x, y):
    assert len(x) == len(y)
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def frac_basis(vecs):
    return tuple(v.fractions() for v in vecs)


def oracle_combination(coords, basis, n):
    return tuple(
        sum((Fraction(c) * row[j] for c, row in zip(coords, basis)), Fraction(0))
        for j in range(n)
    )


def oracle_coords_in(basis, dual, v):
    c = tuple(dot(v, d) for d in dual)
    return c if oracle_combination(c, basis, len(v)) == v else None


def oracle_integral(c):
    if c is None or any(x.denominator != 1 for x in c):
        return None
    return tuple(x.numerator for x in c)


def oracle_dual_basis(basis):
    r = len(basis)
    ginv = frac_inverse(tuple(tuple(dot(basis[i], basis[j]) for j in range(r))
                              for i in range(r)))
    n = len(basis[0])
    return tuple(
        tuple(sum((ginv[i][k] * basis[k][j] for k in range(r)), Fraction(0))
              for j in range(n))
        for i in range(r)
    )


def oracle_projection(basis):
    r = len(basis)
    n = len(basis[0])
    ginv = frac_inverse(tuple(tuple(dot(basis[i], basis[j]) for j in range(r))
                              for i in range(r)))
    return tuple(
        tuple(sum((basis[i][s] * ginv[i][j] * basis[j][t]
                   for i in range(r) for j in range(r)), Fraction(0))
              for t in range(n))
        for s in range(n)
    )


def fracvec_json(v):
    den = lcm(*(x.denominator for x in v))
    return {"num": [int(x * den) for x in v], "den": den}


def fracvec_load(d):
    return tuple(Fraction(int(n), int(d["den"])) for n in d["num"])


class FractionDatum:
    """A RootDatum's vectors as Fraction tuples, with the old coordinates."""

    def __init__(self, rd):
        self.n = rd.ambient_dim
        self.char = frac_basis(rd.char_basis)
        self.cochar = frac_basis(rd.cochar_basis)
        self.coroots = frac_basis(rd.coroots)

    def char_coords_q(self, v):
        return oracle_coords_in(self.char, self.cochar, v)

    def cochar_coords_q(self, v):
        return oracle_coords_in(self.cochar, self.char, v)

    def char_coords(self, v):
        return oracle_integral(self.char_coords_q(v))

    def cochar_coords(self, v):
        return oracle_integral(self.cochar_coords_q(v))


def oracle_isogeny_maps(src, tgt):
    """(char_map, cochar_map, coroot_lift) by the Fraction route."""
    s, t = FractionDatum(src), FractionDatum(tgt)
    proj = oracle_projection(s.char)
    char_cols = [s.char_coords(frac_matvec(proj, chi)) for chi in t.char]
    cochar_cols = [t.cochar_coords(mu) for mu in s.cochar]
    lifts = tuple(s.cochar_coords(ac) for ac in t.coroots)
    assert None not in char_cols + cochar_cols and None not in lifts
    return transpose(tuple(char_cols)), transpose(tuple(cochar_cols)), lifts


def oracle_reexpress(s, t, action, kind):
    """An element's action on the source lattice, from its target action
    (both FractionDatum)."""
    if kind == "char":
        basis, coords_q, coords, tbasis = s.char, t.char_coords_q, s.char_coords, t.char
    else:
        basis, coords_q, coords, tbasis = (s.cochar, t.cochar_coords_q,
                                           s.cochar_coords, t.cochar)
    cols = []
    for vec in basis:
        c = coords_q(vec)
        img_coords = tuple(
            sum((Fraction(action[i][j]) * c[j] for j in range(len(c))), Fraction(0))
            for i in range(len(c))
        )
        cols.append(coords(oracle_combination(img_coords, tbasis, t.n)))
    return transpose(tuple(cols))


def oracle_basic_level(iso):
    """(rational matrix, least integral multiple, that multiple's matrix)."""
    s, t = FractionDatum(iso.source), FractionDatum(iso.target)
    norms = [dot(ac, ac) for ac in t.coroots]
    scale = Fraction(2) / min(norms) if norms else Fraction(1)
    rat = tuple(tuple(scale * dot(mu, lam) for lam in t.cochar) for mu in s.cochar)
    den = lcm(*(x.denominator for row in rat for x in row))
    return rat, den, tuple(tuple(int(x * den) for x in row) for row in rat)


def oracle_data():
    keys = sorted({(s, r, f) for s, r, sf, tf in DEFAULT_ATLAS_ROWS
                   for f in (sf, tf)})
    data = [classical_datum(*k) for k in keys]
    data += list(g2_data())
    return data


def g2_data():
    with open("fixtures/g2_datum.json") as fh:
        g2 = json.load(fh)
    return tuple(RootDatum.from_json_dict(g2[side]) for side in ("source", "target"))


ORACLE_DATA = oracle_data()


ISOGENY_CASES = [",".join(map(str, row)) for row in DEFAULT_ATLAS_ROWS] + [
    "G2", "G2-source", "G2-target"]


def oracle_isogeny(case):
    """An atlas row, the G2 fixture's isogeny, or the identity of one side."""
    if not case.startswith("G2"):
        series, rank, sf, tf = case.split(",")
        return classical_isogeny(series, int(rank), sf, tf)
    src, tgt = g2_data()
    pair = {"G2": (src, tgt), "G2-source": (src, src), "G2-target": (tgt, tgt)}
    return build_isogeny(*pair[case])


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


def q_fractions(c):
    return None if c is None else c.fractions()


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_coordinates_match_elimination(rd):
    n = rd.ambient_dim
    fd = FractionDatum(rd)
    for vecs in (frac_basis(rd.roots), fd.coroots, probe_vectors(fd.char, n),
                 probe_vectors(fd.cochar, n)):
        for v in vecs:
            rv = RatVector.from_fractions(v)
            assert q_fractions(rd.char_coords_q(rv)) == solve_coords(fd.char, v)
            assert q_fractions(rd.cochar_coords_q(rv)) == solve_coords(fd.cochar, v)
            assert rd.char_coords(rv) == solve_int_coords(fd.char, v)
            assert rd.cochar_coords(rv) == solve_int_coords(fd.cochar, v)
            # and the same answers by the Fraction route's pairings
            assert q_fractions(rd.char_coords_q(rv)) == fd.char_coords_q(v)
            assert q_fractions(rd.cochar_coords_q(rv)) == fd.cochar_coords_q(v)
            assert rd.char_coords(rv) == fd.char_coords(v)
            assert rd.cochar_coords(rv) == fd.cochar_coords(v)
    assert rd.root_coords() == tuple(
        solve_int_coords(fd.char, a) for a in frac_basis(rd.roots))
    assert rd.coroot_coords() == tuple(
        solve_int_coords(fd.cochar, a) for a in fd.coroots)
    assert rd.coroot_coords() is rd.coroot_coords()


def test_coordinate_probes_cover_every_case():
    sl3 = classical_datum("A", 2, "SL")
    ones = RatVector.from_fractions((Fraction(1),) * 3)
    assert sl3.char_coords_q(ones) is None
    assert sl3.cochar_coords_q(ones) is None
    half = RatVector.from_fractions(Fraction(x, 2) for x in sl3.coroots[0].fractions())
    assert sl3.cochar_coords_q(half) is not None
    assert sl3.cochar_coords(half) is None


def coordinate_routes(rd):
    """(basis as Fractions, integral coords, rational coords, Fraction
    oracle) for the character and the cocharacter frame of rd."""
    fd = FractionDatum(rd)
    return ((fd.char, rd.char_coords, rd.char_coords_q, fd.char_coords),
            (fd.cochar, rd.cochar_coords, rd.cochar_coords_q, fd.cochar_coords))


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_integral_coords_are_the_integral_part_of_coords_q(rd):
    # coords against the integral part of coords_q and of the Fraction route
    for rv in rd.roots + rd.coroots + rd.char_basis + rd.cochar_basis:
        for _basis, coords, coords_q, oracle in coordinate_routes(rd):
            assert coords(rv) == oracle_integral(q_fractions(coords_q(rv))) == \
                oracle(rv.fractions())


SPAN_DEFICIENT = [rd for rd in ORACLE_DATA if rd.rank < rd.ambient_dim]


def normal_to_span(basis, n):
    """A nonzero vector orthogonal to the row span of basis, or None."""
    proj = oracle_projection(basis)
    for k in range(n):
        r = tuple(Fraction(j == k) - proj[j][k] for j in range(n))
        if any(r):
            return r
    return None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integral_coords_refuse_off_lattice_off_span_and_wrong_length(data):
    rd = data.draw(st.sampled_from(ORACLE_DATA), label="datum")
    n, r = rd.ambient_dim, rd.rank
    for basis, coords, coords_q, oracle in coordinate_routes(rd):
        ints = data.draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r))
        on = oracle_combination(ints, basis, n)
        rv = RatVector.from_fractions(on)
        assert coords(rv) == oracle_integral(q_fractions(coords_q(rv))) == \
            oracle(on) == tuple(ints)
        # off the lattice: one coordinate moved by a proper fraction
        den = data.draw(st.integers(2, 6))
        shift = Fraction(data.draw(st.integers(1, den - 1)), den)
        j = data.draw(st.integers(0, r - 1))
        moved = [Fraction(x) + (shift if i == j else 0) for i, x in enumerate(ints)]
        off = oracle_combination(moved, basis, n)
        rv = RatVector.from_fractions(off)
        assert coords(rv) is None and oracle(off) is None
        assert q_fractions(coords_q(rv)) == tuple(moved)
        # off the span: a nonzero multiple of a normal vector added
        normal = normal_to_span(basis, n)
        assert (normal is None) == (rd not in SPAN_DEFICIENT)
        if normal is not None:
            t = Fraction(data.draw(st.integers(1, 5)) * data.draw(st.sampled_from((1, -1))),
                         data.draw(st.integers(1, 4)))
            away = tuple(x + t * y for x, y in zip(on, normal))
            rv = RatVector.from_fractions(away)
            assert coords(rv) is None and coords_q(rv) is None and oracle(away) is None
        # the wrong length: the same DatumError from both routes
        length = data.draw(st.sampled_from((n - 1, n + 1)))
        wrong = RatVector.from_fractions(
            data.draw(st.lists(st.fractions(max_denominator=6), min_size=length,
                               max_size=length)))
        with pytest.raises(DatumError) as by_coords:
            coords(wrong)
        with pytest.raises(DatumError) as by_coords_q:
            coords_q(wrong)
        assert str(by_coords.value) == str(by_coords_q.value) == \
            "ambient dimension mismatch"


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_dual_basis_and_projection_match_fraction_route(rd):
    n = rd.ambient_dim
    for basis in (rd.char_basis, rd.cochar_basis):
        fb = frac_basis(basis)
        assert frac_basis(_dual_basis(basis)) == oracle_dual_basis(fb)
        proj, den = _projection_onto_span(basis, n)
        assert tuple(tuple(Fraction(x, den) for x in row)
                     for row in proj) == oracle_projection(fb)


def test_g2_gram_inverse_needs_both_smith_transforms():
    # the G2 Gram matrix is not diagonal and its Smith transforms are not
    # transposes of each other, so an inverse that swapped them would differ
    src, _tgt = g2_data()
    fb = frac_basis(src.char_basis)
    gram = tuple(tuple(int(dot(a, b)) for b in fb) for a in fb)
    sm = Smith.of(gram)
    assert sm.u != transpose(sm.v)
    inv, d = sm.inverse()
    assert tuple(tuple(Fraction(x, d) for x in row) for row in inv) == \
        frac_inverse(gram)


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_json_vectors_match_fraction_route(rd):
    d = rd.to_json_dict()
    for key in ("char_basis", "cochar_basis", "roots", "coroots"):
        vecs = getattr(rd, key)
        assert d[key] == [fracvec_json(v.fractions()) for v in vecs]
        assert tuple(fracvec_load(x) for x in d[key]) == frac_basis(vecs)


@pytest.mark.parametrize("case", ISOGENY_CASES)
def test_isogeny_matches_fraction_route(case):
    iso = oracle_isogeny(case)
    char_map, cochar_map, lifts = oracle_isogeny_maps(iso.source, iso.target)
    assert iso.char_map == char_map
    assert iso.cochar_map == cochar_map
    assert iso.coroot_lift == lifts
    src, tgt = iso.source, iso.target
    s, t = FractionDatum(src), FractionDatum(tgt)
    for i, m_s in zip(tgt.simple_indices, iso.source_reflections):
        # the source-root rule that the isogeny check used before
        j = src.root_index(tgt.roots[i])
        assert j is not None
        assert m_s == src.reflection_char(j)
        assert m_s == oracle_reexpress(s, t, tgt.reflection_char(i), "char")
    rat, den, mat = oracle_basic_level(iso)
    res = basic_level(iso)
    assert res.rational_matrix == rat
    assert (res.minimal_multiple, res.member) == (den, den == 1)
    assert res.tensor.matrix == mat


def oracle_ambient_reflection_on(rd, alpha, acheck):
    """v -> v - <v, acheck> alpha on rd's character basis, one basis
    vector at a time through the ambient space, re-expressed by
    char_coords; DatumError when an image leaves the lattice."""
    cols = []
    for basis_vec in rd.char_basis:
        img = rd.char_coords(_reflected(basis_vec, alpha, acheck))
        if img is None:
            raise DatumError("reflection does not preserve the source lattice")
        cols.append(img)
    r = len(cols)
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def classical_isogenies(max_rank):
    """Every classical isogeny of rank at most max_rank that builds."""
    for series, forms in FORMS_BY_SERIES.items():
        for rank, sf, tf in itertools.product(range(1, max_rank + 1), forms, forms):
            try:
                yield classical_isogeny(series, rank, sf, tf)
            except DatumError:
                pass


def test_source_reflections_match_the_ambient_route():
    cases = list(classical_isogenies(6))
    cases += [oracle_isogeny(case) for case in ("G2", "G2-source", "G2-target")]
    assert len(cases) == 87
    for iso in cases:
        tgt = iso.target
        assert iso.source_reflections == tuple(
            oracle_ambient_reflection_on(iso.source, tgt.roots[i], tgt.coroots[i])
            for i in tgt.simple_indices), iso.name
    # a target root outside the source character span: both routes refuse
    src = classical_datum("A", 1, "SL")
    e1 = RatVector.make([1, 0])
    basis = rootdata._std_basis(2)
    tgt = RootDatum("T", 2, basis, basis, (e1, -e1),
                    (RatVector.make([2, 0]), RatVector.make([-2, 0])), (0,))
    iso = rootdata.IsogenyDatum(src, tgt, ((1, -1),), ((1,), (-1,)), ((2,), (-2,)))
    with pytest.raises(DatumError, match="does not preserve the source lattice"):
        oracle_ambient_reflection_on(src, tgt.roots[0], tgt.coroots[0])
    with pytest.raises(DatumError, match="does not preserve the source lattice"):
        iso.source_reflections


def fresh_datum(rd):
    """An equal root datum with none of rd's cached values."""
    return RootDatum(rd.name, rd.ambient_dim, rd.char_basis, rd.cochar_basis,
                     rd.roots, rd.coroots, rd.simple_indices)


def test_span_projection_runs_once_per_source_datum(monkeypatch):
    # fresh copies of the default atlas data, so that no projection is
    # cached yet; 14 of the 33 rows reuse a source datum
    real = rootdata._projection_onto_span
    calls = []

    def counting(basis, n):
        calls.append(basis)
        return real(basis, n)

    monkeypatch.setattr(rootdata, "_projection_onto_span", counting)
    fresh = {}

    def datum(*key):
        if key not in fresh:
            fresh[key] = fresh_datum(classical_datum(*key))
        return fresh[key]

    for series, rank, sf, tf in DEFAULT_ATLAS_ROWS:
        build_isogeny(datum(series, rank, sf), datum(series, rank, tf))
    sources = {(series, rank, sf) for series, rank, sf, _tf in DEFAULT_ATLAS_ROWS}
    assert len(calls) == len(sources) == 19
    assert len(DEFAULT_ATLAS_ROWS) - len(sources) == 14


def test_isogeny_maps_match_a_build_with_a_fresh_projection():
    for row in DEFAULT_ATLAS_ROWS:
        iso = classical_isogeny(*row)
        src = iso.source
        assert src._span_projection == _projection_onto_span(src.char_basis,
                                                             src.ambient_dim)
        fresh = build_isogeny(fresh_datum(src), fresh_datum(iso.target))
        assert (iso.char_map, iso.cochar_map, iso.coroot_lift) == \
            (fresh.char_map, fresh.cochar_map, fresh.coroot_lift), row


@pytest.mark.parametrize("rd", ORACLE_DATA, ids=lambda rd: rd.name)
def test_reflections_match_per_vector_loop(rd):
    fd = FractionDatum(rd)
    for i, (alpha, acheck) in enumerate(zip(frac_basis(rd.roots), fd.coroots)):
        assert rd.reflection_char(i) == loop_reflection(fd.char, alpha, acheck)
        assert transpose(rd.reflection_char(i)) == \
            loop_reflection(fd.cochar, acheck, alpha)


# -- cohomology: one factored subquotient vs the solve-per-vector routes -----


def oracle_subquotient(n_coords, d_out, rel_out, d_in_cols, rel_in, locate=None):
    """Invariants of {x : d_out x in <rel_out>} / (<d_in cols> + <rel_in>)
    by the earlier Cech route: an HNF-canonical cocycle basis, one Smith
    solve per placed vector and a fresh Smith form of the relations."""
    if n_coords == 0:
        inv = AbelianInvariants(0, ())
        return (inv, (), 1) if locate is not None else (inv, None, None)
    if d_out:
        cols = [tuple(r) for r in transpose(d_out)]
        combined_cols = cols + [tuple(-x for x in v) for v in rel_out]
        kern = kernel_basis(transpose(freeze(combined_cols)))
        lbasis = hnf_basis(freeze([v[:n_coords] for v in kern]))
    else:
        lbasis = identity(n_coords)
    coords_rows = [lattice_coords(lbasis, v) for v in tuple(d_in_cols) + tuple(rel_in)]
    assert None not in coords_rows
    r = len(lbasis)
    if coords_rows:
        s, u, _v = snf(transpose(freeze(coords_rows)))
        diag = diagonal(s)
        rank = sum(1 for d in diag if d)
        inv = AbelianInvariants(
            free_rank=r - rank, torsion=tuple(d for d in diag if d not in (0, 1))
        )
    else:
        u, diag, rank = identity(r), (), 0
        inv = AbelianInvariants(free_rank=r, torsion=())
    if locate is None:
        return inv, None, None
    c = lattice_coords(lbasis, locate)
    z = matvec(u, c) if r else ()
    k = 1
    infinite = False
    for i in range(len(z)):
        if i < rank:
            need = diag[i] // gcd(diag[i], z[i])
            k = k * need // gcd(k, need)
        elif z[i]:
            infinite = True
    return inv, tuple(z), (None if infinite else k)


def oracle_relations(slots, group):
    """Torsion relations of each coefficient slot, built slot by slot."""
    out = []
    size = group.size
    for slot in range(slots):
        for i, d in enumerate(group.torsion):
            v = [0] * (slots * size)
            v[slot * size + group.free_rank + i] = d
            out.append(tuple(v))
    return tuple(out)


# -- coboundary builders: the per-entry loops the row emitters replaced -----


def oracle_cech_matrix(nerve, p, size):
    """delta^p : C^p -> C^(p+1) with a face sum per row and a second pass
    that spreads it over the coefficient coordinates."""
    src = nerve.level(p)
    dst = nerve.level(p + 1)
    src_idx = {s: i for i, s in enumerate(src)}
    rows = []
    for s in dst:
        blocks = [0] * (len(src) * size)
        for i in range(p + 2):
            face = s[:i] + s[i + 1:]
            j = src_idx[face]
            coef = 1 if i % 2 == 0 else -1
            for ccoord in range(size):
                blocks[j * size + ccoord] += coef
        for ccoord in range(size):
            row = [0] * (len(src) * size)
            for j in range(len(src)):
                row[j * size + ccoord] = blocks[j * size + ccoord]
            rows.append(tuple(row))
    return tuple(rows)


def oracle_blocks(nerve, n):
    return [(q, n - q) for q in range(n + 1)
            if n - q <= nerve.dim and nerve.level(n - q)]


def oracle_tuple_index(tup, base):
    idx = 0
    for x in tup:
        idx = idx * base + x
    return idx


def oracle_equivariant_matrices(act, n, cap):
    """T^n -> T^(n+1) filled column by column into a dense src x dst list,
    inverting group elements through the table, then transposed."""
    g = act.group
    nerve = act.nerve
    size = act.coefficients.size

    def layout(m):
        blocks = oracle_blocks(nerve, m)
        offs = {}
        total = 0
        for (q, p) in blocks:
            offs[(q, p)] = total
            total += (g.n ** q) * len(nerve.level(p)) * size
        if total > cap:
            raise CapExceeded(
                f"equivariant complex needs {total} coordinates, over the cap {cap}")
        return blocks, offs, total

    src_blocks, src_offs, src_total = layout(n)
    dst_blocks, dst_offs, dst_total = layout(n + 1)
    dst_set = set(dst_blocks)
    cols = [[0] * dst_total for _ in range(src_total)]

    def tuples(q):
        return itertools.product(range(g.n), repeat=q)

    for (q, p) in src_blocks:
        level = nerve.level(p)
        simp_idx = {s: i for i, s in enumerate(level)}
        src_off = src_offs[(q, p)]
        nsimp = len(level)

        def src_coord(ti, si, c):
            return src_off + (ti * nsimp + si) * size + c

        if (q + 1, p) in dst_set:
            dst_off = dst_offs[(q + 1, p)]

            def dst_coord(ti, si, c):
                return dst_off + (ti * nsimp + si) * size + c

            for out_ti, out_tup in enumerate(tuples(q + 1)):
                g1 = out_tup[0]
                for out_si, out_s in enumerate(level):
                    # g1 . f(rest)(s) = sign * rho(g1) f(rest, g1^-1 s)
                    moved, sign = act.act_on_simplex(g.inverse(g1), out_s)
                    rho = act.coeff_actions[g1]
                    ti_rest = oracle_tuple_index(out_tup[1:], g.n)
                    for outc in range(size):
                        for inc in range(size):
                            coef = sign * rho[outc][inc]
                            if coef:
                                cols[src_coord(ti_rest, simp_idx[moved], inc)][
                                    dst_coord(out_ti, out_si, outc)] += coef
                    for i in range(1, q + 1):
                        merged = (out_tup[:i - 1]
                                  + (g.mult(out_tup[i - 1], out_tup[i]),)
                                  + out_tup[i + 1:])
                        ti_m = oracle_tuple_index(merged, g.n)
                        coef = -1 if i % 2 else 1
                        for c in range(size):
                            cols[src_coord(ti_m, out_si, c)][
                                dst_coord(out_ti, out_si, c)] += coef
                    ti_l = oracle_tuple_index(out_tup[:q], g.n)
                    coef = -1 if (q + 1) % 2 else 1
                    for c in range(size):
                        cols[src_coord(ti_l, out_si, c)][
                            dst_coord(out_ti, out_si, c)] += coef

        if (q, p + 1) in dst_set:
            dst_off = dst_offs[(q, p + 1)]
            dlevel = nerve.level(p + 1)
            nd = len(dlevel)
            tsign = -1 if q % 2 else 1
            for ti in range(g.n ** q):
                for out_si, out_s in enumerate(dlevel):
                    for i in range(p + 2):
                        si = simp_idx[out_s[:i] + out_s[i + 1:]]
                        coef = tsign * (1 if i % 2 == 0 else -1)
                        for c in range(size):
                            cols[src_coord(ti, si, c)][
                                dst_off + (ti * nd + out_si) * size + c] += coef

    matrix = tuple(tuple(cols[j][i] for j in range(src_total))
                   for i in range(dst_total))
    return matrix, src_total, dst_total


def oracle_h1_matrices(sub, lattice_action):
    """delta^1 and delta^0 of the stabilizer bar complex, one block row
    per ordered pair and per element."""
    members = sub.members
    group = sub.group
    r = len(lattice_action(group.identity_index))
    pos = {w: k for k, w in enumerate(members)}
    n1 = len(members) * r
    rows = []
    for w1 in members:
        m1 = lattice_action(w1)
        for w2 in members:
            w12 = group.mult(w1, w2)
            for a in range(r):
                row = [0] * n1
                for c in range(r):
                    row[pos[w2] * r + c] += m1[a][c]
                row[pos[w12] * r + a] -= 1
                row[pos[w1] * r + a] += 1
                rows.append(tuple(row))
    d0 = []
    for w in members:
        m = lattice_action(w)
        for a in range(r):
            d0.append(tuple(m[a][c] - (1 if a == c else 0) for c in range(r)))
    return tuple(rows), tuple(d0)


def oracle_coboundary_system(res, members):
    r = res.action.iso.source.rank
    rows = []
    rhs = []
    eye = identity(r)
    for i in members:
        m = res.action.source_char_action(i)
        for a in range(r):
            rows.append(tuple(m[a][c] - eye[a][c] for c in range(r)))
        rhs.extend(res.c_cocycle[i])
    return tuple(rows), tuple(rhs)


def oracle_cech(nerve, p, group, locate=None):
    size = group.size
    d_out = oracle_cech_matrix(nerve, p, size)
    d_in_cols = ()
    if p:
        d_in = oracle_cech_matrix(nerve, p - 1, size)
        d_in_cols = tuple(transpose(d_in)) if d_in else ()
    return oracle_subquotient(
        len(nerve.level(p)) * size, d_out,
        oracle_relations(len(nerve.level(p + 1)), group), d_in_cols,
        oracle_relations(len(nerve.level(p)), group), locate,
    )


def oracle_equivariant(act, n):
    def slots(m):
        return sum((act.group.n ** q) * len(act.nerve.level(p))
                   for q, p in oracle_blocks(act.nerve, m))

    d_out, n_here, _ = oracle_equivariant_matrices(act, n, 10**6)
    d_in_cols = ()
    if n:
        d_in, _, _ = oracle_equivariant_matrices(act, n - 1, 10**6)
        d_in_cols = tuple(transpose(d_in)) if d_in else ()
    group = act.coefficients
    return oracle_subquotient(n_here, d_out, oracle_relations(slots(n + 1), group),
                              d_in_cols, oracle_relations(slots(n), group))[0]


def oracle_h1(sub, lattice_action, cocycle):
    """H^1 of the stabilizer by the bar complex, placing every coboundary
    generator and the cocycle with a solve of its own."""
    members = sub.members
    r = len(lattice_action(sub.group.identity_index))
    rows, _ = oracle_h1_matrices(sub, lattice_action)
    z_rows = freeze(kernel_basis(freeze(rows)))
    b_gens = [
        tuple(lattice_action(w)[a][u] - (1 if a == u else 0)
              for w in members for a in range(r))
        for u in range(r)
    ]
    if not z_rows:
        assert not any(any(v) for v in b_gens)
        return AbelianInvariants(0, ()), (), 1
    rel = transpose(freeze([lattice_coords(z_rows, g) for g in b_gens]))
    inv = cokernel(rel)
    coords = lattice_coords(z_rows, tuple(x for w in members for x in cocycle[w]))
    s, u, _v = snf(rel)
    diag = diagonal(s)
    rank = sum(1 for d in diag if d)
    z = matvec(u, coords)
    k = 1
    for i in range(rank):
        need = diag[i] // gcd(diag[i], z[i])
        k = k * need // gcd(k, need)
    return inv, tuple(z), (None if any(z[rank:]) else k)


def stabilizer_cases():
    cases = []
    for entry in (("A", 2, "SL", "SL"), ("B", 2, "Spin", "Spin"),
                  ("C", 2, "Sp", "Sp")):
        iso = classical_isogeny(*entry)
        act = SharedWeylAction(iso)
        b = basic_level(iso).tensor
        for row in scan_points(act, b, 2).rows:
            cases.append((act, b, row.xi))
    iso = identity_isogeny(classical_datum("B", 3, "Spin"))
    act = SharedWeylAction(iso)
    xi = iso.target.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    cases.append((act, basic_level(iso).tensor, xi))
    return cases


def test_h1_matches_bar_complex_oracle():
    cases = stabilizer_cases()
    assert len(cases) > 4
    orders = set()
    for act, b, xi in cases:
        res = centralizer_cocycle(act, b, xi)
        h1 = h1_group_lattice(res.w_l, act.source_char_action, res.c_cocycle)
        got = (h1.invariants, h1.class_coords, h1.class_order_in_h1)
        assert got == oracle_h1(res.w_l, act.source_char_action, res.c_cocycle)
        orders.add(h1.class_order_in_h1)
    assert orders >= {1, 2}  # trivial and nontrivial classes both covered


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return json.load(fh)


NERVE_FIXTURES = ("circle3.json", "cone4.json", "octahedron.json",
                  "triangle_cover.json")
ACTION_FIXTURES = ("z2_point.json", "z2_point_mod2.json", "z4_point.json",
                   "trivial_group_octahedron.json")


def fixture_nerve(name):
    data = load_fixture(name)
    if "cover" in data:
        return nerve_of_cover([set(c) for c in data["cover"]], 4)
    return Nerve.from_json_dict(data["nerve"])


@pytest.mark.parametrize("name", NERVE_FIXTURES)
def test_cech_cohomology_matches_oracle(name):
    nerve = fixture_nerve(name)
    for label in ("Z", "Z/2", "Z+Z/6", "Z^2"):
        group = parse_group_label(label)
        for p in range(4):
            expect = oracle_cech(nerve, p, group)[0] if p <= nerve.dim else \
                AbelianInvariants(0, ())
            assert cohomology(nerve, p, group) == expect, (label, p)


def test_cocycle_class_order_matches_oracle():
    # the class coordinates are in another cocycle basis than the oracle's,
    # so only the group and the order of the class are compared
    nerve = fixture_nerve("circle3.json")
    data = load_fixture("circle3_cocycle.json")
    for label in ("Z", "Z/2", "Z+Z/6", "Z/4+Z/6"):
        group = parse_group_label(label)
        values = {tuple(e["simplex"]): tuple(e["value"]) * group.size
                  for e in data["values"]}
        c = Cochain(nerve, data["degree"], group, values)
        locate = tuple(x for s in nerve.level(c.degree)
                       for x in c.values.get(s, group.zero()))
        inv, _coords, order = cocycle_class(c)
        o_inv, _, o_order = oracle_cech(nerve, c.degree, group, locate)
        assert (inv, order) == (o_inv, o_order), label


@pytest.mark.parametrize("name", ACTION_FIXTURES)
def test_equivariant_cohomology_matches_oracle(name):
    act = FiniteAction.from_json_dict(load_fixture(name))
    for n in range(4):
        assert equivariant_cohomology(act, n) == oracle_equivariant(act, n), n


# --- coboundary matrices: row emitters vs the per-entry loops --------------


def dihedral_group(k):
    """Order 2k; index j*k + i stands for r^i s^j, with s r s = r^-1."""
    def mul(x, y):
        i1, j1 = x % k, x // k
        i2, j2 = y % k, y // k
        return ((j1 + j2) % 2) * k + (i1 + (i2 if j1 == 0 else -i2)) % k
    return FiniteGroupTable(tuple(tuple(mul(a, b) for b in range(2 * k))
                                  for a in range(2 * k)))


def matrix_power(m, e):
    out = identity(len(m))
    for _ in range(e):
        out = matmul(out, m)
    return out


def relabelled_action(table, nerve, coeff, perms, mats, rng):
    """The action with the nerve's vertices relabelled at random, so that
    moved simplices come back unsorted and the pull signs are exercised."""
    nv = nerve.n_vertices
    tau = list(range(nv))
    rng.shuffle(tau)
    new_nerve = nerve_from_maximal(
        nv, [tuple(tau[v] for v in s) for level in nerve.simplices for s in level])
    new_perms = []
    for perm in perms:
        new = [0] * nv
        for v in range(nv):
            new[tau[v]] = tau[perm[v]]
        new_perms.append(tuple(new))
    return FiniteAction(table, new_nerve, parse_group_label(coeff),
                        tuple(new_perms), tuple(mats))


SWAP = ((0, 1), (1, 0))
ORDER_3 = ((0, -1), (1, -1))
ORDER_4 = ((0, -1), (1, 0))
SIGN = ((-1,),)


def seeded_actions():
    """(action, top degree): cyclic and dihedral groups on a point and on
    circle covers, on coefficients of rank one and two."""
    rng = random.Random(7007)
    point = simplex_cone_nerve(1)
    cases = []
    # Z/n on a point, the generator acting by gen
    for n, coeff, gen, top in ((2, "Z", SIGN, 4), (2, "Z/4", ((1,),), 4),
                               (2, "Z^2", SWAP, 3), (3, "Z", ((1,),), 3),
                               (3, "Z^2", ORDER_3, 3), (4, "Z", SIGN, 3),
                               (4, "Z^2", ORDER_4, 2), (6, "Z/2+Z/3", identity(2), 2)):
        mats = [matrix_power(gen, g) for g in range(n)]
        cases.append((relabelled_action(cyclic_group(n), point, coeff,
                                        [(0,)] * n, mats, rng), top))
    # D_k on a point: r by rot, s by refl
    for k, coeff, rot, refl, top in ((3, "Z", ((1,),), SIGN, 3),
                                     (3, "Z^2", ORDER_3, SWAP, 2),
                                     (4, "Z/3", ((1,),), SIGN, 2),
                                     (4, "Z^2", ORDER_4, SWAP, 2)):
        mats = [matmul(matrix_power(rot, x % k), matrix_power(refl, x // k))
                for x in range(2 * k)]
        cases.append((relabelled_action(dihedral_group(k), point, coeff,
                                        [(0,)] * (2 * k), mats, rng), top))
    # circle covers: free rotations, the reflection of a 4-arc circle and
    # the dihedral group of a 3-arc circle
    for m, coeff, top in ((3, "Z", 3), (4, "Z/2", 2), (5, "Z", 2)):
        perms = [tuple((v + g) % m for v in range(m)) for g in range(m)]
        cases.append((relabelled_action(cyclic_group(m), circle_nerve(m), coeff,
                                        perms, [((1,),)] * m, rng), top))
    for coeff, sign, top in (("Z", ((1,),), 3), ("Z", SIGN, 3), ("Z/3", SIGN, 3)):
        perms = [tuple(range(4)), tuple(-v % 4 for v in range(4))]
        cases.append((relabelled_action(cyclic_group(2), circle_nerve(4), coeff,
                                        perms, [((1,),), sign], rng), top))
    perms = [tuple(((-1) ** (x // 3) * v + x) % 3 for v in range(3))
             for x in range(6)]
    mats = [matrix_power(SIGN, x // 3) for x in range(6)]
    cases.append((relabelled_action(dihedral_group(3), circle_nerve(3), "Z",
                                    perms, mats, rng), 2))
    return cases


def oracle_normalised_coordinates(act, m):
    """Positions, in the unnormalised layout of T^m, of the coordinates
    whose group tuple avoids the identity."""
    g = act.group
    nerve = act.nerve
    size = act.coefficients.size
    keep = []
    pos = 0
    for q, p in oracle_blocks(nerve, m):
        per_tuple = len(nerve.level(p)) * size
        for tup in itertools.product(range(g.n), repeat=q):
            if g.identity not in tup:
                keep.extend(range(pos, pos + per_tuple))
            pos += per_tuple
    return keep


def oracle_normalised_matrices(act, n):
    """The per-entry builder's T^n -> T^(n+1) restricted to the rows and
    columns of identity-free tuples.  The restriction is exact: delta maps
    normalised cochains to normalised ones."""
    full, _, _ = oracle_equivariant_matrices(act, n, 10**6)
    cols = oracle_normalised_coordinates(act, n)
    rows = oracle_normalised_coordinates(act, n + 1)
    return tuple(tuple(full[i][j] for j in cols) for i in rows), len(cols), len(rows)


# --- the normalised bar complex that the free resolution replaced ----------


def bar_rows(q, prod, actions, pull):
    """Rows of the bar differential C^q -> C^(q+1) on one level of cochains,
    (df)(g_1..g_{q+1}) = g_1.f(g_2..g_{q+1})
                         + sum_{i=1..q} (-1)^i f(.., g_i g_{i+1}, ..)
                         + (-1)^(q+1) f(g_1..g_q),
    over the tuples of positions of actions in lexicographic order.
    prod[a][b] is the position of a*b, or None where a*b is the identity,
    which the normalised cochains leave out; pull[g][s] = (s', sign) says
    g^-1.s = sign.s'.  One row per (q+1)-tuple, simplex and coordinate;
    columns (q-tuple, simplex, coordinate)."""
    n = len(actions)
    m = len(pull[0])
    r = len(actions[0])
    power = [n ** k for k in range(q + 2)]
    width = power[q] * m * r
    for idx, t in enumerate(itertools.product(range(n), repeat=q + 1)):
        g = t[0]
        rho = actions[g]
        rest = idx % power[q]
        terms = [((idx // power[q + 2 - i]) * power[q + 1 - i]
                  + ab * power[q - i] + idx % power[q - i],
                  -1 if i % 2 else 1) for i in range(1, q + 1)
                 if (ab := prod[t[i - 1]][t[i]]) is not None]
        terms.append((idx // n, 1 if q % 2 else -1))
        for s in range(m):
            moved, sign = pull[g][s]
            base = (rest * m + moved) * r
            for a in range(r):
                row = [0] * width
                for c, x in enumerate(rho[a]):
                    row[base + c] += sign * x
                for ti, coef in terms:
                    row[(ti * m + s) * r + a] += coef
                yield tuple(row)


def bar_equivariant_matrices(act, n):
    """T^n -> T^(n+1) on normalised bar cochains: block (q, p) has one
    column group per q-tuple of elements other than the identity.  The
    rows of block (q, p) are the bar rows out of block (q-1, p) next to
    (-1)^q times the Cech rows out of block (q, p-1), once per q-tuple."""
    g = act.group
    nerve = act.nerve
    size = act.coefficients.size
    others = [x for x in range(g.n) if x != g.identity]
    k = len(others)

    def layout(m):
        offs = {}
        total = 0
        for p in range(min(m, nerve.dim), -1, -1):
            q = m - p
            width = k ** q * len(nerve.level(p)) * size
            if width:
                offs[(q, p)] = total
                total += width
        return offs, total

    src_offs, src_total = layout(n)
    dst_offs, dst_total = layout(n + 1)
    position = {x: i for i, x in enumerate(others)}
    prod = [[position.get(g.table[a][b]) for b in others] for a in others]
    actions = [act.coeff_actions[x] for x in others]
    rows = []
    for (q, p) in dst_offs:
        level = nerve.level(p)
        per_tuple = len(level) * size
        if q:
            idx = nerve.index(p)
            pull = [tuple((idx[moved], sign) for moved, sign in
                          (act.act_on_simplex(g.inverse(x), s) for s in level))
                    for x in others]
            bar = bar_rows(q - 1, prod, actions, pull)
            b_off, bw = src_offs[(q - 1, p)], k ** (q - 1) * per_tuple
        else:
            bar = itertools.repeat(())
            b_off, bw = 0, 0
        if p:
            cech_rows = _cech_matrix(act.nerve, p - 1, size)
            if q % 2:
                cech_rows = tuple(tuple(-x for x in row) for row in cech_rows)
            c_off, cw = src_offs[(q, p - 1)], len(nerve.level(p - 1)) * size
        else:
            cech_rows = ((),) * per_tuple
            c_off, cw = b_off + bw, 0
        lead = (0,) * b_off
        for t in range(k ** q):
            gap = (0,) * (c_off + t * cw - b_off - bw)
            tail = (0,) * (src_total - c_off - (t + 1) * cw)
            for crow in cech_rows:
                rows.append(lead + next(bar) + gap + crow + tail)
    return tuple(rows), src_total, dst_total


def bar_cohomology(act, n):
    """H^n of the normalised bar complex, by equivariant_cohomology's own
    route: elementary divisors on Z^f or (Z/m)^k, else subquotient."""
    d_out, n_here, n_next = bar_equivariant_matrices(act, n)
    d_in = bar_equivariant_matrices(act, n - 1)[0] if n else ()
    group = act.coefficients
    if not group.torsion or (not group.free_rank and len(set(group.torsion)) == 1):
        return divisor_cohomology(n_here, d_out, d_in,
                                  (group.torsion[0] if group.torsion else 0,))
    return subquotient(n_here, d_out, _relations(n_next, group), d_in,
                       _relations(n_here, group))[0]


def relabelled_point_action(table, coeff, mats, perm):
    """The point action with element a of the table renamed perm[a]."""
    n = table.n
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table.mult(a, b)]
    moved = [None] * n
    for a in range(n):
        moved[perm[a]] = mats[a]
    return point_action(FiniteGroupTable(tuple(map(tuple, out))),
                        parse_group_label(coeff), tuple(moved))


D3_SIGNS = [1, 1, 1, -1, -1, -1]


def relabelled_group_actions():
    """(action, top degree): Z/4 and the dihedral group of order 6 on a
    point, by the sign of a generator, with the identity renamed away from
    element 0."""
    z4 = relabelled_point_action(cyclic_group(4), "Z", [((s,),) for s in (1, -1) * 2],
                                 (2, 0, 3, 1))
    d3 = relabelled_point_action(dihedral_group(3), "Z", [((s,),) for s in D3_SIGNS],
                                 (4, 2, 0, 5, 1, 3))
    assert z4.group.identity == 2 and d3.group.identity == 4
    return [(z4, 4), (d3, 3)]


def test_equivariant_matrices_match_per_entry_builder():
    # the normalised bar builder, entry by entry: the oracle is the
    # unnormalised per-entry builder restricted to identity-free tuples
    cases = [(FiniteAction.from_json_dict(load_fixture(name)), 4)
             for name in ACTION_FIXTURES] + seeded_actions() + relabelled_group_actions()
    signs = set()
    for act, top in cases:
        for n in range(top + 1):
            got = bar_equivariant_matrices(act, n)
            assert got == oracle_normalised_matrices(act, n), (act, n)
        signs.update(act.act_on_simplex(g, s)[1] for g in range(act.group.n)
                     for level in act.nerve.simplices for s in level)
    assert signs == {1, -1}  # some simplex is pulled back with a sign


def test_resolution_invariants_match_the_bar_builder():
    # the resolution's complex has other coordinates than the bar
    # complex, so the two are compared by their invariants; the per-entry
    # oracle's invariants are compared on the bundled and relabelled
    # actions below, where its cocycle kernel is cheap
    cases = [(FiniteAction.from_json_dict(load_fixture(name)), 4)
             for name in ACTION_FIXTURES] + seeded_actions() + relabelled_group_actions()
    for act, top in cases:
        group = act.coefficients
        if group.free_rank and group.torsion or len(set(group.torsion)) > 1:
            # mixed coefficients take subquotient, which on the bar matrices
            # of Z/6 with Z/2+Z/3 takes over a minute at degree 2
            top = min(top, 1)
        for n in range(top + 1):
            assert equivariant_cohomology(act, n) == bar_cohomology(act, n), (act, n)


def resolution_z_matrix(group, d, rank_below):
    """The integer matrix of d_q : F_q -> F_(q-1) of the resolution, one
    column per basis element g e_i of F_q: d(g e_i) = sum a_(i,j,h) (g h) e_j
    for d[i][j |G| + h] = a_(i,j,h)."""
    n = group.n
    cols = []
    for v in d:
        for g in range(n):
            col = [0] * (n * rank_below)
            for k, a in enumerate(v):
                j, h = divmod(k, n)
                col[j * n + group.mult(g, h)] += a
            cols.append(tuple(col))
    return tuple(cols)


S4_PERMS = tuple(itertools.permutations(range(4)))
S4 = tuple(tuple(S4_PERMS.index(tuple(p[i] for i in q)) for q in S4_PERMS)
           for p in S4_PERMS)


@pytest.mark.parametrize("name", ["Z/1", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6",
                                  "D3", "D4", "Klein", "S4"])
def test_resolution_is_exact(name):
    # F_0 .. F_4 of the greedy resolution, checked by Smith forms rather
    # than the Hermite forms the kernel step uses: the image of d_1 is
    # the augmentation ideal, and for q = 1, 2, 3 d_q d_(q+1) = 0 and the
    # image of d_(q+1) is saturated of the kernel's rank, so it is the
    # kernel of d_q
    tables = {"D3": dihedral_group(3).table, "D4": dihedral_group(4).table,
              "Klein": KLEIN, "S4": S4}
    group = FiniteGroupTable(tables[name]) if name in tables else \
        cyclic_group(int(name[2:]))
    ds = cech._differentials(group, 4)
    ranks = [1] + [len(d) for d in ds]
    images = [resolution_z_matrix(group, d, ranks[q]) for q, d in enumerate(ds)]
    e = group.identity
    ideal = tuple(tuple((x == g) - (x == e) for x in range(group.n))
                  for g in range(group.n) if g != e)
    assert hnf_basis(images[0]) == hnf_basis(ideal)
    for q in range(1, 4):
        if not ranks[q]:
            assert not ranks[q + 1]
            continue
        d_q = transpose(images[q - 1])
        assert not any(map(any, matmul(d_q, transpose(images[q]))))
        diag = diagonal(snf(images[q], left=False, right=False)[0])
        assert set(diag) - {0} == {1}
        assert len(diag) - diag.count(0) == len(kernel_basis(d_q)), q
    if name == "S4":
        assert ranks == [1, 3, 6, 10, 15]


# --- normalised cochains vs the unnormalised complex ------------------------


def unnormalised_divisor_cohomology(act, n):
    """H^n of the unnormalised complex with Z coefficients, from the
    elementary divisors of the per-entry builder's matrices.  This stands
    in for oracle_equivariant where its cocycle kernel takes minutes: 388 s
    for the dihedral group of order 6 at degree 4 and 197 s for Z/4 at
    degree 5, on a 2-core x86 box."""
    d_out, n_here, _ = oracle_equivariant_matrices(act, n, 10**6)
    d_in = oracle_equivariant_matrices(act, n - 1, 10**6)[0]
    return divisor_cohomology(n_here, d_out, d_in, (0,))


def test_normalised_invariants_match_unnormalised_on_point_groups():
    # where the bar complexes differ most, |G|^q against (|G|-1)^q tuples:
    # the resolution and the normalised bar builder against the
    # unnormalised per-entry builder
    d3 = point_action(dihedral_group(3), parse_group_label("Z"), [((s,),) for s in D3_SIGNS])
    z4 = FiniteAction.from_json_dict(load_fixture("z4_point.json"))
    seen = []
    for act, cheap, top in ((d3, 3, 4), (z4, 4, 5)):
        for n in range(cheap + 1):
            got = equivariant_cohomology(act, n)
            assert got == bar_cohomology(act, n) == oracle_equivariant(act, n), \
                (act.group, n)
            seen.append(got)
        for n in range(cheap + 1, top + 1):
            got = equivariant_cohomology(act, n)
            assert got == bar_cohomology(act, n) == \
                unnormalised_divisor_cohomology(act, n), (act.group, n)
            seen.append(got)
    # H^1..H^3 of S3 with the sign action are Z/2, Z/3, Z/2 and
    # H^2, H^4 of Z/4 with trivial Z are Z/4
    assert {AbelianInvariants(0, (d,)) for d in (2, 3, 4)} <= set(seen)


def test_normalised_invariants_match_oracle_on_circle_and_relabelled_tables():
    perms = [tuple((v + g) % 3 for v in range(3)) for g in range(3)]
    rotation = FiniteAction(cyclic_group(3), circle_nerve(3), parse_group_label("Z"),
                            tuple(perms), (((1,),),) * 3)
    for act, top in [(rotation, 3)] + relabelled_group_actions():
        for n in range(min(top, 3) + 1):
            assert equivariant_cohomology(act, n) == bar_cohomology(act, n) == \
                oracle_equivariant(act, n), (act.group, n)


def test_trivial_group_normalised_complex_is_cech():
    # the trivial group's resolution is F_0 = Z alone, so its complex is
    # the Cech complex; its invariants are checked against
    # oracle_equivariant with the other bundled actions
    act = FiniteAction.from_json_dict(load_fixture("trivial_group_octahedron.json"))
    size = act.coefficients.size
    for n in range(4):
        d, n_here, n_next = _equivariant_matrices(act, n, 10**6)
        assert d == _cech_matrix(act.nerve, n, size)
        assert (n_here, n_next) == (len(act.nerve.level(n)) * size,
                                    len(act.nerve.level(n + 1)) * size)


@pytest.mark.parametrize("label", ["Z+Z/2", "Z/2+Z/4"])
def test_normalised_invariants_match_oracle_on_mixed_coefficients(monkeypatch, label):
    # mixed coefficients take the subquotient route, on the resolution's
    # matrices and relations sized on the coordinates they allocate
    calls = []
    real = cech.subquotient

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cech, "subquotient", counted)
    minus = ((-1, 0), (0, -1))
    z2 = point_action(cyclic_group(2), parse_group_label(label),
                      (identity(2), minus))
    d3 = point_action(dihedral_group(3), parse_group_label(label),
                      [identity(2) if s == 1 else minus for s in D3_SIGNS])
    for act, top in ((z2, 3), (d3, 2)):
        for n in range(top + 1):
            assert equivariant_cohomology(act, n) == oracle_equivariant(act, n), \
                (act.group, n)
    # Z/2 at degree 3: one generator of F_3, two coordinates
    assert calls[3] == 2


@pytest.mark.parametrize("name", NERVE_FIXTURES)
def test_cech_matrices_match_per_entry_builder(name):
    nerve = fixture_nerve(name)
    for label in ("Z", "Z/2", "Z+Z/6", "Z^2"):
        size = parse_group_label(label).size
        for p in range(5):
            assert _cech_matrix(nerve, p, size) == \
                oracle_cech_matrix(nerve, p, size), (label, p)


def test_h1_and_coboundary_systems_match_per_entry_builders(monkeypatch):
    """delta^1 and delta^0 as handed to subquotient, and the matrix of
    the class-order system, at every denominator-2 stabilizer of
    A2, B2, C2, the Spin(7) point and the certificate points."""
    cases = list(stabilizer_cases())
    for entry, xi in workload_cert_points():
        iso = classical_isogeny(*entry)
        cases.append((SharedWeylAction(iso), basic_level(iso).tensor,
                      iso.target.cochar_coords_q(RatVector.from_fractions(xi))))
    assert len(cases) > 18
    seen = []
    monkeypatch.setattr(obstruction, "subquotient",
                        lambda *args: seen.append(args) or (None, None, None))
    shapes = set()
    for act, b, pt in cases:
        res = centralizer_cocycle(act, b, pt)
        h1_group_lattice(res.w_l, act.source_char_action, res.c_cocycle)
        _n1, d1, _, d0, _, _ = seen.pop()
        assert (d1, d0) == oracle_h1_matrices(res.w_l, act.source_char_action)
        shapes.add((len(d1), len(d1[0])))
        for members in (res.w_l.generators or (act.group.identity_index,),
                        res.w_l.members):
            assert obstruction._coboundary_matrix(
                [res.action.source_char_action(i) for i in members]) == \
                oracle_coboundary_system(res, members)[0]
    assert (1024, 64) in shapes  # the D4 certificate's delta^1


# --- Weyl groups: the matrix route the root permutations replaced ---------


def oracle_reflection_cochar(rd, k):
    """s_alpha on X_*(T) basis coordinates, I - c a^T, for the root and
    coroot coordinates a and c of the k-th root."""
    a, c = rd.root_coords()[k], rd.coroot_coords()[k]
    return tuple(tuple(int(i == j) - ci * aj for j, aj in enumerate(a))
                 for i, ci in enumerate(c))


def oracle_generate(rd, cap=10**6):
    """Breadth-first closure of the simple reflections on character
    matrices, each product a matmul, with the cocharacter matrices
    multiplied alongside.  Returns the sorted (char, cochar) pairs and,
    per element in that order, its (generator, parent) step."""
    r = rd.rank
    gens = [(rd.reflection_char(i), oracle_reflection_cochar(rd, i))
            for i in rd.simple_indices]
    seen = {identity(r): (identity(r), None)}
    frontier = list(seen)
    while frontier:
        new_frontier = []
        for chm in frontier:
            for g, (gch, gco) in enumerate(gens):
                nch = matmul(gch, chm)
                if nch in seen:
                    continue
                seen[nch] = (matmul(gco, seen[chm][0]), (gch, chm))
                if len(seen) > cap:
                    raise CapExceeded(
                        f"Weyl group order exceeds the configured cap {cap}")
                new_frontier.append(nch)
        frontier = new_frontier
    ordered = sorted(seen)
    pos = {ch: i for i, ch in enumerate(ordered)}
    elements = [(ch, seen[ch][0]) for ch in ordered]
    steps = [None if seen[ch][1] is None
             else (pos[seen[ch][1][0]], pos[seen[ch][1][1]]) for ch in ordered]
    return elements, steps


def oracle_mult(group, i, j):
    return group.index_of(matmul(group.elements[i], group.elements[j]))


def oracle_inverse(group, elements, i):
    """The inverse's character matrix is the transpose of the oracle's
    cocharacter matrix."""
    return group.index_of(transpose(elements[i][1]))


@functools.lru_cache(maxsize=None)
def oracle_inverses(group):
    """The inverse table WeylGroup once built: (g w)^-1 = w^-1 g along
    the generation tree, as g is a reflection."""
    out = {group.identity_index: group.identity_index}

    def inverse(i):
        if i not in out:
            g, parent = group.tree[i]
            out[i] = group.mult(inverse(parent), g)
        return out[i]

    return tuple(map(inverse, range(group.order)))


def cochar_matrix(group, i):
    """Element i's cocharacter matrix, rebuilt from the group's rows."""
    return tuple(map(group.cochar_rows.__getitem__, group.cochar_ids[i]))


def cochar_pairs(group):
    """Each element's character matrix with its cocharacter matrix, the
    transpose of its inverse's character matrix."""
    inv = oracle_inverses(group)
    return [(e, transpose(group.elements[inv[i]]))
            for i, e in enumerate(group.elements)]


SMALL_TARGETS = sorted({(s, r, tf) for s, r, _sf, tf in DEFAULT_ATLAS_ROWS})


@pytest.mark.parametrize("key", SMALL_TARGETS, ids=lambda k: "".join(map(str, k)))
def test_weyl_products_match_matrix_oracle(key):
    rd = classical_datum(*key)
    group = generate(rd)
    assert group.order <= 192
    elements, steps = oracle_generate(rd)
    pairs = cochar_pairs(group)
    assert pairs == elements
    assert group.tree == tuple(steps)
    assert group.generators == tuple(
        group.index_of(rd.reflection_char(i)) for i in rd.simple_indices)
    n = group.order
    assert len(group.cochar_ids) == n
    for i in range(n):
        assert oracle_inverses(group)[i] == oracle_inverse(group, elements, i)
        assert cochar_matrix(group, i) == pairs[i][1]
        for j in range(n):
            assert group.mult(i, j) == oracle_mult(group, i, j)


@pytest.mark.parametrize("key", [("A", 2, "SL"), ("B", 2, "SO"), ("A", 3, "GL"),
                                 ("B", 3, "Spin"), ("D", 4, "PSO")],
                         ids=lambda k: "".join(map(str, k)))
def test_weyl_cap_threshold_matches_matrix_oracle(key):
    rd = classical_datum(*key)
    n = generate(rd).order
    caps = range(n + 2) if n <= 24 else (0, 1, n // 2, n - 1, n, n + 1)
    for cap in caps:
        raised = []
        for gen in (generate, oracle_generate):
            try:
                gen(rd, cap)
                raised.append(False)
            except CapExceeded as err:
                assert str(err) == f"Weyl group order exceeds the configured cap {cap}"
                raised.append(True)
        assert raised == [cap < n, cap < n], cap


@pytest.mark.parametrize("case", ISOGENY_CASES)
def test_source_actions_match_per_element_reexpression(case):
    # products along the generation tree against each element's target
    # actions re-expressed through the Fraction coordinates, on both lattices
    iso = oracle_isogeny(case)
    act = SharedWeylAction(iso)
    group = act.group
    s, t = FractionDatum(iso.source), FractionDatum(iso.target)
    elements, _steps = oracle_generate(iso.target)
    assert list(group.elements) == [ch for ch, _co in elements]
    for i, (ch, co) in enumerate(elements):
        assert act.source_char_action(i) == oracle_reexpress(s, t, ch, "char")
        assert transpose(act.source_char_action(oracle_inverses(group)[i])) == \
            oracle_reexpress(s, t, co, "cochar")


def oracle_tree_product(group, reflections, i):
    """The source action of element i as full matmul products along the
    generation tree, down from the identity."""
    path = []
    while group.tree[i] is not None:
        path.append(group.tree[i][0])
        i = group.tree[i][1]
    m = identity(len(reflections[0]))
    for g in reversed(path):
        m = matmul(reflections[group.generators.index(g)], m)
    return m


@pytest.mark.parametrize("row", [("D", 4, "Spin", "Spin"), ("B", 3, "Spin", "SO"),
                                 ("A", 2, "SL", "PGL")], ids=str)
def test_source_actions_by_changed_rows_match_tree_products(row):
    # each element read once, the last first, so that most are built by
    # a climb through elements not built yet; the rows a reflection leaves
    # as the identity's are the parent's own row objects
    act = SharedWeylAction(classical_isogeny(*row))
    group = act.group
    reflections = act.iso.source_reflections
    for i in reversed(range(group.order)):
        assert act.source_char_action(i) == oracle_tree_product(group, reflections, i)
    assert len(set(act.source_rows)) == len(act.source_rows)
    for i, ids in enumerate(act.source_row_ids(range(group.order))):
        assert act.source_char_action(i) == tuple(act.source_rows[j] for j in ids)
        if group.tree[i] is not None:
            g, parent = group.tree[i]
            kept = act.source_char_action(parent)
            eye = identity(len(kept))
            refl = reflections[group.generators.index(g)]
            for k, row in enumerate(act.source_char_action(i)):
                if refl[k] == eye[k]:
                    assert row is kept[k]


def oracle_act_cochar(m, lam):
    """The rational route the integer cocharacter rows replaced: the
    RatVector lam under the transpose of the character matrix m, reduced
    by RatVector.make."""
    return RatVector.make(list(matvec(transpose(m), lam.nums)), lam.den)


def oracle_mod1(v):
    return RatVector.make([x % v.den for x in v.nums], v.den)


def oracle_scan_representatives(action, max_denominator):
    """Points of (1/d)Z^r/Z^r, d <= max_denominator, equal to the minimum
    of their orbit over every element of W."""
    r = action.iso.target.rank
    points = {RatVector.make(list(nums), d)
              for d in range(1, max_denominator + 1)
              for nums in itertools.product(range(d), repeat=r)}
    reps = []
    for xi in points:
        orbit_min = min((oracle_mod1(oracle_act_cochar(e, xi))
                         for e in action.group.elements),
                        key=lambda v: v.fractions())
        if xi == orbit_min:
            reps.append(xi)
    return sorted(reps, key=lambda v: v.fractions())


# --- Weyl groups: the eager generation the lazy table replaced -------------


def _eager_reflect(a, c, m):
    """(I - a c^T) @ m as a rank-one update of m."""
    cm = [sum(ck * x for ck, x in zip(c, col)) for col in zip(*m)]
    return tuple(tuple(x - ai * y for x, y in zip(row, cm))
                 for ai, row in zip(a, m))


class EagerWeylGroup:
    """The generation that built every element's integer actions during
    the breadth-first search on root permutations, then sorted and
    indexed all of them at once."""

    def __init__(self, rd, cap=10**6):
        r = rd.rank
        simple = rd.simple_indices
        gen_perms = simple_root_permutations(rd)
        roots, coroots = rd.root_coords(), rd.coroot_coords()
        perms = [tuple(range(len(rd.roots)))]
        chars, cochars = [identity(r)], [identity(r)]
        steps = [None]
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
                        raise CapExceeded(
                            f"Weyl group order exceeds the configured cap {cap}")
                    found[key] = len(perms)
                    new_frontier.append(len(perms))
                    perms.append(tuple(map(pg.__getitem__, pw)))
                    a, c = roots[simple[g]], coroots[simple[g]]
                    chars.append(_eager_reflect(a, c, chars[w]))
                    cochars.append(_eager_reflect(c, a, cochars[w]))
                    steps.append((g, w))
            frontier = new_frontier
        order = sorted(range(len(chars)), key=chars.__getitem__)
        pos = [0] * len(order)
        for i, b in enumerate(order):
            pos[b] = i
        self.generators = tuple(pos[found[tuple(pg[s] for s in simple)]]
                                for pg in gen_perms)
        self.tree = tuple(
            None if steps[b] is None else (self.generators[steps[b][0]], pos[steps[b][1]])
            for b in order)
        self.elements = tuple((chars[b], cochars[b]) for b in order)
        self.perms = tuple(perms[b] for b in order)
        self._keys = tuple(tuple(p[s] for s in simple) for p in self.perms)
        self._by_key = {k: i for i, k in enumerate(self._keys)}
        self.identity_index = self.elements.index((identity(r), identity(r)))

    def mult(self, i, j):
        return self._by_key[tuple(map(self.perms[i].__getitem__, self._keys[j]))]


LAZY_CASES = [",".join(map(str, row)) for row in DEFAULT_ATLAS_ROWS] + [
    "G2", "B,4,Spin,Spin", "C,4,Sp,Sp", "D,4,Spin,Spin"]


@pytest.mark.parametrize("case", LAZY_CASES)
def test_lazy_weyl_table_matches_eager_generation(case):
    iso = oracle_isogeny(case)
    rd = iso.target
    act = SharedWeylAction(iso)
    # read before the group is enumerated
    pairs = act.simple_char_pairs
    group = act.group
    order = group.order
    eager = EagerWeylGroup(rd)
    assert order == len(group) == len(eager.elements)
    assert cochar_pairs(group) == list(eager.elements)
    assert group.perms == eager.perms
    assert group.tree == eager.tree
    assert group.generators == eager.generators
    assert group.identity_index == eager.identity_index
    n = group.order
    assert [[group.mult(i, j) for j in range(n)] for i in range(n)] == \
        [[eager.mult(i, j) for j in range(n)] for i in range(n)]
    assert tuple(cochar_matrix(group, g) for g in group.generators) == \
        tuple(transpose(group.elements[g]) for g in group.generators)
    assert pairs == tuple(
        (act.source_char_action(g), group.elements[g]) for g in group.generators)


@pytest.mark.parametrize("case", [",".join(map(str, row)) for row in DEFAULT_ATLAS_ROWS]
                         + ["D,5,Spin,Spin"])
def test_row_tables_match_the_derivations_they_replace(case):
    # one RowTable routine for every matrix action of W, against the three
    # derivations it replaced: character and cocharacter matrices by
    # rank-one updates in the search, cocharacter matrices as transposes of
    # the inverse's character matrix, source actions as full products
    # along the generation tree; each element read once, the last first
    iso = oracle_isogeny(case)
    act = SharedWeylAction(iso)
    group = act.group
    eager = EagerWeylGroup(iso.target)
    inv = oracle_inverses(group)
    assert list(group.elements) == [ch for ch, _co in eager.elements]
    reflections = iso.source_reflections
    for i in reversed(range(group.order)):
        assert cochar_matrix(group, i) == eager.elements[i][1] == \
            transpose(group.elements[inv[i]])
        assert act.source_char_action(i) == oracle_tree_product(group, reflections, i)
    for rows in (group.cochar_rows, act.source_rows):
        assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("case", LAZY_CASES)
def test_chain_order_matches_search(case):
    rd = oracle_isogeny(case).target
    n = group_order(rd)
    assert n == len(oracle_generate(rd)[0]) == len(EagerWeylGroup(rd).elements)


def _roots_dependent(a, b):
    """Whether two ambient root vectors are rational multiples of each other."""
    fa, fb = a.fractions(), b.fractions()
    k = next(y / x for x, y in zip(fa, fb) if x)
    return all(k * x == y for x, y in zip(fa, fb))


def test_chain_guard_on_every_g2_pair():
    # every ordered pair of distinct G2 roots as the simple roots: the
    # chain refuses exactly the pairs that pair positively or are
    # dependent, and counts the searched group on every other pair
    _src, tgt = g2_data()
    refused = 0
    for a, b in itertools.permutations(range(len(tgt.roots)), 2):
        rd = RootDatum(tgt.name, tgt.ambient_dim, tgt.char_basis,
                       tgt.cochar_basis, tgt.roots, tgt.coroots, (a, b))
        ra, rb, ca, cb = tgt.roots[a], tgt.roots[b], tgt.coroots[a], tgt.coroots[b]
        bad = (pairing(rb, ca) > 0 or pairing(ra, cb) > 0
               or _roots_dependent(ra, rb))
        try:
            n = group_order(rd)
        except DatumError:
            assert bad, (a, b)
            refused += 1
            continue
        assert not bad, (a, b)
        assert n == len(oracle_generate(rd)[0]) == len(EagerWeylGroup(rd).elements)
    assert refused == 60


SCAN_ENTRIES = [("A", 3, "SL", "SL"), ("B", 3, "Spin", "Spin"), ("B", 3, "SO", "SO"),
                ("B", 3, "Spin", "SO"), ("C", 3, "Sp", "Sp"), ("C", 3, "PSp", "PSp"),
                ("A", 2, "SL", "SL"), ("A", 2, "SL", "PGL"), ("B", 2, "Spin", "Spin"),
                ("C", 2, "Sp", "Sp")]


@pytest.mark.parametrize("entry", SCAN_ENTRIES, ids=lambda e: ",".join(map(str, e)))
def test_scan_representatives_match_orbit_minimum(entry):
    iso = classical_isogeny(*entry)
    act = SharedWeylAction(iso)
    rows = scan_points(act, basic_level(iso).tensor, 4).rows
    assert [row.xi for row in rows] == oracle_scan_representatives(act, 4)


# --- Scan points: the rational walk, differences and identity the integer --
# --- numerators replaced ----------------------------------------------------


def oracle_scan_walk(action, max_denominator):
    """Orbit representatives by the walk on reduced RatVectors: one
    rational image and one mod1 per generator and point."""
    r = action.iso.target.rank
    points = {RatVector.make(list(nums), d)
              for d in range(1, max_denominator + 1)
              for nums in itertools.product(range(d), repeat=r)}
    group = action.group
    gens = [group.elements[g] for g in group.generators]
    common = lcm(*range(1, max_denominator + 1))
    reps, visited = [], set()
    for xi in sorted(points, key=lambda v: [common // v.den * x for x in v.nums]):
        if xi in visited:
            continue
        reps.append(xi)
        visited.add(xi)
        frontier = [xi]
        while frontier:
            nxt = []
            for v in frontier:
                for e in gens:
                    img = oracle_mod1(oracle_act_cochar(e, v))
                    if img not in visited:
                        visited.add(img)
                        nxt.append(img)
            frontier = nxt
    return reps


def oracle_cocycles(action, b, xi, members):
    """d and c from one rational difference per member."""
    group = action.group
    d = {}
    for i in members:
        diff = oracle_act_cochar(group.elements[oracle_inverses(group)[i]], xi) - xi
        assert diff.is_integral
        d[i] = diff.int_vector()
    return d, {i: b.bmap(v) for i, v in d.items()}


def oracle_dict_identity(action, w_l, c_cocycle):
    """The cocycle identity with one dict per row, keyed by c_{w2}, and
    one tuple comparison per ordered pair."""
    c_at = [c_cocycle[i] for i in w_l.members]
    for i, prod_row in zip(w_l.members, w_l.table):
        mi = action.source_char_action(i)
        ci = c_cocycle[i]
        images = {}
        for cj, ij in zip(c_at, prod_row):
            expect = images.get(cj)
            if expect is None:
                expect = images[cj] = tuple(
                    sum(x * y for x, y in zip(row, cj)) + c for row, c in zip(mi, ci))
            if c_at[ij] != expect:
                return False
    return True


def oracle_verify_witness(res, u, k):
    return all(vec_sub(matvec(res.action.source_char_action(i), u), u)
               == tuple(k * x for x in res.c_cocycle[i]) for i in res.w_l.members)


def assert_cocycles_match_oracle(act, b, xi):
    res = centralizer_cocycle(act, b, xi)
    members = oracle_stabilizer_members(act.group, xi)
    assert res.w_l.members == members
    assert (res.d_cocycle, res.c_cocycle) == oracle_cocycles(act, b, xi, members)
    assert oracle_dict_identity(act, res.w_l, res.c_cocycle)
    return res


def test_cocycles_match_rational_route_on_stabilizer_cases():
    orders = set()
    for act, b, xi in stabilizer_cases():
        group = act.group
        for i, e in enumerate(group.elements):
            m = cochar_matrix(group, oracle_inverses(group)[i])
            assert RatVector.make(list(matvec(m, xi.nums)), xi.den) == \
                oracle_act_cochar(e, xi)
        res = assert_cocycles_match_oracle(act, b, xi)
        k, witness = obstruction.class_order(res)
        orders.add(k)
        # witnesses: the true one where the class is trivial, and shifted
        # ones that both routes must refuse
        u0 = witness if k == 1 else (0,) * act.iso.source.rank
        for u in (u0, (u0[0] + 1,) + u0[1:], tuple(x - 2 for x in u0)):
            for m in (1, k, 2 * k):
                assert obstruction._verify_witness(res, u, m) == \
                    oracle_verify_witness(res, u, m)
        assert obstruction._verify_witness(res, witness, k)
    assert orders >= {1, 2}


@pytest.mark.parametrize("entry", [("B", 4, "Spin", "Spin"), ("C", 4, "Sp", "Sp"),
                                   ("D", 4, "Spin", "Spin")],
                         ids=lambda e: ",".join(map(str, e)))
def test_scan_tables_match_rational_route(entry):
    iso = classical_isogeny(*entry)
    act = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    rows = []
    for xi in oracle_scan_walk(act, 2):
        res = assert_cocycles_match_oracle(act, b, xi)
        k, _ = obstruction.class_order(res)
        rows.append(obstruction.ScanRow(xi, len(res.w_l), k, k == 1))
    assert scan_points(act, b, 2).rows == tuple(rows)


# --- Row lookups: the per-member matvec route they replaced ---------------

# every entry of the benchmark's scan workload at its largest denominator
# (D4 at 1, rank 3 at 4, rank 2 at 4), the D4 Spin -> PSO scan with a class
# of order 4, and B4 (|W| = 384) at denominator 2
ROW_LOOKUP_CASES = [
    (("D", 4, "Spin", "Spin"), 1),
    *((e, 4) for e in (("A", 3, "SL", "SL"), ("B", 3, "Spin", "Spin"),
                       ("B", 3, "SO", "SO"), ("B", 3, "Spin", "SO"),
                       ("C", 3, "Sp", "Sp"), ("C", 3, "PSp", "PSp"),
                       ("A", 2, "SL", "SL"), ("A", 2, "SL", "PGL"),
                       ("B", 2, "Spin", "Spin"), ("C", 2, "Sp", "Sp"))),
    (("D", 4, "Spin", "PSO"), 4),
    (("B", 4, "Spin", "Spin"), 2),
]


def matvec_cochar(group, i):
    """Element i's cocharacter matrix, the transpose of its inverse's
    character matrix, made for each member as the scan once did."""
    return transpose(group.elements[oracle_inverses(group)[i]])


def matvec_stabilizer(group, xi):
    """The sweep over W with one matrix product per element."""
    nums, den = xi.nums, xi.den
    return tuple(i for i in range(group.order)
                 if all((y - x) % den == 0
                        for y, x in zip(matvec(matvec_cochar(group, i), nums), nums)))


def matvec_differences(group, members, xi):
    nums, den = xi.nums, xi.den
    return {i: tuple((y - x) // den
                     for y, x in zip(matvec(matvec_cochar(group, i), nums), nums))
            for i in members}


def scaled_witness(res, k):
    """A u with w.u - u = k c_w on the generators, as class_order solves it."""
    gens = res.w_l.generators or (res.w_l.group.identity_index,)
    system = obstruction._generator_factor(
        tuple(map(res.action.source_char_action, gens)))
    return system.solve(tuple(k * x for i in gens for x in res.c_cocycle[i])).solution


@pytest.mark.parametrize("entry, bound", ROW_LOOKUP_CASES,
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple)
                         else f"D={v}")
def test_row_lookups_match_per_member_matvec_route(entry, bound):
    iso = classical_isogeny(*entry)
    act = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    group = act.group
    table = scan_points(act, b, bound)
    for row in table.rows:
        xi = row.xi
        res = centralizer_cocycle(act, b, xi, verify_cap=group.order)
        members = matvec_stabilizer(group, xi)
        assert res.w_l.members == members
        d = matvec_differences(group, members, xi)
        assert res.d_cocycle == d
        assert res.c_cocycle == {i: matvec(b.matrix, v) for i, v in d.items()}
        k, u = obstruction.class_order(res)
        assert (len(members), k) == (row.stabilizer_order, row.class_order)
        assert u == scaled_witness(res, k)
        assert obstruction._verify_witness(res, u, k)
        assert oracle_verify_witness(res, u, k)
        for v in ((u[0] + 1,) + u[1:], tuple(x - 2 for x in u)):
            for m in (k, 2 * k):
                assert obstruction._verify_witness(res, v, m) == \
                    oracle_verify_witness(res, v, m)


def test_differences_refuse_every_non_member():
    # each element outside the stabilizer has a coordinate whose row
    # value is not congruent to the numerator, and its divmod says so
    iso = classical_isogeny("B", 3, "Spin", "Spin")
    group = SharedWeylAction(iso).group
    xi = RatVector.make([0, 1, 0], 2)
    members = set(matvec_stabilizer(group, xi))
    assert 0 < len(members) < group.order
    for i in range(group.order):
        if i in members:
            assert obstruction._differences(group, (i,), xi) == \
                matvec_differences(group, (i,), xi)
            continue
        with pytest.raises(AssertionError, match="non-integral difference"):
            obstruction._differences(group, (i,), xi)


def _stabilizer_fails(group, points, want):
    """Whether some point's stabilizer raises or differs from want."""
    for xi in points:
        try:
            if weyl.stabilizer(group, xi).members != want[xi]:
                return True
        except (ValueError, AssertionError):
            return True
    return False


def _point_fails(action, b, points, want):
    """Whether some point's cocycle and class order raise, or its
    stabilizer differs from want."""
    for xi in points:
        try:
            res = centralizer_cocycle(action, b, xi)
            obstruction.class_order(res)
        except (ValueError, AssertionError):
            return True
        if res.w_l.members != want[xi]:
            return True
    return False


def _corrupted_group(group, **tables):
    bad = copy.copy(group)
    bad.subgroups = {}
    for name, value in tables.items():
        setattr(bad, name, value)
    return bad


def test_corrupted_cochar_rows_and_ids_are_caught():
    # one distinct row with one entry off by one fails the stabilizer
    # sweep at some point of denominator 2 or 3.  One element's row id
    # pointing at another row changes that element's difference at a
    # point it fixes, for the first such row; that fails the sweep, the
    # cocycle identity or the witness check at some point
    iso = classical_isogeny("B", 3, "Spin", "Spin")
    act = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    group = act.group
    points = [RatVector.make(list(v), d) for d in (2, 3)
              for v in itertools.product(range(d), repeat=3)]
    want = {xi: matvec_stabilizer(group, xi) for xi in points}
    rows, ids = group.cochar_rows, group.cochar_ids
    for j, k in itertools.product(range(len(rows)), range(3)):
        bad_rows = list(rows)
        bad_rows[j] = rows[j][:k] + (rows[j][k] + 1,) + rows[j][k + 1:]
        bad = _corrupted_group(group, cochar_rows=tuple(bad_rows))
        assert _stabilizer_fails(bad, points, want), (j, k)
    corrupted = 0
    for i, k in itertools.product(range(group.order), range(3)):
        fixed = [xi.nums for xi in points if i in want[xi]]
        true = [sum(map(mul, rows[ids[i][k]], nums)) for nums in fixed]
        other = next((j for j, row in enumerate(rows)
                      if [sum(map(mul, row, nums)) for nums in fixed] != true), None)
        if other is None:
            continue
        bad_ids = list(ids)
        bad_ids[i] = ids[i][:k] + (other,) + ids[i][k + 1:]
        bad_act = SharedWeylAction(iso)
        bad_act.group = _corrupted_group(group, cochar_ids=tuple(bad_ids))
        assert _point_fails(bad_act, b, points, want), (i, k)
        corrupted += 1
    assert corrupted == 3 * group.order
    assert not _point_fails(act, b, points, want)


def test_corrupted_source_rows_and_ids_fail_the_witness_check():
    # at the origin W_L = W, and a coboundary c_w = w.u - u of a u with no
    # zero entry passes; one source row off by one, or one member's row id
    # pointing at a row of another value on u, makes the check fail, and
    # class_order raise
    iso = classical_isogeny("B", 3, "Spin", "Spin")
    act = SharedWeylAction(iso)
    b = basic_level(iso).tensor
    origin = centralizer_cocycle(act, b, RatVector.make([0, 0, 0]))
    u = (1, 2, 3)
    c = {i: vec_sub(matvec(act.source_char_action(i), u), u)
         for i in origin.w_l.members}
    res = StabilizerCocycle(origin.action, origin.level, origin.xi, origin.w_l,
                            origin.d_cocycle, c, origin.rational_witness)
    assert obstruction._verify_witness(res, u, 1)
    assert obstruction.class_order(res)[0] == 1
    rows = list(act.source_rows)
    values = [sum(x * y for x, y in zip(row, u)) for row in rows]
    for j, k in itertools.product(range(len(rows)), range(3)):
        act.source_rows[j] = rows[j][:k] + (rows[j][k] + 1,) + rows[j][k + 1:]
        try:
            assert not obstruction._verify_witness(res, u, 1), (j, k)
            with pytest.raises(AssertionError, match="scaled witness failed"):
                obstruction.class_order(res)
        finally:
            act.source_rows[j] = rows[j]
    for i, k in itertools.product(res.w_l.members, range(3)):
        ids = act._source_ids[i]
        other = next(j for j, v in enumerate(values) if v != values[ids[k]])
        act._source_ids[i] = ids[:k] + (other,) + ids[k + 1:]
        try:
            assert not obstruction._verify_witness(res, u, 1), (i, k)
        finally:
            act._source_ids[i] = ids
    assert obstruction._verify_witness(res, u, 1)


# --- Subgroups: the all-pairs mult routes the left-regular table replaced --


def oracle_stabilizer_members(group, xi):
    """The sweep over W with one RatVector image and difference each."""
    return tuple(i for i, e in enumerate(group.elements)
                 if (oracle_act_cochar(e, xi) - xi).is_integral)


def oracle_closure(group, seeds):
    members = {group.identity_index}
    frontier = [group.identity_index]
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


def oracle_minimal_generators(group, members):
    """Greedy generators, the closure recomputed from scratch for each."""
    gens = []
    have = {group.identity_index}
    for i in members:
        if i in have:
            continue
        gens.append(i)
        have = set(oracle_closure(group, gens))
        if len(have) == len(members):
            break
    return tuple(gens)


def oracle_verify_closed(group, members):
    mset = set(members)
    if group.identity_index not in mset:
        return False
    for i in members:
        if oracle_inverses(group)[i] not in mset:
            return False
        for j in members:
            if group.mult(i, j) not in mset:
                return False
    return True


def oracle_cocycle_identity(res):
    """c_{w1 w2} = w1.c_{w2} + c_{w1} for every ordered pair, by mult."""
    group, c = res.w_l.group, res.c_cocycle
    return all(
        c[group.mult(i, j)] == vec_add(matvec(res.action.source_char_action(i), c[j]), c[i])
        for i in res.w_l.members for j in res.w_l.members
    )


def oracle_reflection_members(group, xi):
    rd = group.datum
    seeds = {group.index_of(rd.reflection_char(k))
             for k, alpha in enumerate(rd.root_coords())
             if sum(a * x for a, x in zip(alpha, xi.nums)) % xi.den == 0}
    return oracle_closure(group, sorted(seeds))


def oracle_left_regular_table(group, members, gens):
    """The table every subgroup used to build: the generators' rows from
    group.mult, every other row a generator row composed with its
    parent's row along a breadth-first tree.  ValueError when a generator
    product leaves members or the tree misses a member."""
    pos = {w: a for a, w in enumerate(members)}
    try:
        gen_rows = [[pos[group.mult(g, w)] for w in members] for g in gens]
    except KeyError:
        raise ValueError("not closed") from None
    rows = [None] * len(members)
    e = pos[group.identity_index]
    rows[e] = tuple(range(len(members)))
    frontier = [e]
    while frontier:
        nxt = []
        for a in frontier:
            for row_g in gen_rows:
                b = row_g[a]
                if rows[b] is None:
                    rows[b] = tuple(map(row_g.__getitem__, rows[a]))
                    nxt.append(b)
        frontier = nxt
    if None in rows:
        raise ValueError("not closed")
    return tuple(rows)


def oracle_table_closed(group, members, table):
    """The closure check on the full table: the identity row is the
    identity, every row is a permutation, and each member's inverse is a
    member that its row sends to the identity."""
    pos = {w: a for a, w in enumerate(members)}
    e = pos.get(group.identity_index)
    n = len(members)
    if e is None or table[e] != tuple(range(n)):
        return False
    for a, w in enumerate(members):
        row, b = table[a], pos.get(oracle_inverses(group)[w])
        if len(row) != n or set(row) != set(range(n)) or b is None or row[b] != e:
            return False
    return True


def oracle_closed_verdict(group, members):
    """Whether the table route admits members, with the oracle's greedy
    generators."""
    gens = oracle_minimal_generators(group, members)
    try:
        table = oracle_left_regular_table(group, members, gens)
    except ValueError:
        return False
    return oracle_table_closed(group, members, table)


def rows_closed_verdict(group, members):
    try:
        gens, rows = _generators_and_rows(group, members)
    except ValueError:
        return False
    return Subgroup(group, members, gens, rows).verify_closed()


def assert_subgroup_matches_oracle(sub, members):
    group = sub.group
    assert sub.members == members
    assert sub.generators == oracle_minimal_generators(group, members)
    pos = {w: a for a, w in enumerate(members)}
    assert sub.gen_rows == tuple(tuple(pos[group.mult(g, w)] for w in members)
                                 for g in sub.generators)
    assert sub.table == tuple(tuple(pos[group.mult(v, w)] for w in members)
                              for v in members)
    assert sub.verify_closed() and oracle_verify_closed(group, members)


def subgroup_cases():
    """Every stabilizer_cases() point, every denominator-2 scan point of
    B3 Spin/Spin, C3 Sp/Sp and B3 SO/SO (where three reflection subgroups
    are proper in the stabilizer), and the D4 origin (|W_L| = 192)."""
    cases = list(stabilizer_cases())
    for entry in (("B", 3, "Spin", "Spin"), ("C", 3, "Sp", "Sp"),
                  ("B", 3, "SO", "SO")):
        iso = classical_isogeny(*entry)
        act = SharedWeylAction(iso)
        b = basic_level(iso).tensor
        cases += [(act, b, row.xi) for row in scan_points(act, b, 2).rows]
    iso = classical_isogeny("D", 4, "Spin", "Spin")
    cases.append((SharedWeylAction(iso), basic_level(iso).tensor, RatVector.zero(4)))
    return cases


def test_subgroups_match_all_pairs_mult_oracle():
    """Stabilizer members, generators, table, closure, cocycle
    identity and the integral reflection subgroup against the routes that
    multiplied every ordered pair with WeylGroup.mult."""
    orders = set()
    unequal = 0
    for act, b, xi in subgroup_cases():
        group = act.group
        res = centralizer_cocycle(act, b, xi)
        reflection_sub = integral_reflection_subgroup(group, xi, res.w_l)
        members = oracle_stabilizer_members(group, xi)
        assert_subgroup_matches_oracle(res.w_l, members)
        assert oracle_cocycle_identity(res)
        refl_members = oracle_reflection_members(group, xi)
        assert_subgroup_matches_oracle(reflection_sub, refl_members)
        assert (reflection_sub is res.w_l) == (refl_members == members)
        unequal += refl_members != members
        orders.add(len(members))
    assert 192 in orders
    assert unequal  # a reflection subgroup built apart from the stabilizer


def test_non_closed_member_sets_are_refused():
    group = generate(classical_datum("A", 2, "SL"))
    s1, s2 = group.generators
    members = tuple(sorted((group.identity_index, s1, s2)))
    assert not oracle_verify_closed(group, members)
    with pytest.raises(ValueError, match="not closed"):
        subgroup_from_members(group, members)
    whole = tuple(range(group.order))
    sub = subgroup_from_members(group, whole)
    assert sub.verify_closed()
    # rows that are not the subgroup's: none at all (the search reaches
    # only the identity), a row that repeats a position, a row of the
    # right length that misses one, and the identity permutation in
    # place of a generator's row (the search misses the members that
    # need that generator)
    ident = tuple(range(group.order))
    bad_rows = [(), ((sub.gen_rows[0][0],) * group.order,) + sub.gen_rows[1:],
                ((group.order,) + sub.gen_rows[0][1:],) + sub.gen_rows[1:],
                (ident,) + sub.gen_rows[1:]]
    for rows in bad_rows:
        assert not Subgroup(sub.group, sub.members, sub.generators,
                            rows).verify_closed()
    # a member set without the identity
    assert not Subgroup(group, whole[1:], (), ()).verify_closed()


def generator_row_cases():
    """subgroup_cases() and every denominator-2 scan point of B4 Spin/Spin,
    C4 Sp/Sp and D4 Spin/Spin (the origins of B4 and C4: |W_L| = 384)."""
    cases = subgroup_cases()
    for entry in (("B", 4, "Spin", "Spin"), ("C", 4, "Sp", "Sp"),
                  ("D", 4, "Spin", "Spin")):
        iso = classical_isogeny(*entry)
        act = SharedWeylAction(iso)
        b = basic_level(iso).tensor
        cases += [(act, b, row.xi) for row in scan_points(act, b, 2).rows]
    return cases


def cocycle_corruptions(res):
    """c with one value moved: at the identity, at a generator, at the
    last member, and a member's value swapped for another member's."""
    c = res.c_cocycle
    members, gens = res.w_l.members, res.w_l.generators
    unit = (1,) + (0,) * (len(c[members[0]]) - 1)
    out = []
    for w in {res.w_l.group.identity_index, members[-1], *gens[:1]}:
        out.append({**c, w: tuple(x + y for x, y in zip(c[w], unit))})
    other = next((u for u in members if c[u] != c[members[-1]]), None)
    if other is not None:
        out.append({**c, members[-1]: c[other]})
    return out


def test_generator_rows_match_the_table_oracles():
    """The lazy table, the closure check on generator rows and the
    cocycle identity on generator edges against the full-table routes
    they replaced."""
    sizes = set()
    non_closed = 0
    for act, b, xi in generator_row_cases():
        group = act.group
        res = centralizer_cocycle(act, b, xi)
        sub = res.w_l
        members = sub.members
        table = oracle_left_regular_table(group, members, sub.generators)
        assert sub.table == table
        assert sub.verify_closed() and oracle_table_closed(group, members, table)
        assert _holds_on_generator_edges(act, sub, res.c_cocycle)
        assert oracle_dict_identity(act, sub, res.c_cocycle)
        for c in cocycle_corruptions(res):
            assert _holds_on_generator_edges(act, sub, c) == \
                oracle_dict_identity(act, sub, c)
        # member sets next to W_L: one member short, one element over
        e = group.identity_index
        nearby = [members]
        if len(members) > 1:
            nearby.append(tuple(w for w in members if w != members[-1] or w == e))
        outside = next((w for w in range(group.order) if w not in set(members)), None)
        if outside is not None:
            nearby.append(tuple(sorted(members + (outside,))))
        for m in nearby:
            verdict = rows_closed_verdict(group, m)
            assert verdict == oracle_closed_verdict(group, m) == \
                oracle_verify_closed(group, m)
            non_closed += not verdict
        sizes.add(len(members))
    assert {384, 192} <= sizes
    assert non_closed >= 30


# --- Shared stabilizer work: fresh builds for every scan point -------------

# the scan workload's entries with their denominators, and D4 Spin -> PSO at
# denominator 4, whose point (0, 1, 2, 2)/4 has class order 4 over
# W_L = (Z/2)^3
SHARED_WORK_SCANS = (
    [("D", 4, "Spin", "Spin", 1)]
    + [(s, 3, sf, tf, d) for s, sf, tf in (("A", "SL", "SL"), ("B", "Spin", "Spin"),
                                           ("B", "SO", "SO"), ("B", "Spin", "SO"),
                                           ("C", "Sp", "Sp"), ("C", "PSp", "PSp"))
       for d in (2, 4)]
    + [(s, 2, sf, tf, 4) for s, sf, tf in (("A", "SL", "SL"), ("A", "SL", "PGL"),
                                           ("B", "Spin", "Spin"), ("C", "Sp", "Sp"))]
    + [("D", 4, "Spin", "PSO", 4)]
)


def oracle_class_order(res):
    """k, trivial and witness from a Smith factor made for this point
    alone, of the per-entry generator system."""
    gens = res.w_l.generators or (res.w_l.group.identity_index,)
    a, y = oracle_coboundary_system(res, gens)
    system = intlinalg.Smith.of(a)
    k = system.solve(y).min_multiplier
    u = system.solve(tuple(k * x for x in y)).solution
    return k, k == 1, u if k == 1 else None


def test_shared_stabilizer_work_matches_fresh_builds(monkeypatch):
    """Scans from empty caches against the same scans warm: every
    representative's subgroup against generators and rows built afresh
    for its members, its class order against a fresh Smith factor, and a
    repeated stabilizer that builds nothing."""
    monkeypatch.setattr(levels, "_cached_weyl_group", functools.lru_cache(
        maxsize=64)(levels._cached_weyl_group.__wrapped__))
    factors = functools.lru_cache(maxsize=256)(obstruction._generator_factor.__wrapped__)
    monkeypatch.setattr(obstruction, "_generator_factor", factors)
    cases = []
    for series, rank, sf, tf, d in SHARED_WORK_SCANS:
        iso = classical_isogeny(series, rank, sf, tf)
        b = basic_level(iso).tensor
        cold = scan_points(SharedWeylAction(iso), b, d)
        act = SharedWeylAction(iso)
        assert scan_points(act, b, d) == cold
        cases += [(act, b, row) for row in cold.rows]
    assert factors.cache_info().hits > 0
    orders = set()
    for act, b, row in cases:
        group = act.group
        res = centralizer_cocycle(act, b, row.xi)
        w_l = res.w_l
        members = oracle_stabilizer_members(group, row.xi)
        assert w_l.members == members and len(w_l) == row.stabilizer_order
        gens, rows = _generators_and_rows(group, members)
        assert (w_l.generators, w_l.gen_rows) == (gens, rows)
        assert Subgroup(group, members, gens, rows).verify_closed()
        k, trivial, witness = oracle_class_order(res)
        got_k, got_u = obstruction.class_order(res)
        assert got_k == k == row.class_order
        assert (got_k == 1) == trivial == row.trivial
        assert (got_u if got_k == 1 else None) == witness
        orders.add((len(w_l), k))
    # a second sweep to an equal member set, from the same point or one a
    # lattice vector away, finds the subgroup built for the first
    monkeypatch.setattr(weyl, "_generators_and_rows", unreachable_closure_work)
    for act, b, row in cases:
        w_l = stabilizer(act.group, row.xi)
        shift = RatVector.make((row.xi.den,) + (0,) * (len(row.xi) - 1), row.xi.den)
        assert stabilizer(act.group, row.xi + shift) is w_l
        assert stabilizer(act.group, row.xi) is w_l
    assert (8, 4) in orders  # the class order is not bounded by the exponent


def unreachable_closure_work(*args):
    raise AssertionError("a member set met before was built again")


# --- transpose: the index comprehension that zip replaced -----------------


def oracle_transpose(a):
    m = len(a)
    n = len(a[0]) if m else 0
    return tuple(tuple(a[i][j] for i in range(m)) for j in range(n))


def test_transpose_matches_index_comprehension():
    rng = random.Random(1212)
    cases = [(), ((),) * 3, ((5,),)]
    cases += [random_matrix(rng, rng.randint(1, 7), rng.randint(0, 7)) for _ in range(200)]
    for a in cases:
        assert transpose(a) == oracle_transpose(a), a
    for ragged in (((1, 2), (3,)), ((), (1,)), ((1,), (2, 3), (4,))):
        with pytest.raises(DimensionMismatch, match="^ragged matrix$"):
            transpose(ragged)


# --- Smith normal form: the full-scan pivot search that always builds U ---


def oracle_snf(a):
    """Smith normal form as computed before the early exits: the pivot is
    found by scanning the whole remaining submatrix for the first entry of
    least |value| in row-major order, every pivot (units too) is checked
    to divide the rest, and U is always built."""
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def row_op(i1, i2, x, y, p, q):
        for w in (s, u):
            w[i1], w[i2] = (
                [x * aa + y * bb for aa, bb in zip(w[i1], w[i2])],
                [-q * aa + p * bb for aa, bb in zip(w[i1], w[i2])],
            )

    def col_op(j1, j2, x, y, p, q):
        for w in (s, v):
            for row in w:
                aa, bb = row[j1], row[j2]
                row[j1], row[j2] = x * aa + y * bb, -q * aa + p * bb

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = abs(s[i][j])
                if e and (best is None or e < best[0]):
                    best = (e, i, j)
        if best is None:
            break
        _, bi, bj = best
        s[t], s[bi] = s[bi], s[t]
        u[t], u[bi] = u[bi], u[t]
        for w in (s, v):
            for row in w:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, m):
                if s[i][t] == 0:
                    continue
                aa, bb = s[t][t], s[i][t]
                if bb % aa == 0:
                    q = bb // aa
                    s[i] = [w - q * z for w, z in zip(s[i], s[t])]
                    u[i] = [w - q * z for w, z in zip(u[i], u[t])]
                else:
                    g, x, y = xgcd(aa, bb)
                    row_op(t, i, x, y, aa // g, bb // g)
            for j in range(t + 1, n):
                if s[t][j] == 0:
                    continue
                aa, bb = s[t][t], s[t][j]
                if bb % aa == 0:
                    q = bb // aa
                    for w in (s, v):
                        for row in w:
                            row[j] -= q * row[t]
                else:
                    g, x, y = xgcd(aa, bb)
                    col_op(t, j, x, y, aa // g, bb // g)
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            if any(s[t][j] for j in range(t + 1, n)):
                continue
            d = s[t][t]
            culprit = None
            for i in range(t + 1, m):
                if any(s[i][j] % d for j in range(t + 1, n)):
                    culprit = i
                    break
            if culprit is None:
                break
            s[t] = [aa + bb for aa, bb in zip(s[t], s[culprit])]
            u[t] = [aa + bb for aa, bb in zip(u[t], u[culprit])]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return freeze(s), freeze(u), freeze(v)


def assert_snf_matches_oracle(a):
    s, u, v = oracle_snf(a)
    assert snf(a) == (s, u, v), a
    assert snf(a, left=False) == (s, None, v), a
    assert snf(a, right=False) == (s, u, None), a
    assert snf(a, left=False, right=False) == (s, None, None), a
    diag = diagonal(s)
    rank = sum(1 for d in diag if d)
    n = len(v)
    assert kernel_basis(a) == tuple(
        tuple(v[i][j] for i in range(n)) for j in range(rank, n))
    assert cokernel(a) == AbelianInvariants.from_diagonal(diag, len(a) - len(diag))


def unit_rich_matrix(rng, m, n):
    """Sparse entries in {-2..2}: most rows hold several +-1, so the pivot
    search meets ties between units in one row and across rows."""
    return freeze([[rng.choice((0, 0, 0, 1, -1, 2, -2)) for _ in range(n)]
                   for _ in range(m)])


def tall_deferred_matrix(rng, m, n, head):
    """m x n with `head` unit-rich rows first and, after them, rows with
    only even entries mixed with zero rows, copies of head rows and sums
    or differences of two head rows (rows the elimination makes zero):
    with only V built, snf makes the later rows as its search reaches
    them.  A head of n rows that is unimodular reaches full column rank
    before the search passes the later rows."""
    if head == n:
        # unit upper triangular in shuffled order: every row keeps a unit
        # on the diagonal through the elimination, so each step's search
        # stops inside the head
        rows = [[0] * j + [1] + [rng.choice((0, 1, -1, 2)) for _ in range(n - j - 1)]
                for j in range(n)]
        rng.shuffle(rows)
    else:
        rows = [list(r) for r in unit_rich_matrix(rng, head, n)]
    heads = list(rows)
    while len(rows) < m:
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([0] * n)
        elif kind == 1:
            rows.append(list(rng.choice(heads)))
        elif kind == 2:
            x, y = rng.choice(heads), rng.choice(heads)
            sign = rng.choice((1, -1))
            rows.append([p + sign * q for p, q in zip(x, y)])
        else:
            rows.append([2 * rng.randint(-3, 3) for _ in range(n)])
    return freeze(rows)


def snf_oracle_cases():
    rng = random.Random(51)
    cases = [(), ((),) * 3, freeze([[0] * 4] * 3), freeze([[0]] * 5)]
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        cases.append(unit_rich_matrix(rng, m + rng.randint(2, 6), n))  # tall
        cases.append(unit_rich_matrix(rng, m, n + rng.randint(2, 6)))  # wide
        cases.append(random_matrix(rng, m, n, -9, 9))
        cases.append(freeze([[2 * rng.randint(-4, 4) for _ in range(n)]
                             for _ in range(m + 1)]))  # all even, no unit
    for m, n in ((40, 5), (60, 8)):
        for head in (1, n // 2, n - 1, n, n):
            cases.append(tall_deferred_matrix(rng, m, n, head))
    return cases


def test_snf_matches_full_scan_oracle_on_random_matrices():
    cases = snf_oracle_cases()
    assert any(x in (1, -1) for a in cases for row in a for x in row)
    assert any(a and all(x % 2 == 0 for row in a for x in row) and any(map(any, a))
               for a in cases)
    for a in cases:
        assert_snf_matches_oracle(a)


def test_snf_without_u_never_reads_rows_past_full_column_rank():
    # the identity first: with only V built, the search finds its pivots
    # in the first n rows and the loop ends, so the later rows are never
    # read; they are zero rows of S.  With U built every row is read.
    class Unreadable(tuple):
        def __iter__(self):
            raise AssertionError("a row past full column rank was read")

        def __getitem__(self, key):
            raise AssertionError("a row past full column rank was read")

    n = 5
    a = identity(n) + (Unreadable((0,) * n),) * 35
    assert snf(a, left=False) == (identity(n) + ((0,) * n,) * 35, None, identity(n))
    assert kernel_basis(a) == ()
    with pytest.raises(AssertionError, match="past full column rank"):
        snf(a, right=False)


def recorded_snf_inputs(monkeypatch, fn, *args):
    """Run fn(*args) and return every matrix it handed to intlinalg.snf."""
    seen = []
    real = intlinalg.snf

    def recording(a, left=True, right=True):
        seen.append(a)
        return real(a, left=left, right=right)

    with monkeypatch.context() as mp:
        mp.setattr(intlinalg, "snf", recording)
        fn(*args)
    return seen


def workload_cert_points():
    """The certificate points of the benchmark's cohomology workload, read
    from perfbench/workloads.py, in reference coordinates."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", "perfbench/workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    for series, rank, sf, tf, point, count in wl.CERT_POINTS:
        for xi in wl._weyl_conjugates(series, point, count):
            yield (series, rank, sf, tf), xi


def test_snf_matches_full_scan_oracle_on_certificate_h1(monkeypatch):
    points = list(workload_cert_points())
    assert len(points) == 18
    shapes = set()
    for entry, xi in points:
        iso = classical_isogeny(*entry)
        act = SharedWeylAction(iso)
        pt = iso.target.cochar_coords_q(RatVector.from_fractions(xi))
        res = centralizer_cocycle(act, basic_level(iso).tensor, pt)
        for a in recorded_snf_inputs(monkeypatch, h1_group_lattice, res.w_l,
                                     act.source_char_action, res.c_cocycle):
            assert_snf_matches_oracle(a)
            shapes.add((len(a), len(a[0]) if a else 0))
    assert (1024, 64) in shapes  # the D4 certificate's delta^1


@pytest.mark.parametrize("name", ACTION_FIXTURES)
def test_snf_matches_full_scan_oracle_on_equivariant_coboundaries(monkeypatch, name):
    act = FiniteAction.from_json_dict(load_fixture(name))
    for n in range(4):
        inputs = recorded_snf_inputs(monkeypatch, equivariant_cohomology, act, n)
        assert inputs
        for a in inputs:
            assert_snf_matches_oracle(a)


# --- elementary divisors vs subquotient, wherever nothing is located -------


def subquotient_equivariant(act, n):
    """H^n of the equivariant complex by the three-factorisation route:
    the cocycle kernel on the free cover, the placement solves and the
    relation Smith form."""
    d_out, n_here, n_next = _equivariant_matrices(act, n, 10**6)
    d_in = _equivariant_matrices(act, n - 1, 10**6)[0] if n else ()
    group = act.coefficients
    return subquotient(n_here, d_out, _relations(n_next, group), d_in,
                       _relations(n_here, group))[0]


def generated_workload_actions():
    """(key, action, degree) for every generated equivariant fixture of the
    benchmark's cohomology workload, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", "perfbench/workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    for item in wl.universe("cohomology"):
        if item["argv"][0] == "equivariant" and item["files"]:
            (fx,) = item["files"].values()
            degree = int(item["argv"][item["argv"].index("--degree") + 1])
            yield item["key"], FiniteAction.from_json_dict(fx), degree


@pytest.mark.parametrize("name", ACTION_FIXTURES)
def test_divisor_route_matches_subquotient_on_bundled_actions(name):
    act = FiniteAction.from_json_dict(load_fixture(name))
    for n in range(4):
        assert equivariant_cohomology(act, n) == subquotient_equivariant(act, n), n


def test_divisor_route_matches_subquotient_on_generated_workload_actions():
    cases = list(generated_workload_actions())
    assert len(cases) == 39
    labels = set()
    for key, act, degree in cases:
        labels.add(act.coefficients.label())
        for n in range(degree + 1):
            got = equivariant_cohomology(act, n)
            assert got == subquotient_equivariant(act, n), (key, n)
    assert labels >= {"Z", "Z/2", "Z/3", "Z/4", "Z/5", "Z/6"}


def test_resolution_matches_the_bar_builder_on_generated_workload_actions():
    # every point and circle action the benchmark draws, in every degree up
    # to the one it asks for
    shapes, labels = set(), set()
    for key, act, degree in generated_workload_actions():
        shapes.add(key.split(" coeff=")[0])
        labels.add((act.coefficients.label(), "action=sign" in key))
        for n in range(degree + 1):
            assert equivariant_cohomology(act, n) == bar_cohomology(act, n), (key, n)
    assert shapes >= {f"equivariant cyclic n={n} point" for n in range(2, 7)} | {
        "equivariant dihedral k=3 point", "equivariant dihedral k=4 point",
        "equivariant cyclic n=3 circle", "equivariant cyclic n=4 circle"}
    assert {("Z", True), ("Z/3", True), ("Z/2", False), ("Z/6", True)} <= labels


@pytest.mark.parametrize("label", ["Z", "Z/2", "Z/3", "Z/4", "Z/6", "Z/9"])
def test_divisor_route_matches_subquotient_on_point_actions(label):
    # Z/4 by its generator, and the dihedral group of order 6 with the
    # reflections, acting trivially or by -1
    coeff = parse_group_label(label)
    torsion = set()
    for table, signs in ((cyclic_group(4), [1, -1, 1, -1]),
                         (dihedral_group(3), [1, 1, 1, -1, -1, -1])):
        for sign in (False, True):
            mats = [((s if sign else 1,),) for s in signs]
            act = point_action(table, coeff, mats)
            for n in range(3):
                got = equivariant_cohomology(act, n)
                assert got == subquotient_equivariant(act, n), (table, sign, n)
                torsion.update(got.torsion)
    assert torsion  # every coefficient group meets some torsion


@pytest.mark.parametrize("name", NERVE_FIXTURES)
def test_divisor_route_matches_subquotient_on_cech_complexes(name):
    nerve = fixture_nerve(name)
    for label in ("Z+Z/6", "Z/2+Z/4"):
        group = parse_group_label(label)
        for p in range(nerve.dim + 1):
            expect = subquotient(*_cech_presentation(nerve, p, group))[0]
            assert cohomology(nerve, p, group) == expect, (label, p)


def test_divisor_route_refuses_coboundaries_that_do_not_compose_to_zero():
    nerve = octahedron_nerve()
    d_out, d_in = _cech_matrix(nerve, 1, 1), _cech_matrix(nerve, 0, 1)
    n = len(nerve.level(1))
    assert divisor_cohomology(n, d_out, d_in, (0, 6)) == \
        subquotient(*_cech_presentation(nerve, 1, parse_group_label("Z+Z/6")))[0]
    j = next(j for j, x in enumerate(d_out[0]) if x)
    broken = (d_out[0][:j] + (2 * d_out[0][j],) + d_out[0][j + 1:],) + d_out[1:]
    with pytest.raises(ValueError, match="do not compose to zero"):
        divisor_cohomology(n, broken, d_in, (0,))


def test_invariant_factors_match_smith_form_of_the_diagonal():
    rng = random.Random(911)
    for _ in range(200):
        orders = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 25, 36))
                  for _ in range(rng.randint(0, 6))]
        diag = freeze([[c if i == j else 0 for j in range(len(orders))]
                       for i, c in enumerate(orders)])
        assert invariant_factors(orders) == cokernel(diag).torsion, orders


# --- Finite-group inputs: the exhaustive checks the generator checks ------
# --- replaced ----------------------------------------------------------------


def oracle_table_error(table):
    """The exhaustive validation of a multiplication table: its error, or
    None.  The identity and the inverses are searched for in full, and
    associativity is checked on all n^3 triples."""
    n = len(table)
    for row in table:
        if len(row) != n or any(x < 0 or x >= n for x in row):
            return "malformed multiplication table"
    e = next((x for x in range(n)
              if all(table[x][y] == y and table[y][x] == y for y in range(n))), None)
    if e is None:
        return "table has no identity element"
    for a in range(n):
        if not any(table[a][b] == e and table[b][a] == e for b in range(n)):
            return f"element {a} has no inverse"
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a, b, c in itertools.product(range(n), repeat=3)):
        return "table is not associative"
    return None


def oracle_cocycle_failures(table, coeff, psi):
    """Every triple where the 2-cocycle identity fails, over all |G|^3
    triples with a reduce per value read."""
    n = len(table)

    def val(a, b):
        return coeff.reduce(psi.get((a, b), coeff.zero()))

    return [(g1, g2, g3) for g1, g2, g3 in itertools.product(range(n), repeat=3)
            if coeff.add(val(g2, g3), val(g1, table[g2][g3]))
            != coeff.add(val(table[g1][g2], g3), val(g1, g2))]


def oracle_extension_table(table, coeff, psi):
    """The extension's table cell by cell, each sum reduced and looked up."""
    n = len(table)
    elems = [(a, g) for a in coeff.elements() for g in range(n)]
    pos = {x: i for i, x in enumerate(elems)}

    def val(a, b):
        return coeff.reduce(psi.get((a, b), coeff.zero()))

    return tuple(tuple(pos[(coeff.add(coeff.add(a1, a2), val(g1, g2)),
                            table[g1][g2])] for (a2, g2) in elems)
                 for (a1, g1) in elems)


def oracle_action_error(table, nerve, coeff, perms, mats):
    """The exhaustive validation of an action: its error, or None.  Every
    element's matrix is an automorphism, every pair composes, and every
    element's vertex map preserves the nerve."""
    n, nv = len(table), nerve.n_vertices
    if any(sorted(p) != list(range(nv)) for p in perms):
        return "vertex map is not a permutation"
    if not all(coeff.is_automorphism(m) for m in mats):
        return "coefficient action is not an automorphism"
    e = next(x for x in range(n) if table[x] == tuple(range(n)))
    if perms[e] != tuple(range(nv)):
        return "identity must act trivially on vertices"
    if mats[e] != identity(coeff.size):
        return "identity must act trivially on coefficients"
    for a, b in itertools.product(range(n), repeat=2):
        ab = table[a][b]
        if tuple(perms[a][perms[b][v]] for v in range(nv)) != perms[ab]:
            return "vertex action is not a homomorphism"
        if matmul(mats[a], mats[b]) != mats[ab]:
            return "coefficient action is not a homomorphism"
    for p in perms:
        for level in nerve.simplices:
            if any(tuple(sorted(p[v] for v in s)) not in level for s in level):
                return "action does not preserve the nerve"
    return None


S3_PERMS = tuple(itertools.permutations(range(3)))
S3 = tuple(tuple(S3_PERMS.index(tuple(p[i] for i in q)) for q in S3_PERMS)
           for p in S3_PERMS)
KLEIN = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
SMALL_GROUPS = {"Z/4": cyclic_group(4).table, "Klein": KLEIN, "S3": S3}


def _table_error(table):
    try:
        FiniteGroupTable(table)
    except cech.CechError as err:
        return str(err)
    return None


def _with_entry(rows, i, j, value):
    rows = [list(r) for r in rows]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def _reduced_latin_squares(n):
    """Every n x n Latin square with first row and column 0..n-1: the
    tables on n elements with identity 0 in which every equation has one
    solution.  The groups among them are the associative ones."""
    out = []

    def extend(rows, row):
        i, j = len(rows), len(row)
        if j == n:
            rows = rows + [tuple(row)]
            if len(rows) == n:
                out.append(tuple(rows))
            else:
                extend(rows, [len(rows)])
            return
        for v in range(n):
            if v not in row and all(r[j] != v for r in rows):
                extend(rows, row + [v])

    extend([tuple(range(n))], [1])
    return out


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_light_test_refuses_every_corruption_the_triple_check_refuses(name):
    table = SMALL_GROUPS[name]
    n = len(table)
    assert _table_error(table) is None
    assert oracle_table_error(table) is None
    refused_by_associativity = 0
    for i, j in itertools.product(range(n), repeat=2):
        for value in range(-1, n + 1):
            if value == table[i][j]:
                continue
            bad = _with_entry(table, i, j, value)
            expect = oracle_table_error(bad)
            assert _table_error(bad) == expect, (name, i, j, value)
            refused_by_associativity += expect == "table is not associative"
    # corruptions off the inverse positions reach the associativity check
    assert refused_by_associativity


@pytest.mark.parametrize("n", [4, 5, 6])
def test_light_test_sorts_the_loops_like_the_triple_check(n):
    # the tables of loops have an identity; those whose elements have
    # two-sided inverses reach Light's test, and only the tables of groups
    # pass it: Z/5 six times among the 56 of order 5, Z/6 and S3 80 times
    # among the 9408 of order 6
    loops = _reduced_latin_squares(n)
    assert len(loops) == {4: 4, 5: 56, 6: 9408}[n]
    verdicts = [_table_error(t) for t in loops]
    assert verdicts == [oracle_table_error(t) for t in loops]
    assert verdicts.count(None) == {4: 4, 5: 6, 6: 80}[n]
    assert verdicts.count("table is not associative") == {4: 0, 5: 2, 6: 1728}[n]


def _carry(n, k):
    """k times the carry cocycle of Z/n: psi(a, b) = k when a + b >= n."""
    return {(a, b): (k,) for a in range(n) for b in range(n) if a + b >= n}


def _coboundary_shift(table, psi, coeff, eta):
    """psi + d eta, for a 1-cochain eta with eta(identity) = 0."""
    n = len(table)
    out = {}
    for a, b in itertools.product(range(n), repeat=2):
        base = coeff.reduce(psi.get((a, b), coeff.zero()))
        v = coeff.reduce(tuple(x + y - z - w for x, y, z, w in zip(
            base, eta[table[a][b]], eta[a], eta[b])))
        if any(v):
            out[(a, b)] = v
    return out


def _normalised_cocycles():
    """(name, group, coefficients, psi): cocycles on Z/4 and S3, each also
    shifted by a coboundary."""
    rng = random.Random(2303)
    sign = [sum(p[j] > p[i] for i in range(3) for j in range(i)) % 2
            for p in S3_PERMS]
    cases = [
        ("Z/4 carry in Z/4", cyclic_group(4), parse_group_label("Z/4"), _carry(4, 1)),
        ("Z/4 carry in Z/2+Z/2", cyclic_group(4), parse_group_label("Z/2+Z/2"),
         {k: (1, 1) for k in _carry(4, 1)}),
        ("S3 sign cup sign in Z/2", FiniteGroupTable(S3), parse_group_label("Z/2"),
         {(a, b): (1,) for a in range(6) for b in range(6) if sign[a] and sign[b]}),
        ("S3 zero in Z/3", FiniteGroupTable(S3), parse_group_label("Z/3"), {}),
    ]
    out = []
    for name, group, coeff, psi in cases:
        out.append((name, group, coeff, psi))
        eta = [coeff.zero()] + [tuple(rng.randrange(d) for d in coeff.torsion)
                                for _ in range(group.n - 1)]
        out.append((name + " + d eta", group, coeff,
                    _coboundary_shift(group.table, psi, coeff, eta)))
    return out


COCYCLES = _normalised_cocycles()


@pytest.mark.parametrize("case", COCYCLES, ids=[c[0] for c in COCYCLES])
def test_generator_cocycle_check_refuses_what_the_triple_check_refuses(case):
    name, group, coeff, psi = case
    assert oracle_cocycle_failures(group.table, coeff, psi) == []
    assert check_two_cocycle(group, coeff, psi) is None
    ext = cech.central_extension_from_cocycle(group, coeff, psi)
    assert ext.table.table == oracle_extension_table(group.table, coeff, psi)
    e = group.identity
    for g1, g2 in itertools.product(range(group.n), repeat=2):
        for value in coeff.elements():
            old = coeff.reduce(psi.get((g1, g2), coeff.zero()))
            if value == old:
                continue
            bad = dict(psi)
            bad[(g1, g2)] = value
            if e in (g1, g2):
                with pytest.raises(cech.CechError, match="not normalized"):
                    check_two_cocycle(group, coeff, bad)
                continue
            failures = oracle_cocycle_failures(group.table, coeff, bad)
            found = check_two_cocycle(group, coeff, bad)
            assert (found is None) == (not failures), (name, g1, g2, value)
            assert found is None or found in failures
            assert found is None or found[1] in group.generators


def _s3_on_triangle(coeff_label):
    """S3 permuting the vertices of the hollow triangle and the summands
    of the coefficients by permutation matrices."""
    perms = S3_PERMS
    mats = tuple(tuple(tuple(int(i == p[j]) for j in range(3)) for i in range(3))
                 for p in perms)
    return (S3, circle_nerve(3), parse_group_label(coeff_label), perms, mats)


def _klein_on_a_point():
    """The Klein four-group acting on Z^2 by the four sign changes."""
    mats = tuple(((1 - 2 * (g & 1), 0), (0, 1 - 2 * (g >> 1))) for g in range(4))
    return (KLEIN, simplex_cone_nerve(1), parse_group_label("Z^2"), ((0,),) * 4, mats)


ACTIONS = {"S3 on Z^3": _s3_on_triangle("Z^3"),
           "S3 on (Z/2)^3": _s3_on_triangle("Z/2+Z/2+Z/2"),
           "Klein on Z^2": _klein_on_a_point()}


def _action_error(table, nerve, coeff, perms, mats):
    try:
        FiniteAction(FiniteGroupTable(table), nerve, coeff, perms, mats)
    except cech.CechError as err:
        return str(err)
    return None


def _corrupt_actions(table, nerve, coeff, perms, mats):
    """(perms, mats) with one matrix entry changed, or one vertex map with
    two images swapped, in every way."""
    for g, m in enumerate(mats):
        for i, j in itertools.product(range(len(m)), repeat=2):
            for value in (-1, 0, 1, 2):
                if value != m[i][j]:
                    yield perms, mats[:g] + (_with_entry(m, i, j, value),) + mats[g + 1:]
    for g, p in enumerate(perms):
        for u, v in itertools.combinations(range(len(p)), 2):
            q = list(p)
            q[u], q[v] = q[v], q[u]
            yield perms[:g] + (tuple(q),) + perms[g + 1:], mats


@pytest.mark.parametrize("name", ACTIONS)
def test_generator_edge_action_check_refuses_what_the_pair_check_refuses(name):
    table, nerve, coeff, perms, mats = ACTIONS[name]
    assert _action_error(*ACTIONS[name]) is None
    assert oracle_action_error(*ACTIONS[name]) is None
    group = FiniteGroupTable(table)
    seen = set()
    for bad_perms, bad_mats in _corrupt_actions(*ACTIONS[name]):
        expect = oracle_action_error(table, nerve, coeff, bad_perms, bad_mats)
        got = _action_error(table, nerve, coeff, bad_perms, bad_mats)
        assert (got is None) == (expect is None), (name, expect, got)
        seen.add(expect)
        if got != expect:
            # a non-automorphism outside the generators is caught on a
            # generator edge, or as the identity's matrix
            [g] = [g for g in range(group.n) if bad_mats[g] != mats[g]]
            assert g not in group.generators
            assert expect == "coefficient action is not an automorphism"
            assert got == ("identity must act trivially on coefficients"
                           if g == group.identity else
                           "coefficient action is not a homomorphism")
    assert {"coefficient action is not an automorphism",
            "coefficient action is not a homomorphism"} <= seen
    assert nerve.n_vertices == 1 or "vertex action is not a homomorphism" in seen


def test_generator_checks_match_on_every_assignment_of_the_generators():
    # the Klein four-group, its generators 1 and 2 sent to any two vertex
    # permutations of the path 0 - 1 - 2, or to any two signed permutation
    # matrices on Z^2, and 3 to their product: an action that fails only
    # on the edges of the second generator must be refused too, and the
    # homomorphisms that move an edge off the path are refused on a
    # generator
    klein = FiniteGroupTable(KLEIN)
    assert klein.generators == (1, 2)
    path = nerve_from_maximal(3, [(0, 1), (1, 2)])
    z, z2 = parse_group_label("Z"), parse_group_label("Z^2")
    verdicts = set()
    for p1, p2 in itertools.product(S3_PERMS, repeat=2):
        case = (KLEIN, path, z, (S3_PERMS[0], p1, p2, tuple(p1[v] for v in p2)),
                (((1,),),) * 4)
        expect = oracle_action_error(*case)
        assert _action_error(*case) == expect, case
        verdicts.add(expect)
    signed = [tuple(tuple(sign[i] * (i == perm[j]) for j in range(2))
                    for i in range(2))
              for perm in itertools.permutations(range(2))
              for sign in itertools.product((1, -1), repeat=2)]
    for m1, m2 in itertools.product(signed, repeat=2):
        case = (KLEIN, simplex_cone_nerve(1), z2, ((0,),) * 4,
                (identity(2), m1, m2, matmul(m1, m2)))
        expect = oracle_action_error(*case)
        assert _action_error(*case) == expect, case
        verdicts.add(expect)
    assert verdicts == {None, "vertex action is not a homomorphism",
                        "coefficient action is not a homomorphism",
                        "action does not preserve the nerve"}


def test_generator_cocycle_check_on_every_normalised_cochain():
    # all 2^9 normalised 2-cochains of the Klein four-group in Z/2: a
    # cochain that fails the identity only with the second generator in
    # the middle must be refused too
    klein = FiniteGroupTable(KLEIN)
    z2 = parse_group_label("Z/2")
    pairs = list(itertools.product(range(1, 4), repeat=2))
    verdicts = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        psi = {pair: (b,) for pair, b in zip(pairs, bits) if b}
        failures = oracle_cocycle_failures(KLEIN, z2, psi)
        found = check_two_cocycle(klein, z2, psi)
        assert (found is None) == (not failures), psi
        assert found is None or found in failures
        verdicts.append(found is None)
    # |Z^2| = |H^2| |B^2| = 8 * 2: H^2(V4, Z/2) = (Z/2)^3, and B^2 is the
    # image of the 2^3 normalised 1-cochains, whose kernel Hom(V4, Z/2)
    # has order 4
    assert verdicts.count(True) == 16


# --- Greedy generators: the two loops that intlinalg._greedy_generators replaced


def oracle_table_generators(table, e):
    """The greedy generating set FiniteGroupTable took from its own loop:
    the closure grown along table rows, as sets."""
    gens = []
    have = {e}
    for a, row in enumerate(table):
        if a in have:
            continue
        gens.append(a)
        frontier = {row[b] for b in have} - have
        while frontier:
            have |= frontier
            frontier = {table[s][f] for f in frontier for s in gens} - have
        if len(have) == len(table):
            break
    return tuple(gens)


def oracle_generators_and_rows(group, members):
    """The greedy generators and rows weyl._generators_and_rows took from
    its own loop: the closure grown on positions, as lists."""
    pos = {w: a for a, w in enumerate(members)}
    gens = []
    rows = []
    have = {pos[group.identity_index]}
    for a, i in enumerate(members):
        if a in have:
            continue
        try:
            row = tuple(pos[group.mult(i, w)] for w in members)
        except KeyError:
            raise ValueError("not closed") from None
        gens.append(i)
        rows.append(row)
        new = [b for b in map(row.__getitem__, have) if b not in have]
        have.update(new)
        while new:
            nxt = []
            for f in new:
                for r in rows:
                    if r[f] not in have:
                        have.add(r[f])
                        nxt.append(r[f])
            new = nxt
        if len(have) == len(members):
            break
    return tuple(gens), tuple(rows)


def fixture_group_tables():
    """The group of every fixture that names one, and the central
    extension each extension fixture defines."""
    for path in sorted(glob.glob("fixtures/*.json")):
        with open(path) as fh:
            data = json.load(fh)
        group = data.get("group") if isinstance(data, dict) else None
        if group is None:
            continue
        if "cyclic" in group:
            table = cyclic_group(group["cyclic"])
        else:
            table = FiniteGroupTable.from_json_dict(group)
        yield table
        if "psi" in data:
            psi = {tuple(e["pair"]): tuple(e["value"]) for e in data["psi"]}
            try:
                yield cech.central_extension_from_cocycle(
                    table, parse_group_label(data["coefficients"]), psi).table
            except cech.CechError:
                pass


def workload_scan_entries():
    """The scan workload's entries with their denominators, read from
    perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", "perfbench/workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl.SCAN_RANK4 + wl.SCAN_RANK3 + wl.SCAN_RANK2


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "not closed"


def test_greedy_generators_match_the_loops_they_replace():
    """Generators feed certificate witnesses, so the shared routine must
    pick the same ones, in the same order, as each loop it replaced: on
    the fixture tables, and on every stabilizer the benchmark's scans
    build, both as a subgroup of W and as a table; with a non-member
    added, closed or not, both routes agree too."""
    tables = list(fixture_group_tables())
    assert len(tables) == 9
    for t in tables:
        assert t.generators == oracle_table_generators(t.table, t.identity)
    seen = set()
    for series, rank, sf, tf, d in workload_scan_entries():
        iso = classical_isogeny(series, rank, sf, tf)
        act = SharedWeylAction(iso)
        group = act.group
        for row in scan_points(act, basic_level(iso).tensor, d).rows:
            sub = stabilizer(group, row.xi)
            expect = oracle_generators_and_rows(group, sub.members)
            assert (sub.generators, sub.gen_rows) == expect
            assert _generators_and_rows(group, sub.members) == expect
            # the first non-member, none when W_L = W
            extra = next((w for w in range(len(group)) if w not in sub.members), None)
            if extra is not None:
                grown = tuple(sorted(sub.members + (extra,)))
                assert (outcome(_generators_and_rows, group, grown)
                        == outcome(oracle_generators_and_rows, group, grown))
            if (iso.target.name, sub.members) not in seen:
                seen.add((iso.target.name, sub.members))
                t = FiniteGroupTable(sub.table)
                assert t.generators == oracle_table_generators(t.table, t.identity)
    assert len(seen) >= 40
