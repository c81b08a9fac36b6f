import random

import pytest

from gerbelevels.intlinalg import (
    AbelianInvariants,
    DimensionMismatch,
    RatVector,
    Smith,
    det,
    diagonal,
    freeze,
    hnf,
    hnf_basis,
    hnf_contains,
    identity,
    kernel_basis,
    matmul,
    matvec,
    snf,
    solve_z,
)

from helpers import cokernel, lattice_contains, lattices_equal, quotient_invariants


def random_matrix(rng, m, n, lo=-9, hi=9):
    return freeze([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def is_row_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        pivots.append(nz[0])
        assert row[nz[0]] > 0
    seen_zero = False
    prev = -1
    for p in pivots:
        if p is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert p > prev, "pivot columns must strictly increase"
        prev = p
    # entries above each pivot are reduced into [0, pivot)
    for i, p in enumerate(pivots):
        if p is None:
            continue
        d = h[i][p]
        for r in range(i):
            assert 0 <= h[r][p] < d


# --- hnf ----------------------------------------------------------------


def spans_same_lattice(a, h):
    """Every row of either matrix lies in the row lattice of the other,
    decided by the Smith-based lattice_contains."""
    for x, y in ((a, h), (h, a)):
        rows = tuple(r for r in y if any(r))
        for v in x:
            assert lattice_contains(rows, v) if rows else not any(v)


def test_hnf_identity():
    a = identity(3)
    assert hnf(a) == a


def test_hnf_zero():
    a = freeze([[0, 0], [0, 0]])
    assert hnf(a) == a


def test_hnf_staircase_example():
    # row-operation oracle: gcd(2,6)=2 pivot, second pivot 4
    a = freeze([[2, 4], [6, 8]])
    h = hnf(a)
    assert h == freeze([[2, 0], [0, 4]])
    is_row_hnf(h)
    spans_same_lattice(a, h)


def test_hnf_random_properties():
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        h = hnf(a)
        assert len(h) == m
        is_row_hnf(h)
        spans_same_lattice(a, h)


# --- snf ----------------------------------------------------------------


def test_snf_identity():
    a = identity(4)
    s, u, v = snf(a)
    assert s == a and u == a and v == a


def test_snf_diag_2_3():
    # gcd oracle: invariant factors of diag(2,3) are (1, 6)
    a = freeze([[2, 0], [0, 3]])
    s, u, v = snf(a)
    assert diagonal(s) == (1, 6)
    assert matmul(matmul(u, a), v) == s


def test_snf_single_entry():
    a = freeze([[2]])
    s, u, v = snf(a)
    assert s == freeze([[2]])
    assert u == freeze([[1]])
    assert v == freeze([[1]])


def test_snf_random_properties():
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        s, u, v = snf(a)
        assert matmul(matmul(u, a), v) == s
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = diagonal(s)
        assert all(d >= 0 for d in diag)
        for d1, d2 in zip(diag, diag[1:]):
            if d1:
                assert d2 % d1 == 0
            else:
                assert d2 == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0


# --- solve_z ------------------------------------------------------------


def test_solve_simple():
    res = solve_z(freeze([[2]]), (4,))
    assert res.solution == (2,)
    assert res.kernel == ()
    assert res.min_multiplier == 1


def test_solve_unsolvable_multiplier():
    res = solve_z(freeze([[2]]), (3,))
    assert res.solution is None
    assert res.min_multiplier == 2


def test_solve_kernel_line():
    res = solve_z(freeze([[1, 1]]), (0,))
    assert res.solution == (0, 0)
    assert len(res.kernel) == 1
    k = res.kernel[0]
    assert k in ((1, -1), (-1, 1))
    # enumeration oracle: every solution in a small box lies on the span of k
    for x in range(-2, 3):
        for y in range(-2, 3):
            if x + y == 0:
                assert x * k[1] == y * k[0]


def test_solve_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_z(freeze([[1, 2], [3, 4]]), (1,))


def test_smith_without_left_transform():
    a = freeze([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    full = Smith.of(a)
    bare = Smith.of(a, left=False)
    assert bare.u is None and bare.rows == full.rows == 3
    assert (bare.diag, bare.rank, bare.v) == (full.diag, full.rank, full.v)
    assert bare.kernel() == full.kernel()
    with pytest.raises(ValueError, match="left transform"):
        bare.reduce((1, 0, 0))
    with pytest.raises(ValueError, match="left transform"):
        bare.solve((1, 0, 0))
    with pytest.raises(DimensionMismatch):
        full.reduce((1, 0))


def test_solve_random_roundtrip():
    rng = random.Random(5150)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -5, 5)
        x = tuple(rng.randint(-4, 4) for _ in range(n))
        y = matvec(a, x)
        res = solve_z(a, y)
        assert res.solution is not None
        assert matvec(a, res.solution) == y
        for kvec in res.kernel:
            assert matvec(a, kvec) == (0,) * m
        # kernel basis independence: stack as rows, rank must equal count
        if res.kernel:
            s, _, _ = snf(freeze(res.kernel))
            assert sum(1 for d in diagonal(s) if d) == len(res.kernel)


def test_min_multiplier_feeds_solvable_system():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        a = random_matrix(rng, m, n, -4, 4)
        y = tuple(rng.randint(-4, 4) for _ in range(m))
        res = solve_z(a, y)
        if res.solution is None and res.min_multiplier is not None:
            k = res.min_multiplier
            assert k > 1
            scaled = solve_z(a, tuple(k * t for t in y))
            assert scaled.solution is not None
            for smaller in range(1, k):
                assert solve_z(a, tuple(smaller * t for t in y)).solution is None


# --- cokernel -----------------------------------------------------------


def test_cokernel_examples():
    assert cokernel(freeze([[2, 0], [0, 3]])) == AbelianInvariants(0, (6,))
    assert cokernel(freeze([[0]])) == AbelianInvariants(1, ())
    assert cokernel(identity(3)) == AbelianInvariants(0, ())


def test_cokernel_unimodular_invariance():
    rng = random.Random(31337)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, -6, 6)
        base = cokernel(a)
        # random unimodular factors built from SNF transforms of random mats
        _, u1, v1 = snf(random_matrix(rng, m, m, -3, 3))
        _, u2, v2 = snf(random_matrix(rng, n, n, -3, 3))
        for left in (u1, v1):
            for right in (u2, v2):
                assert cokernel(matmul(matmul(left, a), right)) == base


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    assert AbelianInvariants(2, (2, 6)).label() == "Z^2 + Z/2 + Z/6"
    assert AbelianInvariants(0, ()).label() == "0"
    assert AbelianInvariants(0, (5,)).order() == 5
    assert AbelianInvariants(1, ()).order() is None


# --- lattices -----------------------------------------------------------


def test_lattice_equality_and_membership():
    b1 = freeze([[2, 0], [0, 2]])
    b2 = freeze([[2, 2], [2, -2]])
    assert not lattices_equal(b1, b2)
    assert lattices_equal(b1, freeze([[2, 2], [0, 2], [2, 0]]))
    assert lattice_contains(b1, (4, 6))
    assert not lattice_contains(b1, (1, 0))
    assert hnf_basis(freeze([[0, 0], [3, 3]])) == freeze([[3, 3]])


def test_hnf_contains_matches_smith_membership():
    # membership read off a Hermite basis, against the Smith-based
    # lattice_contains: lattice vectors, their halves and random vectors,
    # on ranks from 0 to full
    rng = random.Random(30)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(0, 4), n, -4, 4)
        h = hnf_basis(a)
        rows = tuple(r for r in a if any(r))
        for _ in range(6):
            coef = [rng.randint(-3, 3) for _ in a]
            v = tuple(sum(c * r[j] for c, r in zip(coef, a)) for j in range(n))
            for w in (v, tuple(x // 2 for x in v),
                      tuple(rng.randint(-6, 6) for _ in range(n))):
                expect = lattice_contains(rows, w) if rows else not any(w)
                assert hnf_contains(h, w) == expect, (a, w)


def test_quotient_invariants():
    amb = identity(2)
    sub = freeze([[2, 0], [0, 3]])
    assert quotient_invariants(amb, sub) == AbelianInvariants(0, (6,))
    assert quotient_invariants(amb, freeze([[1, 0]])) == AbelianInvariants(1, ())
    with pytest.raises(ValueError):
        quotient_invariants(freeze([[2, 0], [0, 2]]), freeze([[1, 1]]))


def test_kernel_mod2():
    # the x with a x even, as the evenness filter reads them: the first
    # entries of the integer kernel of [a | -2I]
    a = freeze([[1, 1, 0], [0, 1, 1]])
    basis = tuple(v[:3] for v in kernel_basis(freeze([[1, 1, 0, -2, 0],
                                                      [0, 1, 1, 0, -2]])))
    assert hnf_basis(basis) == hnf_basis(((1, 1, 1), (2, 0, 0), (0, 2, 0)))
    for v in basis:
        assert all(x % 2 == 0 for x in matvec(a, v))


def test_kernel_basis_saturated():
    a = freeze([[2, 4]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    # saturated: the primitive vector (2, -1), not a multiple
    v = basis[0]
    assert abs(v[0] * 1 - 0) >= 0
    from math import gcd

    assert gcd(v[0], v[1]) == 1
    assert 2 * v[0] + 4 * v[1] == 0


# --- RatVector ----------------------------------------------------------


def test_ratvector_normalization():
    v = RatVector.make([2, 4], 6)
    assert v == RatVector((1, 2), 3)
    w = RatVector.make([1, -1], -2)
    assert w == RatVector((-1, 1), 2)
    with pytest.raises(ValueError):
        RatVector((2, 2), 2)
    with pytest.raises(ValueError):
        RatVector.make([1], 0)


def test_ratvector_make_reduces_once(monkeypatch):
    # make stores the vector it has just reduced without the constructor's
    # check, which still refuses an unreduced vector given directly
    def unreachable(*args):
        raise AssertionError("make ran the constructor's check")

    with monkeypatch.context() as m:
        m.setattr(RatVector, "__init__", unreachable)
        v = RatVector.make([2, -4], -6)
    assert (v.nums, v.den) == ((-1, 2), 3)
    assert v == RatVector((-1, 2), 3) and hash(v) == hash(RatVector((-1, 2), 3))
    with pytest.raises(ValueError, match="RatVector not reduced"):
        RatVector((2, -4), 6)


def test_ratvector_make_matches_fractions():
    # make stops its gcd scan once the gcd is 1; every entry still comes
    # out as the reduced fraction, early units and trailing multiples alike
    from fractions import Fraction

    rng = random.Random(30)
    for _ in range(400):
        den = rng.choice([1, 2, 3, 4, 6, 12, -1, -4, -6])
        nums = [rng.choice([0, 1, -1, 2, -3, 4, 6, -12, 24])
                for _ in range(rng.randint(0, 7))]
        v = RatVector.make(nums, den)
        assert v.fractions() == tuple(Fraction(x, den) for x in nums)
        assert v == RatVector(v.nums, v.den)


def test_ratvector_arithmetic():
    a = RatVector.make([1, 0], 2)
    b = RatVector.make([1, 1], 3)
    assert (a + b) == RatVector((5, 2), 6)
    assert (a - a) == RatVector((0, 0), 1)
    assert a.scale(2) == RatVector((1, 0), 1)
    assert a.scale(2).is_integral
    assert RatVector.from_fractions(a.fractions()) == a


def test_ratvector_denominator_divides_under_integer_matrix():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 4)
        den = rng.choice([1, 2, 3, 4, 6])
        v = RatVector.make([rng.randint(-6, 6) for _ in range(n)], den)
        m = random_matrix(rng, n, n, -3, 3)
        assert v.den % RatVector.make(matvec(m, v.nums), v.den).den == 0
