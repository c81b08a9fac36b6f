"""Exact integer and rational linear algebra kernel.

Matrices are tuples of tuples of Python ints (arbitrary precision), row
major.  No floating point is used anywhere in this package: Hermite-form
intermediates can grow without bound and fixed-width arithmetic would
silently corrupt downstream certificates.

Hermite normal form convention (fixed project-wide, all golden values
depend on it): row-style echelon form whose lower-left triangle is zero.
Each nonzero row has a positive leading entry (its pivot), pivot columns
strictly increase from row to row, entries above a pivot are reduced into
[0, pivot), and zero rows sit at the bottom.

The greedy generator search on the positions of a finite group lives
here too, below both of its users: cech's group tables and weyl's
subgroups.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class CapExceeded(RuntimeError):
    """A configured cap refused an input before the work it bounds; the
    message names the stage, and the estimate where one is known."""


# The value classes are not dataclasses: importing dataclasses pulls in
# inspect, ast and dis, and each frozen dataclass execs its generated
# methods, 24 of the 84 ms of `import gerbelevels.cli` (median of 30
# fresh interpreters, Python 3.11, bytecode not cached, shared 2-core
# box).  Fields are stored with object.__setattr__, never through
# self.__dict__: in CPython 3.11 reading __dict__ turns the instance's
# inline attribute values into a dict, and every later read is slower.
_store = object.__setattr__


class Value:
    """Base of the value classes: a subclass lists its fields in _fields,
    in constructor order, and is compared by them.  __eq__ compares two
    instances of the same class only (NotImplemented otherwise).  The
    default __init__ stores the fields by position or by name and raises
    TypeError on a missing, extra or repeated one; a class that checks
    its input has its own __init__, which stores them by calling this
    one.  A Value is mutable and not hashable; see Frozen."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            for field, value in zip(fields, args):
                _store(self, field, value)
            return
        name = self.__class__.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        given = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in given:
                raise TypeError(f"{name} got field {field!r} twice")
            given[field] = value
        for field in fields:
            if field not in given:
                raise TypeError(f"{name} is missing field {field!r}")
            _store(self, field, given[field])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))


class Frozen(Value):
    """A Value that cannot change: assigning or deleting an attribute
    raises AttributeError, and it hashes by its fields.  The hash is kept
    in _hash once made, outside _fields, so never compared: a RootDatum
    hash walks every root, and lru_cache keys re-hash on every lookup.
    cached_property still works, as it writes the instance __dict__
    directly."""

    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values())
            _store(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# basic matrix utilities


def freeze(x, depth: int = 2):
    """Validate outside input: lists (or tuples) nested depth deep, 2 for
    a matrix, 1 for a vector and 0 for one integer, whose entries are
    ints, returned as tuples.  A bool, float, string or None where an int
    belongs, or a non-list where a list belongs, raises TypeError; nothing
    is converted."""
    if depth == 0:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"expected an integer, got {x!r}")
        return x
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"expected a list, got {x!r}")
    return tuple(freeze(y, depth - 1) for y in x)


def shape(a: Matrix) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    # a plain loop: most matrices here are a few rows, where a generator
    # costs more than the comparisons
    for row in a:
        if len(row) != n:
            raise DimensionMismatch("ragged matrix")
    return m, n


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    shape(a)  # a ragged matrix raises DimensionMismatch
    return tuple(zip(*a))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ma, na = shape(a)
    mb, nb = shape(b)
    if na != mb:
        raise DimensionMismatch(f"cannot multiply {ma}x{na} by {mb}x{nb}")
    bt = transpose(b)
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    m, n = shape(a)
    if len(v) != n:
        raise DimensionMismatch(f"cannot apply {m}x{n} to vector of length {len(v)}")
    return tuple(sum(map(mul, row, v)) for row in a)


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m, n = shape(a)
    if m != n:
        raise DimensionMismatch("determinant needs a square matrix")
    if m == 0:
        return 1
    w = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if w[k][k] == 0:
            for i in range(k + 1, m):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[m - 1][m - 1]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# normal forms


def hnf(a: Matrix) -> Matrix:
    """Row Hermite normal form H of a, in the project's pivot convention
    (see module docstring).

    The rows of H span the same lattice as the rows of a: every step is
    a unimodular row operation.  The transform itself is not kept.
    """
    m, n = shape(a)
    h = [list(row) for row in a]
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, m):
            if h[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            h[row], h[pivot_row] = h[pivot_row], h[row]
        for r in range(row + 1, m):
            if h[r][col] == 0:
                continue
            aa, bb = h[row][col], h[r][col]
            if bb % aa == 0:
                q = bb // aa
                h[r] = [s - q * t for s, t in zip(h[r], h[row])]
                continue
            g, x, y = xgcd(aa, bb)
            p, q = aa // g, bb // g
            # [[x, y], [-q, p]] has determinant 1 and sends (aa, bb) to (g, 0)
            h[row], h[r] = (
                [x * s + y * t for s, t in zip(h[row], h[r])],
                [-q * s + p * t for s, t in zip(h[row], h[r])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
        d = h[row][col]
        for r in range(row):
            q = h[r][col] // d
            if q:
                h[r] = [s - q * t for s, t in zip(h[r], h[row])]
        row += 1
        if row == m:
            break
    return tuple(map(tuple, h))


def snf(a: Matrix, left: bool = True,
        right: bool = True) -> tuple[Matrix, Matrix | None, Matrix | None]:
    """Smith normal form.

    Returns (S, U, V) with U, V unimodular, U @ a @ V == S, S diagonal
    with nonnegative entries d1 | d2 | ...  The left transform U is built
    only when left is true and the right transform V only when right is
    true; a transform not built is None, and the rest is the same entry
    for entry.

    Pivot rule: at step t the pivot is an entry of least absolute value
    in the submatrix s[t:, t:], the first in row-major order on ties.
    The search takes each row's least nonzero |entry| and stops at the
    first row that holds a +-1, since no smaller nonzero entry exists.
    A pivot that is not a unit must divide the rest of the submatrix, or
    a row that breaks this is added to the pivot row; for a unit pivot
    that check cannot fail and is skipped.

    Rows t.. of s are zero left of column t, so updates skip what they
    would leave unchanged: a row operation touches only the columns where
    the pivot row is nonzero, and a column operation only the rows where
    column t is nonzero (just the pivot row, until an extended-gcd column
    operation refills column t).  A row the search finds zero stays zero
    (no operation adds to it), so it is replaced by one shared zero row
    that the search, the column swaps and the divisibility check skip.

    Deferred rows: with V built and U not, a row of s is made only when
    the search first reaches it, as a[i] @ V with columns < t set to
    zero.  While every pivot is a unit this is the row the full
    elimination would hold: step t subtracts multiples of the pivot row
    (a unit divides everything), and afterwards row i is its old value
    times that step's column operations with column t cleared, since the
    pivot row is then d e_t; the column operations of later steps never
    read column t again.  A row swap only exchanges t with a row the
    search has reached, so unreached rows keep their places.  A search
    that finds no unit reaches every row, so from the first non-unit
    pivot on every row is made and the loop runs as with U built.  Rows
    never reached are zero rows of S: a search that finds no pivot has
    reached every row, so a row stays unreached only when the loop stops
    at t = n, where all its columns are < t.  With U built, or without
    V, every row is made at the start.
    """
    m, n = shape(a)
    u = [list(row) for row in identity(m)] if left else None
    # without V, the column operations below run over no rows of it
    v = [list(row) for row in identity(n)] if right else []
    # s[i] is made for i < front; from front on it is None until the
    # search reaches it
    front = 0 if right and not left else m
    s = [list(row) for row in a] if front else [None] * m
    zero = [0] * n

    def reach(i, t):
        w = [0] * (n - t)
        row = a[i]
        for j in itertools.compress(range(n), row):
            x = row[j]
            if x == 1:
                w = list(map(add, w, v[j][t:]))
            elif x == -1:
                w = list(map(sub, w, v[j][t:]))
            else:
                w = [p + x * q for p, q in zip(w, v[j][t:])]
        return [0] * t + w if any(w) else zero

    def row_op(i1, i2, x, y, p, q):
        for w in (s, u) if left else (s,):
            w[i1], w[i2] = (
                [x * aa + y * bb for aa, bb in zip(w[i1], w[i2])],
                [-q * aa + p * bb for aa, bb in zip(w[i1], w[i2])],
            )

    def col_op(j1, j2, x, y, p, q):
        for row in itertools.chain(s, v):
            aa, bb = row[j1], row[j2]
            row[j1], row[j2] = x * aa + y * bb, -q * aa + p * bb

    t = 0
    while t < min(m, n):
        best = 0
        for i in range(t, m):
            if i == front:
                s[i] = reach(i, t)
                front += 1
            if s[i] is zero:
                continue
            e = min(map(abs, filter(None, s[i][t:])), default=0)
            if not e:
                s[i] = zero
            elif not best or e < best:
                best, bi = e, i
                if e == 1:
                    break
        if not best:
            break
        bj = next(j for j in range(t, n) if abs(s[bi][j]) == best)
        s[t], s[bi] = s[bi], s[t]
        if left:
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for row in itertools.chain(s[t:front], v):
                if row is not zero:
                    row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t below the pivot with row operations; a
            # non-unit pivot (the only kind that takes the extended-gcd
            # branches) comes with front == m
            support = [j for j in range(t, n) if s[t][j]]
            for i in range(t + 1, front):
                if s[i][t] == 0:
                    continue
                aa, bb = s[t][t], s[i][t]
                if bb % aa == 0:
                    q = bb // aa
                    row, pivot_row = s[i], s[t]
                    for j in support:
                        row[j] -= q * pivot_row[j]
                    if left:
                        u[i] = [w - q * z for w, z in zip(u[i], u[t])]
                else:
                    g, x, y = xgcd(aa, bb)
                    row_op(t, i, x, y, aa // g, bb // g)
                    support = [j for j in range(t, n) if s[t][j]]
            # clear row t right of the pivot with column operations
            refilled = False
            for j in range(t + 1, n):
                if s[t][j] == 0:
                    continue
                aa, bb = s[t][t], s[t][j]
                if bb % aa == 0:
                    q = bb // aa
                    rows = s[t:] if refilled else (s[t],)
                    for row in itertools.chain(rows, v):
                        row[j] -= q * row[t]
                else:
                    g, x, y = xgcd(aa, bb)
                    col_op(t, j, x, y, aa // g, bb // g)
                    refilled = True
            if refilled and any(s[i][t] for i in range(t + 1, m)):
                continue
            if any(s[t][j] for j in range(t + 1, n)):
                continue
            d = s[t][t]
            if d in (1, -1):
                break
            # the pivot must divide the rest of the submatrix
            culprit = next(
                (i for i in range(t + 1, m)
                 if s[i] is not zero and any(x % d for x in s[i][t + 1:])),
                None,
            )
            if culprit is None:
                break
            s[t] = [aa + bb for aa, bb in zip(s[t], s[culprit])]
            if left:
                u[t] = [aa + bb for aa, bb in zip(u[t], u[culprit])]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            if left:
                u[t] = [-x for x in u[t]]
        t += 1
    zero_row = (0,) * n
    return (tuple(zero_row if row is zero or row is None else tuple(row) for row in s),
            tuple(map(tuple, u)) if left else None,
            tuple(map(tuple, v)) if right else None)


def diagonal(a: Matrix) -> tuple[int, ...]:
    m, n = shape(a)
    return tuple(a[i][i] for i in range(min(m, n)))


def from_columns(cols, m: int) -> Matrix:
    """The m-row matrix with the given columns.  With no columns it still
    has m (empty) rows, which a transpose cannot express."""
    if any(len(c) != m for c in cols):
        raise DimensionMismatch(f"columns must have length {m}")
    return tuple(tuple(c[i] for c in cols) for i in range(m))


# ---------------------------------------------------------------------------
# solving, kernels, cokernels


class SolveResult(Frozen):
    """Outcome of an integer linear solve A x = y.

    solution is None when no integer solution exists; kernel is always a
    basis of the integer kernel of A; min_multiplier is the smallest
    k >= 1 such that A x = k*y is solvable (None if no such k exists,
    1 whenever solution is not None).
    """

    _fields = ("solution", "kernel", "min_multiplier")


class Smith(Frozen):
    """A matrix a with rows rows factored once by snf: u @ a @ v is
    diagonal with the entries diag, of which the first rank are nonzero.
    Solves, kernels, cokernels and class orders are all read off this one
    factorization.  Kernels and cokernels need only v and diag; a factor
    made with left=False has u = None and cannot reduce or solve, and
    snf then makes each row of a only when its pivot search reaches it
    (rows past full column rank are never read), with the same v."""

    _fields = ("diag", "rank", "rows", "u", "v")

    @classmethod
    def of(cls, a: Matrix, left: bool = True) -> "Smith":
        s, u, v = snf(a, left=left)
        diag = diagonal(s)
        return cls(diag, sum(1 for d in diag if d), len(a), u, v)

    def kernel(self) -> tuple[Vector, ...]:
        """Basis of {x : a @ x = 0}; the lattice it spans is saturated."""
        n = len(self.v)
        return tuple(
            tuple(self.v[i][j] for i in range(n)) for j in range(self.rank, n)
        )

    def reduce(self, y: Vector) -> tuple[Vector, int | None]:
        """(u @ y, k): y in Smith coordinates, and the order k of y modulo
        the column span of a, i.e. the least k >= 1 with k*y in the span
        (None when no multiple of y is in it)."""
        if self.u is None:
            raise ValueError("factored without the left transform")
        if len(y) != self.rows:
            raise DimensionMismatch(f"rhs length {len(y)} != row count {self.rows}")
        # y is mostly a sparse coboundary column: sum over its support only
        support = [(j, x) for j, x in enumerate(y) if x]
        z = tuple(sum(row[j] * x for j, x in support) for row in self.u)
        if any(z[self.rank:]):
            return z, None
        k = 1
        for d, x in zip(self.diag[: self.rank], z):
            k = lcm(k, d // gcd(d, x))
        return z, k

    def solve(self, y: Vector) -> SolveResult:
        """Solve a @ x = y over the integers.

        Raises DimensionMismatch if len(y) differs from the row count.
        """
        z, k = self.reduce(y)
        x = None
        if k == 1:
            w = [z[i] // self.diag[i] for i in range(self.rank)]
            x = matvec(self.v, tuple(w + [0] * (len(self.v) - self.rank)))
        return SolveResult(x, self.kernel(), k)

    def inverse(self) -> tuple[Matrix, int]:
        """(m, d) with a^-1 = m / d for a square nonsingular a.  From
        u @ a @ v = diag(d_1, ..., d_n), a^-1 = v @ diag(d / d_i) @ u / d
        with d = d_n, which every d_i divides (Cohen, GTM 138, 2.4)."""
        if self.u is None:
            raise ValueError("factored without the left transform")
        n = len(self.v)
        if self.rows != n or self.rank != n:
            raise ValueError("matrix is singular")
        d = self.diag[-1] if n else 1
        scaled = tuple(tuple(d // di * x for x in row)
                       for di, row in zip(self.diag, self.u))
        return matmul(self.v, scaled), d


def kernel_basis(a: Matrix) -> tuple[Vector, ...]:
    """Basis of {x : a @ x = 0}; the lattice it spans is saturated.  The
    basis is the last columns of snf's V, built without U, so the rows
    the pivot search has not reached are not reduced (see snf)."""
    return Smith.of(a, left=False).kernel()


def solve_z(a: Matrix, y: Vector) -> SolveResult:
    """Solve a @ x = y over the integers.

    Raises DimensionMismatch if len(y) differs from the row count.
    """
    return Smith.of(a).solve(y)


class AbelianInvariants(Frozen):
    """A finitely generated abelian group Z^free_rank + Z/d1 + Z/d2 + ...

    Torsion entries satisfy d1 | d2 | ... and are all >= 2 (canonical).
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        if free_rank < 0:
            raise ValueError("negative free rank")
        for d in torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
        for d1, d2 in zip(torsion, torsion[1:]):
            if d2 % d1:
                raise ValueError("torsion divisibility chain broken")
        super().__init__(free_rank, torsion)

    @classmethod
    def from_diagonal(cls, diag, extra_free: int = 0) -> "AbelianInvariants":
        torsion = tuple(d for d in diag if d not in (0, 1))
        free = extra_free + sum(1 for d in diag if d == 0)
        return cls(free, torsion)

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def label(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _cokernel(sm: Smith) -> AbelianInvariants:
    """Invariants of Z^rows / (column span of the factored matrix)."""
    return AbelianInvariants.from_diagonal(sm.diag, sm.rows - len(sm.diag))


# ---------------------------------------------------------------------------
# lattices presented by row bases


def hnf_basis(rows: Matrix) -> Matrix:
    """Canonical basis (HNF, zero rows dropped) of the row span lattice."""
    if not rows:
        return ()
    return tuple(r for r in hnf(rows) if any(r))


def hnf_contains(h: Matrix, v: Vector) -> bool:
    """Whether v lies in the row lattice of h, a Hermite normal form
    without zero rows: each pivot in turn must divide v's entry in its
    column, which it then clears.  Each row is zero before its pivot, so
    an entry outside the pivot columns is never cleared, and v lies in
    the lattice exactly when nothing is left at the end."""
    v = list(v)
    for row in h:
        c = next(j for j, x in enumerate(row) if x)
        k, rest = divmod(v[c], row[c])
        if rest:
            return False
        if k:
            v = [a - k * b for a, b in zip(v, row)]
    return not any(v)


def lattice_coords(basis_rows: Matrix, v: Vector) -> Vector | None:
    """Coordinates of v in the given row basis, or None if v is outside."""
    return Smith.of(from_columns(basis_rows, len(v))).solve(v).solution


def subquotient(
    n_coords: int,
    d_out: Matrix,
    rel_out,
    d_in: Matrix,
    rel_in,
    locate: Vector | None = None,
):
    """Invariants of {x in Z^n_coords : d_out x in <rel_out>} modulo the
    column span of d_in plus <rel_in>.

    This is H^p of a cochain complex written on the free cover of its
    coefficients: d_out is the coboundary out of C^p, d_in the coboundary
    into it (or () in degree 0), and rel_out, rel_in are the coefficient
    relations on C^(p+1) and C^p.  The cocycle lattice is taken in the
    basis its Smith kernel gives: ker d_out itself when there are no
    out-relations, else ker [d_out | -rel_out] cut to its first n_coords
    entries (the relations are independent, so the cut keeps a basis).
    With locate set, also returns the coordinates of that cocycle in the
    Smith presentation of the quotient and its order there (None when
    infinite); without it those two are None.
    """
    if not d_out:
        basis = identity(n_coords)
    elif not rel_out:
        basis = kernel_basis(d_out)
    else:
        combined = tuple(
            row + tuple(-v[i] for v in rel_out) for i, row in enumerate(d_out)
        )
        basis = tuple(v[:n_coords] for v in kernel_basis(combined))
    return _quotient(basis, n_coords, transpose(d_in) + tuple(rel_in), locate)


def _quotient(basis, n: int, sub_rows, locate: Vector | None = None):
    """(invariants, class coordinates, class order) of <basis> / <sub_rows>;
    the basis is factored once to place every vector in it."""
    place = Smith.of(from_columns(basis, n))
    coords = []
    for v in sub_rows:
        c = place.solve(v).solution
        if c is None:
            raise ValueError("sub_rows are not inside the ambient lattice")
        coords.append(c)
    rel = Smith.of(from_columns(coords, len(basis)), left=locate is not None)
    inv = _cokernel(rel)
    if locate is None:
        return inv, None, None
    c = place.solve(locate).solution
    if c is None:
        raise ValueError("vector to locate is not inside the ambient lattice")
    z, k = rel.reduce(c)
    return inv, z, k


def divisor_cohomology(n: int, d_out: Matrix, d_in: Matrix,
                       moduli) -> AbelianInvariants:
    """H^p of a cochain complex of free Z-modules, with coefficients the
    sum of Z/m over moduli (Z where m is 0), from elementary divisors.

    C^p = Z^n, d_out is the coboundary out of C^p and d_in the coboundary
    into it (or () in degree 0); d_out @ d_in must vanish exactly, or
    ValueError is raised.  ker d_out is saturated, so with a_i the divisors
    of d_in and b_j those of d_out, H^p = Z^f + sum Z/a_i with
    f = n - rank d_out - rank d_in (Munkres, Elements of Algebraic
    Topology, 11), and by universal coefficients H^p(C (x) Z/m) =
    (Z/m)^f + sum Z/gcd(a_i, m) + sum Z/gcd(b_j, m) (Hatcher, 3.A).
    Neither Smith transform is built, and nothing is located.
    """
    if any(len(row) != n for row in d_out) or (d_in and len(d_in) != n):
        raise DimensionMismatch(f"coboundaries do not meet at rank {n}")
    # the product summed over nonzero entries only: both are mostly zero
    sparse_in = [[(k, row[k]) for k in itertools.compress(range(len(row)), row)]
                 for row in d_in]
    for row in d_out if sparse_in else ():
        acc: dict[int, int] = {}
        for j in itertools.compress(range(n), row):
            x = row[j]
            for k, y in sparse_in[j]:
                acc[k] = acc.get(k, 0) + x * y
        if any(acc.values()):
            raise ValueError("the coboundaries do not compose to zero")
    out_div = _divisors(d_out)
    in_div = _divisors(d_in) if d_in else ()
    f = n - sum(1 for d in out_div + in_div if d)
    a = [d for d in in_div if d > 1]
    b = [d for d in out_div if d > 1]
    free, orders = 0, []
    for m in moduli:
        if m:
            orders += [m] * f + [gcd(d, m) for d in a + b]
        else:
            free += f
            orders += a
    return AbelianInvariants(free, invariant_factors(orders))


def _divisors(a: Matrix) -> tuple[int, ...]:
    """The Smith diagonal of a, factored with neither transform and with
    fewer rows than columns: the diagonal is that of the transpose, and
    each pivot step scans the rows."""
    if a and len(a) > len(a[0]):
        a = tuple(zip(*a))
    return diagonal(snf(a, left=False, right=False)[0])


def invariant_factors(orders) -> tuple[int, ...]:
    """d1 | d2 | ..., all >= 2, with Z/d1 + Z/d2 + ... isomorphic to the
    sum of Z/c over the positive orders c.  Each pair (c, c') is replaced
    by (gcd, lcm), which keeps the group; after the pass of position i,
    its entry divides every later one."""
    d = sorted(c for c in orders if c > 1)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(c for c in d if c > 1)


# ---------------------------------------------------------------------------
# rational vectors with a common reduced denominator


class RatVector(Frozen):
    """Integer numerators over one positive denominator, fully reduced.

    Invariants: den >= 1 and gcd(gcd(nums), den) == 1.  Equality is
    structural, which is safe because construction always reduces.
    """

    _fields = ("nums", "den")

    def __init__(self, nums: Vector, den: int):
        if den < 1:
            raise ValueError("denominator must be >= 1")
        g = 0
        for x in nums:
            g = gcd(g, x)
        if gcd(g, den) != 1:
            raise ValueError("RatVector not reduced; use RatVector.make")
        super().__init__(nums, den)

    @classmethod
    def make(cls, nums, den: int = 1) -> "RatVector":
        if den == 0:
            raise ValueError("zero denominator")
        if den < 0:
            nums = [-x for x in nums]
            den = -den
        # once the gcd is 1 it stays 1: the rest of nums is not read
        g = den
        for x in nums:
            if g == 1:
                break
            g = gcd(g, x)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        # reduced: stored without the gcd __init__ takes again
        v = cls.__new__(cls)
        Value.__init__(v, tuple(int(x) for x in nums), int(den))
        return v

    @classmethod
    def from_fractions(cls, fracs) -> "RatVector":
        fracs = [Fraction(f) for f in fracs]
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        return cls.make([f.numerator * (den // f.denominator) for f in fracs], den)

    @classmethod
    def zero(cls, n: int) -> "RatVector":
        return cls((0,) * n, 1)

    def __len__(self) -> int:
        return len(self.nums)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def int_vector(self) -> Vector:
        if self.den != 1:
            raise ValueError("vector is not integral")
        return self.nums

    def __add__(self, other: "RatVector") -> "RatVector":
        if len(self) != len(other):
            raise DimensionMismatch("vector length mismatch")
        d = self.den * other.den // gcd(self.den, other.den)
        a = d // self.den
        b = d // other.den
        return RatVector.make(
            [a * x + b * y for x, y in zip(self.nums, other.nums)], d
        )

    def __sub__(self, other: "RatVector") -> "RatVector":
        return self + (-other)

    def __neg__(self) -> "RatVector":
        return RatVector(tuple(-x for x in self.nums), self.den)

    def scale(self, k: int) -> "RatVector":
        return RatVector.make([k * x for x in self.nums], self.den)


def over_common_denominator(vecs) -> tuple[Matrix, int]:
    """(m, d) with vecs[i] = m[i] / d: RatVector rows scaled to the least
    common multiple d of their denominators."""
    d = lcm(*(v.den for v in vecs))
    return tuple(tuple(d // v.den * x for x in v.nums) for v in vecs), d


# ---------------------------------------------------------------------------
# generators of a finite group given on positions


def _greedy_generators(candidates, e: int, row,
                       n: int) -> tuple[Vector, Matrix, set[int]]:
    """Greedy generators, among the candidates in order, of the subgroup
    they span in a group with identity e; the generators' rows, row(a)[b]
    being the position of a * b; and the subgroup's positions.  Each
    candidate outside the closure so far becomes a generator, and only
    then is its row asked for.  The closure grows by left multiplication:
    the new row applied to the old closure gives its new elements, and
    only those are carried further, along every row; the search stops
    once it has n positions.  Every position in the closure is then a
    word s_1 (s_2 (... (s_m e))) in the generators."""
    gens: list[int] = []
    rows: list[tuple[int, ...]] = []
    have = {e}
    for a in candidates:
        if a in have:
            continue
        gens.append(a)
        rows.append(row(a))
        frontier = {rows[-1][b] for b in have} - have
        while frontier:
            have |= frontier
            frontier = {r[f] for f in frontier for r in rows} - have
        if len(have) == n:
            break
    return tuple(gens), tuple(rows), have
