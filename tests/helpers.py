"""Helpers that only the tests use: vector sums and differences, lattice
equality and membership, quotient and cokernel invariants, the symmetric
projection of a level and the trivial action of a group on a nerve.  No
command reads them, so they live here rather than in the package."""

from fractions import Fraction

from gerbelevels.cech import CoefficientGroup, FiniteAction, FiniteGroupTable, Nerve
from gerbelevels.intlinalg import (
    AbelianInvariants,
    DimensionMismatch,
    Matrix,
    Smith,
    Vector,
    _cokernel,
    _quotient,
    hnf_basis,
    identity,
    lattice_coords,
)
from gerbelevels.levels import LevelTensor
from gerbelevels.rootdata import DatumError


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return tuple(x - y for x, y in zip(u, v))


def lattices_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    return hnf_basis(rows_a) == hnf_basis(rows_b)


def lattice_contains(basis_rows: Matrix, v: Vector) -> bool:
    return lattice_coords(basis_rows, v) is not None


def quotient_invariants(ambient_rows: Matrix, sub_rows: Matrix) -> AbelianInvariants:
    """Invariants of (lattice spanned by ambient_rows) / (span of sub_rows).

    ambient_rows must be linearly independent, and sub_rows must lie
    inside the lattice they span.
    """
    vectors = tuple(ambient_rows) + tuple(sub_rows)
    n = len(vectors[0]) if vectors else 0
    return _quotient(ambient_rows, n, sub_rows)[0]


def cokernel(a: Matrix) -> AbelianInvariants:
    """Invariants of Z^rows / (column span of a)."""
    return _cokernel(Smith.of(a, left=False))


def symmetric_projection(b: LevelTensor) -> tuple[tuple[Fraction, ...], ...]:
    """(b + b^T)/2 on ambient coordinates; labeled convenience, H = G only."""
    if b.iso.source != b.iso.target:
        raise DatumError("symmetric projection needs source == target")
    amb, den = b._ambient_numerators()
    n = len(amb)
    return tuple(
        tuple(Fraction(amb[i][j] + amb[j][i], 2 * den) for j in range(n))
        for i in range(n)
    )


def trivial_action(group: FiniteGroupTable, nerve: Nerve,
                   coefficients: CoefficientGroup) -> FiniteAction:
    return FiniteAction(
        group,
        nerve,
        coefficients,
        tuple(tuple(range(nerve.n_vertices)) for _ in range(group.n)),
        tuple(identity(coefficients.size) for _ in range(group.n)),
    )
