"""Structural checks of a root datum: the datum command and datum
fixtures (--datum-fixture), which import this module when they run.

validate_datum reports every violated invariant as data: dual bases,
<alpha, alpha^vee> = 2, roots and coroots in their lattices, integral
pairings, reflections that permute the roots, and simple roots that
form a base.  Pairings here are exact rationals on ambient vectors.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .intlinalg import Frozen, RatVector, Smith
from .rootdata import DatumError, RootDatum, _ratio_text


def _pairing(x: RatVector, y: RatVector) -> tuple[int, int]:
    """<x, y> as a reduced (numerator, denominator)."""
    if len(x) != len(y):
        raise DatumError("ambient dimension mismatch")
    num = sum(map(mul, x.nums, y.nums))
    den = x.den * y.den
    g = gcd(num, den)
    return num // g, den // g


def _reflected(v: RatVector, alpha: RatVector, acheck: RatVector) -> RatVector:
    """v - <v, acheck> alpha."""
    p, q = _pairing(v, acheck)
    return RatVector.make(
        [q * alpha.den * x - p * v.den * a for x, a in zip(v.nums, alpha.nums)],
        q * v.den * alpha.den,
    )


def pairing(chi: RatVector, lam: RatVector) -> int:
    """Reference pairing of a character with a cocharacter (ambient vectors).

    A non-integral value means the inputs were not actually lattice
    elements of dual lattices, so it is reported as a hard error.
    """
    num, den = _pairing(chi, lam)
    if den != 1:
        raise DatumError(f"non-integral pairing {_ratio_text(num, den)}: "
                         "corrupted datum")
    return num


class DatumReport(Frozen):
    _fields = ("passed", "violations")


def validate_datum(rd: RootDatum) -> DatumReport:
    """Check every structural invariant; diagnostics, not exceptions."""
    bad: list[str] = []
    r = rd.rank
    if len(rd.cochar_basis) != r:
        bad.append("char and cochar bases have different ranks")
    if len(rd.roots) != len(rd.coroots):
        bad.append("root and coroot counts differ")
    for row in rd.char_basis + rd.cochar_basis + rd.roots + rd.coroots:
        if len(row) != rd.ambient_dim:
            bad.append("vector of wrong ambient dimension")
            return DatumReport(False, tuple(bad))
    if any(not 0 <= i < len(rd.roots) for i in rd.simple_indices):
        bad.append("simple index outside the root list")
    # duality: char_basis @ cochar_basis^T == identity
    for i, cb in enumerate(rd.char_basis):
        for j, db in enumerate(rd.cochar_basis):
            val = _pairing(cb, db)
            if val != (1 if i == j else 0, 1):
                bad.append(
                    f"bases not dual: <char[{i}], cochar[{j}]> = {_ratio_text(*val)}"
                )
    for k, (a, ac) in enumerate(zip(rd.roots, rd.coroots)):
        val = _pairing(a, ac)
        if val != (2, 1):
            bad.append(f"<root[{k}], coroot[{k}]> = {_ratio_text(*val)} != 2")
    for k, a in enumerate(rd.roots):
        if rd.char_coords(a) is None:
            bad.append(f"root[{k}] outside the character lattice")
    for k, ac in enumerate(rd.coroots):
        if rd.cochar_coords(ac) is None:
            bad.append(f"coroot[{k}] outside the cocharacter lattice")
    if any(_pairing(a, ac)[1] != 1 for a in rd.roots for ac in rd.coroots):
        bad.append("some root pairs non-integrally with some coroot")
    # every reflection permutes the root set
    root_set = set(rd.roots)
    for i, (alpha, ac) in enumerate(zip(rd.roots, rd.coroots)):
        if any(_reflected(b, alpha, ac) not in root_set for b in rd.roots):
            bad.append(f"reflection in root[{i}] does not permute the roots")
    if not bad:
        no_base = _not_a_base(rd)
        if no_base:
            bad.append(no_base)
    return DatumReport(not bad, tuple(bad))


def _not_a_base(rd: RootDatum) -> str | None:
    """Why the simple roots are not a base, or None: a base has every root
    an integer combination of it with coefficients of one sign.  Simple
    roots that pair positively or are linearly dependent are no base
    either, but they are left to weyl.group_order, whose error names
    them; only the other sets are decided here, on integer root
    coordinates."""
    coords = rd.root_coords()
    simple = rd.simple_indices
    if not coords:
        return None
    coroots = rd.coroot_coords()
    if any(i != j and sum(map(mul, coords[j], coroots[i])) > 0
           for i in simple for j in simple):
        return None
    # columns are the simple roots' coordinates
    system = Smith.of(tuple(zip(*(coords[i] for i in simple))) or ((),) * rd.rank)
    if system.rank < len(simple):
        return None
    for k, alpha in enumerate(coords):
        x = system.solve(alpha).solution
        if x is None or min(x) < 0 < max(x):
            return (f"simple roots are not a base: root[{k}] is not an integer "
                    "combination of them with coefficients of one sign")
    return None
