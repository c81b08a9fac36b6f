"""Cech cochains on a nerve and their classes: the --trivialize-cocycle
option of the cohomology command, which imports this module when the
option is given.

A Cochain holds its values on sorted simplices only, with the alternation
sign applied on access.  cocycle_class locates a cocycle's class in H^p,
and trivialize finds a cochain whose coboundary it is, both on the free
cover of the coefficients that cech.cohomology reads (cech._cech_matrix
and cech._relations).
"""

from __future__ import annotations

from .cech import (
    CechError,
    CoefficientGroup,
    Nerve,
    _cech_matrix,
    _malformed,
    _relations,
    _sort_sign,
)
from .intlinalg import Value, Vector, freeze, solve_z, subquotient


class Cochain(Value):
    """Degree-p cochain: values on sorted p-simplices, alternating.  The
    values given are copied, reduced and stripped of zeros; compared by
    its fields, and not hashable."""

    _fields = ("nerve", "degree", "group", "values")

    def __init__(self, nerve: Nerve, degree: int, group: CoefficientGroup,
                 values: dict | None = None):
        if degree < 0:
            raise CechError("negative degree")
        level = set(nerve.level(degree))
        clean = {}
        for s, v in (values or {}).items():
            s = tuple(s)
            if s not in level:
                raise CechError(f"value on non-simplex {s}")
            vv = group.reduce(v)
            if any(vv):
                clean[s] = vv
        super().__init__(nerve, degree, group, clean)

    @classmethod
    def from_json_dict(cls, nerve: Nerve, group: CoefficientGroup,
                       d: dict, degree: int) -> "Cochain":
        """A fixture's cochain, which must have the given degree: another
        is refused before any value is placed on a simplex."""
        try:
            given = freeze(d["degree"], 0)
            if given >= 0 and given != degree:
                raise ValueError(f"degree {given} is not --degree {degree}")
            values = {}
            for e in d["values"]:
                s = freeze(e["simplex"], 1)
                if s in values:
                    raise ValueError(f"simplex {s} given twice")
                values[s] = freeze(e["value"], 1)
            return cls(nerve, given, group, values)
        except (KeyError, TypeError, ValueError) as err:
            raise _malformed("cocycle", err) from None

    def value(self, simplex) -> Vector:
        simplex = tuple(simplex)
        if len(set(simplex)) != len(simplex):
            return self.group.zero()
        s, sign = _sort_sign(simplex)
        v = self.values.get(s, self.group.zero())
        return v if sign == 1 else self.group.neg(v)

    def is_zero(self) -> bool:
        return not self.values

    def add(self, other: "Cochain") -> "Cochain":
        if (self.nerve, self.degree, self.group) != (
            other.nerve, other.degree, other.group,
        ):
            raise CechError("cochain mismatch")
        vals = dict(self.values)
        for s, v in other.values.items():
            vals[s] = self.group.add(vals.get(s, self.group.zero()), v)
        return Cochain(self.nerve, self.degree, self.group, vals)

    def neg(self) -> "Cochain":
        return Cochain(
            self.nerve, self.degree, self.group,
            {s: self.group.neg(v) for s, v in self.values.items()},
        )

    def map_values(self, fn, group: CoefficientGroup) -> "Cochain":
        return Cochain(
            self.nerve, self.degree, group,
            {s: group.reduce(fn(v)) for s, v in self.values.items()},
        )

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "group": self.group.label(),
            "values": [
                {"simplex": list(s), "value": list(v)}
                for s, v in sorted(self.values.items())
            ],
        }


def coboundary(c: Cochain) -> Cochain:
    """(dc)(v_0..v_{p+1}) = sum_i (-1)^i c(drop v_i)."""
    p = c.degree
    out: dict = {}
    g = c.group
    for s in c.nerve.level(p + 1):
        acc = g.zero()
        for i in range(p + 2):
            face = s[:i] + s[i + 1:]
            term = c.value(face)
            acc = g.add(acc, term if i % 2 == 0 else g.neg(term))
        if any(acc):
            out[s] = acc
    return Cochain(c.nerve, p + 1, g, out)


def zero_cochain(nerve: Nerve, degree: int, group: CoefficientGroup) -> Cochain:
    return Cochain(nerve, degree, group, {})


# ---------------------------------------------------------------------------
# classes of cocycles


def _cech_presentation(nerve: Nerve, p: int, group: CoefficientGroup):
    """The arguments of subquotient for H^p of the nerve: the size of C^p,
    delta^p, the relations on C^(p+1), delta^(p-1) and the relations on
    C^p, all on the free cover of the coefficients."""
    size = group.size
    n_p = len(nerve.level(p)) * size
    return (
        n_p,
        _cech_matrix(nerve, p, size),
        _relations(len(nerve.level(p + 1)) * size, group),
        _cech_matrix(nerve, p - 1, size) if p else (),
        _relations(n_p, group),
    )


def _cochain_vector(c: Cochain) -> Vector:
    size = c.group.size
    level = c.nerve.level(c.degree)
    out = []
    for s in level:
        v = c.values.get(s, c.group.zero())
        out.extend(v)
    return tuple(out)


def _vector_cochain(nerve: Nerve, degree: int, group: CoefficientGroup,
                    vec) -> Cochain:
    size = group.size
    level = nerve.level(degree)
    vals = {}
    for i, s in enumerate(level):
        vals[s] = tuple(vec[i * size: (i + 1) * size])
    return Cochain(nerve, degree, group, vals)


def cocycle_class(c: Cochain):
    """(H^p invariants, class coordinates, class order) of a cocycle."""
    if not coboundary(c).is_zero():
        raise CechError("input cochain is not a cocycle")
    return subquotient(*_cech_presentation(c.nerve, c.degree, c.group),
                       locate=_cochain_vector(c))


def trivialize(c: Cochain) -> Cochain | None:
    """A cochain b with db = c, or None when the class is nonzero."""
    if not coboundary(c).is_zero():
        raise CechError("input cochain is not a cocycle")
    nerve, p, group = c.nerve, c.degree, c.group
    target = _cochain_vector(c)
    if not any(target):
        return zero_cochain(nerve, max(p - 1, 0), group)
    if p == 0:
        return None
    d_in = _cech_matrix(nerve, p - 1, group.size)
    rel_in = _relations(len(nerve.level(p)) * group.size, group)
    # unknowns: the (p-1)-cochain, then one multiplier per relation
    a = tuple(row + tuple(v[i] for v in rel_in) for i, row in enumerate(d_in))
    x = solve_z(a, target).solution
    if x is None:
        return None
    return _vector_cochain(nerve, p - 1, group, x[: len(d_in[0])])
