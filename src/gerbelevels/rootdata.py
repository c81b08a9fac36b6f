"""Root data for the classical series and lattice maps between them.

A RootDatum lives in a fixed ambient rational coordinate space with
orthonormal reference coordinates t_1..t_N (characters) and the dual
coordinates e_1..e_N (cocharacters); the reference pairing is the dot
product.  Character and cocharacter lattices are given by rational row
bases that are exactly dual: char_basis @ cochar_basis^T = identity.

Coordinate conventions used throughout the package:
  * coordinate vectors are columns; integer matrices act on the left;
  * cocharacter coordinates are taken against cochar_basis, which is the
    dual basis of char_basis, so the pairing of coordinate vectors is the
    plain dot product.

Coordinates are pairings.  Because the bases are dual, the j-th
coordinate of v in char_basis is <v, cochar_basis[j]> and the j-th
coordinate in cochar_basis is <char_basis[j], v>.  A span check follows:
the coordinates are returned only when the combination they name gives v
back, so a vector outside the span gets None, and a returned vector is
correct even on non-dual input.  validate_datum checks the duality
itself.

A homomorphism H -> G with central kernel and G = Z(G).Im(H) is encoded
by an IsogenyDatum: the restriction map on characters, the induced map on
cocharacters (its transpose), and the lifts of the coroots of G into the
cocharacter lattice of H.  Only the lattice-level consequences of the
hypotheses are represented; the center condition itself has no lattice
content beyond them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intlinalg import (
    FracMat,
    FracVec,
    Matrix,
    Vector,
    cokernel,
    frac_inverse,
    frac_matvec,
    freeze,
    matmul,
    transpose,
)

SERIES = ("A", "B", "C", "D")


class DatumError(ValueError):
    """Rejected or inconsistent root-datum input."""


def fracvec(xs) -> FracVec:
    return tuple(Fraction(x) for x in xs)


def dot(x: FracVec, y: FracVec) -> Fraction:
    if len(x) != len(y):
        raise DatumError("ambient dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _combination(coords, basis: tuple[FracVec, ...], n: int) -> FracVec:
    """sum_j coords[j] * basis[j] in the n-dimensional ambient space."""
    return tuple(
        sum((Fraction(c) * row[j] for c, row in zip(coords, basis)), Fraction(0))
        for j in range(n)
    )


def _coords_in(basis: tuple[FracVec, ...], dual: tuple[FracVec, ...],
               v: FracVec) -> FracVec | None:
    """Coordinates of v in basis, as pairings with the dual basis; None
    when v is outside the span."""
    c = tuple(dot(v, d) for d in dual)
    return c if _combination(c, basis, len(v)) == v else None


def _integral(c: FracVec | None) -> Vector | None:
    if c is None or any(x.denominator != 1 for x in c):
        return None
    return tuple(x.numerator for x in c)


@dataclass(frozen=True)
class RootDatum:
    name: str
    ambient_dim: int
    char_basis: tuple[FracVec, ...]
    cochar_basis: tuple[FracVec, ...]
    roots: tuple[FracVec, ...]
    coroots: tuple[FracVec, ...]
    simple_indices: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.char_basis)

    # -- coordinates ------------------------------------------------------

    def char_coords(self, v) -> Vector | None:
        return _integral(self.char_coords_q(v))

    def cochar_coords(self, v) -> Vector | None:
        return _integral(self.cochar_coords_q(v))

    def char_coords_q(self, v) -> FracVec | None:
        return _coords_in(self.char_basis, self.cochar_basis, fracvec(v))

    def cochar_coords_q(self, v) -> FracVec | None:
        return _coords_in(self.cochar_basis, self.char_basis, fracvec(v))

    def char_ambient(self, coords) -> FracVec:
        return _combination(coords, self.char_basis, self.ambient_dim)

    def cochar_ambient(self, coords) -> FracVec:
        return _combination(coords, self.cochar_basis, self.ambient_dim)

    # -- roots ------------------------------------------------------------

    @cached_property
    def _root_coords(self) -> tuple[Vector, ...]:
        out = []
        for a in self.roots:
            c = self.char_coords(a)
            if c is None:
                raise DatumError(f"root {a} outside the character lattice")
            out.append(c)
        return tuple(out)

    @cached_property
    def _coroot_coords(self) -> tuple[Vector, ...]:
        out = []
        for a in self.coroots:
            c = self.cochar_coords(a)
            if c is None:
                raise DatumError(f"coroot {a} outside the cocharacter lattice")
            out.append(c)
        return tuple(out)

    def root_coords(self) -> tuple[Vector, ...]:
        return self._root_coords

    def coroot_coords(self) -> tuple[Vector, ...]:
        return self._coroot_coords

    def simple_roots(self) -> tuple[FracVec, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    def root_index(self, v) -> int | None:
        target = fracvec(v)
        for i, a in enumerate(self.roots):
            if a == target:
                return i
        return None

    # -- reflections in basis coordinates ----------------------------------

    def reflection_char(self, root_index: int) -> Matrix:
        """s_alpha on X*(T) basis coordinates: chi -> chi - <chi, acheck> alpha,
        the matrix I - a c^T for root coordinates a and coroot coordinates c."""
        return _rank_one_reflection(self.root_coords()[root_index],
                                    self.coroot_coords()[root_index])

    def reflection_cochar(self, root_index: int) -> Matrix:
        """s_alpha on X_*(T) basis coordinates: I - c a^T."""
        return _rank_one_reflection(self.coroot_coords()[root_index],
                                    self.root_coords()[root_index])

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ambient_dim": self.ambient_dim,
            "char_basis": [_fracvec_json(r) for r in self.char_basis],
            "cochar_basis": [_fracvec_json(r) for r in self.cochar_basis],
            "roots": [_fracvec_json(r) for r in self.roots],
            "coroots": [_fracvec_json(r) for r in self.coroots],
            "simple_indices": list(self.simple_indices),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RootDatum":
        try:
            return cls(
                name=str(d["name"]),
                ambient_dim=int(d["ambient_dim"]),
                char_basis=tuple(_fracvec_load(r) for r in d["char_basis"]),
                cochar_basis=tuple(_fracvec_load(r) for r in d["cochar_basis"]),
                roots=tuple(_fracvec_load(r) for r in d["roots"]),
                coroots=tuple(_fracvec_load(r) for r in d["coroots"]),
                simple_indices=tuple(int(i) for i in d["simple_indices"]),
            )
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise DatumError(f"malformed root datum: {err}") from None


def _rank_one_reflection(a: Vector, c: Vector) -> Matrix:
    """I - a c^T."""
    return tuple(
        tuple((1 if i == j else 0) - ai * cj for j, cj in enumerate(c))
        for i, ai in enumerate(a)
    )


def _fracvec_json(v: FracVec) -> dict:
    den = lcm(*(x.denominator for x in v))
    return {"num": [int(x * den) for x in v], "den": den}


def _fracvec_load(d: dict) -> FracVec:
    if not isinstance(d["num"], list):
        raise TypeError(f"vector 'num' must be a list, got {d['num']!r}")
    den = int(d["den"])
    return tuple(Fraction(int(n), den) for n in d["num"])


def pairing(chi, lam) -> int:
    """Reference pairing of a character with a cocharacter (ambient vectors).

    A non-integral value means the inputs were not actually lattice
    elements of dual lattices, so it is reported as a hard error.
    """
    val = dot(fracvec(chi), fracvec(lam))
    if val.denominator != 1:
        raise DatumError(f"non-integral pairing {val}: corrupted datum")
    return val.numerator


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class DatumReport:
    passed: bool
    violations: tuple[str, ...]


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
    # duality: char_basis @ cochar_basis^T == identity
    for i, cb in enumerate(rd.char_basis):
        for j, db in enumerate(rd.cochar_basis):
            want = Fraction(1 if i == j else 0)
            if dot(cb, db) != want:
                bad.append(
                    f"bases not dual: <char[{i}], cochar[{j}]> = {dot(cb, db)}"
                )
    for k, (a, ac) in enumerate(zip(rd.roots, rd.coroots)):
        if dot(a, ac) != 2:
            bad.append(f"<root[{k}], coroot[{k}]> = {dot(a, ac)} != 2")
    for k, a in enumerate(rd.roots):
        if rd.char_coords(a) is None:
            bad.append(f"root[{k}] outside the character lattice")
    for k, ac in enumerate(rd.coroots):
        if rd.cochar_coords(ac) is None:
            bad.append(f"coroot[{k}] outside the cocharacter lattice")
    for a in rd.roots:
        for ac in rd.coroots:
            if dot(a, ac).denominator != 1:
                bad.append("some root pairs non-integrally with some coroot")
                break
        else:
            continue
        break
    # every reflection permutes the root set
    root_set = set(rd.roots)
    for i in range(len(rd.roots)):
        ac = rd.coroots[i]
        alpha = rd.roots[i]
        for b in rd.roots:
            img = tuple(x - dot(b, ac) * y for x, y in zip(b, alpha))
            if img not in root_set:
                bad.append(f"reflection in root[{i}] does not permute the roots")
                break
    return DatumReport(not bad, tuple(bad))


# ---------------------------------------------------------------------------
# classical constructors


FORMS_BY_SERIES = {
    "A": ("SL", "GL", "PGL"),
    "B": ("Spin", "SO"),
    "C": ("Sp", "PSp"),
    "D": ("Spin", "SO", "PSO"),
}

_ALIAS = {
    ("A", "SC"): "SL",
    ("A", "AD"): "PGL",
    ("B", "SC"): "Spin",
    ("B", "AD"): "SO",
    ("C", "SC"): "Sp",
    ("C", "AD"): "PSp",
    ("D", "SC"): "Spin",
    ("D", "AD"): "PSO",
}


def resolve_form(series: str, form: str) -> str:
    form = _ALIAS.get((series, form), form)
    if series not in FORMS_BY_SERIES:
        raise DatumError(f"unknown series {series!r}")
    if form not in FORMS_BY_SERIES[series]:
        raise DatumError(f"form {form!r} is not supported for series {series}")
    return form


def _a_series_roots(n: int):
    roots = []
    coroots = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a = [Fraction(0)] * n
            a[i], a[j] = Fraction(1), Fraction(-1)
            roots.append(tuple(a))
            coroots.append(tuple(a))
    simple = []
    for i in range(n - 1):
        want = [Fraction(0)] * n
        want[i], want[i + 1] = Fraction(1), Fraction(-1)
        simple.append(roots.index(tuple(want)))
    return tuple(roots), tuple(coroots), tuple(simple)


def _bcd_roots(series: str, n: int):
    roots = []
    coroots = []

    def e(i, c=1):
        v = [Fraction(0)] * n
        v[i] = Fraction(c)
        return v

    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    a = [Fraction(0)] * n
                    a[i], a[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(a))
                    coroots.append(tuple(a))
    if series == "B":
        for i in range(n):
            for s in (1, -1):
                roots.append(tuple(e(i, s)))
                coroots.append(tuple(e(i, 2 * s)))
    elif series == "C":
        for i in range(n):
            for s in (1, -1):
                roots.append(tuple(e(i, 2 * s)))
                coroots.append(tuple(e(i, s)))

    def find(v):
        return roots.index(tuple(Fraction(x) for x in v))

    simple = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        simple.append(find(v))
    if series == "B":
        v = [0] * n
        v[n - 1] = 1
        simple.append(find(v))
    elif series == "C":
        v = [0] * n
        v[n - 1] = 2
        simple.append(find(v))
    else:
        v = [0] * n
        v[n - 2], v[n - 1] = 1, 1
        simple.append(find(v))
    return tuple(roots), tuple(coroots), tuple(simple)


def _std_basis(n: int) -> tuple[FracVec, ...]:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _dual_basis(char_basis: tuple[FracVec, ...]) -> tuple[FracVec, ...]:
    """Dual basis inside the span of char_basis (rows)."""
    r = len(char_basis)
    gram = tuple(
        tuple(dot(char_basis[i], char_basis[j]) for j in range(r)) for i in range(r)
    )
    ginv = frac_inverse(gram)
    n = len(char_basis[0])
    return tuple(
        tuple(
            sum((ginv[i][k] * char_basis[k][j] for k in range(r)), Fraction(0))
            for j in range(n)
        )
        for i in range(r)
    )


def classical_datum(series: str, rank: int, form: str) -> RootDatum:
    """Root datum of a classical group in reference coordinates.

    rank is the Dynkin rank: (A, r, SL) is SL(r+1), (B, n, Spin) is
    Spin(2n+1), (C, n, Sp) is Sp(2n), (D, n, SO) is SO(2n).  GL(r+1) is
    the A_r datum on the full rank r+1 torus.
    """
    form = resolve_form(series, form)
    if series == "A":
        if rank < 1:
            raise DatumError("series A needs rank >= 1")
        n = rank + 1
        roots, coroots, simple = _a_series_roots(n)
        if form == "GL":
            char = _std_basis(n)
            cochar = _std_basis(n)
            name = f"GL{n}"
        elif form == "SL":
            # X*(T): Z^n modulo t_1+...+t_n = 0, realized as the orthogonal
            # projection of Z^n into the sum-zero hyperplane
            char = tuple(
                tuple(Fraction(1 if i == j else 0) - Fraction(1, n) for j in range(n))
                for i in range(n - 1)
            )
            cochar = tuple(
                tuple(Fraction(1 if j == i else 0) - Fraction(1 if j == n - 1 else 0)
                      for j in range(n))
                for i in range(n - 1)
            )
            name = f"SL{n}"
        else:  # PGL: characters are the root lattice
            char = tuple(roots[simple[i]] for i in range(n - 1))
            cochar = _dual_basis(char)
            name = f"PGL{n}"
        rd = RootDatum(name, n, char, cochar, roots, coroots, simple)
        return rd
    if series in ("B", "C"):
        if rank < 2:
            raise DatumError(f"series {series} needs rank >= 2")
    if series == "D" and rank < 3:
        raise DatumError("series D needs rank >= 3")
    n = rank
    roots, coroots, simple = _bcd_roots(series, n)
    half_one = tuple(Fraction(1, 2) for _ in range(n))
    if series == "B":
        if form == "Spin":
            char = _std_basis(n)[: n - 1] + (half_one,)
            name = f"Spin{2 * n + 1}"
        else:  # SO
            char = _std_basis(n)
            name = f"SO{2 * n + 1}"
    elif series == "C":
        if form == "Sp":
            char = _std_basis(n)
            name = f"Sp{2 * n}"
        else:  # PSp: characters are the root lattice of C_n
            char = tuple(roots[i] for i in simple)
            name = f"PSp{2 * n}"
    else:  # D
        if form == "Spin":
            char = _std_basis(n)[: n - 1] + (half_one,)
            name = f"Spin{2 * n}"
        elif form == "SO":
            char = _std_basis(n)
            name = f"SO{2 * n}"
        else:  # PSO: characters are sums with even coefficient total
            char = tuple(roots[i] for i in simple)
            name = f"PSO{2 * n}"
    cochar = _dual_basis(char)
    return RootDatum(name, n, char, cochar, roots, coroots, simple)


def torus_datum(rank: int, name: str = "") -> RootDatum:
    """Rank-n torus: full integer lattices, no roots."""
    return RootDatum(
        name or f"T{rank}",
        rank,
        _std_basis(rank),
        _std_basis(rank),
        (),
        (),
        (),
    )


# ---------------------------------------------------------------------------
# isogeny data


@dataclass(frozen=True)
class IsogenyDatum:
    """Lattice encoding of a homomorphism H -> G with central kernel.

    char_map sends X*(T) coordinates to X*(S) coordinates (restriction of
    characters along S -> T); cochar_map = char_map^T sends X_*(S)
    coordinates to X_*(T) coordinates; coroot_lift[k] is the k-th coroot
    of G written in X_*(S) coordinates (canonical, coming from the simply
    connected cover).
    """

    source: RootDatum
    target: RootDatum
    char_map: Matrix
    cochar_map: Matrix
    coroot_lift: tuple[Vector, ...]

    @property
    def name(self) -> str:
        return f"{self.source.name}->{self.target.name}"

    def cokernel_invariants(self):
        """Invariants of X*(S) / image of X*(T)."""
        return cokernel(self.char_map)

    def index(self) -> int | None:
        """[X*(S) : X*(T)] when finite, else None."""
        inv = self.cokernel_invariants()
        return inv.order()

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "target": self.target.to_json_dict(),
            "char_map": [list(r) for r in self.char_map],
            "cochar_map": [list(r) for r in self.cochar_map],
            "coroot_lift": [list(r) for r in self.coroot_lift],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "IsogenyDatum":
        return cls(
            source=RootDatum.from_json_dict(d["source"]),
            target=RootDatum.from_json_dict(d["target"]),
            char_map=freeze(d["char_map"]),
            cochar_map=freeze(d["cochar_map"]),
            coroot_lift=tuple(tuple(int(x) for x in r) for r in d["coroot_lift"]),
        )


def _projection_onto_span(basis: tuple[FracVec, ...]) -> FracMat:
    """Orthogonal projection matrix onto the row span of basis."""
    r = len(basis)
    n = len(basis[0]) if r else 0
    gram = tuple(tuple(dot(basis[i], basis[j]) for j in range(r)) for i in range(r))
    ginv = frac_inverse(gram)
    # P = B^T Ginv B  acting on ambient column vectors
    out = []
    for s in range(n):
        row = []
        for t in range(n):
            val = Fraction(0)
            for i in range(r):
                for j in range(r):
                    val += basis[i][s] * ginv[i][j] * basis[j][t]
            row.append(val)
        out.append(tuple(row))
    return tuple(out)


def build_isogeny(source: RootDatum, target: RootDatum) -> IsogenyDatum:
    """Isogeny datum for source -> target sharing one ambient space.

    Requires the restriction of every target character to land in the
    source character lattice, and target coroots to lift into the source
    cocharacter lattice.
    """
    if source.ambient_dim != target.ambient_dim:
        raise DatumError("source and target live in different ambient spaces")
    proj = _projection_onto_span(source.char_basis)

    def restrict(v: FracVec) -> FracVec:
        return frac_matvec(proj, v)

    char_cols = []
    for chi in target.char_basis:
        c = source.char_coords(restrict(chi))
        if c is None:
            raise DatumError(
                f"character lattice of {target.name} does not restrict into "
                f"that of {source.name}"
            )
        char_cols.append(c)
    r_s, r_t = source.rank, target.rank
    char_map = tuple(
        tuple(char_cols[j][i] for j in range(r_t)) for i in range(r_s)
    )
    cochar_cols = []
    for mu in source.cochar_basis:
        c = target.cochar_coords(mu)
        if c is None:
            raise DatumError(
                f"cocharacter lattice of {source.name} does not map into "
                f"that of {target.name}"
            )
        cochar_cols.append(c)
    cochar_map = tuple(
        tuple(cochar_cols[j][i] for j in range(r_s)) for i in range(r_t)
    )
    if cochar_map != transpose(char_map):
        raise DatumError("character and cocharacter maps are not adjoint")
    lifts = []
    for ac in target.coroots:
        c = source.cochar_coords(ac)
        if c is None:
            raise DatumError(
                f"coroot {ac} of {target.name} does not lift into X_*(S) of "
                f"{source.name}"
            )
        lifts.append(c)
    iso = IsogenyDatum(source, target, char_map, cochar_map, tuple(lifts))
    _check_weyl_compatibility(iso)
    return iso


def _check_weyl_compatibility(iso: IsogenyDatum) -> None:
    """Simple reflections of the target must act on both lattices
    compatibly with char_map."""
    src, tgt = iso.source, iso.target
    for i in tgt.simple_indices:
        alpha, acheck = tgt.roots[i], tgt.coroots[i]
        m_t = tgt.reflection_char(i)
        # the same ambient reflection acting on the source lattice
        j = src.root_index(alpha)
        if j is not None:
            m_s = src.reflection_char(j)
        else:
            m_s = _ambient_reflection_on(src, alpha, acheck)
        if matmul(iso.char_map, m_t) != matmul(m_s, iso.char_map):
            raise DatumError(
                "char_map does not commute with the shared reflection action"
            )


def _ambient_reflection_on(rd: RootDatum, alpha: FracVec, acheck: FracVec) -> Matrix:
    cols = []
    for basis_vec in rd.char_basis:
        pair = dot(basis_vec, acheck)
        img = rd.char_coords(tuple(b - pair * a for b, a in zip(basis_vec, alpha)))
        if img is None:
            raise DatumError("reflection does not preserve the source lattice")
        cols.append(img)
    r = len(cols)
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


def classical_isogeny(series: str, rank: int, source_form: str,
                      target_form: str) -> IsogenyDatum:
    src = classical_datum(series, rank, source_form)
    tgt = classical_datum(series, rank, target_form)
    return build_isogeny(src, tgt)


def identity_isogeny(rd: RootDatum) -> IsogenyDatum:
    return build_isogeny(rd, rd)
