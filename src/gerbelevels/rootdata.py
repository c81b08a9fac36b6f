"""Root data for the classical series and lattice maps between them.

A RootDatum lives in a fixed ambient rational coordinate space with
orthonormal reference coordinates t_1..t_N (characters) and the dual
coordinates e_1..e_N (cocharacters); the reference pairing is the dot
product.  Character and cocharacter lattices are given by rational row
bases that are exactly dual: char_basis @ cochar_basis^T = identity.
Every ambient vector (basis vector, root, coroot) is a RatVector, integer
numerators over one reduced denominator, which is also its JSON form
{"num": [...], "den": d}.

Coordinate conventions used throughout the package:
  * coordinate vectors are columns; integer matrices act on the left;
  * cocharacter coordinates are taken against cochar_basis, which is the
    dual basis of char_basis, so the pairing of coordinate vectors is the
    plain dot product.

Coordinates are pairings.  Because the bases are dual, the j-th
coordinate of v in char_basis is <v, cochar_basis[j]> and the j-th
coordinate in cochar_basis is <char_basis[j], v>.  Each basis and the
basis it pairs against are held once per datum as integer rows over a
common denominator, so a coordinate vector is an integer matrix-vector
product over one denominator, and "integral" means that denominator
divides every entry: integer coordinates are those numerators divided
exactly, with no reduced RatVector formed (the *_coords_q methods form
one, for rational coordinates).  A span check comes first: the
coordinates are returned only when the combination they name gives v
back (an integer comparison), so a vector outside the span gets None,
and a returned vector is correct even on non-dual input.  validate_datum
checks the duality itself.  The one rational inverse needed, of a Gram
matrix for a dual basis, is read off its Smith form.  The orthogonal
projection onto the character span, which an isogeny from the datum
restricts characters along, is likewise held once per datum.

A homomorphism H -> G with central kernel and G = Z(G).Im(H) is encoded
by an IsogenyDatum: the restriction map on characters, the induced map on
cocharacters (its transpose), and the lifts of the coroots of G into the
cocharacter lattice of H.  Only the lattice-level consequences of the
hypotheses are represented; the center condition itself has no lattice
content beyond them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .intlinalg import (
    Frozen,
    Matrix,
    RatVector,
    Smith,
    Vector,
    cokernel,
    freeze,
    identity,
    matmul,
    matvec,
    over_common_denominator,
    transpose,
)

SERIES = ("A", "B", "C", "D")


class DatumError(ValueError):
    """Rejected or inconsistent root-datum input."""


def _pairing(x: RatVector, y: RatVector) -> tuple[int, int]:
    """<x, y> as a reduced (numerator, denominator)."""
    if len(x) != len(y):
        raise DatumError("ambient dimension mismatch")
    num = sum(map(mul, x.nums, y.nums))
    den = x.den * y.den
    g = gcd(num, den)
    return num // g, den // g


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms, written "n" or "n/d"."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _reflected(v: RatVector, alpha: RatVector, acheck: RatVector) -> RatVector:
    """v - <v, acheck> alpha."""
    p, q = _pairing(v, acheck)
    return RatVector.make(
        [q * alpha.den * x - p * v.den * a for x, a in zip(v.nums, alpha.nums)],
        q * v.den * alpha.den,
    )


class _Frame:
    """A basis and the basis it pairs against, as integer rows over one
    common denominator each, in an n-dimensional ambient space."""

    def __init__(self, basis: tuple[RatVector, ...], dual: tuple[RatVector, ...],
                 n: int):
        rows, self.den = over_common_denominator(basis)
        self.columns = tuple(tuple(row[j] for row in rows) for j in range(n))
        self.dual, self.dual_den = over_common_denominator(dual)

    def _numerators(self, v: RatVector) -> list[int] | None:
        """The coordinates of v times dual_den * v.den, or None when v is
        outside the span."""
        if len(v) != len(self.columns):
            raise DatumError("ambient dimension mismatch")
        c = [sum(map(mul, row, v.nums)) for row in self.dual]
        k = self.den * self.dual_den
        if any(sum(map(mul, col, c)) != k * x
               for col, x in zip(self.columns, v.nums)):
            return None
        return c

    def coords_q(self, v: RatVector) -> RatVector | None:
        """Coordinates of v, or None when v is outside the span."""
        c = self._numerators(v)
        return None if c is None else RatVector.make(c, self.dual_den * v.den)

    def coords(self, v: RatVector) -> Vector | None:
        """Integer coordinates of v, or None when v is outside the span or
        a coordinate is not an integer.  The numerators are divided
        exactly by their denominator, with no reduced RatVector between."""
        c = self._numerators(v)
        if c is None:
            return None
        k = self.dual_den * v.den
        if any(x % k for x in c):
            return None
        return tuple(x // k for x in c)

    def ambient(self, coords: RatVector) -> RatVector:
        """The combination of the basis with the given coordinates."""
        return RatVector.make(
            [sum(map(mul, col, coords.nums)) for col in self.columns],
            self.den * coords.den,
        )


class RootDatum(Frozen):
    _fields = ("name", "ambient_dim", "char_basis", "cochar_basis", "roots",
               "coroots", "simple_indices")

    @property
    def rank(self) -> int:
        return len(self.char_basis)

    # -- coordinates ------------------------------------------------------

    @cached_property
    def _char_frame(self) -> _Frame:
        return _Frame(self.char_basis, self.cochar_basis, self.ambient_dim)

    @cached_property
    def _cochar_frame(self) -> _Frame:
        return _Frame(self.cochar_basis, self.char_basis, self.ambient_dim)

    @cached_property
    def _span_projection(self) -> tuple[Matrix, int]:
        """The orthogonal projection onto the span of char_basis, as in
        _projection_onto_span; every isogeny from this datum reads it."""
        return _projection_onto_span(self.char_basis, self.ambient_dim)

    def char_coords(self, v: RatVector) -> Vector | None:
        return self._char_frame.coords(v)

    def cochar_coords(self, v: RatVector) -> Vector | None:
        return self._cochar_frame.coords(v)

    def char_coords_q(self, v: RatVector) -> RatVector | None:
        return self._char_frame.coords_q(v)

    def cochar_coords_q(self, v: RatVector) -> RatVector | None:
        return self._cochar_frame.coords_q(v)

    def char_ambient(self, coords: RatVector) -> RatVector:
        return self._char_frame.ambient(coords)

    def cochar_ambient(self, coords: RatVector) -> RatVector:
        return self._cochar_frame.ambient(coords)

    # -- roots ------------------------------------------------------------

    def _root_lattice_coords(self, a: RatVector) -> Vector:
        c = self.char_coords(a)
        if c is None:
            raise DatumError(f"root {_vector_text(a)} outside the character lattice")
        return c

    def _coroot_lattice_coords(self, a: RatVector) -> Vector:
        c = self.cochar_coords(a)
        if c is None:
            raise DatumError(
                f"coroot {_vector_text(a)} outside the cocharacter lattice")
        return c

    def _every_coords(self, vectors: tuple[RatVector, ...], solve,
                      side: int) -> tuple[Vector, ...]:
        """The coordinates of every root (side 0) or coroot (side 1), in
        index order: the simple ones read off _simple_coords, the rest
        solved here, each once."""
        known = dict(zip(self.simple_indices, self._simple_coords[side]))
        return tuple(known[k] if k in known else solve(v)
                     for k, v in enumerate(vectors))

    @cached_property
    def _root_coords(self) -> tuple[Vector, ...]:
        return self._every_coords(self.roots, self._root_lattice_coords, 0)

    @cached_property
    def _coroot_coords(self) -> tuple[Vector, ...]:
        return self._every_coords(self.coroots, self._coroot_lattice_coords, 1)

    def root_coords(self) -> tuple[Vector, ...]:
        return self._root_coords

    def coroot_coords(self) -> tuple[Vector, ...]:
        return self._coroot_coords

    @cached_property
    def _simple_coords(self) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
        """The coordinates of the simple roots and of their coroots, in the
        order of simple_indices: 2r solves, which _root_coords and
        _coroot_coords then reuse."""
        return (tuple(self._root_lattice_coords(self.roots[i])
                      for i in self.simple_indices),
                tuple(self._coroot_lattice_coords(self.coroots[i])
                      for i in self.simple_indices))

    @cached_property
    def cartan_matrix(self) -> Matrix:
        """c[i][j] = <alpha_j, alpha_i^vee> over the simple roots, in the
        order of simple_indices: the bases are dual, so a pairing is a dot
        product of coordinates.  Only the simple roots and coroots are
        solved for, 2r coordinate solves (_simple_coords), which the
        coordinates of all roots then reuse: weyl.group_order reads this
        matrix before the Weyl cap can refuse, and B60 has 7,200 roots."""
        roots, coroots = self._simple_coords
        return tuple(tuple(sum(map(mul, a, c)) for a in roots) for c in coroots)

    def simple_roots(self) -> tuple[RatVector, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    def root_index(self, v: RatVector) -> int | None:
        for i, a in enumerate(self.roots):
            if a == v:
                return i
        return None

    # -- reflections in basis coordinates ----------------------------------

    def reflection_char(self, root_index: int) -> Matrix:
        """s_alpha on X*(T) basis coordinates: chi -> chi - <chi, acheck> alpha,
        the matrix I - a c^T for root coordinates a and coroot coordinates c."""
        return _rank_one_reflection(self.root_coords()[root_index],
                                    self.coroot_coords()[root_index])

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "ambient_dim": self.ambient_dim,
            "char_basis": [_vector_json(r) for r in self.char_basis],
            "cochar_basis": [_vector_json(r) for r in self.cochar_basis],
            "roots": [_vector_json(r) for r in self.roots],
            "coroots": [_vector_json(r) for r in self.coroots],
            "simple_indices": list(self.simple_indices),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RootDatum":
        try:
            return cls(
                name=str(d["name"]),
                ambient_dim=freeze(d["ambient_dim"], 0),
                char_basis=_vectors_load(d["char_basis"]),
                cochar_basis=_vectors_load(d["cochar_basis"]),
                roots=_vectors_load(d["roots"]),
                coroots=_vectors_load(d["coroots"]),
                simple_indices=freeze(d["simple_indices"], 1),
            )
        except (KeyError, TypeError, ValueError) as err:
            detail = f"missing field {err}" if isinstance(err, KeyError) else err
            raise DatumError(f"malformed root datum: {detail}") from None


def _rank_one_reflection(a: Vector, c: Vector) -> Matrix:
    """I - a c^T."""
    return tuple(
        tuple((1 if i == j else 0) - ai * cj for j, cj in enumerate(c))
        for i, ai in enumerate(a)
    )


def _vector_json(v: RatVector) -> dict:
    return {"num": list(v.nums), "den": v.den}


def _vector_text(v: RatVector) -> str:
    return "(" + ", ".join(_ratio_text(x, v.den) for x in v.nums) + ")"


def _vectors_load(rows) -> tuple[RatVector, ...]:
    return tuple(RatVector.make(freeze(r["num"], 1), freeze(r["den"], 0))
                 for r in rows)


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


# ---------------------------------------------------------------------------
# validation


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


def _unit(n: int, *entries) -> tuple[int, ...]:
    """The integer vector of length n with the given (index, value) entries."""
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def _a_series_roots(n: int):
    roots = tuple(RatVector.make(_unit(n, (i, 1), (j, -1)))
                  for i in range(n) for j in range(n) if i != j)
    # e_i - e_j is at index i (n - 1) + j - (j > i), so e_i - e_(i+1) at i n
    return roots, roots, tuple(i * n for i in range(n - 1))


def _bcd_roots(series: str, n: int):
    pairs = [_unit(n, (i, si), (j, sj))
             for i in range(n) for j in range(i + 1, n)
             for si in (1, -1) for sj in (1, -1)]
    roots = list(pairs)
    coroots = list(pairs)
    # B: short roots e_i with coroots 2 e_i; C: long roots 2 e_i, coroots e_i
    root_len, coroot_len = {"B": (1, 2), "C": (2, 1)}.get(series, (0, 0))
    if root_len:
        for i in range(n):
            for s in (1, -1):
                roots.append(_unit(n, (i, root_len * s)))
                coroots.append(_unit(n, (i, coroot_len * s)))
    simple = [_unit(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
    if series == "D":
        simple.append(_unit(n, (n - 2, 1), (n - 1, 1)))
    else:
        simple.append(_unit(n, (n - 1, root_len)))
    return (tuple(map(RatVector.make, roots)), tuple(map(RatVector.make, coroots)),
            tuple(roots.index(v) for v in simple))


def _std_basis(n: int) -> tuple[RatVector, ...]:
    return tuple(RatVector.make(_unit(n, (i, 1))) for i in range(n))


def _dual_basis(basis: tuple[RatVector, ...]) -> tuple[RatVector, ...]:
    """Dual basis inside the span of basis (rows): G^-1 B for the Gram
    matrix G = B B^T.  With B = M / L for an integer matrix M,
    G^-1 B = L (M M^T)^-1 M, and the inverse comes from the Smith form."""
    m, den = over_common_denominator(basis)
    inv, d = Smith.of(matmul(m, transpose(m))).inverse()
    return tuple(RatVector.make([den * x for x in row], d)
                 for row in matmul(inv, m))


def classical_datum(series: str, rank: int, form: str) -> RootDatum:
    """Root datum of a classical group in reference coordinates.

    rank is the Dynkin rank: (A, r, SL) is SL(r+1), (B, n, Spin) is
    Spin(2n+1), (C, n, Sp) is Sp(2n), (D, n, SO) is SO(2n).  GL(r+1) is
    the A_r datum on the full rank r+1 torus.

    Each datum is built once per process (the 64 most recently asked
    for are kept): a RootDatum is frozen, so its coordinate frames and
    root coordinates, cached on first use, are shared by every caller.
    A rejected input is never cached.
    """
    return _classical_datum(series, rank, resolve_form(series, form))


# the default atlas reads 19 distinct data
@lru_cache(maxsize=64)
def _classical_datum(series: str, rank: int, form: str) -> RootDatum:
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
                RatVector.make([n * (i == j) - 1 for j in range(n)], n)
                for i in range(n - 1)
            )
            cochar = tuple(RatVector.make(_unit(n, (i, 1), (n - 1, -1)))
                           for i in range(n - 1))
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
    half_one = RatVector.make([1] * n, 2)
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


class IsogenyDatum(Frozen):
    """Lattice encoding of a homomorphism H -> G with central kernel.

    char_map sends X*(T) coordinates to X*(S) coordinates (restriction of
    characters along S -> T); cochar_map = char_map^T sends X_*(S)
    coordinates to X_*(T) coordinates; coroot_lift[k] is the k-th coroot
    of G written in X_*(S) coordinates (canonical, coming from the simply
    connected cover).
    """

    _fields = ("source", "target", "char_map", "cochar_map", "coroot_lift")

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

    @cached_property
    def source_reflections(self) -> tuple[Matrix, ...]:
        """The target's simple reflections on X*(S) basis coordinates, in
        the order of the target's simple_indices: v -> v - <v, acheck>
        alpha is I - a c^T, for a the coordinates of alpha in the source
        character basis and c = coroot_lift of acheck.  Raises DatumError
        when alpha has no integer coordinates there."""
        out = []
        for i in self.target.simple_indices:
            a = self.source.char_coords(self.target.roots[i])
            if a is None:
                raise DatumError("reflection does not preserve the source lattice")
            out.append(_rank_one_reflection(a, self.coroot_lift[i]))
        return tuple(out)

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
            coroot_lift=freeze(d["coroot_lift"]),
        )


def _projection_onto_span(basis: tuple[RatVector, ...],
                          n: int) -> tuple[Matrix, int]:
    """Orthogonal projection onto the row span of basis, B^T times the dual
    basis, as (p, d): the matrix p / d acts on ambient column vectors."""
    m, den = over_common_denominator(basis)
    dual, dual_den = over_common_denominator(_dual_basis(basis))
    return tuple(
        tuple(sum(row[s] * drow[t] for row, drow in zip(m, dual)) for t in range(n))
        for s in range(n)
    ), den * dual_den


def build_isogeny(source: RootDatum, target: RootDatum) -> IsogenyDatum:
    """Isogeny datum for source -> target sharing one ambient space.

    Requires the restriction of every target character to land in the
    source character lattice, and target coroots to lift into the source
    cocharacter lattice.
    """
    if source.ambient_dim != target.ambient_dim:
        raise DatumError("source and target live in different ambient spaces")
    proj, proj_den = source._span_projection
    char_cols = []
    for chi in target.char_basis:
        c = source.char_coords(RatVector.make(matvec(proj, chi.nums),
                                              proj_den * chi.den))
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
                f"coroot {_vector_text(ac)} of {target.name} does not lift "
                f"into X_*(S) of {source.name}"
            )
        lifts.append(c)
    iso = IsogenyDatum(source, target, char_map, cochar_map, tuple(lifts))
    _check_weyl_compatibility(iso)
    return iso


# m_ij, the order of s_i s_j, by the product c_ij c_ji of Cartan integers
_COXETER_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


def _check_weyl_compatibility(iso: IsogenyDatum) -> None:
    """Simple reflections of the target must act on both lattices
    compatibly with char_map: on the source, as iso.source_reflections.

    The source reflections M_i must also satisfy W's Coxeter relations,
    M_i^2 = I and (M_i M_j)^m_ij = I, with m_ij read from the target's
    Cartan matrix.  W has the presentation by those relations
    (Humphreys, Reflection Groups and Coxeter Groups, 1.9), so the
    product of source reflections along a word for w depends on w alone:
    w -> M_w is a homomorphism, which lets a cocycle be checked on
    generator edges (obstruction.centralizer_cocycle).  A pair whose
    c_ij c_ji is outside 0..3 has no finite m_ij: such simple roots pair
    positively, are dependent or generate an infinite group, and
    weyl.group_order refuses them.
    """
    tgt = iso.target
    mats = iso.source_reflections
    for i, m_s in zip(tgt.simple_indices, mats):
        if matmul(iso.char_map, tgt.reflection_char(i)) != matmul(m_s, iso.char_map):
            raise DatumError(
                "char_map does not commute with the shared reflection action"
            )
    one = identity(iso.source.rank)
    c = tgt.cartan_matrix
    simple = tgt.simple_indices
    for i, m_i in enumerate(mats):
        for j in range(i, len(mats)):
            # m_ii = 1: (M_i M_i)^1 = I
            m = 1 if i == j else _COXETER_ORDER.get(c[i][j] * c[j][i])
            if m is None:
                continue
            step = matmul(m_i, mats[j])
            power = step
            for _ in range(m - 1):
                power = matmul(power, step)
            if power != one:
                raise DatumError(
                    f"source reflections of root[{simple[i]}] and root[{simple[j]}] "
                    f"break the Coxeter relation of order {m}")


def classical_isogeny(series: str, rank: int, source_form: str,
                      target_form: str) -> IsogenyDatum:
    """The isogeny between two classical forms of one series and rank.

    Like the data it joins, each isogeny is built and checked once per
    process (the 64 most recently asked for are kept), and so are its
    source_reflections.  A rejected input is never cached.
    """
    return _classical_isogeny(classical_datum(series, rank, source_form),
                              classical_datum(series, rank, target_form))


# the default atlas reads 33 distinct isogenies
@lru_cache(maxsize=64)
def _classical_isogeny(src: RootDatum, tgt: RootDatum) -> IsogenyDatum:
    return build_isogeny(src, tgt)


def identity_isogeny(rd: RootDatum) -> IsogenyDatum:
    return build_isogeny(rd, rd)
