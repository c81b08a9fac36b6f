"""Finite cocycle models: Cech complexes on nerves, group and equivariant
cohomology, circle-cover log cocycles, and central extensions.

Coefficients are finitely generated abelian groups presented as
Z^free + Z/d1 + Z/d2 + ...; every computation happens on the free cover
Z^(free + torsion count) with explicit relation vectors, so all answers
are exact.  Where no class is located, the invariants are read off the
elementary divisors of the integer coboundaries out of and into the
degree (intlinalg.divisor_cohomology): Cech cohomology one cyclic
summand of the coefficients at a time, and equivariant and group
cohomology on Z^f or (Z/m)^k, whose actions compose exactly over Z.
Mixed equivariant coefficients and a located class (cocycle_class) build
the full presentation -- those coboundaries and the relation vectors on
both sides -- and hand it to intlinalg.subquotient, the routine that
also computes the stabilizer H^1 of obstruction.py.
Every coboundary matrix is built as rows by one emitter per direction:
_cech_rows for the Cech differential and _bar_rows for the bar
differential of a finite group.  The equivariant total differential puts
the two side by side on normalised cochains: its group tuples avoid the
identity, (|G|-1)^q of them in layer q instead of |G|^q, a sub-double-
complex quasi-isomorphic to the full one (Brown, Cohomology of Groups,
III.1; Weibel 6.5).  The --max-complex-size cap still counts the full
layers.  obstruction.py takes the stabilizer H^1 and its coboundary
solves from _bar_rows too, over all of W_L, so its class coordinates
are read in the full bar complex.  Cochain values are stored on sorted
simplices only, with the alternation sign applied on access.

Finite-group inputs are validated on a greedy generating set of k
elements (_greedy_generators), and each check there implies it on every
element: a group table is associative by Light's test on the
generators (FiniteGroupTable), an action is checked on the generator
edges s -> s w (FiniteAction), and the 2-cocycle identity with a
generator as its middle entry (check_two_cocycle); each docstring gives
the argument.  That is k n^2 work instead of n^3 for a table or a
cocycle, and k |G| products instead of |G|^2 for an action.  A central
extension's table is put together by index arithmetic, from the
addition table of A and the positions of psi's values, with no element
reduced per cell, and is refused past EXTENSION_CELL_CAP cells before
anything is built.

Overlap line bundles are modeled by their classes in the coefficient
group (powers of one fixed bundle); section-level data is collapsed to
the cocycle identities it satisfies.  Infinite multiplicative coefficient
groups are modeled by finite cyclic truncations Z/N with configurable N;
classification statements are exercised on torsion content only, as a
model choice, not an equivalence claim.
"""

from __future__ import annotations

import itertools
from math import gcd

from .intlinalg import (
    AbelianInvariants,
    CapExceeded,
    Frozen,
    Matrix,
    Smith,
    Value,
    Vector,
    divisor_cohomology,
    freeze,
    from_columns,
    identity,
    matmul,
    matvec,
    solve_z,
    subquotient,
    transpose,
)


class CechError(ValueError):
    pass


# ---------------------------------------------------------------------------
# coefficient groups


class CoefficientGroup(Frozen):
    """Z^free_rank + Z/torsion[0] + ... with elements as int tuples."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0 or any(d < 2 for d in torsion):
            raise CechError("invalid coefficient group")
        super().__init__(free_rank, torsion)

    @property
    def size(self) -> int:
        return self.free_rank + len(self.torsion)

    def zero(self) -> Vector:
        return (0,) * self.size

    def reduce(self, v) -> Vector:
        if len(v) != self.size:
            raise CechError("element has wrong length")
        out = list(int(x) for x in v)
        for i, d in enumerate(self.torsion):
            out[self.free_rank + i] %= d
        return tuple(out)

    def add(self, a, b) -> Vector:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a) -> Vector:
        return self.reduce(tuple(-x for x in a))

    def scale(self, k: int, a) -> Vector:
        return self.reduce(tuple(k * x for x in a))

    def elements(self):
        """All elements; only valid for finite groups."""
        if self.free_rank:
            raise CechError("infinite coefficient group")
        ranges = [range(d) for d in self.torsion]
        for tup in itertools.product(*ranges):
            yield tuple(tup)

    def order(self) -> int:
        if self.free_rank:
            raise CechError("infinite coefficient group")
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def is_automorphism(self, m: Matrix) -> bool:
        """Integer matrix inducing an automorphism of the group."""
        if len(m) != self.size or any(len(row) != self.size for row in m):
            return False
        rels = _relations(self.size, self)
        for rel in rels:
            img = matvec(m, rel)
            if not self._in_relation_lattice(img):
                return False
        # surjectivity: every standard generator is hit modulo relations,
        # i.e. has order 1 modulo the span of the images and relations
        images = Smith.of(from_columns(transpose(m) + rels, self.size))
        return all(images.reduce(e)[1] == 1 for e in identity(self.size))

    def _in_relation_lattice(self, v) -> bool:
        if not self.torsion:
            return not any(v)
        if any(v[: self.free_rank]):
            return False
        return all(
            v[self.free_rank + i] % d == 0 for i, d in enumerate(self.torsion)
        )

    # reads only free_rank and torsion; the torsion here need not form a
    # divisibility chain
    label = AbelianInvariants.label


def parse_group_label(text: str) -> CoefficientGroup:
    """Parse labels like "Z", "Z/4", "Z^2+Z/2+Z/6", "0"."""
    if not isinstance(text, str):
        raise CechError(f"group label must be a string, not {text!r}")
    text = text.replace(" ", "")
    if text in ("0", ""):
        return CoefficientGroup(0, ())
    free = 0
    torsion = []
    for part in text.split("+"):
        kind, count = part[:2], part[2:]
        if part == "Z":
            free += 1
        elif kind in ("Z^", "Z/") and count.isascii() and count.isdigit():
            if kind == "Z^":
                free += int(count)
            else:
                torsion.append(int(count))
        else:
            raise CechError(f"cannot parse group label {text!r}")
    return CoefficientGroup(free, tuple(torsion))


ZZ = CoefficientGroup(1, ())


def _malformed(what: str, err: Exception) -> CechError:
    """One-line error for a fixture whose JSON has the wrong shape."""
    detail = f"missing field {err}" if isinstance(err, KeyError) else str(err)
    return CechError(f"malformed {what}: {detail}")


# ---------------------------------------------------------------------------
# nerves


class Nerve(Frozen):
    """Downward-closed simplex sets over vertices 0..n_vertices-1;
    simplices[p] holds the p-simplices."""

    _fields = ("n_vertices", "simplices")

    def __init__(self, n_vertices: int,
                 simplices: tuple[tuple[tuple[int, ...], ...], ...]):
        seen = [set(s) for s in simplices]
        for p, level in enumerate(simplices):
            for s in level:
                if list(s) != sorted(set(s)):
                    raise CechError(f"simplex {s} not sorted/distinct")
                if len(s) != p + 1:
                    raise CechError(f"simplex {s} at wrong dimension {p}")
                if any(v < 0 or v >= n_vertices for v in s):
                    raise CechError(f"simplex {s} has an invalid vertex")
                if p:
                    for i in range(p + 1):
                        if s[:i] + s[i + 1:] not in seen[p - 1]:
                            raise CechError(f"face of {s} missing (not a complex)")
        super().__init__(n_vertices, simplices)

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def level(self, p: int) -> tuple[tuple[int, ...], ...]:
        if p < 0 or p > self.dim:
            return ()
        return self.simplices[p]

    def index(self, p: int) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.level(p))}

    def to_json_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "simplices": [[list(s) for s in level] for level in self.simplices],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Nerve":
        try:
            n_vertices = freeze(d["n_vertices"], 0)
            simplices = freeze(d["simplices"], 3)
        except (KeyError, TypeError, ValueError) as err:
            raise _malformed("nerve", err) from None
        return cls(n_vertices, simplices)

    @classmethod
    def from_maximal(cls, n_vertices: int, maximal) -> "Nerve":
        by_dim: dict[int, set] = {}
        for s in maximal:
            s = tuple(sorted(set(s)))
            for k in range(1, len(s) + 1):
                for face in itertools.combinations(s, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        top = max(by_dim) if by_dim else -1
        return cls(
            n_vertices,
            tuple(tuple(sorted(by_dim.get(p, ()))) for p in range(top + 1)),
        )


# the default highest dimension of a nerve built from a cover
NERVE_DIM_CAP = 4


def nerve_of_cover(cover, dim_cap: int = NERVE_DIM_CAP,
                   reads: int | None = None) -> Nerve:
    """Nerve of a cover by finite sets, up to the dimension cap.

    reads, when given, is the highest dimension the caller reads: no
    level above it is built, and if the cap cuts off a simplex of
    dimension at most reads, the answer would be that of a truncated
    nerve, and CapExceeded is raised instead.
    """
    sets = [frozenset(c) for c in cover]
    if not sets:
        raise CechError("empty cover")
    n = len(sets)
    levels = []
    current = [((i,), sets[i]) for i in range(n) if sets[i]]
    if not current:
        raise CechError("cover has no nonempty set")
    levels.append(tuple(s for s, _ in current))
    p, top = 0, dim_cap if reads is None else min(dim_cap, reads)
    while p < top and current:
        nxt = []
        for simplex, inter in current:
            for v in range(simplex[-1] + 1, n):
                meet = inter & sets[v]
                if meet:
                    nxt.append((simplex + (v,), meet))
        if not nxt:
            break
        levels.append(tuple(s for s, _ in nxt))
        current = nxt
        p += 1
    if reads is not None and p == dim_cap < reads and any(
            inter & sets[v] for simplex, inter in current
            for v in range(simplex[-1] + 1, n)):
        raise CapExceeded(
            f"nerve has simplices of dimension {dim_cap + 1}, over the "
            f"dimension cap {dim_cap}")
    return Nerve(n, tuple(levels))


def simplex_cone_nerve(n_vertices: int) -> Nerve:
    """Full simplex on the vertices: contractible reference complex."""
    return Nerve.from_maximal(n_vertices, [tuple(range(n_vertices))])


def circle_nerve(arcs: int = 3) -> Nerve:
    if arcs < 3:
        raise CechError("a circle cover needs at least 3 arcs")
    edges = [(i, i + 1) for i in range(arcs - 1)] + [(0, arcs - 1)]
    return Nerve.from_maximal(arcs, edges)


def octahedron_nerve() -> Nerve:
    """Nerve of the 6-cap cover of a sphere: the octahedron boundary."""
    opposite = {0: 5, 1: 3, 2: 4, 3: 1, 4: 2, 5: 0}
    faces = []
    for f in itertools.combinations(range(6), 3):
        if all(opposite[a] not in f for a in f):
            faces.append(f)
    return Nerve.from_maximal(6, faces)


# ---------------------------------------------------------------------------
# cochains


def _sort_sign(seq) -> tuple[tuple[int, ...], int]:
    """Sorted tuple and the parity of the sorting permutation."""
    idx = sorted(range(len(seq)), key=lambda i: seq[i])
    out = tuple(seq[i] for i in idx)
    sign = 1
    perm = list(idx)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return out, sign


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
# plain Cech cohomology with presented coefficients


def _cech_rows(nerve: Nerve, p: int, size: int, sign: int):
    """Rows of sign * delta^p : C^p -> C^(p+1) on the free cover of size
    coefficient coordinates, (dc)(v_0..v_{p+1}) = sum_i (-1)^i c(drop v_i):
    one row per (p+1)-simplex and coordinate, columns (p-simplex,
    coordinate)."""
    src_idx = nerve.index(p)
    width = len(src_idx) * size
    for s in nerve.level(p + 1):
        faces = [(src_idx[s[:i] + s[i + 1:]] * size, sign if i % 2 == 0 else -sign)
                 for i in range(p + 2)]
        for c in range(size):
            row = [0] * width
            for base, coef in faces:
                row[base + c] = coef
            yield tuple(row)


def _cech_matrix(nerve: Nerve, p: int, size: int) -> Matrix:
    """Free-cover matrix of delta^p : C^p -> C^(p+1)."""
    return tuple(_cech_rows(nerve, p, size, 1))


def _relations(total: int, group: CoefficientGroup) -> tuple[Vector, ...]:
    """Torsion relations of every coefficient slot of a free-cover cochain
    vector with total coordinates, slot by slot."""
    out = []
    for base in range(0, total, group.size) if group.torsion else ():
        for i, d in enumerate(group.torsion):
            v = [0] * total
            v[base + group.free_rank + i] = d
            out.append(tuple(v))
    return tuple(out)


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


def cohomology(nerve: Nerve, p: int, group: CoefficientGroup) -> AbelianInvariants:
    """H^p of the nerve with the given coefficients, from the elementary
    divisors of the integer Cech complex.  The differential acts on each
    coefficient coordinate alone, so H^p is the sum over the cyclic
    summands of the coefficients, all read off the size-1 matrices."""
    if p < 0:
        raise CechError("negative degree")
    if p > nerve.dim:
        return AbelianInvariants(0, ())
    return divisor_cohomology(
        len(nerve.level(p)), _cech_matrix(nerve, p, 1),
        _cech_matrix(nerve, p - 1, 1) if p else (),
        (0,) * group.free_rank + group.torsion)


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


# ---------------------------------------------------------------------------
# finite groups and actions


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


class FiniteGroupTable(Frozen):
    """Multiplication table on elements 0..n-1; table[i][j] = i*j.

    Validated in order: the shape, a two-sided identity (found once), a
    two-sided inverse of every element (read off its row), and
    associativity by Light's test on greedy generators (_greedy_generators):
    (x a) y = x (a y) for every x, y and generator a, k n^2 checks for k
    generators instead of n^3.  The middle elements a that pass are closed
    under products, x(ab).y = (xa)b.y = xa.by = x.a(by) = x.(ab)y, and
    include the identity, so they include every word in the generators,
    which is every element (Clifford-Preston, The Algebraic Theory of
    Semigroups I, 1.2).  identity, inverses and generators are found by
    the validation; the table alone is compared and hashed.
    """

    _fields = ("table",)

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        t = tuple(map(tuple, table))
        n = len(t)
        for row in t:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise CechError("malformed multiplication table")
        straight = tuple(range(n))
        e = next((x for x in straight if t[x] == straight
                  and all(r[x] == i for i, r in enumerate(t))), None)
        if e is None:
            raise CechError("table has no identity element")
        inverses = []
        for a, row in enumerate(t):
            b = row.index(e) if e in row else None
            if b is None or t[b][a] != e:
                b = next((b for b in straight if row[b] == e and t[b][a] == e),
                         None)
                if b is None:
                    raise CechError(f"element {a} has no inverse")
            inverses.append(b)
        gens = _greedy_generators(range(n), e, t.__getitem__, n)[0]
        for g in gens:
            g_row = t[g]
            for x_row in t:
                # the row of x g against x (g y) for every y
                if t[x_row[g]] != tuple(map(x_row.__getitem__, g_row)):
                    raise CechError("table is not associative")
        super().__init__(t)
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inverses", tuple(inverses))
        object.__setattr__(self, "generators", gens)

    @property
    def n(self) -> int:
        return len(self.table)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverses[a]

    def order_multiset(self) -> tuple[int, ...]:
        """The orders of the elements, sorted.  Each cyclic subgroup <a>
        is walked once, from an element not yet reached: its m powers
        a, a^2, ..., a^m = e give ord(a^k) = m / gcd(k, m)."""
        t, e = self.table, self.identity
        orders = [0] * len(t)
        for a in range(len(t)):
            if orders[a]:
                continue
            powers = [a]
            while powers[-1] != e:
                powers.append(t[powers[-1]][a])
            m = len(powers)
            for k, x in enumerate(powers, 1):
                orders[x] = m // gcd(k, m)
        return tuple(sorted(orders))

    def center_size(self) -> int:
        return sum(map(tuple.__eq__, self.table, zip(*self.table)))

    def to_json_dict(self) -> dict:
        return {"table": [list(r) for r in self.table]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteGroupTable":
        return cls(freeze(d["table"]))


def cyclic_group(n: int) -> FiniteGroupTable:
    return FiniteGroupTable(
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    )


class FiniteAction(Frozen):
    """A finite group acting on a nerve and on the coefficient group.

    vertex_perms[g][v] is the image of vertex v under g; coeff_actions[g]
    is an integer matrix inducing an automorphism of the coefficients.

    Every vertex map must be a permutation and every matrix square of the
    coefficients' size.  The rest is checked on the group's generators S
    (FiniteGroupTable.generators): the identity acts trivially, each
    generator's matrix is an automorphism and its vertex map preserves
    the nerve, and phi(s w) = phi(s) phi(w) on every generator edge, s in
    S and w in G, k |G| checks instead of |G|^2.  By induction on the
    length of a word for a = s a', phi(a b) = phi(s) phi(a' b) =
    phi(s) phi(a') phi(b) = phi(a) phi(b), so phi is a homomorphism, and
    each phi(a) is a product of generator images: an automorphism that
    preserves the nerve.
    """

    _fields = ("group", "nerve", "coefficients", "vertex_perms", "coeff_actions")

    def __init__(self, group: FiniteGroupTable, nerve: Nerve,
                 coefficients: CoefficientGroup,
                 vertex_perms: tuple[tuple[int, ...], ...],
                 coeff_actions: tuple[Matrix, ...]):
        g = group
        perms, mats = vertex_perms, coeff_actions
        if len(perms) != g.n or len(mats) != g.n:
            raise CechError("action tables have wrong length")
        nv = nerve.n_vertices
        for perm in perms:
            if sorted(perm) != list(range(nv)):
                raise CechError("vertex map is not a permutation")
        size = coefficients.size
        square = all(len(m) == size and all(len(row) == size for row in m)
                     for m in mats)
        if not square or not all(coefficients.is_automorphism(mats[s])
                                 for s in g.generators):
            raise CechError("coefficient action is not an automorphism")
        e = g.identity
        if perms[e] != tuple(range(nv)):
            raise CechError("identity must act trivially on vertices")
        if mats[e] != identity(size):
            raise CechError("identity must act trivially on coefficients")
        for s in g.generators:
            p_s, m_s = perms[s], mats[s]
            for w, sw in enumerate(g.table[s]):
                if tuple(map(p_s.__getitem__, perms[w])) != perms[sw]:
                    raise CechError("vertex action is not a homomorphism")
                if matmul(m_s, mats[w]) != mats[sw]:
                    raise CechError("coefficient action is not a homomorphism")
        # the nerve must be stable
        levels = [frozenset(level) for level in nerve.simplices]
        for s in g.generators:
            perm = perms[s]
            for members in levels:
                for simplex in members:
                    if tuple(sorted(perm[v] for v in simplex)) not in members:
                        raise CechError("action does not preserve the nerve")
        super().__init__(group, nerve, coefficients, vertex_perms, coeff_actions)

    def act_on_simplex(self, g: int, s) -> tuple[tuple[int, ...], int]:
        perm = self.vertex_perms[g]
        moved = [perm[v] for v in s]
        return _sort_sign(moved)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json_dict(),
            "nerve": self.nerve.to_json_dict(),
            "coefficients": self.coefficients.label(),
            "vertex_perms": [list(p) for p in self.vertex_perms],
            "coeff_actions": [[list(r) for r in m] for m in self.coeff_actions],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteAction":
        try:
            fields = dict(
                group=FiniteGroupTable.from_json_dict(d["group"]),
                nerve=Nerve.from_json_dict(d["nerve"]),
                coefficients=parse_group_label(d["coefficients"]),
                vertex_perms=freeze(d["vertex_perms"]),
                coeff_actions=freeze(d["coeff_actions"], 3),
            )
        except CechError:
            raise
        except (KeyError, TypeError, ValueError) as err:
            raise _malformed("action", err) from None
        return cls(**fields)


def trivial_action(group: FiniteGroupTable, nerve: Nerve,
                   coefficients: CoefficientGroup) -> FiniteAction:
    return FiniteAction(
        group,
        nerve,
        coefficients,
        tuple(tuple(range(nerve.n_vertices)) for _ in range(group.n)),
        tuple(identity(coefficients.size) for _ in range(group.n)),
    )


def point_action(group: FiniteGroupTable, coefficients: CoefficientGroup,
                 coeff_actions=None) -> FiniteAction:
    nerve = simplex_cone_nerve(1)
    if coeff_actions is None:
        coeff_actions = tuple(
            identity(coefficients.size) for _ in range(group.n)
        )
    return FiniteAction(
        group, nerve, coefficients,
        tuple((0,) for _ in range(group.n)),
        tuple(coeff_actions),
    )


# ---------------------------------------------------------------------------
# equivariant cohomology via the double complex


def _bar_rows(q: int, prod, actions, pull):
    """Rows of the bar differential C^q -> C^(q+1) of a finite group,
    (df)(g_1..g_{q+1}) = g_1.f(g_2..g_{q+1})
                         + sum_{i=1..q} (-1)^i f(.., g_i g_{i+1}, ..)
                         + (-1)^(q+1) f(g_1..g_q).

    The tuples run over the positions 0..n-1 of actions, in lexicographic
    order, and actions[g] is the coefficient matrix of g.  prod[a][b] (read
    only for q >= 1) is the position of a*b, or None where a*b is not
    among the positions: the equivariant complex passes the elements other
    than the identity, so its cochains are the normalised ones, which
    vanish on every tuple containing the identity, and a merged term equal
    to the identity drops out.  The stabilizer H^1 of obstruction.py and
    its coboundary solves pass all of W_L, whose table has no None, and
    read the full rows.  Cochain values live on the simplices of one
    level: pull[g][s] = (s', sign) says g^-1.s = sign.s', so (g.f)(s) =
    sign * actions[g] f(s'); a point has the pull table ((0, 1),) for
    every element.  One row per (q+1)-tuple, simplex and coefficient
    coordinate; columns (q-tuple, simplex, coordinate).
    """
    n = len(actions)
    m = len(pull[0])
    r = len(actions[0])
    power = [n ** k for k in range(q + 2)]
    width = power[q] * m * r
    for idx, t in enumerate(itertools.product(range(n), repeat=q + 1)):
        g = t[0]
        rho = actions[g]
        rest = idx % power[q]
        # q-tuples of the other terms with their signs: the merged pair
        # g_i g_{i+1} sits between the digits of idx above and below it
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


def _equivariant_matrices(act: FiniteAction, n: int, cap: int):
    """Free-cover matrix of the total differential T^n -> T^(n+1) on
    normalised cochains: block (q, p) has one column group per q-tuple of
    elements other than the identity, (|G|-1)^q of them.

    The rows of block (q, p) of T^(n+1) are the bar rows out of block
    (q-1, p) of T^n next to (-1)^q times the Cech rows out of block
    (q, p-1), the latter once per q-tuple.  The cap is checked on the
    unnormalised layers, |G|^q tuples per block.
    """
    g = act.group
    nerve = act.nerve
    size = act.coefficients.size
    e = g.identity
    others = [x for x in range(g.n) if x != e]
    k = len(others)

    def layout(m: int):
        """Offsets of the (q, p) blocks of total degree m that have
        coordinates, and their total size, in order of increasing q.
        Only Cech degrees p <= nerve.dim have simplices.  A block whose
        |G|^q alone has 64 more bits than the cap is refused by that bit
        count, without forming |G|^q."""
        offs = {}
        total = counted = 0
        for p in range(min(m, nerve.dim), -1, -1):
            q = m - p
            slots = len(nerve.level(p)) * size
            if slots and q * (g.n.bit_length() - 1) > cap.bit_length() + 64:
                raise CapExceeded(f"equivariant complex needs more than {cap} "
                                  "coordinates, the cap")
            counted += g.n ** q * slots
            if k ** q * slots:
                offs[(q, p)] = total
                total += k ** q * slots
        if counted > cap:
            raise CapExceeded(f"equivariant complex needs {counted} coordinates, "
                              f"over the cap {cap}")
        return offs, total

    src_offs, src_total = layout(n)
    dst_offs, dst_total = layout(n + 1)
    inverse = g.inverses
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
                          (act.act_on_simplex(inverse[x], s) for s in level))
                    for x in others]
            bar = _bar_rows(q - 1, prod, actions, pull)
            b_off, bw = src_offs[(q - 1, p)], k ** (q - 1) * per_tuple
        else:
            bar = itertools.repeat(())
            b_off, bw = 0, 0
        if p:
            cech = tuple(_cech_rows(nerve, p - 1, size, -1 if q % 2 else 1))
            c_off, cw = src_offs[(q, p - 1)], len(nerve.level(p - 1)) * size
        else:
            cech = ((),) * per_tuple
            c_off, cw = b_off + bw, 0
        lead = (0,) * b_off
        for t in range(k ** q):
            gap = (0,) * (c_off + t * cw - b_off - bw)
            tail = (0,) * (src_total - c_off - (t + 1) * cw)
            for crow in cech:
                rows.append(lead + next(bar) + gap + crow + tail)
    return tuple(rows), src_total, dst_total


# the default bound on the coordinates of the equivariant complex's layers
# (_equivariant_matrices)
COMPLEX_SIZE_CAP = 60000


def equivariant_cohomology(
    act: FiniteAction, degree: int, cap: int = COMPLEX_SIZE_CAP
) -> AbelianInvariants:
    """Total cohomology of the group-direction x Cech double complex.

    With the trivial group this agrees with plain cohomology of the
    nerve; on a point nerve it is group cohomology of the acting group.
    """
    if degree < 0:
        raise CechError("negative degree")
    # the cap counts the unnormalised layers, and each one bounds the
    # normalised layer that is built; counted T^(m+1) has at least |G|
    # times the coordinates of counted T^m, so the cap check of the first
    # call, on T^n and T^(n+1), bounds every layer built and refuses before
    # anything is allocated
    d_out, n_here, n_next = _equivariant_matrices(act, degree, cap)
    d_in = _equivariant_matrices(act, degree - 1, cap)[0] if degree else ()
    group = act.coefficients
    if not group.torsion or (not group.free_rank and len(set(group.torsion)) == 1):
        # Z^f or (Z/m)^k: the relations are m times the free cover, and
        # FiniteAction admits only actions that compose exactly over Z, so
        # the free cover is an integer complex tensored with Z/m
        m = group.torsion[0] if group.torsion else 0
        return divisor_cohomology(n_here, d_out, d_in, (m,))
    return subquotient(n_here, d_out, _relations(n_next, group), d_in,
                       _relations(n_here, group))[0]


def group_cohomology(table: FiniteGroupTable, coefficients: CoefficientGroup,
                     degree: int, coeff_actions=None,
                     cap: int = COMPLEX_SIZE_CAP) -> AbelianInvariants:
    """Group cohomology via the one-point equivariant model."""
    act = point_action(table, coefficients, coeff_actions)
    return equivariant_cohomology(act, degree, cap)


# ---------------------------------------------------------------------------
# central extensions from 2-cocycles


class ExtensionResult(Frozen):
    _fields = ("table", "element_labels", "order_multiset", "center_size")


# cells of the largest extension table built, (|A| |G|)^2: 1024 elements
EXTENSION_CELL_CAP = 2**20


def _addition_table(coeff: CoefficientGroup) -> list[list[int]]:
    """add[i][j] = the position of the sum of elements i and j of a finite
    coefficient group, in the order of coeff.elements(): mixed radix, the
    first torsion slot most significant."""
    add = [[0]]
    for d in coeff.torsion:
        cycle = list(range(d)) * 2
        add = [[i * d + j for i in row for j in cycle[b:b + d]]
               for row in add for b in range(d)]
    return add


def _cocycle_positions(group: FiniteGroupTable, coeff: CoefficientGroup,
                       psi: dict) -> list[list[int]]:
    """p[g1][g2] = the position of psi(g1, g2) in coeff.elements(), each
    value reduced once; an absent pair is 0.  Raises unless every pair
    of psi is in G x G and psi vanishes on every pair with the identity,
    which is read first."""
    get, torsion = psi.get, coeff.torsion
    e, span = group.identity, range(group.n)
    for a, b in psi:
        if a not in span or b not in span:
            raise CechError(f"2-cochain pair {(a, b)} is outside the group")

    def position(a, b):
        v = get((a, b))
        if v is None:
            return 0
        k = 0
        for x, d in zip(coeff.reduce(v), torsion):
            k = k * d + x
        return k

    if any(position(e, x) or position(x, e) for x in span):
        raise CechError("2-cochain is not normalized")
    return [[position(a, b) for b in span] for a in span]


def _first_cocycle_failure(group: FiniteGroupTable, add, p
                           ) -> tuple[int, int, int] | None:
    """The first (g1, s, g3), s a generator, where
    psi(s, g3) + psi(g1, s g3) != psi(g1 s, g3) + psi(g1, s), for psi
    given by its positions p and add the addition table."""
    t = group.table
    for g1, (p1, t1) in enumerate(zip(p, t)):
        for s in group.generators:
            lhs = [add[a][p1[b]] for a, b in zip(p[s], t[s])]
            right = add[p1[s]]
            rhs = [right[a] for a in p[t1[s]]]
            if lhs != rhs:
                return g1, s, next(g3 for g3, (x, y) in enumerate(zip(lhs, rhs))
                                   if x != y)
    return None


def check_two_cocycle(group: FiniteGroupTable, coeff: CoefficientGroup,
                      psi: dict) -> tuple[int, int, int] | None:
    """First violating triple of the (central) 2-cocycle identity, if any,
    for a normalised psi with finite coefficients.

    The identity is checked with its middle entry g2 = s a generator of G
    (FiniteGroupTable.generators), k |G|^2 checks instead of |G|^3.  It
    says that (0, s) passes Light's test in A x_psi G, whose associators
    are the identity's two sides minus each other.  A normalised psi makes
    every (a, e) central, so it passes too, and these elements generate
    the extension: it is associative, which is the identity for every
    triple.  The triple returned has a generator in the middle.
    """
    if coeff.free_rank:
        raise CechError("2-cocycle checks need finite coefficients")
    return _first_cocycle_failure(group, _addition_table(coeff),
                                  _cocycle_positions(group, coeff, psi))


def check_extension_size(group_order: int, coeff: CoefficientGroup) -> None:
    """Refuse an extension of a group of this order by coeff whose table
    would have more than EXTENSION_CELL_CAP cells, before anything is
    built."""
    if coeff.free_rank:
        raise CechError("extension tables need finite coefficients")
    cells = (coeff.order() * group_order) ** 2
    if cells > EXTENSION_CELL_CAP:
        raise CapExceeded(f"extension table needs {cells} cells, over the cap "
                          f"{EXTENSION_CELL_CAP}")


def central_extension_from_cocycle(
    group: FiniteGroupTable, coeff: CoefficientGroup, psi: dict
) -> ExtensionResult:
    """Multiplication table of A x_psi G; rejects non-cocycles.

    (a1, g1) (a2, g2) = (a1 + a2 + psi(g1, g2), g1 g2); associativity is
    exactly the cocycle identity, checked with a generator in the middle
    as check_two_cocycle checks it, and re-verified by Light's test on the
    built table.
    The element (a, g) sits at position a * |G| + g, with a the position
    of a in coeff.elements(), and each row is put together from blocks
    read off the addition table of A and the positions of psi.  Raises
    CapExceeded before psi is read when the table would have more than
    EXTENSION_CELL_CAP cells.
    """
    check_extension_size(group.n, coeff)
    add = _addition_table(coeff)
    p = _cocycle_positions(group, coeff, psi)
    bad = _first_cocycle_failure(group, add, p)
    if bad is not None:
        raise CechError(f"not a 2-cocycle: fails on triple {bad}")
    n = group.n
    # blocks[g1][c] is row (a1, g1) over the a2 with a1 + a2 = c: the
    # positions of (c + psi(g1, g2), g1 g2) for every g2
    blocks = [[tuple([row[x] * n + y for x, y in zip(p1, t1)]) for row in add]
              for p1, t1 in zip(p, group.table)]
    ext = FiniteGroupTable(tuple(
        tuple(itertools.chain.from_iterable(map(block.__getitem__, sums)))
        for sums in add for block in blocks))
    elems = [(a, g) for a in coeff.elements() for g in range(n)]
    return ExtensionResult(
        ext,
        tuple(elems),
        ext.order_multiset(),
        ext.center_size(),
    )


# ---------------------------------------------------------------------------
# circle covers of a torus and the level-induced cocycle


class TorusCoverModel(Frozen):
    """Product of subdivided circles with branch offsets on overlaps.

    arc_counts[i] arcs cover the i-th circle factor; offsets assign to
    every nerve edge the lattice jump between adjacent branches, and must
    satisfy the additive cocycle relation on triple overlaps.
    """

    _fields = ("arc_counts", "windings", "nerve", "vertex_labels", "offsets")

    def __init__(self, arc_counts: tuple[int, ...], windings: tuple[int, ...],
                 nerve: Nerve, vertex_labels: tuple[tuple[int, ...], ...],
                 offsets: dict):
        super().__init__(arc_counts, windings, nerve, vertex_labels, offsets)
        lam = self.cocycle()
        if not coboundary(lam).is_zero():
            raise CechError("branch offsets violate the triple-overlap relation")

    @property
    def rank(self) -> int:
        return len(self.arc_counts)

    def cocycle(self) -> Cochain:
        group = CoefficientGroup(self.rank, ())
        return Cochain(self.nerve, 1, group, dict(self.offsets))


def torus_cover_model(arc_counts, windings) -> TorusCoverModel:
    """Standard model: branch jumps concentrated on the wraparound edges."""
    arc_counts = tuple(int(k) for k in arc_counts)
    windings = tuple(int(w) for w in windings)
    if len(arc_counts) != len(windings):
        raise CechError("one winding per circle factor required")
    if any(k < 3 for k in arc_counts):
        raise CechError("each circle needs at least 3 arcs")
    rank = len(arc_counts)
    # ground set: 2k sample points per circle, arc a covers {2a, 2a+1, 2a+2}
    factors = []
    for k in arc_counts:
        arcs = []
        for a in range(k):
            arcs.append(frozenset({(2 * a) % (2 * k), 2 * a + 1, (2 * a + 2) % (2 * k)}))
        factors.append(arcs)
    labels = list(itertools.product(*[range(k) for k in arc_counts]))
    cover = []
    for lab in labels:
        pts = set(itertools.product(*[factors[i][a] for i, a in enumerate(lab)]))
        cover.append(pts)
    nerve = nerve_of_cover(cover, dim_cap=2 * rank)
    label_of = {i: labels[i] for i in range(len(labels))}

    def factor_jump(i, a, b):
        k = arc_counts[i]
        if a == b:
            return 0
        if (a, b) == (0, k - 1):
            return windings[i]
        if (a, b) == (k - 1, 0):
            return -windings[i]
        if b == a + 1:
            return 0
        if b == a - 1:
            return 0
        raise CechError("non-adjacent arcs sharing points")

    offsets = {}
    for (u, v) in nerve.level(1):
        la, lb = label_of[u], label_of[v]
        vec = tuple(
            factor_jump(i, la[i], lb[i]) for i in range(rank)
        )
        if any(vec):
            offsets[(u, v)] = vec
    return TorusCoverModel(arc_counts, windings, nerve, tuple(labels), offsets)


def torus_log_cocycle(model: TorusCoverModel) -> Cochain:
    """The branch-jump 1-cocycle; verified against the nerve."""
    lam = model.cocycle()
    if not coboundary(lam).is_zero():
        raise CechError("branch offsets do not form a cocycle")
    return lam


def winding_pairing(model: TorusCoverModel, c: Cochain) -> tuple[Vector, ...]:
    """Sums of a 1-cochain along each coordinate loop of the model.

    The traversal orientation is fixed so that the branch-jump cocycle of
    the standard model pairs to exactly its winding vector (values are
    taken on (next arc, this arc), matching jump = new branch - old).
    The pairing kills coboundaries, so it reads off the cohomology class.
    """
    rank = model.rank
    label_pos = {lab: i for i, lab in enumerate(model.vertex_labels)}
    out = []
    for i in range(rank):
        k = model.arc_counts[i]
        total = c.group.zero()
        base = [0] * rank
        for a in range(k):
            u = list(base)
            v = list(base)
            u[i] = a
            v[i] = (a + 1) % k
            total = c.group.add(
                total, c.value((label_pos[tuple(v)], label_pos[tuple(u)]))
            )
        out.append(total)
    return tuple(out)


def gerbe_cocycle_from_level(lam: Cochain, level) -> Cochain:
    """Push a lattice-valued 1-cocycle through bmap of a level tensor.

    Additive in the level and odd under lam -> -lam; the output is the
    overlap-class cocycle of the induced construction.
    """
    b = level
    r_t = b.iso.target.rank
    if lam.group.torsion or lam.group.free_rank != r_t:
        raise CechError(
            f"cocycle values must live in the rank-{r_t} cocharacter lattice"
        )
    out_group = CoefficientGroup(b.iso.source.rank, ())
    return lam.map_values(lambda v: matvec(b.matrix, v), out_group)
