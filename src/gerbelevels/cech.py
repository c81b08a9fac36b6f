"""Finite cocycle models: Cech complexes on nerves, group and equivariant
cohomology, and central extensions.

Coefficients are finitely generated abelian groups presented as
Z^free + Z/d1 + Z/d2 + ...; every computation happens on the free cover
Z^(free + torsion count) with explicit relation vectors, so all answers
are exact.  Where no class is located, the invariants are read off the
elementary divisors of the integer coboundaries out of and into the
degree (intlinalg.divisor_cohomology): Cech cohomology one cyclic
summand of the coefficients at a time, and equivariant and group
cohomology on Z^f or (Z/m)^k, whose actions compose exactly over Z.
Mixed equivariant coefficients and a located class (cochains.py) build
the full presentation -- those coboundaries and the relation vectors on
both sides -- and hand it to intlinalg.subquotient, the routine that
also computes the stabilizer H^1 of obstruction.py.
Every coboundary matrix is built as rows by one emitter per direction:
_cech_rows for the Cech differential, _group_rows for the group
direction of the equivariant complex, and _bar_rows for the bar
differential of a group acting on a lattice.  The equivariant total
differential puts the first two side by side over a free ZG-resolution
of Z built greedily, one kernel step per degree (_kernel_step): r_q
generators in degree q, one for a cyclic group and q + 1 for the
dihedral group of order 6, where the bar resolution has (|G|-1)^q even
normalised.  Any free resolution gives the same H^*_G (Brown, Cohomology
of Groups, I.6 and VII).  The --max-complex-size cap still counts the
bar complex's |G|^q tuples per layer, and RESOLUTION_CELL_CAP bounds
each kernel step.
obstruction.py takes the stabilizer H^1 and its coboundary solves from
_bar_rows, over all of W_L, so its class coordinates are read in the
full bar complex.

Finite-group inputs are validated on a greedy generating set of k
elements (intlinalg._greedy_generators), and each check there implies
it on every element: a group table is associative by Light's test on
the generators (FiniteGroupTable), an action is checked on the
generator edges s -> s w (FiniteAction), and the 2-cocycle identity
with a generator as its middle entry (_first_cocycle_failure); each
docstring gives the argument.  That is k n^2 work instead of n^3 for a
table or a cocycle, and k |G| products instead of |G|^2 for an action.
A central extension's table is put together by index arithmetic, from
the addition table of A and the positions of psi's values, with no
element reduced per cell, and is refused past EXTENSION_CELL_CAP cells
before anything is built.

Code that a single command option reads, or no command at all, lives in
modules the command line does not import at start-up: cochains and
their classes (cochains.py) and the nerve of a cover (covers.py) are
imported when an input asks for them; the named nerves, the
circle-cover log cocycles, group cohomology and the 2-cocycle check are
paper-facing API that no command calls (model.py).
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
    Vector,
    _greedy_generators,
    divisor_cohomology,
    freeze,
    from_columns,
    hnf_basis,
    hnf_contains,
    identity,
    kernel_basis,
    matmul,
    matvec,
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


# the default highest dimension of a nerve built from a cover
NERVE_DIM_CAP = 4


# ---------------------------------------------------------------------------
# oriented simplices


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


# ---------------------------------------------------------------------------
# finite groups and actions


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


# ---------------------------------------------------------------------------
# the bar differential on a point, for the stabilizer H^1


def _bar_rows(q: int, prod, actions):
    """Rows of the bar differential C^q -> C^(q+1) of a finite group acting
    on a coefficient lattice,
    (df)(g_1..g_{q+1}) = g_1.f(g_2..g_{q+1})
                         + sum_{i=1..q} (-1)^i f(.., g_i g_{i+1}, ..)
                         + (-1)^(q+1) f(g_1..g_q).

    The tuples run over the positions 0..n-1 of actions, in lexicographic
    order; actions[g] is the coefficient matrix of g, and prod[a][b] (read
    only for q >= 1) the position of a*b.  obstruction.py reads its
    stabilizer H^1 and coboundary solves here, over all of W_L.  One row
    per (q+1)-tuple and coefficient coordinate; columns (q-tuple,
    coordinate).
    """
    n = len(actions)
    r = len(actions[0])
    power = [n ** k for k in range(q + 2)]
    width = power[q] * r
    for idx, t in enumerate(itertools.product(range(n), repeat=q + 1)):
        rho = actions[t[0]]
        base = idx % power[q] * r
        # q-tuples of the other terms with their signs: the merged pair
        # g_i g_{i+1} sits between the digits of idx above and below it
        terms = [((idx // power[q + 2 - i]) * power[q + 1 - i]
                  + prod[t[i - 1]][t[i]] * power[q - i] + idx % power[q - i],
                  -1 if i % 2 else 1) for i in range(1, q + 1)]
        terms.append((idx // n, 1 if q % 2 else -1))
        for a in range(r):
            row = [0] * width
            row[base:base + r] = rho[a]
            for ti, coef in terms:
                row[ti * r + a] += coef
            yield tuple(row)


# ---------------------------------------------------------------------------
# a free ZG-resolution, built greedily


def _translate(row, v: Vector, n: int) -> Vector:
    """h.v for v in F_q = ZG^r, written with coordinate i n + g the
    coefficient of g e_i, and row the row of h in the group table."""
    out = [0] * len(v)
    for k in range(0, len(v), n):
        for g, x in enumerate(v[k:k + n]):
            out[k + row[g]] = x
    return tuple(out)


# cells of the largest matrix one kernel step of a resolution factors,
# (|G| r_(q-1)) x (|G| r_q).  Every step an input under the default
# --max-complex-size reaches is smaller: T^(n+1) counts |G|^(n+1) <= 60000
# and runs steps 1..n; r_1 is at most the number of prime factors of |G|,
# counted with multiplicity, and r_(q+1) at most the rank of ker d_q,
# which is |G| r_1 - |G| + 1 for q = 1 and at most (|G| - 1) r_q after,
# so the largest step so bounded is 6,344,128 cells (|G| = 8, step 4).
RESOLUTION_CELL_CAP = 2**23


def _kernel_step(group: FiniteGroupTable, d: Matrix) -> Matrix:
    """d_(q+1) of the resolution of _differentials, from d = d_q: the
    images in F_q of the generators of F_(q+1).

    kernel_basis gives a basis of the kernel of d_q on the Z-basis g e_i
    of F_q.  Its vectors are taken sparsest first; each one outside the
    span so far adds a generator, mapped to that vector, and its G-orbit
    joins the span, kept in Hermite form.  d_q is a ZG-map, so the span
    stays inside the kernel; once it holds every vector of the kernel's
    basis the two have the same Hermite form, and F is exact at F_q.
    That is checked on the span's Hermite form, without forming the
    kernel's: its elimination grows the entries of the basis (those of
    S4's third step are up to 153), and hnf_basis on it ran for
    minutes."""
    if not d:
        return ()
    n, table = group.n, group.table
    columns = [_translate(row, v, n) for v in d for row in table]
    kernel = kernel_basis(transpose(columns))
    span: Matrix = ()
    images = []
    for v in sorted(kernel, key=lambda v: len(v) - v.count(0)):
        if not hnf_contains(span, v):
            images.append(v)
            span = hnf_basis(span + tuple(_translate(row, v, n) for row in table))
    if len(span) != len(kernel) or not all(hnf_contains(span, v) for v in kernel):
        raise AssertionError("the resolution's span is not the kernel of d")
    return tuple(images)


def _differentials(group: FiniteGroupTable, top: int,
                   ds: list[Matrix] | None = None) -> list[Matrix]:
    """[d_1, ..., d_top] of a free resolution ... -> F_1 -> F_0 = ZG -> Z
    of the group, each d_q the tuple of the images d_q(e_i) in F_(q-1) =
    ZG^(r_(q-1)), coordinate j |G| + h the coefficient of h e_j.  ds, when
    given, holds d_1, d_2, ... as far as an earlier call built them and
    is extended in place, so that neighbouring degrees share the steps.

    F_1 has one generator e_s per greedy generator s of the table
    (FiniteGroupTable.generators), d_1(e_s) = s - 1.  That is exact at
    F_0: the kernel of the augmentation is spanned by the g - 1, and every
    g is a word in the generators, so g s - 1 = g (s - 1) + (g - 1) puts
    each g - 1 in the image by induction on the length of the word.  Each
    later degree is one kernel step (_kernel_step), refused before it
    runs when its matrix would have more than RESOLUTION_CELL_CAP cells."""
    ds = [] if ds is None else ds
    n, e = group.n, group.identity
    if not ds:
        d1 = []
        for s in group.generators:
            v = [0] * n
            v[s], v[e] = 1, -1
            d1.append(tuple(v))
        ds.append(tuple(d1))
    while len(ds) < top:
        d = ds[-1]
        cells = n * len(d) * (len(d[0]) if d else 0)
        if cells > RESOLUTION_CELL_CAP:
            raise CapExceeded(f"resolution kernel step needs {cells} matrix cells, "
                              f"over the cap {RESOLUTION_CELL_CAP}")
        ds.append(_kernel_step(group, d))
    return ds[:top]


# ---------------------------------------------------------------------------
# equivariant cohomology via the double complex


def _group_rows(d: Matrix, n: int, actions, pull):
    """Rows of the group direction Hom_G(F_q, C) -> Hom_G(F_(q+1), C) on
    one level C of cochains, (df)(e_i) = f(d e_i) = sum a_(i,j,h) h.f(e_j)
    for d(e_i) = sum a_(i,j,h) h e_j, with d[i][j n + h] = a_(i,j,h).
    actions[h] is the coefficient matrix of h, and pull[h][s] = (s', sign)
    says h^-1.s = sign.s', so (h.c)(s) = sign * actions[h] c(s').  One row
    per generator e_i, simplex and coefficient coordinate; columns
    (generator e_j, simplex, coordinate)."""
    m = len(pull[0])
    r = len(actions[0])
    width = len(d[0]) // n * m * r
    for v in d:
        terms = [(k // n, k % n, x) for k, x in enumerate(v) if x]
        for s in range(m):
            for a in range(r):
                row = [0] * width
                for j, h, x in terms:
                    moved, sign = pull[h][s]
                    base = (j * m + moved) * r
                    for c, y in enumerate(actions[h][a]):
                        row[base + c] += x * sign * y
                yield tuple(row)


def _equivariant_matrices(act: FiniteAction, n: int, cap: int,
                          ds: list[Matrix] | None = None):
    """Free-cover matrix of the total differential T^n -> T^(n+1), with
    T^m the sum over p + q = m of Hom_G(F_q, C^p(X; M)) = C^p(X; M)^(r_q)
    for the resolution F of _differentials, r_q generators in degree q;
    ds, when given, is its list of differentials, extended in place.

    A cochain in block (q, p) is its values f(e_j) on the generators of
    F_q, one copy of C^p per generator.  The rows of block (q, p) of
    T^(n+1) are the group direction out of block (q-1, p) (_group_rows)
    next to (-1)^q times the Cech rows out of block (q, p-1), once per
    generator.  The cap counts the bar complex's coordinates, |G|^q per
    block, and is checked on T^n and T^(n+1) before the resolution is
    extended or any row is built.
    """
    g = act.group
    nerve = act.nerve
    size = act.coefficients.size

    def blocks(m: int):
        """(q, p, |level p| size) of the blocks of total degree m, in order
        of increasing q; only Cech degrees p <= nerve.dim have simplices.
        A block whose |G|^q alone has 64 more bits than the cap is refused
        by that bit count, without forming |G|^q."""
        out = []
        counted = 0
        for p in range(min(m, nerve.dim), -1, -1):
            q = m - p
            slots = len(nerve.level(p)) * size
            if slots and q * (g.n.bit_length() - 1) > cap.bit_length() + 64:
                raise CapExceeded(f"equivariant complex needs more than {cap} "
                                  "coordinates, the cap")
            counted += g.n ** q * slots
            out.append((q, p, slots))
        if counted > cap:
            raise CapExceeded(f"equivariant complex needs {counted} coordinates, "
                              f"over the cap {cap}")
        return out

    src, dst = blocks(n), blocks(n + 1)
    ds = _differentials(g, max((q for q, _, slots in dst if slots), default=0), ds)
    rank = [1] + [len(d) for d in ds]

    def layout(bl):
        """Offsets of the blocks that have coordinates, and their total."""
        offs = {}
        total = 0
        for q, p, slots in bl:
            if slots and rank[q]:
                offs[(q, p)] = total
                total += rank[q] * slots
        return offs, total

    src_offs, src_total = layout(src)
    dst_offs, dst_total = layout(dst)
    inverse = g.inverses
    rows = []
    for (q, p) in dst_offs:
        level = nerve.level(p)
        per_gen = len(level) * size
        if q:
            idx = nerve.index(p)
            pull = [tuple((idx[moved], sign) for moved, sign in
                          (act.act_on_simplex(inverse[h], s) for s in level))
                    for h in range(g.n)]
            group_dir = _group_rows(ds[q - 1], g.n, act.coeff_actions, pull)
            b_off, bw = src_offs[(q - 1, p)], rank[q - 1] * per_gen
        else:
            group_dir = itertools.repeat(())
            b_off, bw = 0, 0
        if p:
            cech = tuple(_cech_rows(nerve, p - 1, size, -1 if q % 2 else 1))
            c_off, cw = src_offs[(q, p - 1)], len(nerve.level(p - 1)) * size
        else:
            cech = ((),) * per_gen
            c_off, cw = b_off + bw, 0
        lead = (0,) * b_off
        for t in range(rank[q]):
            gap = (0,) * (c_off + t * cw - b_off - bw)
            tail = (0,) * (src_total - c_off - (t + 1) * cw)
            for crow in cech:
                rows.append(lead + next(group_dir) + gap + crow + tail)
    return tuple(rows), src_total, dst_total


# the default bound on the coordinates of the equivariant complex's layers,
# counted on the bar complex (_equivariant_matrices)
COMPLEX_SIZE_CAP = 60000


def equivariant_cohomology(
    act: FiniteAction, degree: int, cap: int = COMPLEX_SIZE_CAP
) -> AbelianInvariants:
    """Total cohomology of the group-direction x Cech double complex.

    Any free resolution of Z over ZG gives the same H^*_G (Brown,
    Cohomology of Groups, I.6 and VII); this one is built greedily
    (_differentials; Ellis, Computing group resolutions, J. Symb. Comp.
    38, 2004).  With the trivial group this agrees with plain cohomology
    of the nerve; on a point nerve it is group cohomology of the acting
    group.
    """
    if degree < 0:
        raise CechError("negative degree")
    # the cap counts the bar layers: counted T^(m+1) has at least |G| times
    # the coordinates of counted T^m, so the cap check of the first call,
    # on T^n and T^(n+1), refuses before anything is built, and that call
    # builds the resolution as far as the second one reads
    ds: list[Matrix] = []
    d_out, n_here, n_next = _equivariant_matrices(act, degree, cap, ds)
    d_in = _equivariant_matrices(act, degree - 1, cap, ds)[0] if degree else ()
    group = act.coefficients
    if not group.torsion or (not group.free_rank and len(set(group.torsion)) == 1):
        # Z^f or (Z/m)^k: the relations are m times the free cover, and
        # FiniteAction admits only actions that compose exactly over Z, so
        # the free cover is an integer complex tensored with Z/m
        m = group.torsion[0] if group.torsion else 0
        return divisor_cohomology(n_here, d_out, d_in, (m,))
    return subquotient(n_here, d_out, _relations(n_next, group), d_in,
                       _relations(n_here, group))[0]


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
    (_first_cocycle_failure, as model.check_two_cocycle does), and
    re-verified by Light's test on the built table.
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
