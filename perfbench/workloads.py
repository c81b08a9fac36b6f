"""Seeded workloads for the gerbelevels benchmark.

A workload is a list of strata.  Each stratum is a list of alternatives of
(nearly) equal cost; a pass runs one alternative from every stratum, drawn
with the seed, in a seeded order.  Drawing only among equal-cost
alternatives keeps the pass cost the same for every seed, so seeds change
the inputs without changing what the timings measure.  The union of all
alternatives is finite (``universe``), which is what lets the expected
stdout of every possible item be recorded once (see oracle.py).

An item is a dict:
  key    stable name; the expected-output table is keyed by it
  argv   arguments for ``gerbelevels.cli.main``
  files  generated fixtures {relative name: JSON object}, written before timing
  check  parameters of the independent output check (oracle.py)
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("atlas", "scan", "cohomology")

# Rows of the default atlas (gerbelevels.cli.DEFAULT_ATLAS_ROWS), restated
# here so that generating inputs never imports the code under test.
ATLAS_ROWS = (
    [("A", r, s, t) for r in (1, 2, 3)
     for (s, t) in (("SL", "SL"), ("PGL", "PGL"), ("GL", "GL"),
                    ("SL", "GL"), ("SL", "PGL"))]
    + [("B", r, s, t) for r in (2, 3)
       for (s, t) in (("Spin", "Spin"), ("SO", "SO"), ("Spin", "SO"))]
    + [("D", r, s, t) for r in (3, 4)
       for (s, t) in (("Spin", "Spin"), ("SO", "SO"), ("PSO", "PSO"),
                      ("Spin", "SO"), ("Spin", "PSO"), ("SO", "PSO"))]
)


def _item(key, argv, check, files=None):
    return {"key": key, "argv": list(argv), "files": files or {},
            "check": check}


# ---------------------------------------------------------------------------
# atlas: one item per default row; the seed only shuffles the order


def atlas_strata():
    out = []
    for row in ATLAS_ROWS:
        spec = ",".join(str(x) for x in row)
        argv = ["atlas", "--row", spec, "--format", "json"]
        out.append([_item(" ".join(argv), argv,
                          {"kind": "atlas", "row": list(row)})])
    return out


# ---------------------------------------------------------------------------
# scan: D4 (|W| = 192) at denominator 1, every rank-3 entry at
# denominators 2 and 4, every rank-2 entry at denominator 4.  The seed
# draws the level multiple, which leaves the cost unchanged.  The D4 item
# is the origin alone: W_L = W, the full closure check and the all-pairs
# cocycle identity; at denominator 2 it would be ~45% of the pass, and its
# run-to-run noise would swamp everything else.  B4/C4 (|W| = 384) are
# left out: one such scan takes ~10 s on a 2-core box, longer than a whole
# pass should.

SCAN_RANK4 = [("D", 4, "Spin", "Spin", 1)]
SCAN_RANK3 = [(e + (d,)) for e in (("A", 3, "SL", "SL"), ("B", 3, "Spin", "Spin"),
                                    ("B", 3, "SO", "SO"), ("B", 3, "Spin", "SO"),
                                    ("C", 3, "Sp", "Sp"), ("C", 3, "PSp", "PSp"))
              for d in (2, 4)]
SCAN_RANK2 = [e + (4,) for e in (("A", 2, "SL", "SL"), ("A", 2, "SL", "PGL"),
                                  ("B", 2, "Spin", "Spin"), ("C", 2, "Sp", "Sp"))]
# entries where 1 x basic is not integral; only 2 x basic is drawn
_ONLY_DOUBLE = {("C", 3, "PSp", "PSp")}


def scan_strata():
    out = []
    for series, rank, sf, tf, d in SCAN_RANK4 + SCAN_RANK3 + SCAN_RANK2:
        alts = []
        for level in ("basic", "2xbasic"):
            if level == "basic" and (series, rank, sf, tf) in _ONLY_DOUBLE:
                continue
            argv = ["scan", series, str(rank), sf, tf,
                    "--max-denominator", str(d), "--level", level]
            alts.append(_item(" ".join(argv), argv,
                              {"kind": "scan", "max_denominator": d,
                               "entry": [series, rank]}))
        out.append(alts)
    return out


# ---------------------------------------------------------------------------
# cohomology: certificates with H^1, then equivariant / Cech / extension runs

# (series, rank, source, target, base point in reference coordinates,
#  number of Weyl conjugates offered).  The D4 and C3 certificates keep
#  one point: their cost differs by up to 40% between conjugates (the
#  greedy generating set of W_L differs), which would make the pass cost
#  depend on the seed.
CERT_POINTS = [
    ("D", 4, "Spin", "Spin", ("1/2", "1/2", "0", "0"), 1),
    ("C", 3, "Sp", "Sp", ("1/2", "0", "0"), 1),
    ("B", 3, "Spin", "Spin", ("1/2", "-1/2", "0"), 4),
    ("B", 3, "SO", "SO", ("1/3", "1/3", "0"), 4),
    ("A", 3, "SL", "SL", ("1/4", "1/4", "-1/4", "-1/4"), 4),
    ("A", 3, "SL", "SL", ("1/3", "1/3", "-1/3", "-1/3"), 4),
]


def _weyl_conjugates(series, point, count):
    """The first `count` distinct images of `point` under coordinate
    permutations (and, outside type A, sign changes; an even number of
    them in type D), in a fixed enumeration order."""
    pts = [Fraction(x) for x in point]
    n = len(pts)
    seen, out = set(), []
    signs = [(1,) * n] if series == "A" else list(itertools.product((1, -1), repeat=n))
    if series == "D":
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    for perm in itertools.permutations(range(n)):
        for sg in signs:
            img = tuple(sg[i] * pts[perm[i]] for i in range(n))
            if img not in seen:
                seen.add(img)
                out.append(img)
            if len(out) == count:
                return out
    return out


def _frac_text(v):
    return ",".join(str(x) for x in v)


def cert_strata():
    out = []
    for series, rank, sf, tf, point, count in CERT_POINTS:
        alts = []
        for xi in _weyl_conjugates(series, point, count):
            for level in ("basic", "2xbasic"):
                argv = ["obstruction", series, str(rank), sf, tf,
                        f"--xi={_frac_text(xi)}", "--level", level,
                        "--format", "json"]
                alts.append(_item(" ".join(argv), argv,
                                  {"kind": "certificate",
                                   "level_multiple": 2 if level == "2xbasic" else 1}))
        out.append(alts)
    return out


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(k):
    """Dihedral group of order 2k; index j*k + i stands for r^i s^j."""
    def mul(x, y):
        i1, j1 = x % k, x // k
        i2, j2 = y % k, y // k
        return ((j1 + j2) % 2) * k + (i1 + (i2 if j1 == 0 else -i2)) % k
    return [[mul(a, b) for b in range(2 * k)] for a in range(2 * k)]


POINT_NERVE = {"n_vertices": 1, "simplices": [[[0]]]}


def circle_nerve(m):
    edges = sorted(tuple(sorted((i, (i + 1) % m))) for i in range(m))
    return {"n_vertices": m,
            "simplices": [[[i] for i in range(m)], [list(e) for e in edges]]}


def _relabel_nerve(nerve, vertex_perms, rng):
    """Relabel the vertices of a nerve and conjugate the vertex actions."""
    nv = nerve["n_vertices"]
    tau = list(range(nv))
    rng.shuffle(tau)
    levels = [sorted(sorted(tau[v] for v in s) for s in level)
              for level in nerve["simplices"]]
    perms = []
    for perm in vertex_perms:
        new = [0] * nv
        for v in range(nv):
            new[tau[v]] = tau[perm[v]]
        perms.append(new)
    return {"n_vertices": nv, "simplices": levels}, perms


def action_fixture(table, nerve, coeff, vertex_perms, coeff_signs, rng):
    """Equivariant fixture for a finite group acting on a nerve and on a
    rank-one coefficient group (each element by +1 or -1), with the nerve's
    vertices relabelled at random.  The group itself is not relabelled:
    that changes the pivots SNF meets, and so the cost, by up to 40%."""
    nerve, perms = _relabel_nerve(nerve, vertex_perms, rng)
    return {"group": {"table": table}, "nerve": nerve,
            "coefficients": coeff, "vertex_perms": perms,
            "coeff_actions": [[[s]] for s in coeff_signs]}


def _coeff_label(m):
    return "Z" if m == 0 else f"Z/{m}"


def _cyclic_point_alts(n, degree, coefficients, signs=(False,)):
    """Z/n acting on a point, coefficients Z (m = 0) or Z/m, the generator
    acting trivially or (n even) by -1."""
    return [{"key": f"equivariant cyclic n={n} point coeff={_coeff_label(m)} "
                    f"action={'sign' if sign else 'trivial'} degree={degree}",
             "gen": ("cyclic_point", n, m, sign), "degree": degree,
             "check": {"kind": "cyclic_point", "n": n, "m": m, "sign": sign,
                       "degree": degree}}
            for m in coefficients for sign in signs]


def _materialise(spec, rng, slot):
    """Turn a generated-fixture spec into an item with its fixture file."""
    kind = spec["gen"][0]
    if kind == "cyclic_point":
        _, n, m, sign = spec["gen"]
        signs = [(-1) ** a if sign else 1 for a in range(n)]
        fx = action_fixture(cyclic_table(n), POINT_NERVE, _coeff_label(m),
                            [[0]] * n, signs, rng)
    elif kind == "dihedral_point":
        _, k, m = spec["gen"]
        signs = [1 if g < k else -1 for g in range(2 * k)]
        fx = action_fixture(dihedral_table(k), POINT_NERVE, _coeff_label(m),
                            [[0]] * (2 * k), signs, rng)
    elif kind == "cyclic_circle":
        _, n, m = spec["gen"]
        perms = [[(v + g) % n for v in range(n)] for g in range(n)]
        fx = action_fixture(cyclic_table(n), circle_nerve(n), _coeff_label(m),
                            perms, [1] * n, rng)
    elif kind == "trivial_circle":
        _, arcs = spec["gen"]
        fx = action_fixture([[0]], circle_nerve(arcs), "Z",
                            [list(range(arcs))], [1], rng)
    elif kind == "extension":
        _, n, m, k, carry = spec["gen"]
        psi = []
        if carry:
            psi = [{"pair": [a, b], "value": [k % m]}
                   for a in range(n) for b in range(n) if a + b >= n]
        fx = {"group": {"cyclic": n}, "coefficients": f"Z/{m}", "psi": psi}
    else:
        raise ValueError(f"unknown generator {kind!r}")
    name = f"s{slot:02d}.json"
    if kind == "extension":
        argv = ["extension", "--fixture", name, "--format", "json"]
    else:
        argv = ["equivariant", "--fixture", name, "--degree",
                str(spec["degree"]), "--format", "json"]
    return _item(spec["key"], argv, spec["check"], {name: fx})


def generated_strata():
    # Torsion coefficients cost 10-30x more than Z at the same group and
    # degree, so each stratum draws only among coefficient groups of one
    # kind.
    # Z/5 runs at degree 2, not 3: at degree 3 it took 2 s, a third of
    # the pass, and with it only 4 passes fit in a run, so items_per_s and
    # item_tail_s spread by 0.1-0.15 over runs.  The H^1 kernels of the
    # D4 and C3 certificates keep large SNFs in the pass.
    torsion = (2, 3, 4, 6)
    out = [
        _cyclic_point_alts(5, 2, (0,)),
        _cyclic_point_alts(4, 3, (0,), (False, True)),
        _cyclic_point_alts(3, 3, torsion),
        _cyclic_point_alts(4, 2, torsion, (False, True)),
        _cyclic_point_alts(2, 2, (0,) + torsion, (False, True)),
        _cyclic_point_alts(6, 2, (0,), (False, True)),
    ]
    for k, degree, coefficients in ((3, 2, (0,)), (4, 1, (3, 5))):
        out.append([{"key": f"equivariant dihedral k={k} point "
                            f"coeff={_coeff_label(m)} action=sign degree={degree}",
                     "gen": ("dihedral_point", k, m), "degree": degree,
                     "check": {"kind": "digest_only"}} for m in coefficients])
    # free rotations of circle covers: cohomology of the quotient circle
    for n, degree, coefficients in ((3, 1, (2, 3)), (3, 2, (0,)), (4, 1, (2, 3))):
        out.append([{"key": f"equivariant cyclic n={n} circle "
                            f"coeff={_coeff_label(m)} degree={degree}",
                     "gen": ("cyclic_circle", n, m), "degree": degree,
                     "check": {"kind": "free_circle", "m": m, "degree": degree}}
                    for m in coefficients])
    # trivial group on a circle cover: the cohomology of the circle
    out.append([{"key": f"equivariant trivial group circle arcs={a} degree=1",
                 "gen": ("trivial_circle", a), "degree": 1,
                 "check": {"kind": "free_circle", "m": 0, "degree": 1}}
                for a in (3, 4, 5, 6)])
    # central extensions of Z/n by Z/m from k times the carry cocycle (a
    # cyclic group when gcd(k, m) = 1) or from the zero cocycle (a product)
    for n, m in ((4, 3), (3, 4)):
        alts = []
        for k, carry in ((1, True), (m - 1, True), (0, False)):
            alts.append({"key": f"extension cyclic n={n} coeff=Z/{m} "
                                f"psi={'carry' if carry else 'zero'} k={k}",
                         "gen": ("extension", n, m, k, carry),
                         "check": {"kind": "extension", "n": n, "m": m,
                                   "cyclic": carry}})
        out.append(alts)
    return out


def bundled_strata():
    """Runs on the fixtures shipped with the package (fixtures/)."""
    out = []
    for name, degrees in (("z2_point", (1, 2, 3)), ("z4_point", (2, 3))):
        for degree in degrees:
            argv = ["equivariant", "--fixture", f"fixtures/{name}.json",
                    "--degree", str(degree), "--format", "json"]
            out.append([_item(" ".join(argv), argv,
                              {"kind": "cyclic_point", "n": int(name[1]),
                               "m": 0, "sign": False, "degree": degree})])
    for degree in (0, 1, 2):
        eq = ["equivariant", "--fixture", "fixtures/trivial_group_octahedron.json",
              "--degree", str(degree), "--format", "json"]
        plain = ["cohomology", "--fixture", "fixtures/octahedron.json",
                 "--degree", str(degree), "--format", "json"]
        out.append([_item(" ".join(eq), eq, {"kind": "sphere", "degree": degree})])
        out.append([_item(" ".join(plain), plain,
                          {"kind": "sphere", "degree": degree})])
    for degree in (1, 2):
        argv = ["cohomology", "--fixture", "fixtures/cone4.json",
                "--degree", str(degree), "--format", "json"]
        out.append([_item(" ".join(argv), argv,
                          {"kind": "contractible", "degree": degree})])
    return out


def cohomology_strata():
    return cert_strata() + bundled_strata() + generated_strata()


STRATA = {"atlas": atlas_strata, "scan": scan_strata,
          "cohomology": cohomology_strata}


def draw(workload, seed):
    """The items of one pass for this seed: one alternative per stratum,
    in a seeded order.  Generated fixtures are materialised here."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(alts) for alts in STRATA[workload]()]
    rng.shuffle(picks)
    return [_finish(p, rng, slot) for slot, p in enumerate(picks)]


SMOKE_KEYS = {
    "atlas": ("atlas --row A,1,", "atlas --row B,2,Spin,Spin"),
    "scan": ("scan A 2 SL SL", "scan B 2 Spin Spin"),
    "cohomology": ("obstruction A 3 SL SL --xi=1/4", "obstruction B 3 Spin Spin",
                   "equivariant --fixture fixtures/z2_point.json",
                   "equivariant --fixture fixtures/trivial_group_octahedron.json",
                   "cohomology --fixture fixtures/octahedron.json",
                   "extension cyclic n=4", "equivariant cyclic n=2 point"),
}


def smoke_subset(workload, items):
    """A few cheap items of a pass, for the benchmark's own tests."""
    return [it for it in items
            if it["key"].startswith(SMOKE_KEYS[workload])]


def universe(workload):
    """Every item any seed can draw (fixtures materialised with seed 0)."""
    rng = random.Random(0)
    out = []
    for alts in STRATA[workload]():
        for a in alts:
            out.append(_finish(a, rng, len(out)))
    return out


def _finish(spec, rng, slot):
    return _materialise(spec, rng, slot) if "gen" in spec else dict(spec)
