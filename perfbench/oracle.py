"""Output checks for benchmark items.

Two layers, neither of which imports gerbelevels:

* the recorded oracle: the sha256 of every item's stdout and its exit code,
  recorded from the seed commit in expected.json (`run.py --record`);
* independent checks that recompute a property of the output from the
  payload alone (cocycle identities, closed forms, the reference table).

`check_item` returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CLAIMS_PATH = os.path.join(os.path.dirname(HERE), "src", "gerbelevels", "data",
                           "reference_claims.json")

WEYL_ORDER = {("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("C", 2): 8,
              ("B", 3): 48, ("C", 3): 48, ("D", 4): 192}

# Atlas rows whose verdict is `mismatch` against the bundled reference
# table, by documented class.  In both classes the computed lattice is
# finer than the claimed one (or the claimed generator is not integral).
MISMATCH_ROWS = {
    "odd special orthogonal target": {
        ("B", 2, "SO", "SO"), ("B", 2, "Spin", "SO"),
        ("B", 3, "SO", "SO"), ("B", 3, "Spin", "SO"),
    },
    "quotient target": {
        ("A", 1, "SL", "PGL"), ("A", 2, "SL", "PGL"), ("A", 3, "SL", "PGL"),
        ("D", 3, "Spin", "PSO"), ("D", 4, "Spin", "PSO"),
        ("D", 3, "PSO", "PSO"),
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_item(item: dict, code, stdout: str, expected: dict | None) -> list[str]:
    """Problems with one item's result (exit code and stdout)."""
    problems = []
    if expected is not None:
        want = expected.get(item["key"])
        if want is None:
            problems.append("no recorded output for this item")
        else:
            if code != want["exit"]:
                problems.append(f"exit code {code}, recorded {want['exit']}")
            if digest(stdout) != want["sha256"]:
                problems.append("stdout differs from the recorded output")
    if code != 0:
        problems.append(f"exit code {code}")
        return problems
    check = item["check"]
    try:
        problems += CHECKS[check["kind"]](check, stdout)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        problems.append(f"unreadable payload: {type(err).__name__}: {err}")
    return problems


# ---------------------------------------------------------------------------
# small exact helpers


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _matvec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def _freeze(m):
    return tuple(tuple(r) for r in m)


def _elementary(free_rank, torsion):
    """Group invariants as (free rank, sorted prime-power orders)."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                out.append(q)
            p += 1
    return free_rank, tuple(sorted(out))


def _cyclic(m):
    """Invariants of Z (m = 0), 0 (m = 1) or Z/m."""
    if m == 0:
        return 1, ()
    return _elementary(0, (m,) if m > 1 else ())


def _invariants(stdout):
    inv = json.loads(stdout)["invariants"]
    return _elementary(inv["free_rank"], inv["torsion"])


def _compare(got, want, what):
    return [] if got == want else [f"{what}: got {got}, closed form {want}"]


# ---------------------------------------------------------------------------
# closed forms


def cyclic_point_form(n, m, sign, degree):
    """H^degree of Z/n with coefficients M = Z (m = 0) or Z/m, where the
    generator acts trivially or (n even) by -1, as (free, elementary)."""
    if not sign:
        if degree == 0:
            return _cyclic(m)
        if degree % 2:
            return _cyclic(1 if m == 0 else gcd(n, m))
        return _cyclic(n if m == 0 else gcd(n, m))
    # sign action, n even: the norm map is zero, fixed points are 2-torsion
    fixed = 1 if m == 0 else gcd(2, m)
    if degree == 0 or degree % 2 == 0:
        return _cyclic(fixed)
    return _cyclic(2 if m == 0 else gcd(2, m))


def _check_cyclic_point(c, stdout):
    want = cyclic_point_form(c["n"], c["m"], c["sign"], c["degree"])
    return _compare(_invariants(stdout), want, f"H^{c['degree']}(Z/{c['n']})")


def _check_free_circle(c, stdout):
    # a free rotation of a circle cover (or the trivial group on one) has
    # the cohomology of the quotient circle
    want = _cyclic(c["m"]) if c["degree"] in (0, 1) else (0, ())
    return _compare(_invariants(stdout), want, f"H^{c['degree']}(circle)")


def _check_sphere(c, stdout):
    want = (1, ()) if c["degree"] in (0, 2) else (0, ())
    return _compare(_invariants(stdout), want, f"H^{c['degree']}(S^2)")


def _check_contractible(c, stdout):
    want = (1, ()) if c["degree"] == 0 else (0, ())
    return _compare(_invariants(stdout), want, f"H^{c['degree']}(point)")


def _check_extension(c, stdout):
    p = json.loads(stdout)
    n, m = c["n"], c["m"]
    size = n * m
    if c["cyclic"]:
        orders = sorted(size // gcd(x, size) for x in range(size))
    else:
        orders = sorted(
            (n // gcd(a, n)) * (m // gcd(b, m)) // gcd(n // gcd(a, n), m // gcd(b, m))
            for a in range(n) for b in range(m))
    problems = _compare(p["order"], size, "extension order")
    problems += _compare(sorted(p["order_multiset"]), orders, "element orders")
    table = p["table"]
    ident = [e for e in range(len(table)) if table[e] == list(range(len(table)))]
    if len(table) != size or not ident:
        problems.append("extension table is not a group table of the stated order")
        return problems
    for a in range(size):
        for b in range(size):
            if table[a][b] != table[b][a]:
                problems.append("central extension of a cyclic group is not abelian")
                return problems
            for x in range(size):
                if table[table[a][b]][x] != table[a][table[b][x]]:
                    problems.append("extension table is not associative")
                    return problems
    return problems


# ---------------------------------------------------------------------------
# obstruction certificates: re-verify from the payload alone


def check_certificate(c, stdout):
    p = json.loads(stdout)
    problems = []
    members = [str(i) for i in p["stabilizer_members"]]
    acts = {k: _freeze(v) for k, v in p["stabilizer_actions"].items()}
    cc = {k: tuple(v) for k, v in p["c_cocycle"].items()}
    dd = {k: tuple(v) for k, v in p["d_cocycle"].items()}
    order = p["stabilizer_order"]
    if not (len(members) == order == len(acts) == len(cc) == len(dd)
            and set(members) == set(acts) == set(cc) == set(dd)):
        return ["stabilizer members, actions and cocycles disagree"]
    by_matrix = {m: k for k, m in acts.items()}
    if len(by_matrix) != order:
        return ["stabilizer acts unfaithfully on X*(S)"]
    r = len(next(iter(acts.values())))
    eye = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    e = by_matrix.get(eye)
    if e is None or any(cc[e]) or any(dd[e]):
        problems.append("identity missing or with a nonzero cocycle value")
    level = _freeze(p["level"])
    for k in members:
        if _matvec(level, dd[k]) != cc[k]:
            problems.append(f"c_{k} != level . d_{k}")
            break
    # cocycle identity c_{w1 w2} = w1 . c_{w2} + c_{w1} over all pairs
    for i in members:
        for j in members:
            k = by_matrix.get(_matmul(acts[i], acts[j]))
            if k is None:
                return problems + ["stabilizer is not closed under products"]
            want = tuple(x + y for x, y in zip(_matvec(acts[i], cc[j]), cc[i]))
            if cc[k] != want:
                return problems + [f"cocycle identity fails at ({i}, {j})"]
    # the rational witness u_Q = b(xi) trivialises c over Q
    rw = p["rational_witness"]
    uq = [Fraction(x, rw["den"]) for x in rw["num"]]
    for k in members:
        img = _matvec(acts[k], uq)
        if tuple(a - b for a, b in zip(img, uq)) != cc[k]:
            problems.append(f"rational witness fails at {k}")
            break
    u = p["witness_u"]
    trivial, k_ord = p["trivial"], p["class_order"]
    if (u is not None) != bool(trivial) or bool(trivial) != (k_ord == 1):
        problems.append("trivial, witness_u and class_order disagree")
    if u is not None:
        for k in members:
            img = _matvec(acts[k], u)
            if tuple(a - b for a, b in zip(img, u)) != cc[k]:
                problems.append(f"witness equation fails at {k}")
                break
    exponent = 1
    for m in acts.values():
        x, n = m, 1
        while x != eye:
            x, n = _matmul(x, m), n + 1
        exponent = exponent * n // gcd(exponent, n)
    if not k_ord or exponent % k_ord:
        problems.append(f"class order {k_ord} does not divide exponent {exponent}")
    h1 = p["h1_invariants"]
    if h1 is not None and h1["free_rank"] == 0:
        top = h1["torsion"][-1] if h1["torsion"] else 1
        if top % k_ord:
            problems.append(f"class order {k_ord} exceeds the exponent of H^1")
    return problems


# ---------------------------------------------------------------------------
# scans and atlas rows

_SCAN_ROW = re.compile(
    r"\[([-0-9, ]*)\]/(\d+): \|W_L\|=(\d+) order=(\d+) trivial=(True|False)")
_SCAN_TOTAL = re.compile(r"total (\d+) orbits: (\d+) trivial, (\d+) nontrivial")


def _check_scan(c, stdout):
    lines = stdout.rstrip("\n").split("\n")
    m = _SCAN_TOTAL.fullmatch(lines[-1])
    if m is None:
        return ["scan summary line missing"]
    total, n_triv, n_non = (int(x) for x in m.groups())
    rows = []
    for line in lines[:-1]:
        rm = _SCAN_ROW.fullmatch(line)
        if rm is None:
            return [f"unreadable scan row {line!r}"]
        nums = tuple(int(x) for x in rm.group(1).split(","))
        rows.append((nums, int(rm.group(2)), int(rm.group(3)),
                     int(rm.group(4)), rm.group(5) == "True"))
    problems = []
    if total != len(rows) or n_triv + n_non != total \
            or n_triv != sum(1 for r in rows if r[4]):
        problems.append("scan totals disagree with its rows")
    w = WEYL_ORDER.get(tuple(c["entry"])) if "entry" in c else None
    pts = set()
    for nums, den, wl, k, triv in rows:
        if not (1 <= den <= c["max_denominator"]) or any(not 0 <= x < den for x in nums):
            problems.append(f"point {nums}/{den} outside the scanned range")
        if den > 1 and gcd(den, *nums) != 1:
            problems.append(f"point {nums}/{den} not in lowest terms")
        if triv != (k == 1) or wl % k:
            problems.append(f"class order {k} inconsistent at {nums}/{den}")
        if w is not None and w % wl:
            problems.append(f"|W_L| = {wl} does not divide |W| = {w}")
        pts.add(tuple(Fraction(x, den) for x in nums))
    if len(pts) != len(rows):
        problems.append("a point is listed twice")
    first = rows[0] if rows else None
    if first is None or any(first[0]) or not first[4] \
            or (w is not None and first[2] != w):
        problems.append("the origin must come first, fixed by all of W, trivial")
    keys = [tuple(Fraction(x, d) for x in nums) for nums, d, *_ in rows]
    if keys != sorted(keys):
        problems.append("scan rows are not in canonical order")
    return problems


def _load_claims():
    with open(CLAIMS_PATH) as fh:
        entries = json.load(fh)["entries"]
    return {(e["series"], e["source_form"], e["target_form"]): e for e in entries}


def _check_atlas(c, stdout):
    payload = json.loads(stdout)
    row = tuple(c["row"])
    if len(payload) != 1:
        return [f"{len(payload)} atlas rows for one --row"]
    p = payload[0]
    problems = []
    if (p["series"], p["rank"], p["source_form"], p["target_form"]) != row:
        problems.append("atlas row does not echo its input")
    ref = _load_claims().get((row[0], row[2], row[3]))
    want_claim = None if ref is None else {
        k: ref[k] for k in ("kind", "multiple") if k in ref}
    if p["claim"] != want_claim:
        problems.append("claim differs from the reference table")
    cls = [name for name, rows in MISMATCH_ROWS.items() if row in rows]
    want = "no-claim" if ref is None else ("mismatch" if cls else "match")
    if p["verdict"] != want:
        problems.append(f"verdict {p['verdict']}, reference table says {want}")
    comp, claimed = p["computed_basis"], p["claimed_basis"]
    if want == "match" and comp != claimed:
        problems.append("match verdict with different computed and claimed bases")
    if want == "mismatch":
        if claimed is None:
            if not p["claim_note"]:
                problems.append("mismatch without a claimed basis or a note")
        elif len(comp) != 1 or len(claimed) != 1 or not _is_multiple(claimed[0], comp[0]):
            problems.append(f"{cls[0]} row: claim is not a multiple of the computed generator")
    return problems


def _is_multiple(big, small):
    ratios = {Fraction(b, s) for rb, rs in zip(big, small) for b, s in zip(rb, rs) if s}
    zeros_ok = all(b == 0 for rb, rs in zip(big, small) for b, s in zip(rb, rs) if not s)
    return zeros_ok and len(ratios) == 1 and (k := ratios.pop()).denominator == 1 and k >= 2


def pass_problems(items, results):
    """Checks across the items of one pass, as {item key: problems}: the
    trivial-group equivariant run equals plain cohomology of its nerve."""
    eq_prefix = "equivariant --fixture fixtures/trivial_group_octahedron.json"
    by_key = {it["key"]: res for it, res in zip(items, results)}
    out = {}
    for key, res in by_key.items():
        if not key.startswith(eq_prefix):
            continue
        other = by_key.get(key.replace(
            eq_prefix, "cohomology --fixture fixtures/octahedron.json"))
        if other is None or res["code"] != 0 or other["code"] != 0:
            continue
        if _invariants(res["stdout"]) != _invariants(other["stdout"]):
            out[key] = ["differs from plain cohomology of the same nerve"]
    return out


CHECKS = {
    "atlas": _check_atlas,
    "scan": _check_scan,
    "certificate": check_certificate,
    "cyclic_point": _check_cyclic_point,
    "free_circle": _check_free_circle,
    "sphere": _check_sphere,
    "contractible": _check_contractible,
    "extension": _check_extension,
    "digest_only": lambda c, stdout: [],
}
