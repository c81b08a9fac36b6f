"""Command-line front end.

Exit codes: 0 success (including verdicts match / no-claim), 1 invalid
input or a usage error, 2 a configured cap was exceeded, 3 a
classification mismatch against the bundled reference table (mismatch is
data, not a crash; the nonzero code flags it for harnesses).  main is the
only place where an error becomes an exit code: CliError, DatumError and
CechError map to 1 and CapExceeded to 2, each printed as one `error:`
line on stderr.

Each subcommand accepts only the options it reads: csv output is offered
by levels, atlas and scan; --max-weyl-order, which bounds |W| before any
element is built, by the four subcommands that read a Weyl group;
--max-subgroup-order by obstruction, scan and atlas (for its per-row
scans).

The parser is built once per process, on the first call of main, and
reused by every later call; importing the module builds nothing.

Output is deterministic, and written by one function, write: canonical
JSON (sorted keys, fixed separators), fixed text layouts, no timestamps;
stderr carries only `error:` lines.  atlas computes its rows one after
another in canonical order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .cech import (
    COMPLEX_SIZE_CAP,
    NERVE_DIM_CAP,
    CechError,
    FiniteAction,
    FiniteGroupTable,
    Nerve,
    central_extension_from_cocycle,
    check_extension_size,
    cohomology,
    cyclic_group,
    equivariant_cohomology,
    nerve_of_cover,
    parse_group_label,
    trivialize,
    Cochain,
)
from .claims import find_claim
from .intlinalg import CapExceeded, RatVector, freeze
from .levels import (
    LevelTensor,
    SharedWeylAction,
    basic_level,
    claim_key_of,
    compare_with_reference,
    is_invariant,
)
from .obstruction import (
    SCAN_POINT_CAP,
    SUBGROUP_ORDER_CAP,
    obstruction_report,
    scan_points,
)
from .rootdata import (
    DatumError,
    RootDatum,
    build_isogeny,
    classical_datum,
    classical_isogeny,
    validate_datum,
)
from .weyl import WEYL_ORDER_CAP, group_order

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CAP = 2
EXIT_MISMATCH = 3

DEFAULT_ATLAS_ROWS = (
    [("A", r, s, t) for r in (1, 2, 3)
     for (s, t) in (("SL", "SL"), ("PGL", "PGL"), ("GL", "GL"),
                    ("SL", "GL"), ("SL", "PGL"))]
    + [("B", r, s, t) for r in (2, 3)
       for (s, t) in (("Spin", "Spin"), ("SO", "SO"), ("Spin", "SO"))]
    + [("D", r, s, t) for r in (3, 4)
       for (s, t) in (("Spin", "Spin"), ("SO", "SO"), ("PSO", "PSO"),
                      ("Spin", "SO"), ("Spin", "PSO"), ("SO", "PSO"))]
)


class CliError(Exception):
    """Invalid input or usage, found by the front end: exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Usage errors become CliError, so that main reports them like any
    other invalid input; --help still exits 0."""

    def error(self, message):
        raise CliError(message)


def write(args, payload, text, csv=None) -> None:
    """Writes a subcommand's output in --format to stdout, and to --out
    when it is given: the JSON value payload as canonical JSON, or the
    lines that text() or csv() return.  Only the rendering asked for is
    built."""
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = "\n".join(csv() if args.format == "csv" else text()) + "\n"
    sys.stdout.write(out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)


def parse_rational_vector(text: str) -> RatVector:
    try:
        fracs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise CliError(f"cannot parse rational vector {text!r}: {err}")
    return RatVector.from_fractions(fracs)


def build_action(args) -> SharedWeylAction:
    positional = (args.series, args.rank, args.source_form, args.target_form)
    if not args.datum_fixture:
        if None in positional:
            raise CliError("give SERIES RANK SOURCE TARGET or --datum-fixture")
        return _classical_action(*positional, args.max_weyl_order)
    if positional != (None,) * 4:
        raise CliError("give SERIES RANK SOURCE TARGET or --datum-fixture, not both")
    data = _load_fixture(args.datum_fixture)
    if not isinstance(data, dict) or not {"source", "target"} <= data.keys():
        raise CliError("malformed datum fixture: need an object with "
                       "'source' and 'target' fields")
    src = RootDatum.from_json_dict(data["source"])
    tgt = RootDatum.from_json_dict(data["target"])
    for rd in (src, tgt):
        report = validate_datum(rd)
        if not report.passed:
            raise CliError(f"datum {rd.name} invalid: {'; '.join(report.violations)}")
    group_order(tgt, args.max_weyl_order)
    return SharedWeylAction(build_isogeny(src, tgt), cap=args.max_weyl_order)


def _classical_action(series, rank, source_form, target_form,
                      max_weyl_order) -> SharedWeylAction:
    """The action over a classical isogeny.  The Weyl cap is decided on
    the target datum before the isogeny is built: the isogeny's checks
    multiply rank-sized matrices for every pair of simple reflections,
    which at a rank the cap refuses costs far more than |W| from the
    Cartan matrix.  The source datum is built first, so that a bad
    source form is reported as before."""
    classical_datum(series, rank, source_form)
    group_order(classical_datum(series, rank, target_form), max_weyl_order)
    iso = classical_isogeny(series, rank, source_form, target_form)
    return SharedWeylAction(iso, cap=max_weyl_order)


def resolve_level(action: SharedWeylAction, spec: str) -> LevelTensor:
    iso = action.iso
    if spec.endswith("basic"):
        head = spec[: -len("basic")].rstrip("x*")
        try:
            mult = 1 if not head else int(head)
        except ValueError:
            raise CliError(f"cannot parse level spec {spec!r}")
        if mult < 1:
            raise CliError("level multiple must be >= 1")
        res = basic_level(iso)
        if mult % res.minimal_multiple:
            raise CliError(
                f"{mult} x basic is not in the level lattice for {iso.name}; "
                f"the least integral multiple is {res.minimal_multiple}")
        level = res.tensor.scale(mult // res.minimal_multiple)
    else:
        try:
            with open(spec) as fh:
                data = json.load(fh)
            level = LevelTensor(iso, freeze(data["matrix"]))
        except (OSError, KeyError, TypeError, ValueError) as err:
            raise CliError(f"cannot load level from {spec!r}: {err}")
    if not is_invariant(action, level):
        raise CliError("level tensor is not Weyl invariant")
    return level


# ---------------------------------------------------------------------------
# subcommands


def atlas_entry_text(e) -> str:
    gens = "; ".join(str([list(r) for r in m]) for m in e.computed_basis)
    claim = "none" if e.claim is None else json.dumps(e.claim, sort_keys=True)
    return (
        f"{e.series}{e.rank} {e.source_form}->{e.target_form}  "
        f"verdict={e.verdict}  computed=[{gens}]  claim={claim}"
    )


def cmd_levels(args) -> int:
    action = build_action(args)
    series, _rank, sf, tf = claim_key_of(action.iso)
    claim = find_claim(series, sf, tf)
    entry = compare_with_reference(action, claim)
    write(args, entry.to_json_dict(), lambda: [atlas_entry_text(entry)],
          lambda: _atlas_csv([entry]))
    return EXIT_MISMATCH if entry.verdict == "mismatch" else EXIT_OK


def _atlas_csv(entries) -> list[str]:
    lines = ["series,rank,source_form,target_form,verdict,computed,claimed"]
    for e in entries:
        comp = "|".join(json.dumps([list(r) for r in m]) for m in e.computed_basis)
        claimed = (
            ""
            if e.claimed_basis is None
            else "|".join(json.dumps([list(r) for r in m]) for m in e.claimed_basis)
        )
        lines.append(
            f"{e.series},{e.rank},{e.source_form},{e.target_form},"
            f"{e.verdict},\"{comp}\",\"{claimed}\""
        )
    return lines


def _atlas_row(row, max_weyl_order, scan_denominator, max_subgroup_order):
    """The row's entry, None when the row failed, and its JSON value."""
    series, rank, sf, tf = row
    try:
        action = _classical_action(series, rank, sf, tf, max_weyl_order)
        entry = compare_with_reference(
            action, find_claim(series, sf, tf)
        )
        d = entry.to_json_dict()
        if scan_denominator:
            res = basic_level(action.iso)
            table = scan_points(action, res.tensor, scan_denominator,
                                verify_cap=max_subgroup_order)
            d["scan"] = {
                "level": f"{res.minimal_multiple}xbasic",
                "points": len(table.rows),
                "trivial": table.trivial_count,
                "nontrivial": table.nontrivial_count,
            }
        return entry, d
    except (DatumError, CechError) as err:
        error = str(err)
    except CapExceeded as err:
        error = f"cap: {err}"
    return None, {"series": series, "rank": rank, "source_form": sf,
                  "target_form": tf, "error": error}


def cmd_atlas(args) -> int:
    if args.scan_denominator < 0:
        raise CliError("--scan-denominator must be >= 0 (0 means no scan)")
    rows = []
    if args.row:
        for spec in args.row:
            parts = spec.split(",")
            if len(parts) != 4:
                raise CliError(f"--row needs SERIES,RANK,SOURCE,TARGET: {spec!r}")
            try:
                rows.append((parts[0], int(parts[1]), parts[2], parts[3]))
            except ValueError:
                raise CliError(f"bad rank in --row {spec!r}")
    else:
        rows = list(DEFAULT_ATLAS_ROWS)
    if args.series:
        wanted = set(args.series.split(","))
        rows = [r for r in rows if r[0] in wanted]
    rows.sort()
    results = [_atlas_row(row, args.max_weyl_order, args.scan_denominator,
                          args.max_subgroup_order) for row in rows]

    def text():
        for entry, d in results:
            if entry is None:
                yield (f"{d['series']}{d['rank']} {d['source_form']}->"
                       f"{d['target_form']}  error: {d['error']}")
            elif "scan" in d:
                yield (f"{atlas_entry_text(entry)}  "
                       f"scan={json.dumps(d['scan'], sort_keys=True)}")
            else:
                yield atlas_entry_text(entry)

    write(args, [d for _, d in results], text,
          lambda: _atlas_csv(e for e, _ in results if e is not None))
    return EXIT_OK


def cmd_obstruction(args) -> int:
    action = build_action(args)
    level = resolve_level(action, args.level)
    xi_amb = parse_rational_vector(args.xi)
    tgt = action.iso.target
    if len(xi_amb) != tgt.ambient_dim:
        raise CliError(f"xi must have {tgt.ambient_dim} reference coordinates")
    coords = tgt.cochar_coords_q(xi_amb)
    if coords is None:
        raise CliError("xi lies outside the cocharacter span")
    res = obstruction_report(action, level, coords,
                             verify_cap=args.max_subgroup_order)
    payload = res.to_json_dict()
    payload["stabilizer_actions"] = {
        str(i): [list(r) for r in action.source_char_action(i)]
        for i in res.cocycle.w_l.members
    }
    write(args, payload, lambda: [
        f"isogeny: {payload['isogeny']}",
        f"xi (basis coords): {payload['xi']['num']} / {payload['xi']['den']}",
        f"stabilizer order: {payload['stabilizer_order']}",
        f"trivial: {payload['trivial']}",
        f"class order: {payload['class_order']}",
        f"witness: {payload['witness_u']}",
        f"rational witness: {payload['rational_witness']['num']}"
        f" / {payload['rational_witness']['den']}",
        f"H1 invariants: {res.h1.invariants.label()}",
        f"reflection subgroup agrees: {payload['reflection_subgroup_agrees']}",
    ])
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.max_denominator < 1:
        raise CliError("--max-denominator must be >= 1")
    action = build_action(args)
    level = resolve_level(action, args.level)
    table = scan_points(action, level, args.max_denominator,
                        point_cap=args.max_scan_points,
                        verify_cap=args.max_subgroup_order)
    rows = [
        {
            "xi": {"num": list(r.xi.nums), "den": r.xi.den},
            "stabilizer_order": r.stabilizer_order,
            "class_order": r.class_order,
            "trivial": r.trivial,
        }
        for r in table.rows
    ]
    payload = {
        "isogeny": action.iso.name,
        "level": [list(r) for r in level.matrix],
        "max_denominator": args.max_denominator,
        "rows": rows,
        "trivial": table.trivial_count,
        "nontrivial": table.nontrivial_count,
    }

    def text():
        for r in table.rows:
            yield (f"{list(r.xi.nums)}/{r.xi.den}: |W_L|={r.stabilizer_order} "
                   f"order={r.class_order} trivial={r.trivial}")
        yield (f"total {len(table.rows)} orbits: {table.trivial_count} trivial, "
               f"{table.nontrivial_count} nontrivial")

    def csv():
        yield "xi_num,xi_den,stabilizer_order,class_order,trivial"
        for r in table.rows:
            yield (f"\"{list(r.xi.nums)}\",{r.xi.den},{r.stabilizer_order},"
                   f"{r.class_order},{str(r.trivial).lower()}")

    write(args, payload, text, csv)
    return EXIT_OK


def cmd_datum(args) -> int:
    if args.isogeny_target:
        iso = classical_isogeny(args.series, args.rank, args.form,
                                args.isogeny_target)
        payload = iso.to_json_dict()
        payload["index"] = iso.index()
        payload["cokernel"] = iso.cokernel_invariants().label()
    else:
        rd = classical_datum(args.series, args.rank, args.form)
        report = validate_datum(rd)
        payload = rd.to_json_dict()
        payload["valid"] = report.passed
        payload["violations"] = list(report.violations)
    write(args, payload, lambda: [json.dumps(payload, indent=2, sort_keys=True)])
    return EXIT_OK


def _load_fixture(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise CliError(f"cannot read fixture {path!r}: {err}")


def _nerve_from_fixture(data: dict, dim_cap: int, reads: int) -> Nerve:
    data = data if isinstance(data, dict) else {}
    if "cover" in data:
        # each set a list of integer or string labels: set() would merge
        # true and 1.0 with 1, and split a string or an object
        cover = data["cover"]
        if not isinstance(cover, list) or not all(
                isinstance(c, list) and all(type(x) in (int, str) for x in c)
                for c in cover):
            raise CliError("malformed cover: each set must be a list of "
                           "integer or string labels")
        return nerve_of_cover([set(c) for c in cover], dim_cap, reads)
    if "nerve" in data:
        return Nerve.from_json_dict(data["nerve"])
    raise CliError("fixture needs a 'cover' or 'nerve' field")


def cmd_cohomology(args) -> int:
    data = _load_fixture(args.fixture)
    # H^degree and its cocycle check read simplices up to dimension degree + 1
    nerve = _nerve_from_fixture(data, args.max_nerve_dim, args.degree + 1)
    group = parse_group_label(args.coefficients)
    inv = cohomology(nerve, args.degree, group)
    payload = {
        "degree": args.degree,
        "coefficients": args.coefficients,
        "invariants": {"free_rank": inv.free_rank,
                       "torsion": list(inv.torsion)},
        "label": inv.label(),
    }
    if args.trivialize_cocycle:
        cdata = _load_fixture(args.trivialize_cocycle)
        witness = trivialize(Cochain.from_json_dict(nerve, group, cdata,
                                                    args.degree))
        payload["witness"] = None if witness is None else witness.to_json_dict()
    write(args, payload, lambda: [f"H^{args.degree} = {payload['label']}"])
    return EXIT_OK


def cmd_equivariant(args) -> int:
    act = FiniteAction.from_json_dict(_load_fixture(args.fixture))
    inv = equivariant_cohomology(act, args.degree, cap=args.max_complex_size)
    payload = {
        "degree": args.degree,
        "invariants": {"free_rank": inv.free_rank, "torsion": list(inv.torsion)},
        "label": inv.label(),
    }
    write(args, payload, lambda: [f"H^{args.degree}_G = {payload['label']}"])
    return EXIT_OK


def cmd_extension(args) -> int:
    data = _load_fixture(args.fixture)
    try:
        if "cyclic" in data["group"]:
            # the cap is decided before the |G|^2 table of G is built; an
            # order below 1 is left to the table's checks
            n = freeze(data["group"]["cyclic"], 0)
            coeff = parse_group_label(data["coefficients"])
            check_extension_size(max(n, 0), coeff)
            table = cyclic_group(n)
        else:
            table = FiniteGroupTable.from_json_dict(data["group"])
            coeff = parse_group_label(data["coefficients"])
        psi = {}
        for e in data.get("psi", []):
            g1, g2 = freeze(e["pair"], 1)
            if (g1, g2) in psi:
                raise ValueError(f"pair {(g1, g2)} given twice")
            psi[g1, g2] = freeze(e["value"], 1)
        res = central_extension_from_cocycle(table, coeff, psi)
    except (CechError, KeyError, TypeError, ValueError) as err:
        raise CliError(f"extension rejected: {err}")
    payload = {
        "order": res.table.n,
        "order_multiset": list(res.order_multiset),
        "center_size": res.center_size,
        "table": [list(r) for r in res.table.table],
        "elements": [
            {"coefficient": list(a), "base": g} for (a, g) in res.element_labels
        ],
    }
    write(args, payload, lambda: [
        f"extension of order {res.table.n}; element orders "
        f"{list(res.order_multiset)}; center {res.center_size}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_output(p: argparse.ArgumentParser, csv: bool = False) -> None:
    formats = ("json", "text", "csv") if csv else ("json", "text")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", default=None, help="also write the payload here")


def _add_weyl_caps(p: argparse.ArgumentParser, subgroup: bool = True) -> None:
    p.add_argument("--max-weyl-order", type=int, default=WEYL_ORDER_CAP)
    if subgroup:
        p.add_argument("--max-subgroup-order", type=int, default=SUBGROUP_ORDER_CAP)


def _add_entry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("series", nargs="?", choices=("A", "B", "C", "D"),
                   default=None)
    p.add_argument("rank", nargs="?", type=int, default=None)
    p.add_argument("source_form", nargs="?", default=None)
    p.add_argument("target_form", nargs="?", default=None)
    p.add_argument("--datum-fixture", default=None,
                   help="JSON file with 'source' and 'target' root data, "
                        "used instead of the positional entry")


@cache
def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gerbelevels",
        description=(
            "Exact classification of invariant level tensors on classical "
            "root data, centralizer extension obstructions, and finite "
            "cocycle cohomology."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="classify levels for one entry")
    _add_entry_args(p)
    _add_output(p, csv=True)
    _add_weyl_caps(p, subgroup=False)
    p.set_defaults(fn=cmd_levels)

    p = sub.add_parser("atlas", help="classification table over a range")
    p.add_argument("--row", action="append", default=None,
                   metavar="SERIES,RANK,SOURCE,TARGET")
    p.add_argument("--series", default=None,
                   help="restrict the row set to these series (comma list)")
    p.add_argument("--scan-denominator", type=int, default=0,
                   help="also scan torsion points up to this denominator")
    _add_output(p, csv=True)
    _add_weyl_caps(p)
    p.set_defaults(fn=cmd_atlas)

    p = sub.add_parser("obstruction", help="centralizer obstruction certificate")
    _add_entry_args(p)
    p.add_argument("--xi", required=True,
                   help="reference coordinates, e.g. '1/2,-1/2,0'")
    p.add_argument("--level", default="basic",
                   help="'basic', 'Nxbasic', or a JSON file with a matrix")
    _add_output(p)
    _add_weyl_caps(p)
    p.set_defaults(fn=cmd_obstruction)

    p = sub.add_parser("scan", help="scan torsion points for obstructions")
    _add_entry_args(p)
    p.add_argument("--level", default="basic")
    p.add_argument("--max-denominator", type=int, required=True)
    p.add_argument("--max-scan-points", type=int, default=SCAN_POINT_CAP)
    _add_output(p, csv=True)
    _add_weyl_caps(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("datum", help="emit a root datum or isogeny as JSON")
    p.add_argument("series", choices=("A", "B", "C", "D"))
    p.add_argument("rank", type=int)
    p.add_argument("form")
    p.add_argument("--isogeny-target", default=None)
    _add_output(p)
    p.set_defaults(fn=cmd_datum)

    p = sub.add_parser("cohomology", help="cohomology of a nerve fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--coefficients", default="Z")
    p.add_argument("--trivialize-cocycle", default=None,
                   help="JSON cocycle to trivialize against the fixture")
    p.add_argument("--max-nerve-dim", type=int, default=NERVE_DIM_CAP)
    _add_output(p)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("equivariant", help="equivariant cohomology of an action")
    p.add_argument("--fixture", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-complex-size", type=int, default=COMPLEX_SIZE_CAP)
    _add_output(p)
    p.set_defaults(fn=cmd_equivariant)

    p = sub.add_parser("extension", help="central extension from a 2-cocycle")
    p.add_argument("--fixture", required=True)
    _add_output(p)
    p.set_defaults(fn=cmd_extension)

    return ap


# the caps a subcommand may take: a negative one is a usage error, and 0
# keeps its meaning
CAP_OPTIONS = ("max_weyl_order", "max_subgroup_order", "max_scan_points",
               "max_complex_size", "max_nerve_dim")


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        for dest in CAP_OPTIONS:
            if getattr(args, dest, 0) < 0:
                raise CliError(f"--{dest.replace('_', '-')} must be >= 0")
        return args.fn(args)
    except (CliError, DatumError, CechError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
