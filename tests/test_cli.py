import argparse
import functools
import hashlib
import json
import subprocess
import sys
import time

import pytest

from gerbelevels import cech, claims, cli, intlinalg, levels, obstruction, rootdata, weyl
from gerbelevels.cli import DEFAULT_ATLAS_ROWS, main, make_parser
from gerbelevels.rootdata import DatumReport, classical_datum, torus_datum

FIX = "fixtures"


def _fixture(name):
    with open(f"{FIX}/{name}") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_levels_match_exit_zero(capsys):
    code, out = run(capsys, "levels", "A", "2", "SL", "SL", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "match"
    assert data["computed_basis"] == [[[2, 1], [1, 2]]]


def test_levels_mismatch_exit_three(capsys):
    code, out = run(capsys, "levels", "B", "2", "SO", "SO", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "mismatch"
    assert data["computed_basis"] == [[[1, 0], [0, 1]]]
    assert data["claimed_basis"] == [[[2, 0], [0, 2]]]


def test_levels_gl_family(capsys):
    code, out = run(capsys, "levels", "A", "1", "GL", "GL", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["computed_basis"]) == 2


def test_levels_bad_input_exit_one(capsys):
    code, _ = run(capsys, "levels", "B", "2", "PSO", "PSO")
    assert code == 1


def test_levels_cap_exit_two(capsys):
    code, _ = run(capsys, "levels", "B", "3", "Spin", "Spin",
                  "--max-weyl-order", "4")
    assert code == 2


def test_obstruction_spin7(capsys):
    code, out = run(
        capsys, "obstruction", "B", "3", "Spin", "Spin",
        "--xi", "1/2,-1/2,0", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer_order"] == 8
    assert data["trivial"] is False
    assert data["class_order"] == 2
    assert data["rational_witness"] == {"num": [1, -1, 0], "den": 2}
    assert data["h1_invariants"]["torsion"] == [2]
    # certificate is re-checkable: verify the cocycle identity from the
    # embedded data alone
    acts = {int(k): v for k, v in data["stabilizer_actions"].items()}
    c = {int(k): v for k, v in data["c_cocycle"].items()}
    members = data["stabilizer_members"]
    assert sorted(acts) == sorted(members) == sorted(c)


def test_obstruction_integral_point_trivial(capsys):
    code, out = run(
        capsys, "obstruction", "A", "1", "SL", "SL",
        "--xi", "1,-1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is True
    assert data["class_order"] == 1


def test_obstruction_sl2_half(capsys):
    code, out = run(
        capsys, "obstruction", "A", "1", "SL", "SL",
        "--xi", "1/2,-1/2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is True
    assert data["witness_u"] == [1]


def test_obstruction_bad_xi(capsys):
    code, _ = run(capsys, "obstruction", "A", "1", "SL", "SL", "--xi", "1/0,2")
    assert code == 1
    code, _ = run(capsys, "obstruction", "A", "1", "SL", "SL", "--xi", "1/2")
    assert code == 1
    # outside the sum-zero span
    code, _ = run(capsys, "obstruction", "A", "1", "SL", "SL", "--xi", "1/2,1/2")
    assert code == 1


def test_obstruction_h1_cap_refuses_d4_origin(capsys, monkeypatch):
    # delta^1 for |W_L| = 192 on rank 4 would have 113,246,208 cells; the
    # refusal comes before the bar complex is built or factored
    def unreachable(*args):
        raise AssertionError("the bar complex was factored")

    monkeypatch.setattr(obstruction, "subquotient", unreachable)
    code = main(["obstruction", "D", "4", "Spin", "Spin", "--xi", "0,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert errors == ["error: H^1 bar complex needs about 113246208 matrix cells, "
                      "over the cap 4194304"]


def test_subgroup_cap_edge(capsys):
    # the D4 origin has |W_L| = 192: admitted at the cap 192, refused at 191
    argv = ["scan", "D", "4", "Spin", "Spin", "--max-denominator", "1"]
    code, out = run(capsys, *argv, "--max-subgroup-order", "192")
    assert code == 0
    assert "|W_L|=192" in out
    code = main(argv + ["--max-subgroup-order", "191"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: stabilizer W_L of order 192 exceeds the exhaustive verification cap 191"]


def _fresh_weyl_groups(monkeypatch):
    """An empty process cache of Weyl groups for the rest of the test:
    a kept group keeps its subgroups, and a kept subgroup its table, so
    without it a guard would see the work of whatever ran before."""
    monkeypatch.setattr(levels, "_cached_weyl_group", functools.lru_cache(
        maxsize=64)(levels._cached_weyl_group.__wrapped__))


def test_subgroup_cap_refuses_before_closure_work(capsys, monkeypatch):
    # A6 at the origin: all 5040 elements fix xi.  The sweep counts them
    # and the cap refuses before any generator or generator row is built.
    # |W(A6)| = 5040 is over the order of the groups a process keeps, so
    # the group, with the subgroups kept on it, is new to this command.
    def unreachable(*args):
        raise AssertionError("closure work on a subgroup over the cap")

    monkeypatch.setattr(weyl, "_generators_and_rows", unreachable)
    code = main(["obstruction", "A", "6", "SL", "SL", "--xi", "0,0,0,0,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: stabilizer W_L of order 5040 exceeds the exhaustive verification cap 384"]


def test_scans_never_build_the_product_table(capsys, monkeypatch):
    # a scan row prints |W_L| and the class order: the generator rows
    # carry the closure check and the cocycle identity, and no scan point
    # composes the |W_L|^2 table; a certificate composes it once, for its
    # H^1, its one reader (the reflection subgroup is closed in W)
    def unreachable(*args):
        raise AssertionError("a scan point built the left-regular table")

    _fresh_weyl_groups(monkeypatch)
    real = weyl._compose_table
    with monkeypatch.context() as mp:
        mp.setattr(weyl, "_compose_table", unreachable)
        code, out = run(capsys, "scan", "B", "4", "Spin", "Spin", "--max-denominator", "2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == B4_SCAN_SHA256
        with pytest.raises(AssertionError, match="left-regular table"):
            main(["obstruction", "B", "3", "Spin", "Spin", "--xi", "0,0,0"])
    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(weyl, "_compose_table", counted)
    code, out = run(capsys, *B3_ORIGIN)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == B3_ORIGIN_SHA256
    assert len(built) == 1


B5_ORIGIN = ("obstruction", "B", "5", "Spin", "Spin", "--xi", "0,0,0,0,0",
             "--max-subgroup-order", "4000")


def test_h1_cell_cap_refuses_before_the_product_table(capsys, monkeypatch):
    # the B5 origin: |W_L| = 3840 is admitted by the subgroup cap, the
    # integral reflections are closed in W, and the H^1 cell cap refuses
    # before the |W_L|^2 table, its only reader, is composed
    def unreachable(*args):
        raise AssertionError("the left-regular table was built")

    monkeypatch.setattr(weyl, "_compose_table", unreachable)
    code = main(list(B5_ORIGIN))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: H^1 bar complex needs about 1415577600000 matrix cells, "
        "over the cap 4194304"]


def test_integral_reflections_are_closed_from_the_reflections_they_need(capsys,
                                                                       monkeypatch):
    # the B5 origin: all 25 reflections are integral and W_L = W, of
    # order 3840.  The stabilizer takes 3 generator rows (11,520
    # products); the greedy closure multiplies in only the 5 reflections
    # outside the closure so far, about one |W_L| each, where closing
    # under all 25 took 96,000 products
    calls = []
    real = weyl.WeylGroup.mult

    def counted(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(weyl.WeylGroup, "mult", counted)
    code = main(list(B5_ORIGIN))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: H^1 bar complex needs about 1415577600000 matrix cells, "
        "over the cap 4194304"]
    assert len(calls) <= 3 * 3840 + 5 * 3840


def test_subgroups_multiply_each_generator_by_each_member_once(monkeypatch):
    # the D4 origin, |W_L| = 192: the greedy search computes a generator's
    # row when it picks the generator and closes along the rows, so the
    # only products in W are k rows of |W_L|
    group = weyl.generate(classical_datum("D", 4, "Spin"))
    calls = []
    real = weyl.WeylGroup.mult

    def counted(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(weyl.WeylGroup, "mult", counted)
    sub = weyl.subgroup_from_members(group, range(group.order))
    assert len(sub) == 192
    assert sorted(calls) == sorted((g, w) for g in sub.generators for w in sub.members)


def test_equivariant_complex_cap_edge(capsys, monkeypatch):
    # T^5 of Z/4 on a point has 4^5 = 1024 coordinates: the cap admits it
    # at 1024 and refuses it at 1023, before anything is built or factored
    argv = ["equivariant", "--fixture", f"{FIX}/z4_point.json", "--degree", "4"]
    assert run(capsys, *argv, "--max-complex-size", "1024") == (0, "H^4_G = Z/4\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("the equivariant complex was factored")

    real_snf = intlinalg.snf

    def coefficient_checks_only(a, left=True, right=True):
        # reading the fixture factors one 1 x 1 matrix per generator, in the
        # automorphism check of the rank-one coefficients; every matrix of
        # the complex has more rows
        if len(a) > 1:
            unreachable()
        return real_snf(a, left=left, right=right)

    monkeypatch.setattr(cech, "subquotient", unreachable)
    monkeypatch.setattr(intlinalg, "snf", coefficient_checks_only)
    code = main(argv + ["--max-complex-size", "1023"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: equivariant complex needs 1024 coordinates, over the cap 1023"]


def test_equivariant_cap_counts_unnormalised_layers(capsys, monkeypatch):
    # the built complex is normalised, 3^8 = 6561 coordinates in T^8 of
    # Z/4 on a point, but the cap counts the unnormalised 4^8 = 65536 and
    # refuses degree 7 at the default cap before anything is built or
    # factored
    def unreachable(*args, **kwargs):
        raise AssertionError("the equivariant complex was built")

    for name in ("_bar_rows", "divisor_cohomology", "subquotient"):
        monkeypatch.setattr(cech, name, unreachable)
    code = main(["equivariant", "--fixture", f"{FIX}/z4_point.json", "--degree", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: equivariant complex needs 65536 coordinates, over the cap 60000"]


@pytest.mark.parametrize("degree", ["100000", "1000000000"])
def test_equivariant_far_past_the_cap_is_refused_by_bit_count(capsys, monkeypatch, degree):
    # a point nerve has one block per total degree; its 2^degree count is
    # never formed once it has 64 more bits than the cap, so even degree
    # 10^9 is refused at once, before anything is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the equivariant complex was built")

    for name in ("_bar_rows", "divisor_cohomology", "subquotient"):
        monkeypatch.setattr(cech, name, unreachable)
    start = time.perf_counter()
    code = main(["equivariant", "--fixture", f"{FIX}/z2_point.json", "--degree", degree])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: equivariant complex needs more than 60000 coordinates, the cap"]
    assert len(captured.err.splitlines()) == 1
    assert elapsed < 1.0


def test_equivariant_count_reads_only_degrees_of_the_nerve():
    # the circle nerve has dimension 1: T^40 has the blocks (40, 0) and
    # (39, 1) only, 3 * 2^40 + 3 * 2^39 unnormalised coordinates under
    # Z/2, an exact count well short of 64 bits past the cap
    act = cech.FiniteAction(cech.cyclic_group(2), cech.circle_nerve(3),
                            cech.parse_group_label("Z"), (tuple(range(3)),) * 2,
                            (((1,),),) * 2)
    with pytest.raises(intlinalg.CapExceeded) as err:
        cech._equivariant_matrices(act, 40, 0)
    assert str(err.value) == (f"equivariant complex needs {9 * 2**39} coordinates, "
                              "over the cap 0")


def test_equivariant_high_degree_on_normalised_cochains(capsys):
    # T^15 of Z/2 on a point counts 2^15 = 32768 coordinates, under the
    # default cap; normalised, every layer is 1 x 1
    argv = ["equivariant", "--fixture", f"{FIX}/z2_point.json", "--degree", "14"]
    assert run(capsys, *argv) == (0, "H^14_G = Z/2\n")


B3_ORIGIN = ("obstruction", "B", "3", "Spin", "Spin", "--xi", "0,0,0", "--format", "json")
B3_ORIGIN_SHA256 = "870338a91320e297c108c2e9897c30c339e1d30eabf88e7b3f99d267bb42ae25"
# the C3 origin: like the B3 origin, delta^1 is 6912 x 144 and its Smith
# form meets pivots of 2, after which snf has made every row
C3_ORIGIN = ("obstruction", "C", "3", "Sp", "Sp", "--xi", "0,0,0", "--format", "json")
C3_ORIGIN_SHA256 = "4f0c05d61a2dd7dbdc79d97d4e21f47988a25f511162bdadd32514ac5a137224"
B4_SCAN_SHA256 = "69b454c7ac0920674b66994374e50db24997617b51f698739f065494230e6dd3"
# |W(D5)| = 1920, over the order up to which a Weyl group is enumerated
# once per process; W_L of order 16, a class of order 2 in H^1 = Z/2
D5_HALF_THIRD = ("obstruction", "D", "5", "Spin", "Spin", "--xi", "1/2,1/2,1/3,0,0",
                 "--format", "json")
D5_HALF_THIRD_SHA256 = "3af080afb9785dfe7bee639f8d2a60557d83006a35deaa6f58b1db451e4b5bdd"


@pytest.mark.parametrize("argv, digest", [
    (B3_ORIGIN, B3_ORIGIN_SHA256),
    (C3_ORIGIN, C3_ORIGIN_SHA256),
    (("equivariant", "--fixture", f"{FIX}/z4_point.json", "--degree", "4",
      "--format", "json"),
     "4f4a114fdce492d67ed9e7b78fb33dd613c057408357ec199751a8d093d92109"),
    # 4^7 = 16384 unnormalised coordinates in T^7, 3^7 = 2187 built
    (("equivariant", "--fixture", f"{FIX}/z4_point.json", "--degree", "6",
      "--format", "json"),
     "cb42d5fb9491255643376a4175e94d6830214211b1f52608205ef1d5fcb568b5"),
    # |W| = 384 scans, outside the benchmark
    (("scan", "B", "4", "Spin", "Spin", "--max-denominator", "2"), B4_SCAN_SHA256),
    (("scan", "C", "4", "Sp", "Sp", "--max-denominator", "2"),
     "996001e32d10760bd9c7fe5ba2ca344a1a8ce60d711139a42aca66df99a69b76"),
    # the point (0, 1, 2, 2)/4 has class order 4 over W_L = (Z/2)^3, of
    # exponent 2
    (("scan", "D", "4", "Spin", "PSO", "--max-denominator", "4", "--format", "json"),
     "98886a8a6eff657962cfe30f44062c17f921ed108a27f60c29780860362ad4a8"),
    # W_L of order 16 in |W| = 192: a class of order 2, H^1 = Z/2
    (("obstruction", "D", "4", "Spin", "Spin", "--xi", "1/2,1/2,0,0", "--format", "json"),
     "c0de680cbb29fb2d37c47eafbabbcbd9a989988ab60b99e59006fffc323e2dce"),
    (D5_HALF_THIRD, D5_HALF_THIRD_SHA256),
    (("atlas", "--format", "json"),
     "1dcbffe87777852ce85b30daa2e1d9c6bf6a5c1b5b70c2e69cffb4787cae17c9"),
    (("atlas",),
     "07b21093896f71e36f664bb7159d13b8664abbb7e62f7325a403ee4e2d638766"),
    (("atlas", "--format", "csv"),
     "ab07e78c60847a2e510783f0964a65bf2c005a712310063cd4e3eb68ae5f1d6e"),
    (("atlas", "--row", "D,6,Spin,Spin", "--format", "json"),
     "c6ceedf30d0f9049ec023fc4767084e7bcf60f05d0b56bfaa20d3a33abeff3c3"),
    # 33 scans in one process over 19 target data, whose Weyl groups are
    # enumerated once each and shared: a scan whose output depended on
    # the scans before it would change this digest
    (("atlas", "--scan-denominator", "2", "--format", "json"),
     "3b37503baf5177da1abfe627c35bfd8d0c54450ec9247ab56e9b2f483f090b5c"),
    (("equivariant", "--fixture", f"{FIX}/z2_point_mod2.json", "--degree", "4",
      "--format", "json"),
     "59672c671586390c01a76dbbc1018c41c93f1f1095246b5d2af0ccbc13050ad6"),
    (("cohomology", "--fixture", f"{FIX}/octahedron.json", "--degree", "2",
      "--coefficients", "Z/2+Z/4", "--format", "json"),
     "7d536e0483996c40055dd1f1320f6eab664edfe87bd4beef063a642fe46d25d9"),
    (("cohomology", "--fixture", f"{FIX}/circle3.json", "--degree", "1",
      "--coefficients", "Z+Z/6", "--format", "json"),
     "733809ac2a7d0f24bdb43e92a4019559a128dc9e3b88a46506b4cf9860c3781d"),
], ids=["B3-origin", "C3-origin", "z4-degree4", "z4-degree6", "B4-scan", "C4-scan",
        "D4-Spin-PSO-scan4", "D4-half-half", "D5-half-half-third", "atlas",
        "atlas-text", "atlas-csv", "atlas-D6", "atlas-scan2",
        "z2-mod2-degree4", "octahedron-Z/2+Z/4", "circle3-Z+Z/6"])
def test_large_h1_and_equivariant_goldens(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certificate_builds_only_the_source_actions_it_reads(capsys, monkeypatch):
    # source actions are built on first read, each with the generation-tree
    # ancestors it is multiplied down from: at most 55 of the 1920 here
    actions, reads = [], set()

    class Recording(levels.SharedWeylAction):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            actions.append(self)

        def source_char_action(self, idx):
            reads.add(idx)
            return super().source_char_action(idx)

        def source_row_ids(self, members):
            reads.update(members)
            return super().source_row_ids(members)

    monkeypatch.setattr(cli, "SharedWeylAction", Recording)
    code, out = run(capsys, *D5_HALF_THIRD)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D5_HALF_THIRD_SHA256
    (act,) = actions
    tree = act.group.tree
    assert act.group.order == 1920 > levels._CACHED_ORDER_MAX
    climbed = set()
    for i in reads:
        while i is not None and i not in climbed:
            climbed.add(i)
            i = tree[i] and tree[i][1]
    assert set(act._source_ids) == climbed
    assert len(climbed) <= 55


def test_class_order_beyond_the_stabilizer_exponent(capsys):
    # W_L = (Z/2)^3 has exponent 2 and order 8; the class has order 4,
    # in H^1 = Z/4 from the bar complex as from the generator solve
    code, out = run(capsys, "obstruction", "D", "4", "Spin", "PSO",
                    "--xi", "3/4,3/4,1/2,0")
    assert code == 0
    lines = out.splitlines()
    assert "xi (basis coords): [0, 1, 2, 2] / 4" in lines
    assert "class order: 4" in lines
    assert "H1 invariants: Z/4" in lines


def test_weyl_cap_refuses_before_the_isogeny_is_built(capsys, monkeypatch):
    # |W| is counted on the target datum first, so an over-cap rank never
    # reaches the isogeny's checks, which multiply rank-sized matrices
    def unreachable(*args):
        raise AssertionError("an isogeny was built for a Weyl group over the cap")

    monkeypatch.setattr(cli, "build_isogeny", unreachable)
    monkeypatch.setattr(cli, "classical_isogeny", unreachable)
    cap = "Weyl group order exceeds the configured cap"
    for argv, limit in ((("levels", "B", "8", "Spin", "Spin"), 10**6),
                        (("levels", *G2, "--max-weyl-order", "11"), 11)):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert _one_error_line(captured.err) == [f"error: {cap} {limit}"]
    assert run(capsys, "atlas", "--row", "B,8,Spin,Spin") == (
        0, f"B8 Spin->Spin  error: cap: {cap} 1000000\n")


def test_weyl_cap_reads_only_the_simple_coordinates(capsys, monkeypatch):
    # group_order reads the Cartan matrix, which solves for the coordinates
    # of the simple roots and coroots only: B60 has 7,200 roots and is
    # refused after at most 2 * 60 coordinate solves
    real = rootdata._Frame.coords
    solves = []

    def counted(frame, v):
        solves.append(v)
        return real(frame, v)

    fresh = rootdata._classical_datum.__wrapped__("B", 60, "Spin")
    monkeypatch.setattr(rootdata._Frame, "coords", counted)
    with pytest.raises(intlinalg.CapExceeded):
        weyl.group_order(fresh)
    assert 0 < len(solves) <= 2 * 60
    solves.clear()
    code = main(["levels", "B", "60", "Spin", "Spin"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert _one_error_line(captured.err) == [
        "error: Weyl group order exceeds the configured cap 1000000"]
    assert len(solves) <= 2 * 60


def test_validation_reports_a_root_outside_the_lattice_first(tmp_path, capsys,
                                                            monkeypatch):
    # the Cartan matrix reads only simple roots, so a fixture whose other
    # roots leave the lattice must be refused by validate_datum before
    # group_order is reached
    def unreachable(*args):
        raise AssertionError("group_order was reached")

    data = _fixture("g2_datum.json")
    data["target"]["roots"][2]["den"] = 2
    path = tmp_path / "bad_root.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(cli, "group_order", unreachable)
    code = main(["levels", "--datum-fixture", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    [line] = _one_error_line(captured.err)
    assert line.startswith("error: datum ")
    assert "root[2] outside the character lattice" in line


@pytest.mark.parametrize("entry, digest", [
    (("B", "5", "Spin", "Spin"),
     "bf70c7e69349dd0fcf88808e72bbb3f6914c96feb1a2f4881b2b099ecdeeb8ae"),
    (("C", "5", "Sp", "Sp"),
     "b27004bd313188a06fcc8266208537fa561d9099a924e963888286ece4dc7ad3"),
    (("D", "5", "Spin", "Spin"),
     "329c6e8b14ca70085ee9e522e59d56be309d8c744b65757fd8af83668e601e69"),
], ids=["B5", "C5", "D5"])
def test_rank5_scans_under_a_raised_subgroup_cap(entry, digest):
    # the origins' stabilizers are all of W (|W| = 3840, 3840, 1920); each
    # scan runs in a fresh interpreter, in the time CI allows it
    argv = ["scan", *entry, "--max-denominator", "2", "--max-subgroup-order", "4000"]
    done = subprocess.run([sys.executable, "-m", "gerbelevels.cli", *argv],
                          capture_output=True, timeout=20, check=True)
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == digest


def test_d6_scan_enumerates_its_group_per_action():
    # |W| = 23,040 is over the order up to which a group is enumerated once
    # per process, so the action enumerates its own; at the origin W_L = W
    argv = ["scan", "D", "6", "Spin", "Spin", "--max-denominator", "2",
            "--max-subgroup-order", "50000"]
    done = subprocess.run([sys.executable, "-m", "gerbelevels.cli", *argv],
                          capture_output=True, timeout=20, check=True)
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == \
        "9839e492993e6beb283a70aa02fe633c581fa65ff69edb3bf8329665a8e692c0"


def test_atlas_reads_the_claims_file_once_per_process(capsys, monkeypatch):
    # importing the package reads nothing; the first find_claim does
    done = subprocess.run(
        [sys.executable, "-c", "import gerbelevels.cli, gerbelevels.claims as c; "
         "print(c._bundled_claims.cache_info().currsize)"],
        capture_output=True, text=True, timeout=20, check=True)
    assert done.stdout == "0\n"
    reads = []
    real = claims.load_claims

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(claims, "load_claims", counting)
    claims._bundled_claims.cache_clear()
    assert run(capsys, "atlas")[0] == 0
    assert run(capsys, "atlas", "--format", "csv")[0] == 0
    assert len(reads) == 1


def test_invariants_only_runs_never_reach_subquotient(capsys, monkeypatch):
    # equivariant runs on Z or Z/m coefficients and every cohomology run
    # read H^p off elementary divisors; a certificate locates its class,
    # and only that goes through subquotient
    def unreachable(*args, **kwargs):
        raise AssertionError("subquotient reached")

    monkeypatch.setattr(cech, "subquotient", unreachable)
    monkeypatch.setattr(obstruction, "subquotient", unreachable)
    for argv, out in [
        (("equivariant", "--fixture", f"{FIX}/z4_point.json", "--degree", "4"),
         "H^4_G = Z/4\n"),
        (("equivariant", "--fixture", f"{FIX}/z2_point_mod2.json", "--degree", "3"),
         "H^3_G = Z/2\n"),
        (("equivariant", "--fixture", f"{FIX}/trivial_group_octahedron.json",
          "--degree", "2"), "H^2_G = Z\n"),
        (("cohomology", "--fixture", f"{FIX}/octahedron.json", "--degree", "2",
          "--coefficients", "Z/2+Z/4"), "H^2 = Z/2 + Z/4\n"),
        (("cohomology", "--fixture", f"{FIX}/circle3.json", "--degree", "1",
          "--coefficients", "Z+Z/6"), "H^1 = Z + Z/6\n"),
    ]:
        assert run(capsys, *argv) == (0, out), argv
    with pytest.raises(AssertionError, match="subquotient reached"):
        main(["obstruction", "B", "3", "Spin", "Spin", "--xi", "1/2,-1/2,0"])
    mixed = cech.CoefficientGroup(1, (2,))
    with pytest.raises(AssertionError, match="subquotient reached"):
        cech.group_cohomology(cech.cyclic_group(2), mixed, 2)


ATLAS_FORMS = sorted({(s, r, f) for s, r, sf, tf in DEFAULT_ATLAS_ROWS
                      for f in (sf, tf)})
G2 = ("--datum-fixture", f"{FIX}/g2_datum.json", "--format", "json")


@pytest.mark.parametrize("argvs, digest", [
    ([("datum", s, str(r), f, "--format", "json") for s, r, f in ATLAS_FORMS],
     "3b0b334086fd480f6804f21104d250846189a5971e1abb9f8f4c7c894af24ede"),
    ([("datum", s, str(r), sf, "--isogeny-target", tf, "--format", "json")
      for s, r, sf, tf in DEFAULT_ATLAS_ROWS],
     "9f3108f7459bcd82ac1c04313d70314ff67dc4494830b0afef736fb86e42184f"),
    ([("levels",) + G2],
     "4c901d8b2d000944d630440705b86b07d8ea5ec5f53ccd5a0fbf34dc89e06b22"),
    ([("obstruction", "--xi", "0,-1/2,1/2") + G2],
     "dfe4b0f67d0186b67f2b25e8db6f355098b419d1b8e6551e0bd2442bf98e8790"),
], ids=["datum-forms", "datum-isogenies", "g2-levels", "g2-obstruction"])
def test_datum_and_g2_goldens(capsys, argvs, digest):
    # sha256 of the concatenated stdout of every command in argvs
    outs = []
    for argv in argvs:
        code, out = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


def test_scan_exit_codes(capsys):
    code, out = run(capsys, "scan", "A", "2", "SL", "SL",
                    "--max-denominator", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nontrivial"] == 0
    code, _ = run(capsys, "scan", "B", "2", "Spin", "Spin",
                  "--max-denominator", "50", "--max-scan-points", "10")
    assert code == 2


def test_datum_command(capsys):
    code, out = run(capsys, "datum", "B", "3", "Spin", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    code, out = run(capsys, "datum", "B", "3", "Spin",
                    "--isogeny-target", "SO", "--format", "json")
    assert code == 0
    assert json.loads(out)["index"] == 2
    code, _ = run(capsys, "datum", "B", "2", "PSO")
    assert code == 1


def test_cohomology_fixture(capsys):
    code, out = run(
        capsys, "cohomology", "--fixture", f"{FIX}/octahedron.json",
        "--degree", "2", "--coefficients", "Z", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["label"] == "Z"
    code, out = run(
        capsys, "cohomology", "--fixture", f"{FIX}/triangle_cover.json",
        "--degree", "1", "--coefficients", "Z", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["label"] == "Z"


def test_cohomology_witness_request(capsys):
    code, out = run(
        capsys, "cohomology", "--fixture", f"{FIX}/circle3.json",
        "--degree", "1", "--coefficients", "Z",
        "--trivialize-cocycle", f"{FIX}/circle3_cocycle.json",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["witness"] is None  # the class generates H^1


def test_equivariant_fixtures(capsys):
    code, out = run(
        capsys, "equivariant", "--fixture", f"{FIX}/z2_point.json",
        "--degree", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["label"] == "Z/2"
    code, out = run(
        capsys, "equivariant", "--fixture", f"{FIX}/z2_point_mod2.json",
        "--degree", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["label"] == "Z/2"
    code, out = run(
        capsys, "equivariant", "--fixture",
        f"{FIX}/trivial_group_octahedron.json", "--degree", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["label"] == "Z"


def test_extension_fixtures(capsys):
    code, out = run(capsys, "extension", "--fixture",
                    f"{FIX}/z2_extension_cyclic4.json", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order_multiset"] == [1, 2, 4, 4]
    code, out = run(capsys, "extension", "--fixture",
                    f"{FIX}/z2_extension_product.json", "--format", "json")
    assert code == 0
    assert json.loads(out)["order_multiset"] == [1, 2, 2, 2]
    code, _ = run(capsys, "extension", "--fixture",
                  f"{FIX}/z3_bad_cochain.json")
    assert code == 1


@pytest.mark.parametrize("group", [{"cyclic": 3}, {"table": [[0, 1, 2], [1, 2, 0],
                                                             [2, 0, 1]]}],
                         ids=["cyclic", "table"])
def test_extension_cap_edge(tmp_path, capsys, monkeypatch, group):
    # Z/2 by Z/3 has 6 elements, a table of 36 cells: the cap admits it at
    # 36 and refuses it at 35, before psi is read or any table is built
    path = tmp_path / "z2_by_z3.json"
    path.write_text(json.dumps({"group": group, "coefficients": "Z/2"}))
    argv = ["extension", "--fixture", str(path)]
    monkeypatch.setattr(cech, "EXTENSION_CELL_CAP", 36)
    assert run(capsys, *argv) == (
        0, "extension of order 6; element orders [1, 2, 3, 3, 6, 6]; center 6\n")

    def unreachable(*args, **kwargs):
        raise AssertionError("an extension table was built")

    for module, name in ((cli, "cyclic_group"), (cech, "_cocycle_positions"),
                         (cech, "_addition_table"), (cech, "FiniteGroupTable")):
        monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(cech, "EXTENSION_CELL_CAP", 35)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert _one_error_line(captured.err) == [
        "error: extension table needs 36 cells, over the cap 35"]


@pytest.mark.parametrize("n, digest", [
    (60, "8c56b3fbb534bc91d76cb5e3a8c9b8971697b45e9b74c81295da62e3d4fba75d"),
    (120, "213c844b5ca9b3457ed9089ab93accaa22c6824fd3f8605864c6d0e6f483afe6"),
], ids=["cyclic60", "cyclic120"])
def test_extension_golden_from_generator_checks(tmp_path, capsys, n, digest):
    # the digests of the all-triples checks and the cell-by-cell table,
    # which took about 2 s and 15 s; the cyclic-120 run is also in the CI
    # install smoke run
    path = tmp_path / f"z2_by_z{n}.json"
    path.write_text(json.dumps({"group": {"cyclic": n}, "coefficients": "Z/2"}))
    start = time.monotonic()
    code, out = run(capsys, "extension", "--fixture", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert time.monotonic() - start < 5


def test_extension_default_cap_edge(tmp_path, capsys, monkeypatch):
    # 2^20 cells: Z/2 by Z/512 (1024 elements) is admitted, Z/2 by Z/513
    # is refused from the fixture before the table of Z/513 is built
    z2 = cech.parse_group_label("Z/2")
    cech.check_extension_size(512, z2)
    with pytest.raises(intlinalg.CapExceeded):
        cech.check_extension_size(513, z2)

    def unreachable(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr(cli, "cyclic_group", unreachable)
    path = tmp_path / "z2_by_z513.json"
    path.write_text(json.dumps({"group": {"cyclic": 513}, "coefficients": "Z/2"}))
    code = main(["extension", "--fixture", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert _one_error_line(captured.err) == [
        "error: extension table needs 1052676 cells, over the cap 1048576"]


def test_schema_violation_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a fixture\"}")
    code, _ = run(capsys, "cohomology", "--fixture", str(bad), "--degree", "1")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("levels", "A", "2", "SL", "SL", "--format", "json"),
        ("levels", "D", "4", "SO", "PSO", "--format", "csv"),
        ("obstruction", "B", "3", "Spin", "Spin", "--xi", "1/2,-1/2,0",
         "--format", "json"),
        ("scan", "A", "2", "SL", "SL", "--max-denominator", "3",
         "--format", "csv"),
        ("atlas", "--row", "A,1,SL,SL", "--row", "B,2,Spin,Spin",
         "--format", "json"),
        ("cohomology", "--fixture", f"{FIX}/circle3.json", "--degree", "1",
         "--format", "json"),
    ],
)
def test_byte_identical_output(capsys, argv):
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_atlas_row_errors_isolated(capsys):
    code, out = run(
        capsys, "atlas", "--row", "B,2,PSO,PSO", "--row", "A,1,SL,SL",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    assert any("error" in row for row in data)
    assert any(row.get("verdict") == "match" for row in data)


def test_atlas_type_c_no_claim(capsys):
    code, out = run(capsys, "atlas", "--row", "C,2,Sp,Sp", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["verdict"] == "no-claim"


def test_atlas_empty_row_list_is_default(capsys):
    code, out = run(capsys, "atlas", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == len(set((r["series"], r["rank"], r["source_form"],
                                 r["target_form"]) for r in data))
    assert len(data) == 33


def test_levels_custom_datum_fixture(capsys):
    code, out = run(
        capsys, "levels", "--datum-fixture", "fixtures/g2_datum.json",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "no-claim"
    assert data["series"] == "custom"
    assert data["computed_basis"] == [[[6, 3], [3, 2]]]


def test_obstruction_custom_datum_fixture(capsys):
    code, out = run(
        capsys, "obstruction", "--datum-fixture", "fixtures/g2_datum.json",
        "--xi", "0,-1/2,1/2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["stabilizer_order"] == 4
    assert data["trivial"] is False
    assert data["class_order"] == 2
    assert data["h1_invariants"]["torsion"] == [2]


def test_entry_commands_require_entry_or_fixture(capsys):
    code, _ = run(capsys, "levels")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("levels", "A", "2", "SL", "SL"),
    ("obstruction", "A", "2", "SL", "SL", "--xi", "0,0,0"),
    ("scan", "A", "--max-denominator", "2"),
], ids=["levels", "obstruction", "scan"])
def test_positional_entry_with_datum_fixture_is_usage_error(capsys, argv):
    # a positional entry next to --datum-fixture contradicts it; neither
    # is dropped in silence
    code = main([*argv, "--datum-fixture", f"{FIX}/g2_datum.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: give SERIES RANK SOURCE TARGET or --datum-fixture, not both"]
    assert len(captured.err.splitlines()) == 1


def test_levels_on_rootless_datum_prints_invariant_basis(tmp_path, capsys):
    # a rank-2 torus has no coroots, so every invariant level is allowable:
    # the identity basis of its four matrix entries
    torus = {"source": torus_datum(2).to_json_dict(),
             "target": torus_datum(2).to_json_dict()}
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(torus))
    code, out = run(capsys, "levels", "--datum-fixture", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["computed_basis"] == [
        [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]


def test_atlas_empty_range(capsys):
    # the default row set has no type-C rows, so this selects nothing
    code, out = run(capsys, "atlas", "--series", "C", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_certificate_is_externally_recheckable(capsys):
    # replay the certificate using nothing but the JSON payload and
    # plain integer arithmetic: the embedded action matrices determine
    # the multiplication, the cocycle identity, and the witness claims
    code, out = run(
        capsys, "obstruction", "B", "3", "Spin", "Spin",
        "--xi", "1/2,-1/2,0", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    acts = {int(k): v for k, v in data["stabilizer_actions"].items()}
    c = {int(k): tuple(v) for k, v in data["c_cocycle"].items()}
    d = {int(k): tuple(v) for k, v in data["d_cocycle"].items()}
    level = data["level"]

    def mat_mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                  for j in range(len(b[0])))
            for i in range(len(a))
        )

    def mat_vec(a, v):
        return tuple(sum(r[k] * v[k] for k in range(len(v))) for r in a)

    by_matrix = {tuple(tuple(r) for r in m): i for i, m in acts.items()}
    # c really is bmap(d)
    for i in acts:
        assert mat_vec(level, d[i]) == c[i]
    # cocycle identity, with the product element recovered from matrices
    for i, mi in acts.items():
        for j in acts:
            prod = mat_mul(tuple(tuple(r) for r in mi),
                           tuple(tuple(r) for r in acts[j]))
            k = by_matrix[prod]
            assert c[k] == tuple(
                x + y for x, y in zip(mat_vec(mi, c[j]), c[i])
            )
    # nontriviality claim: 2*c is the coboundary of an integral vector
    # while the unique rational witness has denominator 2
    num, den = data["rational_witness"]["num"], data["rational_witness"]["den"]
    assert den == 2
    for i, mi in acts.items():
        lhs = tuple(
            sum(mi[r][k] * num[k] for k in range(len(num))) - num[r]
            for r in range(len(num))
        )
        assert lhs == tuple(den * x for x in c[i])


def test_scan_representatives_are_orbit_minimal(capsys):
    code, out = run(capsys, "scan", "B", "2", "Spin", "Spin",
                    "--max-denominator", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    from fractions import Fraction

    from gerbelevels.intlinalg import RatVector
    from gerbelevels.levels import SharedWeylAction
    from gerbelevels.rootdata import classical_isogeny
    from gerbelevels.intlinalg import matvec, transpose

    def image_mod1(e, xi):  # the transpose of e acts on cocharacters as e^-1
        return RatVector.make([x % xi.den for x in matvec(transpose(e), xi.nums)],
                              xi.den)

    action = SharedWeylAction(classical_isogeny("B", 2, "Spin", "Spin"))
    for row in data["rows"]:
        xi = RatVector.make(row["xi"]["num"], row["xi"]["den"])
        orbit = [
            image_mod1(e, xi).fractions()
            for e in action.group.elements
        ]
        assert xi.fractions() == min(orbit)


def test_cohomology_returns_witness_for_coboundary(tmp_path, capsys):
    # delta of the 0-cochain u = (1, 0, 0) on the 3-arc circle
    cocycle = {
        "degree": 1,
        "values": [
            {"simplex": [0, 1], "value": [-1]},
            {"simplex": [0, 2], "value": [-1]},
        ],
    }
    path = tmp_path / "coboundary.json"
    path.write_text(json.dumps(cocycle))
    code, out = run(
        capsys, "cohomology", "--fixture", f"{FIX}/circle3.json",
        "--degree", "1", "--coefficients", "Z",
        "--trivialize-cocycle", str(path), "--format", "json",
    )
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness is not None
    # the witness cochain really has the right coboundary
    vals = {tuple(e["simplex"]): e["value"][0] for e in witness["values"]}
    u = [vals.get((i,), 0) for i in range(3)]
    assert (u[1] - u[0], u[2] - u[0], u[2] - u[1]) == (-1, -1, 0)


def test_atlas_with_scan_summaries(capsys):
    code, out = run(
        capsys, "atlas", "--row", "A,1,SL,SL", "--row", "B,3,Spin,Spin",
        "--scan-denominator", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all("scan" in row for row in data)
    spin7 = next(r for r in data if r["series"] == "B")
    assert spin7["scan"]["nontrivial"] >= 1
    sl2 = next(r for r in data if r["series"] == "A")
    assert sl2["scan"]["nontrivial"] == 0
    # deterministic with summaries too
    code2, out2 = run(
        capsys, "atlas", "--row", "A,1,SL,SL", "--row", "B,3,Spin,Spin",
        "--scan-denominator", "2", "--format", "json",
    )
    assert out == out2 and code == code2


def _g2_with_char_vector(tmp_path, **override):
    data = _fixture("g2_datum.json")
    data["source"]["char_basis"][0].update(override)
    path = tmp_path / "g2_mutated.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("override", [
    {"den": 0}, {"den": "x"}, {"num": 5},
    # JSON integers are read strictly: no float is truncated, no bool counted
    {"den": 1.7}, {"num": [1.4, -1, 0]}, {"den": True},
])
def test_malformed_datum_fixture_is_bad_input(tmp_path, capsys, override):
    path = _g2_with_char_vector(tmp_path, **override)
    code = main(["levels", "--datum-fixture", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = _one_error_line(captured.err)
    assert len(lines) == 1 and lines[0].startswith("error: malformed root datum")


def _g2_without(side, *path):
    data = _fixture("g2_datum.json")
    node = data[side]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return data


@pytest.mark.parametrize("data, message", [
    ([1, 2], "malformed datum fixture: need an object with 'source' and 'target' fields"),
    ("s", "malformed datum fixture: need an object with 'source' and 'target' fields"),
    (None, "malformed datum fixture: need an object with 'source' and 'target' fields"),
    ({"source": {}}, "malformed datum fixture: need an object with 'source' and "
                     "'target' fields"),
    (_g2_without("source", "name"), "malformed root datum: missing field 'name'"),
    (_g2_without("target", "char_basis", 0, "den"),
     "malformed root datum: missing field 'den'"),
], ids=["list", "string", "null", "no-target", "no-name", "no-den"])
@pytest.mark.parametrize("command", [["levels"], ["scan", "--max-denominator", "1"],
                                     ["obstruction", "--xi", "0,0,0"]],
                         ids=lambda c: c[0])
def test_datum_fixture_of_the_wrong_shape_is_bad_input(tmp_path, capsys, data,
                                                       message, command):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    code = main([*command, "--datum-fixture", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert _one_error_line(captured.err) == [f"error: {message}"]


def _g2_target_with(key, value):
    data = _fixture("g2_datum.json")
    data["target"][key] = value
    return data


def _g2_target_without_coroot(k):
    data = _fixture("g2_datum.json")
    del data["target"]["coroots"][k]
    return data


@pytest.mark.parametrize("data, message", [
    (_g2_target_with("simple_indices", [0, 99]), "simple index outside the root list"),
    (_g2_target_with("simple_indices", [0, -1]), "simple index outside the root list"),
    (_g2_target_without_coroot(3), "root and coroot counts differ; "),
])
def test_invalid_datum_fixture_is_bad_input(tmp_path, capsys, data, message):
    path = tmp_path / "g2_mutated.json"
    path.write_text(json.dumps(data))
    code = main(["levels", "--datum-fixture", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = _one_error_line(captured.err)
    assert len(lines) == 1
    assert lines[0].startswith(f"error: datum G2 invalid: {message}")


@pytest.mark.parametrize("level, detail", [
    ({"matrix": [[2.9]]}, "expected an integer, got 2.9"),
    ({"matrix": [[True]]}, "expected an integer, got True"),
    ({"matrix": 5}, "expected a list, got 5"),
    ([1], ""),
])
def test_level_file_is_read_strictly(tmp_path, capsys, level, detail):
    path = tmp_path / "level.json"
    path.write_text(json.dumps(level))
    code = main(["obstruction", "A", "1", "SL", "SL", "--xi", "1/2,-1/2",
                 "--level", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = _one_error_line(captured.err)
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot load level from {str(path)!r}: {detail}")


def test_level_file_with_ragged_matrix_is_bad_input(tmp_path, capsys):
    path = tmp_path / "level.json"
    path.write_text(json.dumps({"matrix": [[2, 0], [0]]}))
    code = main(["obstruction", "A", "2", "SL", "SL", "--xi", "0,0,0",
                 "--level", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert _one_error_line(captured.err) == [
        f"error: cannot load level from {str(path)!r}: "
        "level matrix has wrong column count"]


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_scan_rejects_nonpositive_denominator(capsys, bound):
    code = main(["scan", "A", "1", "SL", "SL", "--max-denominator", bound,
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: --max-denominator must be >= 1" in captured.err


def test_obstruction_xi_outside_cocharacter_span(capsys):
    code = main(["obstruction", "A", "2", "SL", "SL", "--xi", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "outside the cocharacter span" in captured.err


@pytest.mark.parametrize("command", ["levels", "atlas", "obstruction", "scan",
                                     "datum", "cohomology", "equivariant",
                                     "extension"])
def test_no_seed_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def _one_error_line(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_atlas_rejects_negative_scan_denominator(capsys):
    code = main(["atlas", "--row", "A,1,SL,SL", "--scan-denominator", "-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: --scan-denominator must be >= 0 (0 means no scan)"]


@pytest.mark.parametrize("label", ["Z/x", "Z^x", "Z^-1"])
def test_cohomology_rejects_malformed_coefficients(capsys, label):
    code = main(["cohomology", "--fixture", f"{FIX}/circle3.json",
                 "--degree", "1", "--coefficients", label])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        f"error: cannot parse group label {label!r}"]


def _without_group():
    data = _fixture("z2_point.json")
    del data["group"]
    return data


def _fixture_with(name, path, value):
    """The fixture with the entry at path (a key sequence) replaced."""
    data = _fixture(name)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _z2_point_with(path, value):
    return _fixture_with("z2_point.json", path, value)


def _z4_point_with(path, value):
    return _fixture_with("z4_point.json", path, value)


# a loop of order 5: identity 0 and every element its own inverse, but
# (1 * 1) * 2 = 2 while 1 * (1 * 2) = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _z2_on_z4_by(k):
    """z2_point.json on Z/4 coefficients, the generator acting by k."""
    data = _z2_point_with(("coeff_actions", 1), [[k]])
    data["coefficients"] = "Z/4"
    return data


def _extension_with(**fields):
    data = _fixture("z2_extension_cyclic4.json")
    data.update(fields)
    return data


@pytest.mark.parametrize("command, data, message", [
    ("cohomology", {"cover": 5}, "error: malformed cover"),
    ("cohomology", {"nerve": {"n_vertices": "x", "simplices": []}},
     "error: malformed nerve"),
    ("equivariant", _without_group(),
     "error: malformed action: missing field 'group'"),
    ("extension", {"group": {"table": 5}, "coefficients": "Z/2"},
     "error: extension rejected"),
    ("cohomology", {"nerve": {"n_vertices": 3.0, "simplices": [[[0]]]}},
     "error: malformed nerve: expected an integer, got 3.0"),
    ("equivariant", _z2_point_with(("coeff_actions", 1), [[1.9]]),
     "error: malformed action: expected an integer, got 1.9"),
    ("equivariant", _z2_point_with(("group", "table", 0, 1), 1.2),
     "error: malformed action: expected an integer, got 1.2"),
    ("equivariant", _z2_point_with(("vertex_perms", 0, 0), False),
     "error: malformed action: expected an integer, got False"),
    ("equivariant", _z2_point_with(("coeff_actions", 1, 0), [0, 1]),
     "error: coefficient action is not an automorphism"),
    ("extension", _extension_with(group={"cyclic": 2.5}),
     "error: extension rejected: expected an integer, got 2.5"),
    ("extension", _extension_with(psi=[{"pair": [1, 1.0], "value": [1]}]),
     "error: extension rejected: expected an integer, got 1.0"),
    ("extension", _extension_with(psi=[{"pair": [1, 1], "value": [1.5]}]),
     "error: extension rejected: expected an integer, got 1.5"),
    ("extension", _extension_with(psi=[{"pair": [1], "value": [1]}]),
     "error: extension rejected: not enough values to unpack"),
    # 3 is a unit mod 4, but 3 * 3 = 9 is not 1 over Z: an action must
    # compose exactly, which the elementary-divisor route relies on
    ("equivariant", _z2_on_z4_by(3),
     "error: coefficient action is not a homomorphism"),
    ("equivariant", _z2_point_with(("vertex_perms", 1), [1]),
     "error: vertex map is not a permutation"),
    # the swap of vertices 1 and 2 takes the edge (0, 1) to (0, 2)
    ("equivariant", _z2_point_with(("nerve",), {"n_vertices": 3, "simplices": [
        [[0], [1], [2]], [[0, 1]]]}) | {"vertex_perms": [[0, 1, 2], [0, 2, 1]]},
     "error: action does not preserve the nerve"),
    ("extension", {"group": {"table": LOOP5}, "coefficients": "Z/2"},
     "error: extension rejected: table is not associative"),
    ("equivariant", _z2_point_with(("group",), {"table": LOOP5}),
     "error: table is not associative"),
    ("extension", _extension_with(group={"cyclic": 3}, coefficients="Z/3"),
     "error: extension rejected: not a 2-cocycle: fails on triple (1, 1, "),
    # Z/4 is generated by 1; its square acting by 0 is caught on the edge
    # 1 * 1 = 2, and was reported as a non-automorphism before generator
    # checks
    ("equivariant", _z4_point_with(("coeff_actions", 2), [[0]]),
     "error: coefficient action is not a homomorphism"),
    # a set is a list of integer or string labels: true and 1.0 merged
    # with 1, and a string or an object was split into its letters or keys
    ("cohomology", {"cover": [[True], [1]]}, "error: malformed cover"),
    ("cohomology", {"cover": [[1.0], [1]]}, "error: malformed cover"),
    ("cohomology", {"cover": ["ab", "bc"]}, "error: malformed cover"),
    ("cohomology", {"cover": [{"a": 1}, {"a": 2}]}, "error: malformed cover"),
    ("cohomology", {"cover": [[[1]], [[1]]]}, "error: malformed cover"),
    ("cohomology", "cover", "error: fixture needs a 'cover' or 'nerve' field"),
    ("cohomology", ["nerve"], "error: fixture needs a 'cover' or 'nerve' field"),
    # pairs outside Z/2 were ignored, and a repeated pair kept its last value
    ("extension", _extension_with(psi=[{"pair": [1, 5], "value": [1]}]),
     "error: extension rejected: 2-cochain pair (1, 5) is outside the group"),
    ("extension", _extension_with(psi=[{"pair": [-1, 1], "value": [1]}]),
     "error: extension rejected: 2-cochain pair (-1, 1) is outside the group"),
    ("extension", _extension_with(psi=[{"pair": [1, 1], "value": [1]},
                                       {"pair": [1, 1], "value": [0]}]),
     "error: extension rejected: pair (1, 1) given twice"),
])
def test_malformed_fixture_is_bad_input(tmp_path, capsys, command, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, "--fixture", str(path)]
    if command != "extension":
        argv += ["--degree", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = _one_error_line(captured.err)
    assert len(lines) == 1 and lines[0].startswith(message)


# (cover, --degree, cocycle, detail); no cover means the circle3 fixture
MALFORMED_COCYCLES = [
    (None, 1, {"degree": 1}, "missing field 'values'"),
    (None, 1, {"values": []}, "missing field 'degree'"),
    (None, 1, {"degree": 1, "values": 5}, ""),
    (None, 1, {"degree": 1, "values": [{"simplex": [0, 1], "value": ["x"]}]}, ""),
    (None, 1, {"degree": 1.0, "values": []}, "expected an integer, got 1.0"),
    (None, 1, {"degree": 1, "values": [{"simplex": [0, 1], "value": [1.5]}]},
     "expected an integer, got 1.5"),
    (None, 1, {"degree": 1, "values": [{"simplex": [0, 1.0], "value": [1]}]},
     "expected an integer, got 1.0"),
    (None, 1, {"degree": -1, "values": []}, "negative degree"),
    (None, 1, {"degree": 5, "values": []}, "degree 5 is not --degree 1"),
    (None, 1, {"degree": 1, "values": [{"simplex": [0, 1], "value": [1]},
                                       {"simplex": [0, 1], "value": [0]}]},
     "simplex (0, 1) given twice"),
    # the nerve of a 16-set star is built to its edges for --degree 0, so
    # the degree is refused before a value is placed on the triangle
    ({"cover": [[0, i] for i in range(1, 17)]}, 0,
     {"degree": 2, "values": [{"simplex": [0, 1, 2], "value": [1]}]},
     "degree 2 is not --degree 0"),
]


@pytest.mark.parametrize("cover, degree, cocycle, detail", [
    pytest.param(*case, id=f"cocycle{i}-{case[-1]}")
    for i, case in enumerate(MALFORMED_COCYCLES)])
def test_cohomology_rejects_malformed_cocycle(tmp_path, capsys, cover, degree,
                                              cocycle, detail):
    fixture = f"{FIX}/circle3.json"
    if cover is not None:
        fixture = tmp_path / "cover.json"
        fixture.write_text(json.dumps(cover))
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(cocycle))
    code = main(["cohomology", "--fixture", str(fixture), "--degree", str(degree),
                 "--trivialize-cocycle", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = _one_error_line(captured.err)
    assert len(lines) == 1
    assert lines[0].startswith(f"error: malformed cocycle: {detail}")


@pytest.mark.parametrize("argv, option", [
    (("levels", "A", "2", "SL", "SL"), "--max-weyl-order"),
    (("atlas", "--row", "A,1,SL,SL"), "--max-weyl-order"),
    (("atlas", "--row", "A,1,SL,SL"), "--max-subgroup-order"),
    (("obstruction", "A", "1", "SL", "SL", "--xi", "0,0"), "--max-subgroup-order"),
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "2"), "--max-weyl-order"),
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "2"), "--max-subgroup-order"),
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "2"), "--max-scan-points"),
    (("equivariant", "--fixture", f"{FIX}/z2_point.json", "--degree", "1"),
     "--max-complex-size"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_negative_caps_are_usage_errors(capsys, argv, option):
    # like --max-nerve-dim (test_cohomology_rejects_negative_nerve_dimension),
    # whether or not the run would read the cap
    code = main([*argv, option, "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [f"error: {option} must be >= 0"]
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, refusal", [
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "2", "--max-subgroup-order", "0"),
     "error: stabilizer W_L of order 6 exceeds the exhaustive verification cap 0"),
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "2", "--max-scan-points", "0"),
     "error: scan would enumerate about 5 points, over the cap 0"),
    (("levels", "A", "2", "SL", "SL", "--max-weyl-order", "0"),
     "error: Weyl group order exceeds the configured cap 0"),
    (("equivariant", "--fixture", f"{FIX}/z2_point.json", "--degree", "1",
      "--max-complex-size", "0"),
     "error: equivariant complex needs 2 coordinates, over the cap 0"),
], ids=["subgroup", "scan-points", "weyl", "complex"])
def test_zero_caps_still_refuse_with_exit_two(capsys, argv, refusal):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [refusal]


def test_cohomology_rejects_negative_nerve_dimension(capsys):
    code = main(["cohomology", "--fixture", f"{FIX}/triangle_cover.json",
                 "--degree", "1", "--max-nerve-dim", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == ["error: --max-nerve-dim must be >= 0"]
    code, out = run(capsys, "cohomology", "--fixture",
                    f"{FIX}/triangle_cover.json", "--degree", "1")
    assert (code, out) == (0, "H^1 = Z\n")


def test_cover_labels_are_distinct_json_values(tmp_path, capsys):
    # 1 and "1" are different labels; equal integers are one label
    path = tmp_path / "cover.json"
    for cover, out in (([[1], ["1"]], "H^0 = Z^2\n"), ([[1, "a"], [1]], "H^0 = Z\n")):
        path.write_text(json.dumps({"cover": cover}))
        assert run(capsys, "cohomology", "--fixture", str(path), "--degree", "0") == \
            (0, out)


def test_nerve_cap_refuses_a_truncation_that_reaches_the_degree(tmp_path, capsys):
    # the nerve of three equal sets is a full 2-simplex: cut at dimension 1
    # it would read H^1 = Z; the triangle cover cut at 0 would read H^1 = 0
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"cover": [[1], [1], [1]]}))
    for fixture, cap in ((str(full), 1), (f"{FIX}/triangle_cover.json", 0)):
        code = main(["cohomology", "--fixture", fixture, "--degree", "1",
                     "--max-nerve-dim", str(cap)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert _one_error_line(captured.err) == [
            f"error: nerve has simplices of dimension {cap + 1}, "
            f"over the dimension cap {cap}"]
    # a cut above dimension degree + 1 changes nothing H^degree reads
    for fixture, degree, cap, out in (
            (str(full), 1, 2, "H^1 = 0\n"), (str(full), 0, 1, "H^0 = Z\n"),
            (f"{FIX}/triangle_cover.json", 1, 1, "H^1 = Z\n")):
        assert run(capsys, "cohomology", "--fixture", fixture, "--degree",
                   str(degree), "--max-nerve-dim", str(cap)) == (0, out)
    argv = ["cohomology", "--fixture", f"{FIX}/circle3.json", "--degree", "1",
            "--format", "json"]
    assert run(capsys, *argv, "--max-nerve-dim", "2") == run(capsys, *argv)


B3_LEVELS = ("B3 Spin->Spin  verdict=match  computed=[[[2, 1, -2], [1, 2, -2], "
             "[-2, -2, 4]]]  claim={\"kind\": \"basic_multiple\", \"multiple\": 1}\n")
A2_SCAN = """\
[0, 0]/1: |W_L|=6 order=1 trivial=True
[0, 1]/4: |W_L|=1 order=1 trivial=True
[0, 1]/3: |W_L|=1 order=1 trivial=True
[0, 1]/2: |W_L|=2 order=1 trivial=True
[1, 1]/4: |W_L|=2 order=1 trivial=True
[1, 1]/3: |W_L|=6 order=1 trivial=True
[2, 3]/4: |W_L|=2 order=1 trivial=True
[2, 2]/3: |W_L|=6 order=1 trivial=True
total 8 orbits: 8 trivial, 0 nontrivial
"""
D4_ATLAS = ("D4 Spin->Spin  verdict=match  computed=[[[2, 1, 1, -2], [1, 2, 1, -2], "
            "[1, 1, 2, -2], [-2, -2, -2, 4]]]  claim={\"kind\": \"basic_multiple\", "
            "\"multiple\": 1}  scan={\"level\": \"1xbasic\", \"nontrivial\": 0, "
            "\"points\": 1, \"trivial\": 1}\n")


@pytest.mark.parametrize("argv, option, edge, out, refusal", [
    (("levels", "B", "3", "Spin", "Spin"), "--max-weyl-order", 48, B3_LEVELS,
     "error: Weyl group order exceeds the configured cap 47"),
    (("scan", "A", "2", "SL", "SL", "--max-denominator", "4"), "--max-scan-points",
     30, A2_SCAN, "error: scan would enumerate about 30 points, over the cap 29"),
], ids=["weyl-order", "scan-points"])
def test_cap_edges(capsys, argv, option, edge, out, refusal):
    assert run(capsys, *argv, option, str(edge)) == (0, out)
    code = main([*argv, option, str(edge - 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [refusal]


HUGE_SCAN = "scan would enumerate about 4999999999950000000000 points, over the cap 20000"


@pytest.mark.parametrize("argv, code, out, err", [
    (("scan", "A", "1", "SL", "SL", "--max-denominator", "99999999999"),
     2, "", f"error: {HUGE_SCAN}\n"),
    (("atlas", "--row", "A,1,SL,SL", "--scan-denominator", "99999999999"),
     0, f"A1 SL->SL  error: cap: {HUGE_SCAN}\n", ""),
], ids=["scan", "atlas"])
def test_scan_point_cap_refuses_in_time_independent_of_the_bound(argv, code, out, err):
    # the point count sum_{d <= D} d^r is exact but takes O(r^2) steps, so
    # a bound of 10^11 is refused at once (the atlas refuses in its row)
    done = subprocess.run([sys.executable, "-m", "gerbelevels.cli", *argv],
                          capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_atlas_scan_obeys_subgroup_cap(capsys):
    # the D4 origin has |W_L| = 192; atlas reports the refused scan in its row
    argv = ["atlas", "--row", "D,4,Spin,Spin", "--scan-denominator", "1"]
    assert run(capsys, *argv, "--max-subgroup-order", "192") == (0, D4_ATLAS)
    code = main(argv + ["--max-subgroup-order", "191"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "D4 Spin->Spin  error: cap: stabilizer W_L of order 192 exceeds the "
        "exhaustive verification cap 191\n")
    assert _one_error_line(captured.err) == []


@pytest.mark.parametrize("argv, line", [
    (("atlas", "--jobs", "2"), "error: unrecognized arguments: --jobs 2"),
    (("levels", "A", "1", "SL", "SL", "--bogus"),
     "error: unrecognized arguments: --bogus"),
    (("obstruction", "A", "1", "SL", "SL", "--xi", "0,0", "--format", "csv"),
     "error: argument --format: invalid choice: 'csv'"),
    (("datum", "B", "2", "Spin", "--max-weyl-order", "5"),
     "error: unrecognized arguments: --max-weyl-order 5"),
    (("levels", "A", "1", "SL", "SL", "--max-subgroup-order", "5"),
     "error: unrecognized arguments: --max-subgroup-order 5"),
    (("cohomology", "--fixture", f"{FIX}/circle3.json", "--degree", "x"),
     "error: argument --degree: invalid int value: 'x'"),
    ((), "error: the following arguments are required: command"),
], ids=["unknown-option", "bogus-option", "obstruction-csv", "datum-weyl-cap",
        "levels-subgroup-cap", "degree-not-int", "no-subcommand"])
def test_usage_errors_exit_one(capsys, argv, line):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").setdefault("_reads", set())
        reads.add(name)
        return object.__getattribute__(self, name)


# one argv per subcommand that sets every option it accepts except --out
GUARD_ARGV = {
    "levels": ["--datum-fixture", f"{FIX}/g2_datum.json", "--format", "csv",
               "--max-weyl-order", "100"],
    "atlas": ["--row", "A,1,SL,SL", "--series", "A", "--scan-denominator", "1",
              "--format", "csv", "--max-weyl-order", "100",
              "--max-subgroup-order", "100"],
    "obstruction": ["--datum-fixture", f"{FIX}/g2_datum.json", "--xi", "0,-1/2,1/2",
                    "--level", "basic", "--format", "json",
                    "--max-weyl-order", "100", "--max-subgroup-order", "100"],
    "scan": ["--datum-fixture", f"{FIX}/g2_datum.json", "--level", "basic",
             "--max-denominator", "1", "--max-scan-points", "10", "--format", "csv",
             "--max-weyl-order", "100", "--max-subgroup-order", "100"],
    "datum": ["B", "2", "Spin", "--isogeny-target", "SO", "--format", "json"],
    "cohomology": ["--fixture", f"{FIX}/circle3.json", "--degree", "1",
                   "--coefficients", "Z",
                   "--trivialize-cocycle", f"{FIX}/circle3_cocycle.json",
                   "--max-nerve-dim", "2", "--format", "json"],
    "equivariant": ["--fixture", f"{FIX}/z2_point.json", "--degree", "2",
                    "--max-complex-size", "1000", "--format", "json"],
    "extension": ["--fixture", f"{FIX}/z2_extension_cyclic4.json", "--format", "json"],
}


def _subparsers():
    (action,) = [a for a in make_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_guard_covers_every_subcommand():
    assert sorted(GUARD_ARGV) == sorted(_subparsers())


@pytest.mark.parametrize("command", sorted(GUARD_ARGV))
def test_every_accepted_option_is_read(tmp_path, capsys, command):
    options = [a for a in _subparsers()[command]._actions
               if a.option_strings and a.dest != "help"]
    argv = [command, *GUARD_ARGV[command], "--out", str(tmp_path / "out")]
    assert [a.dest for a in options if not set(a.option_strings) & set(argv)] == []
    args = make_parser().parse_args(argv, namespace=_ReadRecorder())
    args._reads.clear()
    assert args.fn(args) == 0
    capsys.readouterr()
    assert [a.dest for a in options if a.dest not in args._reads] == []


# each cap's default, named once in the module whose work it bounds
CAP_DEFAULTS = {
    "max_weyl_order": weyl.WEYL_ORDER_CAP,
    "max_subgroup_order": obstruction.SUBGROUP_ORDER_CAP,
    "max_scan_points": obstruction.SCAN_POINT_CAP,
    "max_nerve_dim": cech.NERVE_DIM_CAP,
    "max_complex_size": cech.COMPLEX_SIZE_CAP,
}


def test_every_cap_default_is_its_module_constant():
    seen = set()
    for command, parser in _subparsers().items():
        for a in parser._actions:
            if a.dest in cli.CAP_OPTIONS:
                assert a.default is CAP_DEFAULTS[a.dest], (command, a.dest)
                seen.add(a.dest)
    assert seen == set(CAP_DEFAULTS) == set(cli.CAP_OPTIONS)
    # the values the README's table of caps gives
    assert [CAP_DEFAULTS[k] for k in cli.CAP_OPTIONS] == [10**6, 384, 20000, 60000, 4]


@pytest.mark.parametrize("command", sorted(GUARD_ARGV))
def test_out_file_equals_stdout_in_every_format(tmp_path, capsys, command):
    argv = list(GUARD_ARGV[command])
    (fmt,) = [a for a in _subparsers()[command]._actions if a.dest == "format"]
    for choice in fmt.choices:
        argv[argv.index("--format") + 1] = choice
        path = tmp_path / f"out.{choice}"
        code, out = run(capsys, command, *argv, "--out", str(path))
        assert code == 0 and out
        assert path.read_bytes() == out.encode()


D7_LEVELS_SHA256 = "2886936d566ef93ef319493df8a6b82a3c234c8c23015842904f7786f34dea85"


def test_weyl_table_is_never_built_where_nothing_reads_it(capsys, monkeypatch):
    # levels and the atlas without scans read |W| and the simple
    # reflections only; the cap is still decided on the group's order
    argv = ["atlas", "--row", "D,4,Spin,Spin", "--format", "json"]
    expected = run(capsys, *argv)

    def unreachable(*args):
        raise AssertionError("the Weyl group's indexed table was built")

    # earlier tests leave D4 Spin's group in the process cache, so a read
    # of any action's group must fail too, not only a new enumeration
    monkeypatch.setattr(weyl.WeylGroup, "__init__", unreachable)
    monkeypatch.setattr(levels, "_weyl_group", unreachable)
    assert run(capsys, "levels", "D", "4", "Spin", "Spin")[0] == 0
    assert run(capsys, "levels", *G2)[0] == 0
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv, "--max-weyl-order", "192") == expected
    code, out = run(capsys, *argv, "--max-weyl-order", "191")
    assert code == 0
    assert json.loads(out) == [{
        "series": "D", "rank": 4, "source_form": "Spin", "target_form": "Spin",
        "error": "cap: Weyl group order exceeds the configured cap 191"}]
    # |W(D7)| = 322,560 is under the default cap, |W(D8)| = 5,160,960 over it
    code, out = run(capsys, "levels", "D", "7", "Spin", "Spin")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D7_LEVELS_SHA256
    code = main(["levels", "D", "8", "Spin", "Spin"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: Weyl group order exceeds the configured cap 1000000"]


def test_stderr_is_empty_on_success(capsys):
    code = main(["levels", "A", "1", "SL", "SL"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out != ""
    assert captured.err == ""


def _g2_with_simple_indices(tmp_path, indices):
    data = _fixture("g2_datum.json")
    for side in ("source", "target"):
        data[side]["simple_indices"] = indices
    path = tmp_path / "g2_simple.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("indices, message", [
    ([0, 2], "error: simple roots are linearly dependent"),
    ([0, 1], "error: simple roots root[0] and root[1] pair positively"),
])
def test_simple_roots_that_are_no_base_are_bad_input(tmp_path, capsys, indices, message):
    # a root and its negative, or two roots at an acute angle, generate a
    # group that the Cartan matrix cannot count
    code = main(["levels", "--datum-fixture", _g2_with_simple_indices(tmp_path, indices)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [message]
    assert len(captured.err.splitlines()) == 1


def _g2_one_sign_combinations(roots, a, b):
    """Whether every root is m*roots[a] + n*roots[b] for integers m, n of
    one sign, searched over |m|, |n| <= 3 in ambient coordinates (the
    highest root of G2 is 3 alpha + 2 beta)."""
    from fractions import Fraction

    vecs = [tuple(Fraction(x, r["den"]) for x in r["num"]) for r in roots]
    coeffs = range(-3, 4)
    return all(any(m * n >= 0 and all(m * x + n * y == z
                                      for x, y, z in zip(vecs[a], vecs[b], v))
                   for m in coeffs for n in coeffs)
               for v in vecs)


def test_g2_simple_roots_that_pass_the_chain_guard_must_be_a_base(tmp_path, capsys):
    # of the 132 ordered pairs of G2 roots, 60 pair positively or are
    # dependent (the chain guard's errors, kept as they were), 24 are
    # bases and the other 48 generate W but are no base: each of those
    # is refused by validation, where it used to pass into a traceback
    roots = _fixture("g2_datum.json")["target"]["roots"]
    refused = 0
    bases = []
    for a in range(len(roots)):
        for b in range(len(roots)):
            if a == b:
                continue
            path = _g2_with_simple_indices(tmp_path, [a, b])
            code = main(["levels", "--datum-fixture", path])
            captured = capsys.readouterr()
            lines = _one_error_line(captured.err)
            if lines and "not a base" not in lines[0]:
                refused += 1
                continue
            base = _g2_one_sign_combinations(roots, a, b)
            assert (code == 0) == base, (a, b)
            if base:
                bases.append((a, b))
                continue
            for argv in (["levels"], ["scan", "--max-denominator", "1"],
                         ["obstruction", "--xi", "0,0,0"]):
                code = main(argv + ["--datum-fixture", path])
                captured = capsys.readouterr()
                assert code == 1 and captured.out == ""
                assert len(captured.err.splitlines()) == 1
                assert _one_error_line(captured.err)[0].startswith(
                    "error: datum G2 invalid: simple roots are not a base: root[")
    assert refused == 60
    assert len(bases) == 24 and (0, 7) in bases


def test_bundled_g2_simple_roots_are_unchanged(tmp_path, capsys):
    assert _fixture("g2_datum.json")["target"]["simple_indices"] == [0, 7]
    expected = run(capsys, "levels", *G2)
    assert expected[0] == 0
    path = _g2_with_simple_indices(tmp_path, [0, 7])
    assert run(capsys, "levels", "--datum-fixture", path, "--format", "json") == expected


def test_parser_is_built_once_per_process_on_first_use():
    assert make_parser() is make_parser()
    probe = ("import gerbelevels.cli as cli; "
             "print(cli.make_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "0\n"


def test_calls_in_one_process_do_not_leak_into_each_other(capsys):
    code, out = run(capsys, "atlas", "--row", "A,1,SL,SL")
    assert code == 0
    assert out.startswith("A1 SL->SL ")
    code, out = run(capsys, "atlas", "--row", "B,2,Spin,Spin")
    assert code == 0
    assert len(out.splitlines()) == 1
    assert out.startswith("B2 Spin->Spin ")
    levels = ("levels", "A", "2", "SL", "SL", "--format", "json")
    expected = run(capsys, *levels)
    assert run(capsys, "atlas", "--jobs", "2")[0] == 1
    assert run(capsys, *levels) == expected


def test_help_exits_zero_on_every_call(capsys):
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("usage: gerbelevels")


def test_datum_breaking_a_coxeter_relation_is_bad_input(capsys, monkeypatch):
    # the reflections of this datum do not permute its roots, which
    # validation reports; past validation the isogeny check refuses the
    # source reflections' relation (s_1 s_2)^2 = 1, which the generator-edge
    # cocycle check relies on
    argv = ["scan", "--datum-fixture", f"{FIX}/coxeter_broken_datum.json",
            "--max-denominator", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err)[0].startswith(
        "error: datum X2 invalid: reflection in root[0] does not permute the roots")
    monkeypatch.setattr(cli, "validate_datum", lambda rd: DatumReport(True, ()))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert _one_error_line(captured.err) == [
        "error: source reflections of root[0] and root[1] break the Coxeter "
        "relation of order 2"]
    assert len(captured.err.splitlines()) == 1
