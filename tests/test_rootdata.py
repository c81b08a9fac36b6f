import itertools
import json
from fractions import Fraction

import pytest

from gerbelevels import rootdata
from gerbelevels.intlinalg import (
    AbelianInvariants,
    RatVector,
    identity,
    matmul,
    quotient_invariants,
)
from gerbelevels.rootdata import (
    DatumError,
    IsogenyDatum,
    RootDatum,
    _check_weyl_compatibility,
    classical_datum,
    classical_isogeny,
    identity_isogeny,
    pairing,
    torus_datum,
    validate_datum,
)

ALL_CLASSICAL = [
    ("A", 1, "SL"), ("A", 2, "SL"), ("A", 3, "SL"),
    ("A", 1, "GL"), ("A", 2, "GL"),
    ("A", 1, "PGL"), ("A", 2, "PGL"), ("A", 3, "PGL"),
    ("B", 2, "Spin"), ("B", 3, "Spin"),
    ("B", 2, "SO"), ("B", 3, "SO"),
    ("C", 2, "Sp"), ("C", 3, "Sp"),
    ("C", 2, "PSp"), ("C", 3, "PSp"),
    ("D", 3, "Spin"), ("D", 4, "Spin"),
    ("D", 3, "SO"), ("D", 4, "SO"),
    ("D", 3, "PSO"), ("D", 4, "PSO"),
]


@pytest.mark.parametrize("series,rank,form", ALL_CLASSICAL)
def test_every_classical_datum_validates(series, rank, form):
    rd = classical_datum(series, rank, form)
    report = validate_datum(rd)
    assert report.passed, report.violations


@pytest.mark.parametrize("series,rank,form", ALL_CLASSICAL)
def test_root_counts(series, rank, form):
    rd = classical_datum(series, rank, form)
    n = rank
    if series == "A":
        expect = (n + 1) * n
    elif series in ("B", "C"):
        expect = 2 * n * n
    else:
        expect = 2 * n * (n - 1)
    assert len(rd.roots) == expect
    assert len(rd.coroots) == expect


def test_sl2_datum():
    rd = classical_datum("A", 1, "SL")
    assert rd.rank == 1
    # X*(T) = Z chi with the root alpha = 2 chi and <chi, acheck> = 1
    chi = rd.char_basis[0]
    alpha = rd.simple_roots()[0]
    acheck = rd.coroots[rd.simple_indices[0]]
    assert tuple(2 * x for x in chi.fractions()) == alpha.fractions()
    assert pairing(chi, acheck) == 1
    assert pairing(alpha, acheck) == 2


def test_spin7_lattice_membership():
    rd = classical_datum("B", 3, "Spin")
    half = Fraction(1, 2)
    assert rd.char_coords(RatVector.from_fractions((half, half, half))) is not None
    assert rd.char_coords(RatVector.from_fractions((half, half, 0))) is None
    assert rd.char_coords(RatVector.from_fractions((1, 0, 0))) is not None


def test_pso8_index_two():
    # index of X*(T_ad) in Z^4 via the quotient-invariants oracle
    rd = classical_datum("D", 4, "PSO")
    ambient = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    sub = tuple(tuple(int(x) for x in row.fractions()) for row in rd.char_basis)
    inv = quotient_invariants(ambient, sub)
    assert inv == AbelianInvariants(0, (2,))


def test_pairing_examples():
    b3 = classical_datum("B", 3, "Spin")
    rv = RatVector.from_fractions
    assert pairing(rv((1, -1, 0)), rv((1, -1, 0))) == 2
    assert pairing(rv((Fraction(1, 2),) * 3), rv((0, 0, 2))) == 1
    for i in b3.simple_indices:
        assert pairing(b3.roots[i], b3.coroots[i]) == 2
    with pytest.raises(DatumError):
        pairing(rv((Fraction(1, 2), 0, 0)), rv((1, 0, 0)))


def test_validate_catches_scaled_coroot():
    rd = classical_datum("A", 2, "SL")
    bad = RootDatum(
        rd.name,
        rd.ambient_dim,
        rd.char_basis,
        rd.cochar_basis,
        rd.roots,
        tuple(RatVector.from_fractions(2 * x for x in v.fractions())
              for v in rd.coroots),
        rd.simple_indices,
    )
    report = validate_datum(bad)
    assert not report.passed
    assert any("!= 2" in v for v in report.violations)


def test_validate_catches_root_outside_lattice():
    rd = classical_datum("D", 3, "PSO")
    bad = RootDatum(
        rd.name,
        rd.ambient_dim,
        rd.char_basis,
        rd.cochar_basis,
        rd.roots + (RatVector.from_fractions(
            (Fraction(1), Fraction(0), Fraction(0))),),
        rd.coroots + (RatVector.from_fractions(
            (Fraction(2), Fraction(0), Fraction(0))),),
        rd.simple_indices,
    )
    report = validate_datum(bad)
    assert not report.passed
    assert any("outside the character lattice" in v for v in report.violations)


def test_unsupported_combinations_rejected():
    with pytest.raises(DatumError):
        classical_datum("B", 2, "PSO")
    with pytest.raises(DatumError):
        classical_datum("D", 2, "Spin")
    with pytest.raises(DatumError):
        classical_datum("A", 0, "SL")
    with pytest.raises(DatumError):
        classical_datum("E", 8, "SC")


def test_classical_datum_is_built_once_and_rejections_are_not_cached():
    rd = classical_datum("B", 3, "Spin")
    assert classical_datum("B", 3, "Spin") is rd
    assert classical_datum("B", 3, "SC") is rd
    for _ in range(2):
        with pytest.raises(DatumError):
            classical_datum("A", 0, "SL")


def test_aliases():
    assert classical_datum("A", 2, "SC").name == "SL3"
    assert classical_datum("A", 2, "AD").name == "PGL3"
    assert classical_datum("B", 2, "AD").name == "SO5"
    assert classical_datum("D", 3, "AD").name == "PSO6"


# --- isogenies -----------------------------------------------------------


def test_spin7_to_so7_index_two():
    iso = classical_isogeny("B", 3, "Spin", "SO")
    assert iso.index() == 2
    assert iso.cokernel_invariants() == AbelianInvariants(0, (2,))


def test_identity_isogeny_sl3():
    rd = classical_datum("A", 2, "SL")
    iso = identity_isogeny(rd)
    assert iso.index() == 1
    n = rd.rank
    assert iso.char_map == tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def test_sl3_to_pgl3_cokernel():
    iso = classical_isogeny("A", 2, "SL", "PGL")
    assert iso.cokernel_invariants() == AbelianInvariants(0, (3,))


def test_sl_to_gl():
    iso = classical_isogeny("A", 2, "SL", "GL")
    assert iso.source.rank == 2
    assert iso.target.rank == 3
    # restriction kills t_1 + t_2 + t_3
    total = tuple(
        sum(iso.char_map[i][j] for j in range(3)) for i in range(2)
    )
    assert total == (0, 0)


def test_isogeny_adjointness_all_pairs():
    pairs = [
        ("A", 2, "SL", "PGL"), ("A", 2, "SL", "GL"), ("A", 3, "SL", "PGL"),
        ("B", 3, "Spin", "SO"), ("C", 2, "Sp", "PSp"),
        ("D", 4, "Spin", "SO"), ("D", 4, "Spin", "PSO"), ("D", 4, "SO", "PSO"),
    ]
    for series, rank, sf, tf in pairs:
        iso = classical_isogeny(series, rank, sf, tf)
        from gerbelevels.intlinalg import transpose

        assert iso.cochar_map == transpose(iso.char_map)
        # lifted coroots push back down to the target coroots
        for k, ac in enumerate(iso.target.coroots):
            lifted = iso.source.cochar_ambient(RatVector.make(iso.coroot_lift[k]))
            assert lifted == ac


def test_classical_isogeny_is_built_once_and_rejections_are_not_cached(monkeypatch):
    builds = []
    build = rootdata.build_isogeny
    monkeypatch.setattr(rootdata, "build_isogeny",
                        lambda src, tgt: builds.append(1) or build(src, tgt))
    iso = classical_isogeny("B", 3, "Spin", "SO")
    built = len(builds)
    assert classical_isogeny("B", 3, "Spin", "SO") is iso
    assert classical_isogeny("B", 3, "SC", "AD") is iso
    assert len(builds) == built
    for k in range(2):
        with pytest.raises(DatumError):
            classical_isogeny("B", 3, "SO", "Spin")
        assert len(builds) == built + k + 1


def test_weyl_compatibility_refuses_a_permuted_char_map():
    iso = classical_isogeny("B", 3, "Spin", "SO")
    _check_weyl_compatibility(iso)
    bad = IsogenyDatum(iso.source, iso.target, iso.char_map[1:] + iso.char_map[:1],
                       iso.cochar_map, iso.coroot_lift)
    with pytest.raises(DatumError,
                       match="^char_map does not commute with the shared reflection action$"):
        _check_weyl_compatibility(bad)


def test_wrong_direction_rejected():
    with pytest.raises(DatumError):
        classical_isogeny("B", 3, "SO", "Spin")
    with pytest.raises(DatumError):
        classical_isogeny("A", 2, "PGL", "SL")


def test_torus_datum():
    rd = torus_datum(2)
    assert validate_datum(rd).passed
    assert rd.roots == ()


def test_json_roundtrip():
    rd = classical_datum("B", 3, "Spin")
    rd2 = RootDatum.from_json_dict(rd.to_json_dict())
    assert rd2 == rd
    iso = classical_isogeny("D", 4, "SO", "PSO")
    iso2 = IsogenyDatum.from_json_dict(iso.to_json_dict())
    assert iso2 == iso


def _classical_isogenies_up_to_rank_5():
    for series, forms in rootdata.FORMS_BY_SERIES.items():
        for rank in range(1, 6):
            for source, target in itertools.product(forms, repeat=2):
                try:
                    yield classical_isogeny(series, rank, source, target)
                except DatumError:
                    continue  # no such isogeny, or no such datum


def _g2_isogeny():
    with open("fixtures/g2_datum.json") as fh:
        data = json.load(fh)
    return rootdata.build_isogeny(RootDatum.from_json_dict(data["source"]),
                                  RootDatum.from_json_dict(data["target"]))


def _matrix_order(m, bound=12):
    one = identity(len(m))
    power = m
    for k in range(1, bound + 1):
        if power == one:
            return k
        power = matmul(power, m)
    return None


def test_source_reflections_have_the_coxeter_orders():
    # M_i M_j has order exactly m_ij (2, 3, 4 or 6 by c_ij c_ji), M_i order 2
    isos = [*_classical_isogenies_up_to_rank_5(), _g2_isogeny()]
    assert len(isos) == 68
    for iso in isos:
        c = iso.target.cartan_matrix
        mats = iso.source_reflections
        for i, j in itertools.product(range(len(mats)), repeat=2):
            m = 1 if i == j else {0: 2, 1: 3, 2: 4, 3: 6}[c[i][j] * c[j][i]]
            assert _matrix_order(matmul(mats[i], mats[j])) == m, (iso.name, i, j)
        assert all(_matrix_order(m) == 2 for m in mats), iso.name


def test_isogeny_check_refuses_a_broken_coxeter_relation():
    # t1 and t2 in Z^2 as simple roots, with coroots 2t1 - 2t2 and 2t2:
    # the Cartan integers are -2 and 0, so m = 2 is read off their
    # product, but the two reflections compose to a map of infinite order
    with open("fixtures/coxeter_broken_datum.json") as fh:
        rd = RootDatum.from_json_dict(json.load(fh)["target"])
    assert rd.cartan_matrix == ((2, -2), (0, 2))
    assert not validate_datum(rd).passed
    with pytest.raises(DatumError, match=r"^source reflections of root\[0\] and "
                       r"root\[1\] break the Coxeter relation of order 2$"):
        rootdata.build_isogeny(rd, rd)


@pytest.mark.parametrize("cartan_first", [True, False])
def test_cartan_matrix_and_all_coordinates_solve_each_vector_once(monkeypatch,
                                                                 cartan_first):
    # the Cartan matrix solves the simple roots and coroots, and the
    # coordinates of all roots reuse those solves, in either order
    real = rootdata._Frame.coords
    solves = []

    def counted(frame, v):
        solves.append(v)
        return real(frame, v)

    monkeypatch.setattr(rootdata._Frame, "coords", counted)
    for args in (("A", 3, "GL"), ("B", 3, "Spin"), ("C", 3, "PSp"), ("D", 4, "SO")):
        rd = rootdata._classical_datum.__wrapped__(*args)
        solves.clear()
        if cartan_first:
            cartan = rd.cartan_matrix
            assert len(solves) == 2 * len(rd.simple_indices)
        rd.root_coords()
        rd.coroot_coords()
        if not cartan_first:
            cartan = rd.cartan_matrix
        assert len(solves) == len(rd.roots) + len(rd.coroots)
        assert cartan == classical_datum(*args).cartan_matrix


def test_series_a_simple_roots_are_read_by_position():
    for n in range(2, 9):
        roots, coroots, simple = rootdata._a_series_roots(n)
        assert roots == coroots and len(roots) == n * (n - 1)
        assert simple == tuple(
            roots.index(RatVector.make(rootdata._unit(n, (i, 1), (i + 1, -1))))
            for i in range(n - 1))
