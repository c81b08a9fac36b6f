import json
from fractions import Fraction
from math import factorial

import pytest

from gerbelevels import weyl
from gerbelevels.intlinalg import CapExceeded, RatVector, identity, matmul, transpose
from gerbelevels.levels import SharedWeylAction
from gerbelevels.rootdata import (
    DatumError,
    RootDatum,
    classical_datum,
    identity_isogeny,
    torus_datum,
)
from gerbelevels.weyl import (
    generate,
    group_order,
    integral_reflection_subgroup,
    stabilizer,
)


def act_cochar(m, nums):
    """Image of cocharacter numerators under w^-1, where m is w's
    character matrix: the actions on X*(T) and X_*(T) are contragredient,
    so the transpose of m acts on cocharacters as w^-1.  The per-matrix
    route that the group's cocharacter rows replaced, kept as an oracle."""
    return tuple(sum(x * y for x, y in zip(col, nums)) for col in zip(*m))


def series_order(series, n):
    if series == "A":
        return factorial(n + 1)
    if series in ("B", "C"):
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


@pytest.mark.parametrize(
    "series,rank,form",
    [
        ("A", 1, "SL"), ("A", 2, "SL"), ("A", 3, "GL"), ("A", 2, "PGL"),
        ("B", 2, "Spin"), ("B", 3, "SO"), ("C", 2, "Sp"),
        ("D", 3, "Spin"), ("D", 4, "PSO"),
    ],
)
def test_orders_match_series_formula(series, rank, form):
    rd = classical_datum(series, rank, form)
    w = generate(rd)
    assert w.order == series_order(series, rank)


def test_small_orders():
    assert generate(classical_datum("A", 1, "SL")).order == 2
    assert generate(classical_datum("B", 3, "Spin")).order == 48
    assert generate(classical_datum("D", 4, "Spin")).order == 192


def g2_target():
    with open("fixtures/g2_datum.json") as fh:
        return RootDatum.from_json_dict(json.load(fh)["target"])


@pytest.mark.parametrize("series,rank", [("A", 9), ("B", 8), ("C", 8), ("D", 7), ("D", 8)])
def test_chain_order_matches_closed_formula(monkeypatch, series, rank):
    def unreachable(*args, **kwargs):
        raise AssertionError("the Weyl group was enumerated")

    monkeypatch.setattr(weyl, "generate", unreachable)
    monkeypatch.setattr(weyl.WeylGroup, "__init__", unreachable)
    monkeypatch.setattr(weyl, "simple_root_permutations", unreachable)
    form = {"A": "SL", "B": "Spin", "C": "Sp", "D": "Spin"}[series]
    n = series_order(series, rank)
    assert group_order(classical_datum(series, rank, form), cap=n) == n
    assert group_order(g2_target()) == 12


CAP_MESSAGE = "^Weyl group order exceeds the configured cap {}$"


@pytest.mark.parametrize("rd,n", [(classical_datum("A", 2, "SL"), 6),
                                  (classical_datum("B", 3, "SO"), 48),
                                  (classical_datum("D", 4, "Spin"), 192),
                                  (g2_target(), 12)],
                         ids=["A2", "B3", "D4", "G2"])
def test_cap_edges_on_the_computed_order(rd, n):
    for cap in (n, n + 1):
        assert group_order(rd, cap) == n
        assert generate(rd, cap).order == n
        SharedWeylAction(identity_isogeny(rd), cap)
    for refuse in (lambda: group_order(rd, n - 1), lambda: generate(rd, n - 1),
                   lambda: SharedWeylAction(identity_isogeny(rd), n - 1)):
        with pytest.raises(CapExceeded, match=CAP_MESSAGE.format(n - 1)):
            refuse()


def test_order_one_is_never_refused():
    rd = torus_datum(2)
    for cap in (0, 1):
        assert group_order(rd, cap) == 1
        group = generate(rd, cap)
        assert group.order == 1 and group.elements == (identity(2),)
        assert SharedWeylAction(identity_isogeny(rd), cap).group.order == 1


def test_cap_refusal():
    rd = classical_datum("B", 3, "Spin")
    with pytest.raises(CapExceeded,
                       match="^Weyl group order exceeds the configured cap 10$"):
        generate(rd, cap=10)


def inverses(w):
    """The index of each element's inverse, found by inverting its root
    permutation."""
    index = {p: i for i, p in enumerate(w.perms)}
    out = []
    for p in w.perms:
        q = [0] * len(p)
        for k, x in enumerate(p):
            q[x] = k
        out.append(index[tuple(q)])
    return out


def cochar(w, i):
    return tuple(w.cochar_rows[j] for j in w.cochar_ids[i])


def test_contragredience_every_element():
    # w's cocharacter matrix is the inverse transpose of its character matrix
    for args in (("B", 3, "Spin"), ("A", 2, "PGL"), ("D", 3, "SO")):
        rd = classical_datum(*args)
        w = generate(rd)
        for i, e in enumerate(w.elements):
            assert matmul(transpose(e), cochar(w, i)) == identity(rd.rank)


def test_cochar_rows_are_shared_and_inverses_are_involutive():
    # each distinct cocharacter row is kept once, every element's ids
    # rebuild the transpose of its inverse's character matrix, and
    # inversion squares to the identity permutation
    for args in (("B", 3, "Spin"), ("A", 3, "GL"), ("D", 4, "SO")):
        rd = classical_datum(*args)
        w = generate(rd)
        inv = inverses(w)
        assert len(set(w.cochar_rows)) == len(w.cochar_rows) < w.order * rd.rank
        assert len(w.cochar_ids) == w.order
        for i in range(w.order):
            assert cochar(w, i) == transpose(w.elements[inv[i]])
        assert [inv[j] for j in inv] == list(range(w.order))


def test_group_closure_and_inverses():
    rd = classical_datum("A", 2, "SL")
    w = generate(rd)
    n = w.order
    inv = inverses(w)
    for i in range(n):
        assert w.mult(i, inv[i]) == w.mult(inv[i], i) == w.identity_index
        for j in range(n):
            w.mult(i, j)  # must not raise (closure)


def test_act_cochar_examples():
    def act_q(m, v):  # act_cochar keeps the denominator of v
        return RatVector.make(act_cochar(m, v.nums), v.den)

    rd = classical_datum("B", 3, "Spin")
    w = generate(rd)
    # s_{t1-t2} acting on (1/2, -1/2, 0) gives (-1/2, 1/2, 0)
    refl_idx = w.index_of(rd.reflection_char(rd.simple_indices[0]))
    elem = w.elements[refl_idx]
    xi = rd.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    img = act_q(elem, xi)
    amb = rd.cochar_ambient(img).fractions()
    assert amb == (Fraction(-1, 2), Fraction(1, 2), Fraction(0))
    # identity fixes everything
    ident = w.elements[w.identity_index]
    assert act_q(ident, xi) == xi
    # a simple coroot is negated by its own reflection
    acheck = RatVector.make(list(rd.coroot_coords()[rd.simple_indices[0]]))
    assert act_q(elem, acheck) == -acheck


def test_stabilizer_of_zero_is_everything():
    rd = classical_datum("A", 2, "SL")
    w = generate(rd)
    s = stabilizer(w, RatVector.zero(rd.rank))
    assert len(s) == w.order


def test_spin7_stabilizer_is_z2_cubed():
    rd = classical_datum("B", 3, "Spin")
    w = generate(rd)
    xi = rd.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    s = stabilizer(w, xi)
    assert len(s) == 8
    # elementary abelian of exponent 2
    for i in s.members:
        assert w.mult(i, i) == w.identity_index
    assert s.verify_closed()


def test_generic_point_has_trivial_stabilizer():
    rd = classical_datum("B", 3, "Spin")
    w = generate(rd)
    xi = rd.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)))
    )
    s = stabilizer(w, xi)
    assert s.members == (w.identity_index,)


def test_spin7_reflection_subgroup_equals_stabilizer():
    rd = classical_datum("B", 3, "Spin")
    w = generate(rd)
    xi = rd.cochar_coords_q(
        RatVector.from_fractions((Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
    )
    stab = stabilizer(w, xi)
    refl = integral_reflection_subgroup(w, xi, stab)
    assert len(refl) == 8
    assert refl is stab


def test_reflection_subgroup_of_zero_is_whole_group():
    rd = classical_datum("A", 2, "PGL")
    w = generate(rd)
    xi = RatVector.zero(rd.rank)
    stab = stabilizer(w, xi)
    refl = integral_reflection_subgroup(w, xi, stab)
    assert len(refl) == w.order
    assert refl is stab


def test_pgl2_half_coweight_strict_inclusion():
    # the integrality stabilizer can be strictly bigger than the
    # reflection subgroup (disconnected centralizer phenomenon)
    rd = classical_datum("A", 1, "PGL")
    w = generate(rd)
    xi = RatVector.make([1], 2)  # half the fundamental coweight
    stab = stabilizer(w, xi)
    refl = integral_reflection_subgroup(w, xi, stab)
    assert len(stab) == 2
    assert len(refl) == 1
    assert refl is not stab and refl.members != stab.members


def test_reflection_subgroup_always_inside_stabilizer():
    rd = classical_datum("B", 2, "SO")
    w = generate(rd)
    for nums, den in [((1, 0), 2), ((1, 1), 2), ((1, 2), 3), ((0, 1), 4)]:
        xi = RatVector.make(list(nums), den)
        stab = stabilizer(w, xi)
        refl = integral_reflection_subgroup(w, xi, stab)
        assert set(refl.members) <= set(stab.members)


@pytest.mark.parametrize("simple, refls", [((0, 7), 12), ((0, 3), 6), ((0, 10), 4)])
def test_reflections_index_each_roots_reflection(simple, refls):
    # G2 with a base, and with two pairs of simple roots that generate a
    # proper subgroup: a reflection outside it has no index
    with open("fixtures/g2_datum.json") as fh:
        rd = RootDatum.from_json_dict(json.load(fh)["target"])
    w = generate(RootDatum(rd.name, rd.ambient_dim, rd.char_basis, rd.cochar_basis,
                           rd.roots, rd.coroots, simple))
    elements = set(w.elements)
    assert len(w.reflections) == len(rd.roots)
    for k, i in enumerate(w.reflections):
        m = rd.reflection_char(k)
        assert (i is None) == (m not in elements)
        assert i is None or w.elements[i] == m
    assert sum(i is not None for i in w.reflections) == refls


def test_b4_order_384():
    rd = classical_datum("B", 4, "Spin")
    w = generate(rd)
    assert w.order == 384


def test_generate_rejects_roots_not_permuted():
    rd = classical_datum("A", 1, "SL")
    k = rd.simple_indices[0]
    # only the simple root: its reflection sends it to a missing root
    bad = RootDatum(rd.name, rd.ambient_dim, rd.char_basis, rd.cochar_basis,
                    (rd.roots[k],), (rd.coroots[k],), (0,))
    with pytest.raises(DatumError, match="does not permute the roots"):
        generate(bad)
