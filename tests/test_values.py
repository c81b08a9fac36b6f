"""The value classes name their fields once, in _fields, and compare, hash
and refuse assignment by them; a command's import stays free of
dataclasses and inspect."""

import os
import subprocess
import sys

import pytest

from gerbelevels.cech import (
    Cochain,
    CoefficientGroup,
    ExtensionResult,
    FiniteAction,
    FiniteGroupTable,
    Nerve,
    TorusCoverModel,
    central_extension_from_cocycle,
    cyclic_group,
    point_action,
    torus_cover_model,
)
from gerbelevels.intlinalg import (
    AbelianInvariants,
    Frozen,
    RatVector,
    Smith,
    SolveResult,
    Value,
    solve_z,
)
from gerbelevels.levels import (
    AtlasEntry,
    BasicLevelResult,
    EvReport,
    LevelTensor,
    RankOneRestriction,
    SharedWeylAction,
    basic_level,
    compare_with_reference,
    ev_filter,
    invariant_level_lattice,
    restrict_to_rank_one,
)
from gerbelevels.obstruction import (
    H1Result,
    ObstructionResult,
    ScanRow,
    ScanTable,
    StabilizerCocycle,
    centralizer_cocycle,
    h1_group_lattice,
    obstruction_report,
)
from gerbelevels.rootdata import (
    DatumReport,
    IsogenyDatum,
    RootDatum,
    classical_datum,
    classical_isogeny,
    validate_datum,
)
from gerbelevels.weyl import Subgroup, stabilizer

A2 = classical_isogeny("A", 2, "SL", "PGL")
B3_ACTION = SharedWeylAction(classical_isogeny("B", 3, "Spin", "Spin"))
B3_LEVEL = basic_level(B3_ACTION.iso).tensor
B3_POINT = RatVector.make([0, 1, 0], 2)
TRIANGLE = Nerve(3, (((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2))))


def fresh_datum():
    rd = classical_datum("B", 3, "Spin")
    return RootDatum(rd.name, rd.ambient_dim, rd.char_basis, rd.cochar_basis,
                     rd.roots, rd.coroots, rd.simple_indices)


def fresh_subgroup():
    sub = stabilizer(B3_ACTION.group, B3_POINT)
    return Subgroup(sub.group, sub.members, sub.generators, sub.gen_rows)


# one maker per value class, each building a new instance on every call
MAKERS = {
    "SolveResult": lambda: solve_z(((2, 0), (0, 3)), (4, 3)),
    "Smith": lambda: Smith.of(((2, 4), (6, 8))),
    "AbelianInvariants": lambda: AbelianInvariants(1, (2, 4)),
    "RatVector": lambda: RatVector.make([1, -2], 3),
    "RootDatum": fresh_datum,
    "DatumReport": lambda: validate_datum(classical_datum("C", 2, "Sp")),
    "IsogenyDatum": lambda: IsogenyDatum.from_json_dict(A2.to_json_dict()),
    "Subgroup": fresh_subgroup,
    "LevelTensor": lambda: LevelTensor(B3_LEVEL.iso, B3_LEVEL.matrix),
    "EvReport": lambda: ev_filter(invariant_level_lattice(B3_ACTION), B3_ACTION),
    "BasicLevelResult": lambda: basic_level(A2),
    "RankOneRestriction": lambda: restrict_to_rank_one(B3_LEVEL, 0),
    "AtlasEntry": lambda: compare_with_reference(B3_ACTION, None),
    "StabilizerCocycle": lambda: centralizer_cocycle(B3_ACTION, B3_LEVEL, B3_POINT),
    "ObstructionResult": lambda: obstruction_report(B3_ACTION, B3_LEVEL, B3_POINT),
    "H1Result": lambda: h1_group_lattice(fresh_subgroup(),
                                         B3_ACTION.source_char_action),
    "ScanRow": lambda: ScanRow(RatVector.make([1, 0], 2), 4, 2, False),
    "ScanTable": lambda: ScanTable((ScanRow(RatVector.make([1, 0], 2), 4, 2, False),)),
    "CoefficientGroup": lambda: CoefficientGroup(1, (2,)),
    "Nerve": lambda: Nerve(3, (((0,), (1,), (2,)), ((0, 1), (0, 2), (1, 2)))),
    "Cochain": lambda: Cochain(TRIANGLE, 1, CoefficientGroup(0, (3,)), {(0, 1): (4,)}),
    "FiniteGroupTable": lambda: cyclic_group(4),
    "FiniteAction": lambda: point_action(cyclic_group(2), CoefficientGroup(1),
                                         (((1,),), ((-1,),))),
    "ExtensionResult": lambda: central_extension_from_cocycle(
        cyclic_group(2), CoefficientGroup(0, (2,)),
        {(1, 1): (1,)}),
    "TorusCoverModel": lambda: torus_cover_model((3, 3), (1, 1)),
}
CLASSES = {cls.__name__: cls for cls in (
    SolveResult, Smith, AbelianInvariants, RatVector, RootDatum, DatumReport,
    IsogenyDatum, Subgroup, LevelTensor, EvReport, BasicLevelResult,
    RankOneRestriction, AtlasEntry, StabilizerCocycle, ObstructionResult,
    H1Result, ScanRow, ScanTable, CoefficientGroup, Nerve, Cochain,
    FiniteGroupTable, FiniteAction, ExtensionResult, TorusCoverModel)}
MUTABLE = {"Cochain"}
# a field holds a dict, so hashing fails as hashing the fields would
DICT_FIELDS = {"TorusCoverModel", "StabilizerCocycle", "ObstructionResult"}
# attributes found by validation, stored but not fields
FOUND = {"FiniteGroupTable": ("identity", "inverses", "generators")}
# the classes whose constructor only stores its fields
STORE_ONLY = {name for name, cls in CLASSES.items() if cls.__init__ is Value.__init__}


def field_values(obj):
    return [getattr(obj, f) for f in obj._fields]


def test_every_value_class_has_a_maker():
    assert sorted(MAKERS) == sorted(CLASSES)
    assert len(CLASSES) == 25
    for name, make in MAKERS.items():
        assert type(make()) is CLASSES[name]


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_fields_name_what_the_constructor_stores(name):
    cls, obj = CLASSES[name], MAKERS[name]()
    fields = cls._fields
    assert len(set(fields)) == len(fields) and issubclass(cls, Value)
    assert issubclass(cls, Frozen) is (name not in MUTABLE)
    if name not in STORE_ONLY:
        code = cls.__init__.__code__
        assert code.co_varnames[1:code.co_argcount] == fields
    # rebuilt from its fields, by position and by name, an instance stores
    # exactly those fields, in order, and equals the original
    for built in (cls(*field_values(obj)), cls(**dict(zip(fields, field_values(obj))))):
        assert tuple(vars(built)) == fields + FOUND.get(name, ())
        assert built == obj


def test_store_only_classes_use_the_default_constructor():
    assert sorted(STORE_ONLY) == [
        "AtlasEntry", "BasicLevelResult", "DatumReport", "EvReport",
        "ExtensionResult", "H1Result", "IsogenyDatum", "ObstructionResult",
        "RankOneRestriction", "RootDatum", "ScanRow", "ScanTable", "Smith",
        "SolveResult", "StabilizerCocycle", "Subgroup"]


@pytest.mark.parametrize("name", sorted(STORE_ONLY))
def test_default_constructor_refuses_missing_extra_and_repeated_fields(name):
    cls, values = CLASSES[name], field_values(MAKERS[name]())
    fields, n = cls._fields, len(values)
    with pytest.raises(TypeError, match=f"^{name} is missing field '{fields[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"^{name} is missing field '{fields[0]}'$"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match=f"^{name} takes {n} fields, got {n + 1}$"):
        cls(*values, None)
    with pytest.raises(TypeError, match=f"^{name} has no field 'extra'$"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=f"^{name} got field '{fields[0]}' twice$"):
        cls(*values, **{fields[0]: values[0]})
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert tuple(vars(mixed)) == fields and mixed == cls(*values)


@pytest.mark.parametrize("name", sorted(set(MAKERS) - MUTABLE - DICT_FIELDS))
def test_a_kept_hash_is_never_compared(name):
    a, b = MAKERS[name](), MAKERS[name]()
    vars(a).pop("_hash", None)
    h = hash(a)
    assert vars(a)["_hash"] == h and "_hash" not in a._fields
    # kept: a forged hash is returned as it is, and changes no comparison
    vars(a)["_hash"] = h + 1
    assert hash(a) == h + 1
    assert a == b and b == a and not a != b
    vars(a).pop("_hash")
    assert hash(a) == h == hash(b)


def test_equal_hashes_do_not_make_values_equal():
    a, b = RatVector.make([1, 2], 3), RatVector.make([1, 2], 5)
    vars(a)["_hash"] = hash(b)
    assert a != b and hash(a) == hash(b)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equal_fields_compare_and_hash_equal(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b and not a != b
    assert a != object()
    if name in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    elif name in DICT_FIELDS:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_frozen_classes_refuse_assignment_and_deletion(name):
    obj = MAKERS[name]()
    field = next(iter(vars(obj)))
    value = getattr(obj, field)
    if name in MUTABLE:
        setattr(obj, field, value)
        return
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        obj.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(obj, field)
    assert getattr(obj, field) is value and "extra" not in vars(obj)


def test_different_fields_compare_unequal():
    assert RatVector.make([1, 2], 3) != RatVector.make([1, 2], 5)
    assert AbelianInvariants(1, (2,)) != AbelianInvariants(0, (2,))
    assert ScanRow(RatVector.make([1], 2), 4, 2, False) != \
        ScanRow(RatVector.make([1], 2), 4, 2, True)
    rd = fresh_datum()
    moved = RootDatum(rd.name, rd.ambient_dim, rd.char_basis, rd.cochar_basis,
                      rd.roots, rd.coroots, rd.simple_indices[::-1])
    assert rd != moved


def test_cached_properties_are_computed_once():
    rd = fresh_datum()
    assert "cartan_matrix" not in vars(rd)
    cartan = rd.cartan_matrix
    assert vars(rd)["cartan_matrix"] is cartan and rd.cartan_matrix is cartan
    iso = IsogenyDatum.from_json_dict(A2.to_json_dict())
    assert iso.source_reflections is iso.source_reflections
    sub = fresh_subgroup()
    assert sub.table is sub.table
    # a cached value is not a field: it changes neither equality nor hash
    assert rd == fresh_datum() and hash(rd) == hash(fresh_datum())


def test_constructor_defaults():
    assert CoefficientGroup(2).torsion == ()
    given = {(0, 1): (4,), (1, 2): (3,)}
    a = Cochain(TRIANGLE, 1, CoefficientGroup(0, (3,)), given)
    assert a.values == {(0, 1): (1,)} and given == {(0, 1): (4,), (1, 2): (3,)}
    empty, other = (Cochain(TRIANGLE, 0, CoefficientGroup(1)) for _ in range(2))
    assert empty.values == {} and empty.values is not other.values
    r = RankOneRestriction(root_index=1, subgroup_type="SL2", value=3,
                           parity_obstruction=True)
    assert r == RankOneRestriction(1, "SL2", 3, True)


def test_group_table_fields_found_by_validation_are_not_compared():
    t = FiniteGroupTable([[0, 1], [1, 0]])
    assert t.table == ((0, 1), (1, 0))
    assert (t.identity, t.inverses, t.generators) == (0, (0, 1), (1,))
    assert t == cyclic_group(2) and hash(t) == hash(cyclic_group(2))


def test_checks_still_run_on_construction():
    with pytest.raises(ValueError, match="RatVector not reduced"):
        RatVector((2, 4), 2)
    with pytest.raises(ValueError, match="torsion divisibility chain broken"):
        AbelianInvariants(0, (2, 3))
    with pytest.raises(ValueError, match="invalid coefficient group"):
        CoefficientGroup(0, (1,))
    with pytest.raises(ValueError, match="not sorted/distinct"):
        Nerve(2, (((0,), (1,)), ((1, 0),)))
    with pytest.raises(ValueError, match="negative degree"):
        Cochain(TRIANGLE, -1, CoefficientGroup(1))
    with pytest.raises(ValueError, match="no identity element"):
        FiniteGroupTable(((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="wrong row count"):
        LevelTensor(B3_LEVEL.iso, B3_LEVEL.matrix[1:])
    with pytest.raises(ValueError, match="wrong length"):
        FiniteAction(cyclic_group(2), TRIANGLE, CoefficientGroup(1), (), ())
    model = torus_cover_model((3, 3), (1, 1))
    bad = dict(model.offsets)
    bad[(0, 1)] = (5, 0)
    with pytest.raises(ValueError, match="triple-overlap"):
        TorusCoverModel(model.arc_counts, model.windings, model.nerve,
                        model.vertex_labels, bad)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    code = ("import sys, gerbelevels.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout == "[]\n"
