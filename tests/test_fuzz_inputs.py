"""Malformed-input fuzzing of the command line over the bundled fixtures.

Each example takes one input file, replaces one of its nodes (a leaf, a
list or an object, the root included) with a float, string, bool, null,
list or object, or deletes it, and runs the command in process.  The
command must return one of the documented exit codes and never raise.
An integer replaced by a float is never accepted: JSON integers are read
strictly.

Examples are derandomized so that every run checks the same inputs.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gerbelevels.cli import main

FIX = "fixtures"


def _load(name):
    with open(f"{FIX}/{name}") as fh:
        return json.load(fh)


# the level file is the basic level of SL(3) in cocharacter coordinates
LEVEL = {"matrix": [[2, 1], [1, 2]]}

# case -> (the input that is mutated, the other inputs as they are, argv);
# "{name}" in argv is the path of the input file of that name
CASES = {
    "g2_datum": ("g2_datum.json", {},
                 ["levels", "--datum-fixture", "{g2_datum.json}"]),
    "z2_point": ("z2_point.json", {},
                 ["equivariant", "--fixture", "{z2_point.json}", "--degree", "2"]),
    "circle3": ("circle3.json", {"circle3_cocycle.json": _load("circle3_cocycle.json")},
                ["cohomology", "--fixture", "{circle3.json}", "--degree", "1",
                 "--trivialize-cocycle", "{circle3_cocycle.json}"]),
    "circle3_cocycle": ("circle3_cocycle.json", {"circle3.json": _load("circle3.json")},
                        ["cohomology", "--fixture", "{circle3.json}", "--degree", "1",
                         "--trivialize-cocycle", "{circle3_cocycle.json}"]),
    "z2_extension_cyclic4": ("z2_extension_cyclic4.json", {},
                             ["extension", "--fixture", "{z2_extension_cyclic4.json}"]),
    "level": ("level.json", {},
              ["obstruction", "A", "2", "SL", "SL", "--xi", "1/3,-1/3,0",
               "--level", "{level.json}"]),
}


def _original(name):
    return LEVEL if name == "level.json" else _load(name)


def _paths(node, prefix=()):
    """Key paths of every node, the root's () first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    out = [prefix]
    for key, child in items:
        out.extend(_paths(child, prefix + (key,)))
    return out


DELETE = object()


def _mutated(data, path, replacement):
    """A copy of data with the node at path replaced, or deleted when
    replacement is DELETE; also the node that was there.  The root
    deleted leaves an empty object."""
    if not path:
        return ({} if replacement is DELETE else replacement), data
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return data, old


_leaf = (st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
         | st.booleans() | st.none() | st.integers(-3, 3))
REPLACEMENTS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.booleans()
    | st.none()
    | st.lists(_leaf, max_size=3)
    | st.dictionaries(st.text(max_size=3), _leaf, max_size=2)
    | st.just(DELETE)
)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_gives_an_exit_code(tmp_path, case, data):
    target, others, argv = CASES[case]
    original = _original(target)
    path = data.draw(st.sampled_from(_paths(original)), label="path")
    replacement = data.draw(REPLACEMENTS, label="replacement")
    mutated, old = _mutated(original, path, replacement)
    files = dict(others, **{target: mutated})
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    args = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert len([ln for ln in err.getvalue().splitlines()
                    if ln.startswith("error:")]) == 1
    if isinstance(replacement, float) and type(old) is int:
        assert code != 0, (path, replacement)
