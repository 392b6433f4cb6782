"""``check_document``'s compiled check against the interpretive reference
in ``helpers``: the same (path, message) for every document, or both
accept."""

import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import preferences_to_dict, random_tree, reference_check
from pcsreg import harness, scene as scene_module
from pcsreg.frames import PREFS_SCHEMA, default_preferences
from pcsreg.harness import CONFIG_SCHEMA, DEFAULT_CATEGORIES, DEFAULT_COLORS, METHODS, sample_scene
from pcsreg.resolver import EXPRESSION_SCHEMA, tree_to_dict
from pcsreg.scene import SCENE_SCHEMA, _TypesChecked, check_document, load_scene, scene_to_dict

DEMO = Path(__file__).resolve().parent.parent / "demo"


def _demo(name):
    return json.loads((DEMO / name).read_text())


def _expressions():
    scene = load_scene(DEMO / "two_blocks_car.json")
    docs = [tree_to_dict(random_tree(scene, random.Random(i), max_depth=3)) for i in range(8)]
    return docs + [{"head": {"person": "speaker"}}]


# (schema, valid document) pairs: every document schema, and the pools
# subset that ``sample_scene`` checks, which carries no definitions.
_BASES = (
    [(SCENE_SCHEMA, _demo(name)) for name in ("two_blocks_car.json", "facing_pair_square.json")]
    + [(SCENE_SCHEMA, scene_to_dict(sample_scene(seed))) for seed in (1, 2)]
    + [(SCENE_SCHEMA, scene_to_dict(sample_scene(3, objects=(16, 30))))]
    + [(PREFS_SCHEMA, _demo("preferences_two_frame.json"))]
    + [(PREFS_SCHEMA, preferences_to_dict(default_preferences()))]
    + [
        (
            CONFIG_SCHEMA,
            {
                **_demo("eval_config.json"),
                "true_prefs": _demo("preferences_two_frame.json"),
                "assumed_prefs": preferences_to_dict(default_preferences()),
            },
        ),
        (
            CONFIG_SCHEMA,
            {"seed": 1, "n_scenes": 2, "trials_per_expression": 3, "methods": METHODS,
             "objects": (3, 8), "categories": DEFAULT_CATEGORIES, "consistency_coupling": 0.5},
        ),
        (
            harness._POOLS_SCHEMA,
            {"objects": (3, 8), "categories": DEFAULT_CATEGORIES, "colors": DEFAULT_COLORS,
             "shapes": ()},
        ),
    ]
    + [(EXPRESSION_SCHEMA, doc) for doc in _expressions()]
)

class _Pair(tuple):
    pass


class _Mapping(dict):
    pass


# Values of Python types that ``json.loads`` never gives, subclasses of
# its types included: each is of no JSON type.
_FOREIGN = [{1, 2}, b"x", _Pair((0.5, 0.5)), _Mapping(category="block"), object()]

# Wrong types, bools for numbers, non-finite and out-of-range numbers,
# values of other fields and of foreign types.  The scalars that break
# most fields are drawn as often as all the rest.
_SCALARS = [True, False, None, "x", float("nan"), float("inf"), 10**400, -1]
_VALUES = _SCALARS + _FOREIGN + [
    "", [], {}, 0, 2, 1.5, float("-inf"), -(10**400), [True, 1.0], [0.5, 0.5],
    [0.5, 0.5, 0.5, 0.5], ["a"], [["a"]], {"head": {}}, {"category": "block"},
    {"person": "you"}, "front", "object", "pcsreg", "toy car", "Behind", "block\n",
]
_VALUE = st.one_of(st.sampled_from(_SCALARS), st.sampled_from(_VALUES))
_KEYS = ["unknown", "prep", "landmark", "head", "north", "person", "seed", "speaker"]
_EDITS = ["replace", "delete", "add key", "shorten", "lengthen", "repeat"]
# Nesting depths, mostly none; the last is past the interpreter's
# recursion limit.
_DEPTHS = [0, 0, 0, 0, 1, 10, 100, 400, 5000]


def _paths(doc):
    """The paths into ``doc``; a foreign value is a leaf."""
    paths, stack = [], [((), doc)]
    while stack:
        path, node = stack.pop()
        paths.append(path)
        if type(node) is dict:
            stack.extend((path + (key,), value) for key, value in node.items())
        elif type(node) in (list, tuple):
            stack.extend((path + (i,), value) for i, value in enumerate(node))
    return sorted(paths, key=repr)


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(data, doc):
    """``doc`` with lists for tuples and one to three drawn edits."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(_paths(doc)), label="path")
        edit = data.draw(st.sampled_from(_EDITS), label="edit")
        node = _node(doc, path)
        if edit == "replace":
            value = copy.deepcopy(data.draw(_VALUE, label="value"))
            if not path:
                doc = value
            else:
                _node(doc, path[:-1])[path[-1]] = value
        elif edit == "delete" and path:
            del _node(doc, path[:-1])[path[-1]]
        elif edit == "add key":
            while not isinstance(_node(doc, path), dict) and path:
                path = path[:-1]
            if isinstance(_node(doc, path), dict):
                key = data.draw(st.sampled_from(_KEYS), label="key")
                _node(doc, path)[key] = copy.deepcopy(data.draw(_VALUE, label="value"))
        elif isinstance(node, list) and node:
            if edit == "shorten":
                node.pop()
            elif edit == "lengthen":
                node.append(copy.deepcopy(node[-1]))
            elif edit == "repeat":
                node.append(copy.deepcopy(node[0]))
    return doc


def _as_tuples(doc):
    """``doc`` with every list a tuple, which the check reads as an array."""
    if type(doc) is dict:
        return {key: _as_tuples(value) for key, value in doc.items()}
    if type(doc) is list:
        return tuple(_as_tuples(value) for value in doc)
    return doc


def _nested(doc, depth, expression=True):
    """``doc`` as the innermost landmark of ``depth`` relation units, or
    inside ``depth`` lists."""
    for _ in range(depth):
        doc = {"head": {"category": "block"}, "prep": "left", "landmark": doc} if expression else [doc]
    return doc


def _drawn_document(data, schema, doc):
    """A mutation of ``doc``: edits, then maybe every list a tuple, then
    maybe a deep nesting, of the whole expression or of one value."""
    doc = _mutated(data, doc)
    if data.draw(st.booleans(), label="as tuples"):
        doc = _as_tuples(doc)
    depth = data.draw(st.sampled_from(_DEPTHS), label="depth")
    if depth and schema is EXPRESSION_SCHEMA and data.draw(st.booleans(), label="units"):
        return _nested(doc, depth)
    paths = [path for path in _paths(doc) if path]
    if depth and paths:
        path = data.draw(st.sampled_from(paths), label="nested path")
        parent = _node(doc, path[:-1])
        if isinstance(parent, tuple):
            return doc  # the tuple cannot take the nesting
        parent[path[-1]] = _nested(parent[path[-1]], depth, expression=False)
    return doc


class Fault(Exception):
    pass


def compiled_check(doc, schema):
    try:
        check_document(doc, schema, Fault)
    except Fault as exc:
        return exc.args
    return None


@pytest.mark.deep
@settings(deadline=None)
@given(st.sampled_from(_BASES), st.data())
def test_compiled_check_matches_the_reference(base, data):
    schema, valid = base
    assert compiled_check(valid, schema) is None
    for _ in range(4):
        doc = _drawn_document(data, schema, valid)
        assert compiled_check(doc, schema) == reference_check(doc, schema)


@pytest.mark.parametrize("depth", [1, 400, 5000])
def test_deep_expressions_are_checked_as_by_the_reference(depth):
    doc = _nested({"head": {"category": "block"}}, depth)
    assert compiled_check(doc, EXPRESSION_SCHEMA) == reference_check(doc, EXPRESSION_SCHEMA)
    assert compiled_check(doc, EXPRESSION_SCHEMA) == (None if depth < 5000 else ((), "nested too deeply"))


def test_a_schema_is_compiled_once_and_kept_with_its_schema():
    check_document(_demo("two_blocks_car.json"), SCENE_SCHEMA, Fault)
    entry = scene_module._COMPILED[id(SCENE_SCHEMA)]
    check_document(_demo("facing_pair_square.json"), SCENE_SCHEMA, Fault)
    assert scene_module._COMPILED[id(SCENE_SCHEMA)] is entry and entry[0] is SCENE_SCHEMA


def test_compile_cache_stays_bounded_under_ad_hoc_schemas():
    for minimum in range(3 * scene_module._COMPILED_MAX):
        schema = {"type": "object", "properties": {"n": {"type": "integer", "minimum": minimum}}}
        with pytest.raises(Fault, match=rf"must be in \[{minimum}, inf\], got -1"):
            check_document({"n": -1}, schema, Fault)
        assert len(scene_module._COMPILED) <= scene_module._COMPILED_MAX
    # The module schemas still check after being evicted.
    for schema, doc in _BASES:
        assert compiled_check(doc, schema) is None
    assert compiled_check({"head": {"person": "me"}}, EXPRESSION_SCHEMA) == (
        ("head", "person"),
        "must be one of ['speaker', 'listener'], got 'me'",
    )


@pytest.mark.parametrize(
    "schema",
    [{"type": "array"}, {"type": ["object", "null"]}, {"enum": ["object", 1]}, {}, SCENE_SCHEMA],
    ids=["array", "object or null", "enum", "empty", "scene"],
)
@pytest.mark.parametrize(
    "value",
    _FOREIGN + [_TypesChecked()],
    ids=["set", "bytes", "tuple subclass", "dict subclass", "object", "types checked"],
)
def test_values_of_foreign_types_are_checked_as_by_the_reference(schema, value):
    """Under a ``type`` a foreign value breaks it; without one only
    ``enum`` applies."""
    verdict = compiled_check(value, schema)
    assert verdict == reference_check(value, schema)
    if "type" in schema:
        assert verdict[1].startswith("must be of type")
    elif "enum" in schema:
        assert verdict[1].startswith("must be one of")
    else:
        assert verdict is None
