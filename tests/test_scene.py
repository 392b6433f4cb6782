import collections
import dataclasses
import enum
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import SURFACE_WORDS
from pcsreg import scene as scene_module
from pcsreg.frames import FrameKind, frame_instance
from pcsreg.generator import GenerationError, build_landmark_chain
from pcsreg.harness import METHODS, sample_scene
from pcsreg.optimizer import generate
from pcsreg.scene import (
    SCENE_SCHEMA,
    Entity,
    EntityKind,
    LandmarkType,
    Scene,
    SceneError,
    TableExtent,
    attribute_vocabulary,
    dump_scene,
    json_text,
    landmark_type,
    load_scene,
    scene_from_dict,
    scene_to_dict,
)

HALF_PI = math.pi / 2
DEMO = Path(__file__).resolve().parent.parent / "demo"


def minimal_doc():
    return {
        "north": [0.0, 1.0],
        "table": {"min": [-1.0, -1.0], "max": [1.0, 1.0]},
        "entities": [
            {"id": "b1", "kind": "object", "category": "block", "color": "red",
             "shape": None, "pos": [0.1, 0.2], "heading": None},
            {"id": "speaker", "kind": "speaker", "category": "robot",
             "pos": [0.0, -0.9], "heading": HALF_PI},
            {"id": "listener", "kind": "listener", "category": "person",
             "pos": [0.0, 0.9], "heading": -HALF_PI},
        ],
    }


def test_load_scene_preserves_order_and_fields():
    doc = minimal_doc()
    scene = load_scene(json.dumps(doc))
    assert [e.id for e in scene.entities] == ["b1", "speaker", "listener"]
    b1 = scene.entity("b1")
    assert b1.category == "block"
    assert b1.color == "red"
    assert b1.shape is None
    assert b1.heading is None
    assert landmark_type(b1) is LandmarkType.UNORIENTED_OBJECT
    assert scene.speaker.id == "speaker"
    assert scene.listener.heading is not None


def test_duplicate_id_rejected():
    doc = minimal_doc()
    doc["entities"].append(dict(doc["entities"][0], pos=[0.4, 0.4]))
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert "duplicate id" in str(err.value)
    assert "entities[3]" in err.value.path


def test_missing_speaker_rejected():
    doc = minimal_doc()
    doc["entities"] = []
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert "missing speaker" in str(err.value)


def test_centroid_collision_rejected():
    doc = minimal_doc()
    doc["entities"].append(
        {"id": "b2", "kind": "object", "category": "block", "pos": [0.1, 0.2]}
    )
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert "collides" in str(err.value)


def test_out_of_extent_rejected():
    doc = minimal_doc()
    doc["entities"][0]["pos"] = [5.0, 0.0]
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert "outside table extent" in str(err.value)


def test_non_unit_north_rejected():
    doc = minimal_doc()
    doc["north"] = [0.0, 2.0]
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert err.value.path == "north"


NAN = float("nan")
INF = float("inf")
HUGE = 10**400  # an int beyond the float range

# Each field, the path its fault is reported at (an array's at the bad
# item) and the change that breaks it.
NON_FINITE_CASES = {
    "north": ("north[0]", lambda d: d.update(north=[NAN, 1.0])),
    "table.min": ("table.min[0]", lambda d: d["table"].update(min=[-INF, -1.0])),
    "table.max": ("table.max[1]", lambda d: d["table"].update(max=[1.0, INF])),
    "entities[0].pos": ("entities[0].pos[0]", lambda d: d["entities"][0].update(pos=[NAN, 0.2])),
    "entities[0].heading": ("entities[0].heading", lambda d: d["entities"][0].update(heading=NAN)),
    "entities[1].heading": ("entities[1].heading", lambda d: d["entities"][1].update(heading=-INF)),
    "entities[2].heading": ("entities[2].heading", lambda d: d["entities"][2].update(heading=HUGE)),
}


@pytest.mark.parametrize("path, mutate", NON_FINITE_CASES.values(), ids=list(NON_FINITE_CASES))
def test_non_finite_numbers_rejected(path, mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert err.value.path == path
    assert "finite" in str(err.value)


PYTHON_NON_FINITE_CASES = [
    ("entities[0].heading", 0, NAN, (0.0, 1.0)),
    ("entities[1].heading", 1, INF, (0.0, 1.0)),
    ("entities[2].heading", 2, -INF, (0.0, 1.0)),
    ("entities[2].heading", 2, NAN, (0.0, 1.0)),
    ("north[0]", None, None, (NAN, 1.0)),
    ("north[0]", None, None, (NAN, NAN)),
    ("north[1]", None, None, (0.0, INF)),
]


@pytest.mark.parametrize(
    "path, index, heading, north",
    PYTHON_NON_FINITE_CASES,
    ids=[
        *("entities[0].heading-0-nan-north0", "entities[1].heading-1-inf-north1"),
        *("entities[2].heading-2--inf-north2", "entities[2].heading-2-nan-north3"),
        *("north-None-None-north4", "north-None-None-north5", "north-None-None-north6"),
    ],
)
def test_python_scene_rejects_non_finite_headings_and_north(path, index, heading, north):
    """The schema keeps these out of scene files; a ``Scene`` built in
    Python is checked against it on construction."""
    entities = list(load_scene(json.dumps(minimal_doc())).entities)
    if index is not None:
        entities[index] = dataclasses.replace(entities[index], heading=heading)
    with pytest.raises(SceneError) as err:
        Scene(tuple(entities), TableExtent((-1.0, -1.0), (1.0, 1.0)), north)
    assert err.value.path == path


FINITE_TABLE = ((-1.0, -1.0), (1.0, 1.0))
UNBOUNDED_TABLE = ((-INF, -INF), (INF, INF))

PYTHON_NON_FINITE_PLACES = [
    ("table.min[0]", UNBOUNDED_TABLE, None, None),
    ("table.max[1]", ((-1.0, -1.0), (1.0, NAN)), None, None),
    ("table.min[0]", UNBOUNDED_TABLE, 0, (INF, 0.0)),
    ("entities[0].pos[0]", FINITE_TABLE, 0, (NAN, 0.2)),
    ("entities[1].pos[1]", FINITE_TABLE, 1, (0.0, -INF)),
]


@pytest.mark.parametrize(
    "path, corners, index, centroid",
    PYTHON_NON_FINITE_PLACES,
    ids=[
        *("table-corners0-None-None", "table-corners1-None-None", "table-corners2-0-centroid2"),
        *("entities[0].pos-corners3-0-centroid3", "entities[1].pos-corners4-1-centroid4"),
    ],
)
def test_python_scene_rejects_non_finite_table_and_centroids(path, corners, index, centroid):
    """An unbounded table would let a non-finite centroid pass the extent
    check, so the table is checked first, a corner at a time."""
    entities = list(load_scene(json.dumps(minimal_doc())).entities)
    if index is not None:
        entities[index] = dataclasses.replace(entities[index], centroid=centroid)
    with pytest.raises(SceneError) as err:
        Scene(tuple(entities), TableExtent(*corners))
    assert err.value.path == path
    assert "finite" in str(err.value)


@pytest.mark.parametrize("slot", ["id", "category", "color", "shape"])
def test_python_scene_rejects_empty_strings(slot):
    """``SCENE_SCHEMA`` keeps empty strings out of scene files; a ``Scene``
    built in Python is rejected at the same path with the schema's message."""
    entities = list(load_scene(json.dumps(minimal_doc())).entities)
    entities[0] = dataclasses.replace(entities[0], **{slot: ""})
    with pytest.raises(SceneError) as err:
        Scene(tuple(entities), TableExtent((-1.0, -1.0), (1.0, 1.0)))
    assert err.value.path == f"entities[0].{slot}"
    doc = minimal_doc()
    doc["entities"][0][slot] = ""
    with pytest.raises(SceneError) as from_file:
        load_scene(json.dumps(doc))
    assert str(err.value) == str(from_file.value)


def _kind_as_string(parts):
    parts["entities"][0] = dataclasses.replace(parts["entities"][0], kind="object")


def _second_speaker(parts):
    parts["entities"].append(dataclasses.replace(parts["entities"][1], id="speaker2", centroid=(0.5, -0.9)))


def _tuple_table(parts):
    parts["table"] = ((-1.2, -1.2), (1.2, 1.2))


def _no_entities(parts):
    parts["entities"] = None


def _dict_entity(parts):
    parts["entities"][0] = {"id": "blk_a", "kind": "object"}


def _replace_entity(index, **fields):
    def fix(parts):
        parts["entities"][index] = dataclasses.replace(parts["entities"][index], **fields)

    return fix


def _replaced(**fields):
    return _replace_entity(0, **fields)


def _centroid(centroid):
    return _replaced(centroid=centroid)


def _wrong_type(path, message, **fields):
    return (f"entities[0].{path}", message, _replaced(**fields), FINITE_TABLE, (0.0, 1.0))


PYTHON_STRUCTURE_CASES = [
    ("entities[0].kind", "must be an EntityKind", _kind_as_string, FINITE_TABLE, (0.0, 1.0)),
    ("north", "must have [2, 2] items, got (0.0, 1.0, 0.0)", None, FINITE_TABLE, (0.0, 1.0, 0.0)),
    ("entities", "more than one speaker", _second_speaker, FINITE_TABLE, (0.0, 1.0)),
    ("table", "strictly below", None, ((-1.0, 1.0), (1.0, 1.0)), (0.0, 1.0)),
    ("entities[0].pos", "must have [2, 2] items", _centroid((0.1, 0.2, 0.3)), FINITE_TABLE, (0.0, 1.0)),
    ("entities[0].pos", "must have [2, 2] items", _centroid((0.1,)), FINITE_TABLE, (0.0, 1.0)),
    ("table.min", "must have [2, 2] items", None, ((-1.0, -1.0, 5.0), (1.0, 1.0)), (0.0, 1.0)),
    ("table.max", "must have [2, 2] items", None, ((-1.0, -1.0), (1.0,)), (0.0, 1.0)),
    # Types ``SCENE_SCHEMA`` fixes in scene files, named in its words; a
    # bool is no number.
    _wrong_type("heading", "must be of type number or null, got 'abc'", heading="abc"),
    _wrong_type("pos[0]", "must be of type number, got '0.1'", centroid=("0.1", 0.2)),
    _wrong_type("pos", "must be of type array, got None", centroid=None),
    _wrong_type("pos[0]", "must be of type number, got True", centroid=(True, 0.2)),
    _wrong_type("color", "must be of type string or null, got 5", color=5),
    _wrong_type("id", "must be of type string, got 7", id=7),
    # Table corners and ``north`` get the same type checks as a centroid,
    # each bad item reported at its index.
    ("table.min", "must be of type array, got None", None, (None, (1.0, 1.0)), (0.0, 1.0)),
    ("table.min[0]", "must be of type number, got 'a'", None, (("a", -1.0), (1.0, 1.0)), (0.0, 1.0)),
    ("table.max[0]", "must be of type number, got True", None, ((-1.0, -1.0), (True, 1.0)), (0.0, 1.0)),
    ("north", "must be of type array, got None", None, FINITE_TABLE, None),
    ("north", "must be of type array, got 'ab'", None, FINITE_TABLE, "ab"),
    ("north[0]", "must be of type number, got False", None, FINITE_TABLE, (False, True)),
    # HUGE is no finite number, and the message shortens it.
    ("entities[1].heading", "must be finite, got 1000", _replace_entity(1, heading=HUGE), FINITE_TABLE, (0.0, 1.0)),
    ("entities[0].pos[0]", "must be finite, got 1000", _centroid((HUGE, 0.0)), FINITE_TABLE, (0.0, 1.0)),
    ("table.min[0]", "must be finite, got -1000", None, ((-HUGE, -1.2), (1.0, 1.0)), (0.0, 1.0)),
    ("north[0]", "must be finite, got 1000", None, FINITE_TABLE, (HUGE, 0)),
    # A table, entity list or entity of the wrong type altogether.
    ("table", "must be a TableExtent, got ((-1.2", _tuple_table, FINITE_TABLE, (0.0, 1.0)),
    ("entities", "must be of type array, got None", _no_entities, FINITE_TABLE, (0.0, 1.0)),
    ("entities[0]", "must be an Entity, got {'id': 'blk_a'", _dict_entity, FINITE_TABLE, (0.0, 1.0)),
]


@pytest.mark.parametrize(
    "path, message, mutate, corners, north",
    PYTHON_STRUCTURE_CASES,
    ids=[
        *("kind", "north", "agents", "corners", "3-d pos", "1-d pos", "3-d min", "1-d max"),
        *("str heading", "str in pos", "None pos", "bool in pos", "int color", "int id"),
        *("None min", "str in min", "bool in max", "None north", "str north", "bool north"),
        *("huge heading", "huge pos", "huge min", "huge north"),
        *("tuple table", "None entities", "dict entity"),
    ],
)
def test_python_scene_rejects_bad_structure(path, message, mutate, corners, north):
    """The schema keeps a kind outside ``EntityKind``, a north, centroid or
    table corner without exactly two components and a field of the wrong
    type out of scene files; a ``Scene`` built in Python is checked against
    the same schema on construction, and gets its paths and words."""
    parts = {"entities": list(load_scene(json.dumps(minimal_doc())).entities), "table": TableExtent(*corners)}
    if mutate is not None:
        mutate(parts)
    with pytest.raises(SceneError) as err:
        Scene(parts["entities"], parts["table"], north)
    assert err.value.path == path
    assert message in str(err.value)
    assert len(str(err.value)) < 120


FILE_STRUCTURE_CASES = [
    (
        "entities",
        "more than one listener",
        lambda d: d["entities"].append(dict(d["entities"][2], id="listener2", pos=[0.5, 0.9])),
    ),
    ("table", "strictly below", lambda d: d["table"].update(min=[1.0, -1.0])),
    (
        "table",
        "corner coordinates must lie within +-2.2471164185778946e+307, got 1e+308",
        lambda d: d["table"].update(min=[-1e308, -1.0], max=[1e308, 1.0]),
    ),
    (
        "entities[0].colour",
        "is not allowed",
        lambda d: d["entities"][0].update(colour=d["entities"][0].pop("color")),
    ),
    ("tabel", "is not allowed", lambda d: d.update(tabel=d["table"])),
    ("table.height", "is not allowed", lambda d: d["table"].update(height=0.7)),
]


@pytest.mark.parametrize(
    "path, message, mutate",
    FILE_STRUCTURE_CASES,
    ids=["agents", "corners", "huge corners", "entity key", "root key", "table key"],
)
def test_scene_file_rejects_bad_structure(path, message, mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert err.value.path == path
    assert message in str(err.value)


def test_corners_up_to_an_eighth_of_the_float_range_are_accepted():
    """The corner bound leaves room for every projection ``prepositions``
    computes; a table exactly at it loads, and a Python-built table past it
    is rejected like a file's."""
    bound = scene_module._FLOAT_MAX / 8
    doc = minimal_doc()
    doc["table"] = {"min": [-bound, -bound], "max": [bound, bound]}
    assert load_scene(json.dumps(doc)).margin_scale == 1e-9 * bound
    entities = load_scene(json.dumps(minimal_doc())).entities
    with pytest.raises(SceneError) as err:
        Scene(entities, TableExtent((-1.0, -1.0), (math.nextafter(bound, math.inf), 1.0)))
    assert err.value.path == "table" and "corner coordinates must lie within" in str(err.value)


def _update_entity(index, **fields):
    return lambda doc: doc["entities"][index].update(fields)


def _assert_reported_in_order(build, state, steps):
    for path, message, fix in steps:
        with pytest.raises(SceneError) as err:
            build(state)
        assert (err.value.path, message in str(err.value)) == (path, True)
        fix(state)
    build(state)


def _generated(scene, prefs):
    """Each referable target's chain and every method's surface, or the
    generation error."""
    out = {}
    for target in scene.referable_ids():
        try:
            chain = build_landmark_chain(target, scene, prefs)
            out[target] = chain, [generate(m, chain, scene, prefs, seed=7).surface for m in METHODS]
        except GenerationError as exc:
            out[target] = str(exc)
    return out


def test_a_scene_built_with_list_points_equals_the_tuple_built_scene(default_prefs):
    scene = sample_scene(3)
    listed = Scene(
        tuple(dataclasses.replace(e, centroid=list(e.centroid)) for e in scene.entities),
        TableExtent(list(scene.table.min_corner), list(scene.table.max_corner)),
        list(scene.north),
    )
    assert listed == scene and hash(listed) == hash(scene)
    assert [hash(e) for e in listed.entities] == [hash(e) for e in scene.entities]
    points = [e.centroid for e in listed.entities]
    points += [listed.table.min_corner, listed.table.max_corner, listed.north]
    assert all(type(point) is tuple for point in points)
    assert all(listed.entity(e.id) is e for e in listed.entities)
    assert listed.speaker is listed.entity("speaker") and listed.listener is listed.entity("listener")
    extrinsic = frame_instance(FrameKind.EXTRINSIC, listed)
    assert type(extrinsic.front_axis) is tuple and hash(extrinsic) == hash(
        frame_instance(FrameKind.EXTRINSIC, scene)
    )
    assert _generated(listed, default_prefs) == _generated(scene, default_prefs)


def test_several_faults_are_reported_in_check_order():
    """Of several faults, the table's is reported first, then north's, then
    the entity list's, then each entity's in scene order, and a missing
    agent last; a field of the wrong type is reported before its parts.
    Fixing each reported fault in turn reveals the next, in a Python-built
    scene and in a scene file.  (A Python-built scene's type faults all
    come before its semantic faults: see the test below.)"""
    entities = load_scene(json.dumps(minimal_doc())).entities
    faulty = [
        {"id": "blk_a"},
        dataclasses.replace(entities[0], color=5, centroid=(5.0, 0.0)),
        dataclasses.replace(entities[1], heading=None),
        dataclasses.replace(entities[1], id="speaker2", centroid=(0.5, -0.9)),
    ]
    parts = {"table": ((None, -1.0), (1.0, 1.0)), "north": (False, True), "entities": None}
    _assert_reported_in_order(
        lambda p: Scene(p["entities"], p["table"], p["north"]),
        parts,
        [
            ("table", "must be a TableExtent", lambda p: p.update(table=TableExtent(*p["table"]))),
            ("table.min[0]", "must be of type number", lambda p: p.update(table=TableExtent(*FINITE_TABLE))),
            ("north[0]", "must be of type number", lambda p: p.update(north=(0.0, 1.0))),
            ("entities", "must be of type array", lambda p: p.update(entities=faulty)),
            ("entities[0]", "must be an Entity", lambda p: p["entities"].pop(0)),
            ("entities[0].color", "must be of type string or null", _replace_entity(0, color="red")),
            ("entities[0].pos", "outside table extent", _replace_entity(0, centroid=(0.1, 0.2))),
            ("entities[1].heading", "speaker must have a heading", _replace_entity(1, heading=HALF_PI)),
            ("entities", "more than one speaker", lambda p: p["entities"].pop()),
            ("entities", "missing listener", lambda p: p["entities"].append(entities[2])),
        ],
    )
    doc = minimal_doc()
    doc["table"]["min"] = [1.0, -1.0]
    doc["north"] = [0.0, 2.0]
    doc["entities"][0]["pos"] = [5.0, 0.0]
    doc["entities"][1].update(id="b1", kind="object")
    doc["entities"][2]["pos"] = [0.1, 0.2]
    doc["entities"].append(dict(doc["entities"][2], id="listener2", pos=[0.5, 0.9]))
    _assert_reported_in_order(
        lambda d: load_scene(json.dumps(d)),
        doc,
        [
            ("table", "strictly below", lambda d: d["table"].update(min=[-1.0, -1.0])),
            ("north", "must be a 2-d unit vector", lambda d: d.update(north=[0.0, 1.0])),
            ("entities[0].pos", "outside table extent", _update_entity(0, pos=[0.1, 0.2])),
            ("entities[1].id", "duplicate id 'b1'", _update_entity(1, id="speaker")),
            ("entities[2].pos", "collides with entity 'b1'", _update_entity(2, pos=[0.0, 0.9])),
            ("entities", "more than one listener", lambda d: d["entities"].pop()),
            ("entities", "missing speaker", _update_entity(1, kind="speaker")),
        ],
    )


def test_every_type_fault_is_reported_before_any_semantic_fault():
    """A Python-built scene's types are checked first: by hand the table's
    type, then each entity's type and kind's type, then ``SCENE_SCHEMA`` in
    the order table, ``north``, entities.  The semantic rules come last."""
    entities = load_scene(json.dumps(minimal_doc())).entities
    parts = {
        "table": ((1.0, -1.0), (1.0, NAN)),
        "north": (0.0, "2"),
        "entities": [
            {"id": "blk_a"},
            dataclasses.replace(entities[0], color=5, centroid=(5.0, 0.0)),
            dataclasses.replace(entities[1], kind="speaker", heading=None),
            dataclasses.replace(entities[2], id="b1"),
        ],
    }
    _assert_reported_in_order(
        lambda p: Scene(p["entities"], p["table"], p["north"]),
        parts,
        [
            ("table", "must be a TableExtent", lambda p: p.update(table=TableExtent(*p["table"]))),
            ("entities[0]", "must be an Entity", lambda p: p["entities"].pop(0)),
            ("entities[1].kind", "must be an EntityKind", _replace_entity(1, kind=EntityKind.SPEAKER)),
            ("table.max[1]", "must be finite", lambda p: p.update(table=TableExtent((1.0, -1.0), (1.0, 1.0)))),
            ("north[1]", "must be of type number", lambda p: p.update(north=(0.0, 2.0))),
            ("entities[0].color", "must be of type string or null", _replace_entity(0, color="red")),
            ("table", "strictly below", lambda p: p.update(table=TableExtent(*FINITE_TABLE))),
            ("north", "must be a 2-d unit vector", lambda p: p.update(north=(0.0, 1.0))),
            ("entities[0].pos", "outside table extent", _replace_entity(0, centroid=(0.1, 0.2))),
            ("entities[1].heading", "speaker must have a heading", _replace_entity(1, heading=HALF_PI)),
            ("entities[2].id", "duplicate id 'b1'", _replace_entity(2, id="listener")),
        ],
    )


# The path of a fault and a bad value for its field: the file holds the
# value as JSON, the Python-built scene as it is, each array a tuple.  A
# bad first item of an array is reported at ``[0]``.
SAME_FAULT_CASES = {
    "int id": ("entities[0].id", 7),
    "None category": ("entities[0].category", None),
    "empty color": ("entities[0].color", ""),
    "str heading": ("entities[0].heading", "abc"),
    "str pos": ("entities[0].pos[0]", ("0.1", "0.2")),
    "bool pos": ("entities[0].pos[0]", (True, False)),
    "3-item pos": ("entities[0].pos", (0.1, 0.2, 0.3)),
    "huge pos": ("entities[0].pos[0]", (1e400, 0.2)),
    "None min": ("table.min", None),
    "None north": ("north", None),
}


@pytest.mark.parametrize("path, value", SAME_FAULT_CASES.values(), ids=list(SAME_FAULT_CASES))
def test_a_type_fault_gets_one_message_in_a_file_and_in_python(path, value):
    """``SCENE_SCHEMA`` is the one statement of a scene's types: a scene file
    and a ``Scene`` built in Python with the same bad value raise at the same
    path with the same message, up to the repr of a tuple against a list."""
    doc = minimal_doc()
    entities = list(load_scene(json.dumps(doc)).entities)
    table, north = TableExtent(*FINITE_TABLE), (0.0, 1.0)
    listed = list(value) if isinstance(value, tuple) else value
    field = path.removesuffix("[0]")
    if field == "table.min":
        doc["table"]["min"], table = listed, TableExtent(value, FINITE_TABLE[1])
    elif field == "north":
        doc["north"], north = listed, value
    else:
        key = field.rpartition(".")[2]
        doc["entities"][0][key] = listed
        entities[0] = dataclasses.replace(entities[0], **{"centroid" if key == "pos" else key: value})
    with pytest.raises(SceneError) as from_file:
        load_scene(json.dumps(doc))
    with pytest.raises(SceneError) as from_python:
        Scene(tuple(entities), table, north)
    assert from_file.value.path == from_python.value.path == path
    assert str(from_python.value).replace("(", "[").replace(")", "]") == str(from_file.value)


def test_each_scene_is_checked_against_the_schema_once(monkeypatch):
    """A scene file is checked once, as a document; a sampled scene, built
    from checked pools, not at all; a ``Scene`` built in Python once.  No
    scene keeps the entities' marker type."""
    check_document = scene_module.check_document
    calls = []

    def counted(doc, schema, invalid):
        calls.append(schema)
        return check_document(doc, schema, invalid)

    monkeypatch.setattr(scene_module, "check_document", counted)
    loaded = load_scene(json.dumps(minimal_doc()))
    assert calls == [SCENE_SCHEMA]
    sampled = sample_scene(3)
    assert calls == [SCENE_SCHEMA]
    built = Scene(tuple(sampled.entities), sampled.table, sampled.north)
    assert calls == [SCENE_SCHEMA, SCENE_SCHEMA]
    assert all(type(s.entities) is tuple for s in (loaded, sampled, built))


@pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_the_paths_that_skip_the_type_checks_build_the_checked_scene(objects, seed):
    """``sample_scene`` and ``scene_from_dict`` skip the schema pass over the
    scene they build; the scene and its derived fields equal those of the
    same scene built in Python, which takes the pass."""
    sampled = sample_scene(seed, objects=objects)
    checked = Scene(tuple(sampled.entities), sampled.table, sampled.north)
    loaded = scene_from_dict(scene_to_dict(sampled))
    for scene in (sampled, loaded):
        assert scene == checked
        assert scene._by_id == checked._by_id
        assert (scene.speaker, scene.listener) == (checked.speaker, checked.listener)
        assert scene.referable_ids() == checked.referable_ids()
        assert scene.attributes == checked.attributes
        assert scene.margin_scale == checked.margin_scale


def test_north_defaults_when_absent():
    doc = minimal_doc()
    del doc["north"]
    assert load_scene(json.dumps(doc)).north == (0.0, 1.0)


def test_agent_without_heading_rejected():
    doc = minimal_doc()
    doc["entities"][1]["heading"] = None
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert "heading" in err.value.path


def test_parse_failure_is_diagnosed():
    with pytest.raises(SceneError) as err:
        load_scene("{not json")
    assert "not valid JSON" in str(err.value)


@pytest.mark.parametrize("text", ["[1]", "  []"])
def test_array_text_is_parsed_not_opened(text):
    with pytest.raises(SceneError) as err:
        load_scene(text)
    assert err.value.path == "$"
    assert "must be of type object" in str(err.value)


def test_attribute_vocabulary_lowercases_present_values():
    doc = minimal_doc()
    doc["entities"][0].update(category="Block", color=None, shape="Round")
    doc["entities"].append(
        {"id": "b2", "kind": "object", "category": "CUP", "color": "Red", "pos": [0.3, 0.2]}
    )
    assert attribute_vocabulary(load_scene(json.dumps(doc))) == {
        "category": {"block", "cup", "robot", "person"},
        "color": {"red"},
        "shape": {"round"},
    }


@pytest.mark.parametrize("slot", ["color", "shape"])
def test_empty_attribute_strings_are_rejected_at_load(slot):
    doc = minimal_doc()
    doc["entities"][0][slot] = ""
    with pytest.raises(SceneError, match=rf"^entities\[0\]\.{slot}: must have at least 1"):
        load_scene(json.dumps(doc))


def test_marker_words_are_the_words_of_the_marker_tables():
    assert list(scene_module.MARKER_WORDS) == SURFACE_WORDS


@pytest.mark.parametrize("slot", ["category", "color", "shape"])
@pytest.mark.parametrize("value", ["toy car", "behind", "Behind", "NEXT", "the", "red\n", "\tred", "a\u00a0b"])
def test_attribute_values_that_would_not_parse_back_are_rejected(slot, value):
    doc = minimal_doc()
    doc["entities"][0][slot] = value
    message = rf"^entities\[0\]\.{slot}: must be a single word that no preposition or marker uses"
    with pytest.raises(SceneError, match=message):
        load_scene(json.dumps(doc))
    entity = dataclasses.replace(load_scene(json.dumps(minimal_doc())).entities[0], **{slot: value})
    with pytest.raises(SceneError, match=message):
        Scene(entities=(entity,), table=TableExtent((-1.0, -1.0), (1.0, 1.0)))


@pytest.mark.parametrize("value", ["toycar", "behinds", "Block", "in-front", "théière", "K"])
def test_one_word_attribute_values_load(value):
    # A category may repeat the color or the shape; color and shape may not
    # share a word (``test_a_word_that_is_a_color_and_a_shape_is_rejected``).
    for slots in (("category", "color"), ("category", "shape")):
        doc = minimal_doc()
        doc["entities"][0].update(dict.fromkeys(slots, value))
        entity = load_scene(json.dumps(doc)).entities[0]
        assert [getattr(entity, slot) for slot in slots] == [value, value]


def _round_round_doc(shape="round", color="round"):
    """``t1`` a block of shape ``shape``, ``t2`` a plain block and ``c1`` a
    cup of color ``color``, between the agents of ``minimal_doc``."""
    doc = minimal_doc()
    doc["entities"][0:1] = [
        {"id": "t1", "kind": "object", "category": "block", "color": None, "shape": shape,
         "pos": [-0.4, 0.0], "heading": None},
        {"id": "t2", "kind": "object", "category": "block", "pos": [0.4, 0.0]},
        {"id": "c1", "kind": "object", "category": "cup", "color": color, "pos": [0.0, 0.0]},
    ]
    return doc


@pytest.mark.parametrize("shape, color", [("round", "round"), ("ROUND", "Round")])
def test_a_word_that_is_a_color_and_a_shape_is_rejected(shape, color):
    """"the round block" would read "round" as the cup's color: the later
    field of the two, in scene order, is the fault, in a file and in Python."""
    doc = _round_round_doc(shape, color)
    message = rf"^entities\[2\]\.color: {color!r} is the shape of entity 't1'"
    with pytest.raises(SceneError, match=message):
        load_scene(json.dumps(doc))
    entities = load_scene(json.dumps(_round_round_doc(shape, "blue"))).entities
    clash = dataclasses.replace(entities[2], color=color)
    with pytest.raises(SceneError, match=message):
        Scene((*entities[:2], clash, *entities[3:]), TableExtent((-1.0, -1.0), (1.0, 1.0)))
    # Within one entity the shape comes after the color.
    doc = minimal_doc()
    doc["entities"][0].update(color="round", shape="Round")
    message = r"^entities\[0\]\.shape: 'Round' is the color of entity 'b1'"
    with pytest.raises(SceneError, match=message):
        load_scene(json.dumps(doc))


def test_a_color_or_shape_may_repeat_a_category():
    doc = _round_round_doc(shape="cup", color="block")
    scene = load_scene(json.dumps(doc))
    assert scene.attributes[("shape", "cup")] == ("t1",)
    assert scene.attributes[("color", "block")] == ("c1",)


@pytest.mark.parametrize("seed", range(10))
def test_attribute_vocabulary_matches_entities(seed):
    scene = sample_scene(seed, objects=(8, 16))
    assert attribute_vocabulary(scene) == {
        slot: {getattr(e, slot).lower() for e in scene.entities if getattr(e, slot)}
        for slot in ("category", "color", "shape")
    }


def test_speaker_listener_not_referable():
    scene = load_scene(json.dumps(minimal_doc()))
    assert scene.referable_ids() == ("b1",)
    assert not scene.speaker.referable_as_target


@pytest.mark.parametrize("seed", range(20))
def test_round_trip(seed):
    scene = sample_scene(seed)
    again = load_scene(dump_scene(scene))
    assert again == scene
    assert dump_scene(again) == dump_scene(scene)


@pytest.mark.parametrize("name", ["two_blocks_car.json", "facing_pair_square.json"])
def test_dump_scene_bytes_match_the_demo_files(name):
    """The demo scene files are canonical JSON: ``dump_scene`` of each, plus
    a final newline, gives back the file's text byte for byte."""
    path = DEMO / name
    assert dump_scene(load_scene(path)) + "\n" == path.read_text(encoding="utf-8")


class _Text(str):
    pass


class _Real(float):
    pass


class _Level(enum.IntEnum):
    HIGH = 2


# JSON values, each in its one spelling: strings with non-ASCII and
# control characters and lone surrogates, ints beyond 64 bits, and finite
# floats whose text is easy to get wrong.
_CHARS = st.characters(exclude_categories=())
_TEXT = st.text(_CHARS)
_WRITABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**1000).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, sys.float_info.max]),
    _TEXT,
)


def _documents(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        items, items.map(tuple), st.dictionaries(st.text(_CHARS, max_size=3), children, max_size=4)
    )


@pytest.mark.deep
@given(st.recursive(_WRITABLE, _documents, max_leaves=24))
@example({"b": [1, 2.5, (), {}], "a": {"\udc80é\x00": (None, True, -0.0)}})
@example([5e-324, 1e16, 2**70, -(2**70), sys.float_info.max, -sys.float_info.max])
def test_json_text_is_the_stdlib_text(doc):
    """Over JSON values ``json_text`` writes exactly ``json.dumps(doc,
    indent=2, sort_keys=True)``."""
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


# Values that are no JSON value, each with the error ``json_text`` raises:
# subclasses of the JSON types, keys that are no ``str``, other types, and
# numbers beyond the largest float.
_NOT_JSON = [
    *((value, TypeError) for value in (
        _Text("é"), _Real(0.5), _Real("nan"), _Level.HIGH, collections.OrderedDict(a=1),
        {1: "x"}, {True: "y"}, {None: 0, "a": 1}, {2.5: 1}, {_Text("k"): 0}, {(1,): 0},
        set(), frozenset(), b"x", bytearray(b"x"), object(),
    )),
    *((value, ValueError) for value in (
        float("nan"), float("inf"), float("-inf"), 10**400, -(10**400),
    )),
]


def _holding(bad):
    """Documents of JSON values that hold ``bad`` once, at some depth."""
    return st.recursive(
        st.just(bad),
        lambda inner: st.one_of(
            st.builds(lambda items, i, value: [*items[:i], value, *items[i:]],
                      st.lists(_WRITABLE, max_size=3), st.integers(0, 3), inner),
            inner.map(lambda value: (value,)),
            st.builds(lambda key, value, rest: {**rest, key: value},
                      _TEXT, inner, st.dictionaries(_TEXT, _WRITABLE, max_size=2)),
        ),
        max_leaves=4,
    )


@pytest.mark.deep
@given(st.sampled_from(_NOT_JSON).flatmap(lambda case: st.tuples(_holding(case[0]), st.just(case[1]))))
def test_json_text_rejects_what_is_no_json_value(case):
    doc, error = case
    with pytest.raises(error):
        json_text(doc)


# sha256 of ``dump_scene`` for each demo scene and for ``sample_scene(7)``
# at two table sizes.
DUMP_SCENE_DIGESTS = {
    "two_blocks_car.json": "fe3bc29ab354b66d9532d0bea0c0870cc7d30e36c2c860aa40c5d3076bb0dd87",
    "facing_pair_square.json": "250d7ff63ebb34e8aee2a6a1162e403519270413aa68ad7e5c7b8dc957e79794",
    (3, 8): "43e08557968430567d8ffb0a7c0d1ab86c27698feaabb7c0bc93f669b141998a",
    (16, 30): "43375c7ccdfb757b4859091c88cd152b56eca12eeabd74bfc3d39764a7e4fda9",
}


@pytest.mark.parametrize("key", list(DUMP_SCENE_DIGESTS), ids=str)
def test_dump_scene_bytes_are_pinned(key):
    """``dump_scene`` bytes are pinned, and a scene re-dumped after
    ``load_scene`` gives the same bytes."""
    scene = load_scene(DEMO / key) if isinstance(key, str) else sample_scene(7, objects=key)
    text = dump_scene(scene)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DUMP_SCENE_DIGESTS[key]
    assert dump_scene(load_scene(text)) == text


@pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_round_trip_at_table_sizes(objects, seed):
    scene = sample_scene(seed, objects=objects)
    assert load_scene(dump_scene(scene)) == scene


def test_landmark_type_classification(blocks_car_scene):
    assert landmark_type(blocks_car_scene.speaker) is LandmarkType.SPEAKER
    assert landmark_type(blocks_car_scene.listener) is LandmarkType.LISTENER
    assert landmark_type(blocks_car_scene.entity("car1")) is LandmarkType.ORIENTED_OBJECT
    assert landmark_type(blocks_car_scene.entity("blk_a")) is LandmarkType.UNORIENTED_OBJECT


def test_landmark_type_total_over_samples():
    for seed in range(10):
        for e in sample_scene(seed).entities:
            assert landmark_type(e) in LandmarkType


def test_scene_is_immutable(blocks_car_scene):
    with pytest.raises(Exception):
        blocks_car_scene.north = (1.0, 0.0)
    with pytest.raises(Exception):
        blocks_car_scene.entities[0].color = "blue"


def test_min_separation_constant_is_strict():
    with pytest.raises(SceneError):
        Scene(
            entities=(
                Entity("x", EntityKind.OBJECT, "block", (0.0, 0.0)),
                Entity("y", EntityKind.OBJECT, "block", (0.0, 5e-7)),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -0.9), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 0.9), heading=-HALF_PI),
            ),
            table=TableExtent((-1.0, -1.0), (1.0, 1.0)),
        )
