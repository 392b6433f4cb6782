import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pcsreg.frames import FrameKind, frame_instance
from pcsreg.generator import GenerationError, build_landmark_chain
from pcsreg.harness import METHODS, sample_scene
from pcsreg.optimizer import generate
from pcsreg.scene import (
    Entity,
    EntityKind,
    LandmarkType,
    Scene,
    SceneError,
    TableExtent,
    attribute_vocabulary,
    dump_scene,
    landmark_type,
    load_scene,
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

NON_FINITE_CASES = [
    ("north", lambda d: d.update(north=[NAN, 1.0])),
    ("table.min", lambda d: d["table"].update(min=[-INF, -1.0])),
    ("table.max", lambda d: d["table"].update(max=[1.0, INF])),
    ("entities[0].pos", lambda d: d["entities"][0].update(pos=[NAN, 0.2])),
    ("entities[0].heading", lambda d: d["entities"][0].update(heading=NAN)),
    ("entities[1].heading", lambda d: d["entities"][1].update(heading=-INF)),
    ("entities[2].heading", lambda d: d["entities"][2].update(heading=HUGE)),
]


@pytest.mark.parametrize("path, mutate", NON_FINITE_CASES, ids=[c[0] for c in NON_FINITE_CASES])
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
    ("north", None, None, (NAN, 1.0)),
    ("north", None, None, (NAN, NAN)),
    ("north", None, None, (0.0, INF)),
]


@pytest.mark.parametrize("path, index, heading, north", PYTHON_NON_FINITE_CASES)
def test_python_scene_rejects_non_finite_headings_and_north(path, index, heading, north):
    """The schema keeps these out of scene files; a ``Scene`` built in
    Python is checked on construction.  A NaN north has no unit norm."""
    entities = list(load_scene(json.dumps(minimal_doc())).entities)
    if index is not None:
        entities[index] = dataclasses.replace(entities[index], heading=heading)
    with pytest.raises(SceneError) as err:
        Scene(tuple(entities), TableExtent((-1.0, -1.0), (1.0, 1.0)), north)
    assert err.value.path == path


FINITE_TABLE = ((-1.0, -1.0), (1.0, 1.0))
UNBOUNDED_TABLE = ((-INF, -INF), (INF, INF))

PYTHON_NON_FINITE_PLACES = [
    ("table", UNBOUNDED_TABLE, None, None),
    ("table", ((-1.0, -1.0), (1.0, NAN)), None, None),
    ("table", UNBOUNDED_TABLE, 0, (INF, 0.0)),
    ("entities[0].pos", FINITE_TABLE, 0, (NAN, 0.2)),
    ("entities[1].pos", FINITE_TABLE, 1, (0.0, -INF)),
]


@pytest.mark.parametrize("path, corners, index, centroid", PYTHON_NON_FINITE_PLACES)
def test_python_scene_rejects_non_finite_table_and_centroids(path, corners, index, centroid):
    """An unbounded table would let a non-finite centroid pass the extent
    check, so the table is checked first."""
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


def _kind_as_string(entities):
    entities[0] = dataclasses.replace(entities[0], kind="object")


def _second_speaker(entities):
    entities.append(dataclasses.replace(entities[1], id="speaker2", centroid=(0.5, -0.9)))


def _replaced_at(index, **fields):
    def mutate(entities):
        entities[index] = dataclasses.replace(entities[index], **fields)

    return mutate


def _replaced(**fields):
    return _replaced_at(0, **fields)


def _centroid(centroid):
    return _replaced(centroid=centroid)


def _wrong_type(path, message, **fields):
    return (f"entities[0].{path}", message, _replaced(**fields), FINITE_TABLE, (0.0, 1.0))


PYTHON_STRUCTURE_CASES = [
    ("entities[0].kind", "must be an EntityKind", _kind_as_string, FINITE_TABLE, (0.0, 1.0)),
    ("north", "must be a 2-d unit vector", None, FINITE_TABLE, (0.0, 1.0, 0.0)),
    ("entities", "more than one speaker", _second_speaker, FINITE_TABLE, (0.0, 1.0)),
    ("table", "strictly below", None, ((-1.0, 1.0), (1.0, 1.0)), (0.0, 1.0)),
    ("entities[0].pos", "2-d point", _centroid((0.1, 0.2, 0.3)), FINITE_TABLE, (0.0, 1.0)),
    ("entities[0].pos", "2-d point", _centroid((0.1,)), FINITE_TABLE, (0.0, 1.0)),
    ("table", "2-d points", None, ((-1.0, -1.0, 5.0), (1.0, 1.0)), (0.0, 1.0)),
    ("table", "2-d points", None, ((-1.0, -1.0), (1.0,)), (0.0, 1.0)),
    # Types ``SCENE_SCHEMA`` fixes in scene files, named in its words; a
    # bool is no number.
    _wrong_type("heading", "must be of type number or null, got 'abc'", heading="abc"),
    _wrong_type("pos", "must be of type array of numbers, got ('0.1', 0.2)", centroid=("0.1", 0.2)),
    _wrong_type("pos", "must be of type array of numbers, got None", centroid=None),
    _wrong_type("pos", "must be of type array of numbers, got (True, 0.2)", centroid=(True, 0.2)),
    _wrong_type("color", "must be of type string or null, got 5", color=5),
    _wrong_type("id", "must be of type string, got 7", id=7),
    # Table corners and ``north`` get the same type checks as a centroid.
    ("table", "2-d points", None, (None, (1.0, 1.0)), (0.0, 1.0)),
    ("table", "2-d points", None, (("a", -1.0), (1.0, 1.0)), (0.0, 1.0)),
    ("table", "2-d points", None, ((-1.0, -1.0), (True, 1.0)), (0.0, 1.0)),
    ("north", "2-d unit vector", None, FINITE_TABLE, None),
    ("north", "2-d unit vector", None, FINITE_TABLE, "ab"),
    ("north", "2-d unit vector", None, FINITE_TABLE, (False, True)),
    # HUGE is no finite number, and the message shortens it.
    ("entities[1].heading", "must be finite, got 1000", _replaced_at(1, heading=HUGE), FINITE_TABLE, (0.0, 1.0)),
    ("entities[0].pos", "finite 2-d point, got (1000", _centroid((HUGE, 0.0)), FINITE_TABLE, (0.0, 1.0)),
    ("table", "2-d points, got (-1000", None, ((-HUGE, -1.2), (1.0, 1.0)), (0.0, 1.0)),
    ("north", "2-d unit vector, got (1000", None, FINITE_TABLE, (HUGE, 0)),
]


@pytest.mark.parametrize(
    "path, message, mutate, corners, north",
    PYTHON_STRUCTURE_CASES,
    ids=[
        *("kind", "north", "agents", "corners", "3-d pos", "1-d pos", "3-d min", "1-d max"),
        *("str heading", "str in pos", "None pos", "bool in pos", "int color", "int id"),
        *("None min", "str in min", "bool in max", "None north", "str north", "bool north"),
        *("huge heading", "huge pos", "huge min", "huge north"),
    ],
)
def test_python_scene_rejects_bad_structure(path, message, mutate, corners, north):
    """The schema keeps a kind outside ``EntityKind``, a north, centroid or
    table corner without exactly two components and a field of the wrong
    type out of scene files; a ``Scene`` built in Python is checked on
    construction."""
    entities = list(load_scene(json.dumps(minimal_doc())).entities)
    if mutate is not None:
        mutate(entities)
    with pytest.raises(SceneError) as err:
        Scene(tuple(entities), TableExtent(*corners), north)
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
]


@pytest.mark.parametrize(
    "path, message, mutate", FILE_STRUCTURE_CASES, ids=["agents", "corners"]
)
def test_scene_file_rejects_bad_structure(path, message, mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(SceneError) as err:
        load_scene(json.dumps(doc))
    assert err.value.path == path
    assert message in str(err.value)


def _replace_entity(index, **fields):
    def fix(parts):
        parts["entities"][index] = dataclasses.replace(parts["entities"][index], **fields)

    return fix


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
    each entity's in scene order, and a missing agent last: fixing each
    reported fault in turn reveals the next, in a Python-built scene and
    in a scene file."""
    entities = load_scene(json.dumps(minimal_doc())).entities
    parts = {
        "table": TableExtent((None, -1.0), (1.0, 1.0)),
        "north": (False, True),
        "entities": [
            dataclasses.replace(entities[0], color=5, centroid=(5.0, 0.0)),
            dataclasses.replace(entities[1], heading=None),
            dataclasses.replace(entities[1], id="speaker2", centroid=(0.5, -0.9)),
        ],
    }
    _assert_reported_in_order(
        lambda p: Scene(tuple(p["entities"]), p["table"], p["north"]),
        parts,
        [
            ("table", "2-d points", lambda p: p.update(table=TableExtent(*FINITE_TABLE))),
            ("north", "must be a 2-d unit vector", lambda p: p.update(north=(0.0, 1.0))),
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
