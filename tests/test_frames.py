import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import preferences_to_dict, turn_speaker
from pcsreg.frames import (
    _DEFAULT_ROWS,
    FRAME_ORDER,
    FrameError,
    FrameKind,
    PreferenceTable,
    applicable_frames,
    default_preferences,
    frame_instance,
    preferences_from_dict,
    load_preferences,
    preference_entropy,
    shared_frame,
    sign_margin,
    supports_intrinsic,
    update_preferences,
)
from pcsreg.geometry import dot, quarter_right
from pcsreg.harness import derive_seed, sample_scene
from pcsreg.prepositions import Preposition
from pcsreg.scene import EntityKind, LandmarkType, load_scene

DEMO = Path(__file__).resolve().parent.parent / "demo"

# Entropy of the unoriented-object default row, frozen from an independent
# term-by-term base-2 evaluation.
UNORIENTED_ROW_ENTROPY = 1.3048033432837949


def test_default_rows_match_elicited_ratios():
    prefs = default_preferences()
    assert prefs.row(LandmarkType.SPEAKER) == (1.0, 0.0, 0.0, 0.0)
    assert prefs.row(LandmarkType.LISTENER) == (0.0408, 0.9592, 0.0, 0.0)
    assert prefs.row(LandmarkType.ORIENTED_OBJECT) == (0.045, 0.045, 0.905, 0.005)
    assert prefs.row(LandmarkType.UNORIENTED_OBJECT) == (0.6667, 0.2014, 0.1181, 0.0138)


def test_default_table_is_one_shared_read_only_table():
    prefs = default_preferences()
    assert default_preferences() is prefs
    assert prefs == PreferenceTable(
        {lt: tuple(v / sum(row) for v in row) for lt, row in _DEFAULT_ROWS.items()}
    )
    with pytest.raises(TypeError):
        prefs.rows[LandmarkType.SPEAKER] = (0.0, 1.0, 0.0, 0.0)
    assert prefs.row(LandmarkType.SPEAKER) == (1.0, 0.0, 0.0, 0.0)


def test_rows_are_stochastic():
    for lt in LandmarkType:
        row = default_preferences().row(lt)
        assert abs(sum(row) - 1.0) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in row)


DELETED = object()  # the row is left out of the table

BAD_ROWS = {
    "nan": ((math.nan, 0.0, 0.0, 1.0), "must contain finite numbers >= 0"),
    "inf": ((math.inf, 0.0, 0.0, 0.0), "must contain finite numbers >= 0"),
    "minus_inf": ((-math.inf, 0.0, 0.0, 1.0), "must contain finite numbers >= 0"),
    "negative": ((-0.5, 0.5, 0.5, 0.5), "must contain finite numbers >= 0"),
    "above_one": ((1.0 + 5e-10, 0.0, 0.0, 0.0), "must sum to 1 within 1e-09, entries <= 1"),
    "bad_sum": ((0.5, 0.5, 0.1, 0.0), "must sum to 1 within 1e-09, entries <= 1"),
    "short": ((0.5, 0.5, 0.0), r"must have \[4, 4\] items"),
    "missing": (DELETED, "is missing"),
    "not_array": (None, "must be of type array, got None"),
}


@pytest.mark.parametrize("row, message", BAD_ROWS.values(), ids=list(BAD_ROWS))
def test_table_rejects_bad_rows_by_name(row, message):
    """A table built in Python meets ``PREFS_SCHEMA`` and the row rule."""
    rows = {lt: (0.25, 0.25, 0.25, 0.25) for lt in LandmarkType}
    if row is DELETED:
        del rows[LandmarkType.LISTENER]
    else:
        rows[LandmarkType.LISTENER] = row
    with pytest.raises(FrameError, match=f"^row 'listener' {message}"):
        PreferenceTable(rows)


@pytest.mark.parametrize(
    "rows", [None, [(LandmarkType.SPEAKER, (1.0, 0.0, 0.0, 0.0))]], ids=["None", "list of pairs"]
)
def test_table_rejects_rows_that_are_no_mapping(rows):
    with pytest.raises(FrameError, match="^preference document must be of type object, got "):
        PreferenceTable(rows)


def test_entropy_degenerate_and_uniform():
    assert preference_entropy((1.0, 0.0, 0.0, 0.0)) == 0.0
    assert preference_entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0, abs=1e-12)


def test_entropy_of_unoriented_row():
    row = default_preferences().row(LandmarkType.UNORIENTED_OBJECT)
    assert preference_entropy(row) == pytest.approx(UNORIENTED_ROW_ENTROPY, abs=1e-12)


def test_entropy_orders_landmark_types():
    prefs = default_preferences()
    entropies = [preference_entropy(prefs.row(lt)) for lt in (
        LandmarkType.SPEAKER,
        LandmarkType.LISTENER,
        LandmarkType.ORIENTED_OBJECT,
        LandmarkType.UNORIENTED_OBJECT,
    )]
    assert entropies == sorted(entropies)
    assert len(set(entropies)) == 4


def test_entropy_rejects_unnormalized():
    with pytest.raises(FrameError):
        preference_entropy((0.5, 0.2, 0.1, 0.1))


def test_entropy_ordering_is_base_invariant():
    prefs = default_preferences()
    rows = [prefs.row(lt) for lt in LandmarkType]

    def entropy_base(row, base):
        return -sum(p * math.log(p, base) for p in row if p > 0)

    for base in (2.0, math.e, 10.0):
        order = sorted(range(len(rows)), key=lambda i: entropy_base(rows[i], base))
        assert order == sorted(range(len(rows)), key=lambda i: preference_entropy(rows[i]))


def test_frame_axes(facing_square_scene):
    ego = frame_instance(FrameKind.EGOCENTRIC, facing_square_scene)
    assert ego.front_axis == pytest.approx((0.0, 1.0))
    assert ego.origin_entity == "speaker"
    ext = frame_instance(FrameKind.EXTRINSIC, facing_square_scene)
    assert ext.front_axis == (0.0, 1.0)
    assert ext.origin_entity is None
    addr = frame_instance(FrameKind.ADDRESSEE, facing_square_scene)
    assert addr.front_axis == pytest.approx((0.0, -1.0))


def test_intrinsic_requires_oriented_object(facing_square_scene, blocks_car_scene):
    with pytest.raises(FrameError):
        frame_instance(FrameKind.INTRINSIC, facing_square_scene, "c")
    with pytest.raises(FrameError):
        frame_instance(FrameKind.INTRINSIC, facing_square_scene)
    fr = frame_instance(FrameKind.INTRINSIC, blocks_car_scene, "car1")
    assert fr.origin_entity == "car1"
    assert fr.front_axis == pytest.approx((0.0, 1.0))


def test_intrinsic_rejects_agents(blocks_car_scene):
    # Agents are oriented but only objects anchor an intrinsic frame.
    with pytest.raises(FrameError):
        frame_instance(FrameKind.INTRINSIC, blocks_car_scene, "speaker")


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_axis_orthogonality(heading):
    from pcsreg.geometry import heading_vec
    from pcsreg.frames import FrameInstance
    from pcsreg.prepositions import PREPOSITION_ORDER, _axis

    fr = FrameInstance(FrameKind.EGOCENTRIC, "speaker", heading_vec(heading))
    front, behind, left, right = (_axis(prep, fr) for prep in PREPOSITION_ORDER)
    assert front == fr.front_axis
    assert dot(front, right) == 0.0
    assert right == quarter_right(front)
    assert behind == (-front[0], -front[1])
    assert left == (-right[0], -right[1])


def test_update_unoriented_takes_right_neighbor_row(default_prefs):
    types = [LandmarkType.UNORIENTED_OBJECT, LandmarkType.ORIENTED_OBJECT]
    state = tuple(default_prefs.row(lt) for lt in types)
    updated = update_preferences(state, types)
    assert updated[0] == (0.045, 0.045, 0.905, 0.005)
    assert updated[1] == default_prefs.row(LandmarkType.ORIENTED_OBJECT)


def test_update_single_unit_chain_is_identity(default_prefs):
    types = [LandmarkType.ORIENTED_OBJECT]
    state = tuple(default_prefs.row(lt) for lt in types)
    updated = update_preferences(state, types)
    assert updated == state


def test_update_propagates_right_to_left(default_prefs):
    # Hand-iterated: each pass shifts the right neighbor's current row into
    # any unoriented unit; after two passes all units hold the speaker row.
    types = [
        LandmarkType.UNORIENTED_OBJECT,
        LandmarkType.UNORIENTED_OBJECT,
        LandmarkType.SPEAKER,
    ]
    unoriented = default_prefs.row(LandmarkType.UNORIENTED_OBJECT)
    speaker = default_prefs.row(LandmarkType.SPEAKER)
    s0 = tuple(default_prefs.row(lt) for lt in types)
    s1 = update_preferences(s0, types)
    assert s1 == (unoriented, speaker, speaker)
    s2 = update_preferences(s1, types)
    assert s2 == (speaker, speaker, speaker)
    s3 = update_preferences(s2, types)
    assert s3 == s2


def test_update_rejects_length_mismatch(default_prefs):
    state = (default_prefs.row(LandmarkType.SPEAKER),)
    with pytest.raises(FrameError):
        update_preferences(state, [LandmarkType.SPEAKER, LandmarkType.SPEAKER])


@given(
    st.lists(st.sampled_from(list(LandmarkType)), min_size=0, max_size=6),
)
def test_update_reaches_fixed_point_within_chain_length(types):
    base = default_preferences()
    state = tuple(base.row(lt) for lt in types)
    k = len(types)
    for _ in range(k):
        state = update_preferences(state, types)
    settled = update_preferences(state, types)
    assert settled == state


def test_preference_file_round_trip(tmp_path, default_prefs):
    path = tmp_path / "prefs.json"
    path.write_text(json.dumps(preferences_to_dict(default_prefs)))
    assert load_preferences(path).rows == default_prefs.rows


def test_array_text_is_rejected_at_the_document_root():
    with pytest.raises(FrameError, match="preference document must be of type object"):
        load_preferences("[]")


def test_preference_file_renormalizes_small_drift(tmp_path):
    doc = {
        "speaker": [1.0, 0.0, 0.0, 0.0],
        "listener": [0.04080001, 0.9592, 0.0, 0.0],
        "oriented_object": [0.045, 0.045, 0.905, 0.005],
        "unoriented_object": [0.6667, 0.2014, 0.1181, 0.0138],
    }
    table = load_preferences(json.dumps(doc))
    assert abs(sum(table.row(LandmarkType.LISTENER)) - 1.0) <= 1e-9


def test_preference_file_rejects_large_drift():
    doc = {
        "speaker": [1.0, 0.0, 0.0, 0.0],
        "listener": [0.2, 0.9592, 0.0, 0.0],
        "oriented_object": [0.045, 0.045, 0.905, 0.005],
        "unoriented_object": [0.6667, 0.2014, 0.1181, 0.0138],
    }
    with pytest.raises(FrameError):
        load_preferences(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge"])
def test_preference_file_rejects_non_finite_entries(bad):
    doc = {
        "speaker": [1.0, 0.0, 0.0, 0.0],
        "listener": [bad, 0.9592, 0.0, 0.0],
        "oriented_object": [0.045, 0.045, 0.905, 0.005],
        "unoriented_object": [0.6667, 0.2014, 0.1181, 0.0138],
    }
    with pytest.raises(FrameError, match="row 'listener' must contain finite numbers"):
        load_preferences(json.dumps(doc))


def test_canonical_frame_order():
    assert [k.value for k in FRAME_ORDER] == [
        "egocentric",
        "addressee",
        "intrinsic",
        "extrinsic",
    ]
    assert FrameKind.EGOCENTRIC.order < FrameKind.ADDRESSEE.order < FrameKind.INTRINSIC.order < FrameKind.EXTRINSIC.order


def test_applicable_frames_order_origins_and_intrinsic(blocks_car_scene):
    at_car = applicable_frames(blocks_car_scene.entity("car1"), blocks_car_scene)
    assert [f.kind for f in at_car] == list(FRAME_ORDER)
    assert [f.origin_entity for f in at_car] == ["speaker", "listener", "car1", None]
    assert at_car == tuple(
        frame_instance(kind, blocks_car_scene, "car1") for kind in FRAME_ORDER
    )
    # Intrinsic only at oriented objects: not at an unoriented block, and not
    # at the agents, although they have headings.
    for eid in ("blk_a", "speaker", "listener"):
        frames = applicable_frames(blocks_car_scene.entity(eid), blocks_car_scene)
        assert [f.kind for f in frames] == [
            FrameKind.EGOCENTRIC,
            FrameKind.ADDRESSEE,
            FrameKind.EXTRINSIC,
        ]
        assert [f.origin_entity for f in frames] == ["speaker", "listener", None]


def _frame_table_scenes():
    scenes = [load_scene(DEMO / name) for name in ("two_blocks_car.json", "facing_pair_square.json")]
    for objects in ((3, 8), (16, 30)):
        scenes += [sample_scene(derive_seed(5, "frames", objects, i), objects=objects) for i in range(6)]
    return scenes


def test_applicable_frames_equal_fresh_frame_instances():
    for scene in _frame_table_scenes():
        for e in scene.entities:
            fresh = tuple(
                frame_instance(kind, scene, e.id)
                for kind in FRAME_ORDER
                if kind is not FrameKind.INTRINSIC or supports_intrinsic(e)
            )
            assert applicable_frames(e, scene) == fresh
        # One instance per shared kind, built once with its margin.
        assert list(scene.frames) == [FrameKind.EGOCENTRIC, FrameKind.ADDRESSEE, FrameKind.EXTRINSIC]
        for kind, (frame, margin) in scene.frames.items():
            assert frame == frame_instance(kind, scene)
            assert margin == sign_margin(scene.table, frame.front_axis)
            assert all(
                f is frame for e in scene.entities for f in applicable_frames(e, scene) if f.kind is kind
            )


def test_scenes_that_differ_in_the_speaker_heading_share_no_frame_table():
    scene = sample_scene(derive_seed(5, "turned"))
    turned = turn_speaker(scene, 0.25)
    for s in (scene, turned):
        applicable_frames(s.speaker, s)
    assert scene.frames is not turned.frames
    assert shared_frame(FrameKind.EGOCENTRIC, scene)[0] == frame_instance(FrameKind.EGOCENTRIC, scene)
    assert shared_frame(FrameKind.EGOCENTRIC, turned)[0] == frame_instance(FrameKind.EGOCENTRIC, turned)
    assert scene.frames[FrameKind.EGOCENTRIC] != turned.frames[FrameKind.EGOCENTRIC]
    assert scene.frames[FrameKind.ADDRESSEE] == turned.frames[FrameKind.ADDRESSEE]


def test_frame_instance_returns_a_fresh_instance(blocks_car_scene):
    shared = shared_frame(FrameKind.EGOCENTRIC, blocks_car_scene)[0]
    fresh = frame_instance(FrameKind.EGOCENTRIC, blocks_car_scene)
    assert fresh == shared and fresh is not shared


def test_enum_order_is_a_member_attribute():
    assert [k.order for k in FrameKind] == [0, 1, 2, 3]
    assert [p.order for p in Preposition] == [0, 1, 2, 3]
    assert all("order" in vars(member) for member in (*FrameKind, *Preposition))


@pytest.mark.parametrize("enum_type", [FrameKind, Preposition, EntityKind, LandmarkType])
def test_enum_members_hash_by_identity(enum_type):
    assert enum_type.__hash__ is object.__hash__
    for member in enum_type:
        assert hash(member) == object.__hash__(member)


def test_preferences_reject_unknown_row():
    doc = {
        "speaker": [1.0, 0.0, 0.0, 0.0],
        "listener": [0.0, 1.0, 0.0, 0.0],
        "oriented_object": [0.0, 0.0, 1.0, 0.0],
        "unoriented_object": [1.0, 0.0, 0.0, 0.0],
        "robot": [1.0, 0.0, 0.0, 0.0],
    }
    with pytest.raises(FrameError, match="'robot'"):
        preferences_from_dict(doc)
