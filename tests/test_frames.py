import json
import math

import pytest
from hypothesis import given, strategies as st

from pcsreg.frames import (
    FRAME_ORDER,
    FrameError,
    FrameKind,
    PreferenceState,
    applicable_frames,
    default_preferences,
    frame_instance,
    preferences_from_dict,
    load_preferences,
    preference_entropy,
    update_preferences,
)
from pcsreg.geometry import dot, quarter_right
from pcsreg.scene import LandmarkType

# Entropy of the unoriented-object default row, frozen from an independent
# term-by-term base-2 evaluation.
UNORIENTED_ROW_ENTROPY = 1.3048033432837949


def test_default_rows_match_elicited_ratios():
    prefs = default_preferences()
    assert prefs.row(LandmarkType.SPEAKER) == (1.0, 0.0, 0.0, 0.0)
    assert prefs.row(LandmarkType.LISTENER) == (0.0408, 0.9592, 0.0, 0.0)
    assert prefs.row(LandmarkType.ORIENTED_OBJECT) == (0.045, 0.045, 0.905, 0.005)
    assert prefs.row(LandmarkType.UNORIENTED_OBJECT) == (0.6667, 0.2014, 0.1181, 0.0138)


def test_rows_are_stochastic():
    for lt in LandmarkType:
        row = default_preferences().row(lt)
        assert abs(sum(row) - 1.0) <= 1e-9
        assert all(0.0 <= v <= 1.0 for v in row)


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

    fr = FrameInstance(FrameKind.EGOCENTRIC, "speaker", heading_vec(heading))
    assert dot(fr.front_axis, fr.right_axis) == 0.0
    assert fr.right_axis == quarter_right(fr.front_axis)
    assert fr.behind_axis == (-fr.front_axis[0], -fr.front_axis[1])
    assert fr.left_axis == (-fr.right_axis[0], -fr.right_axis[1])


def test_update_unoriented_takes_right_neighbor_row(default_prefs):
    types = [LandmarkType.UNORIENTED_OBJECT, LandmarkType.ORIENTED_OBJECT]
    state = PreferenceState(tuple(default_prefs.row(lt) for lt in types))
    updated = update_preferences(state, types)
    assert updated.distributions[0] == (0.045, 0.045, 0.905, 0.005)
    assert updated.distributions[1] == default_prefs.row(LandmarkType.ORIENTED_OBJECT)


def test_update_single_unit_chain_is_identity(default_prefs):
    types = [LandmarkType.ORIENTED_OBJECT]
    state = PreferenceState(tuple(default_prefs.row(lt) for lt in types))
    updated = update_preferences(state, types)
    assert updated.distributions == state.distributions


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
    s0 = PreferenceState(tuple(default_prefs.row(lt) for lt in types))
    s1 = update_preferences(s0, types)
    assert s1.distributions == (unoriented, speaker, speaker)
    s2 = update_preferences(s1, types)
    assert s2.distributions == (speaker, speaker, speaker)
    s3 = update_preferences(s2, types)
    assert s3.distributions == s2.distributions


def test_update_rejects_length_mismatch(default_prefs):
    state = PreferenceState((default_prefs.row(LandmarkType.SPEAKER),))
    with pytest.raises(FrameError):
        update_preferences(state, [LandmarkType.SPEAKER, LandmarkType.SPEAKER])


@given(
    st.lists(st.sampled_from(list(LandmarkType)), min_size=0, max_size=6),
)
def test_update_reaches_fixed_point_within_chain_length(types):
    base = default_preferences()
    state = PreferenceState(tuple(base.row(lt) for lt in types))
    k = len(types)
    for _ in range(k):
        state = update_preferences(state, types)
    settled = update_preferences(state, types)
    assert settled.distributions == state.distributions


def test_preference_file_round_trip(tmp_path, default_prefs):
    from pcsreg.frames import preferences_to_dict

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


def test_state_validates_rows():
    with pytest.raises(FrameError):
        PreferenceState(((0.5, 0.1, 0.1, 0.1),))


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
