import math

import pytest
from hypothesis import given, strategies as st

from pcsreg.frames import FrameInstance, FrameKind, frame_instance
from pcsreg.geometry import heading_vec, rotate
from pcsreg.prepositions import (
    PREPOSITION_ORDER,
    CoincidentPointsError,
    Preposition,
    membership,
    memberships,
    relation,
)

EGO_UP = FrameInstance(FrameKind.EGOCENTRIC, "speaker", (0.0, 1.0))

COS45 = math.sqrt(2.0) / 2.0


def test_membership_at_canonical_directions():
    assert membership((0.0, 1.0), (0.0, 0.0), Preposition.FRONT, EGO_UP) == pytest.approx(1.0)
    assert membership((0.0, 1.0), (0.0, 0.0), Preposition.BEHIND, EGO_UP) == 0.0
    assert membership((1.0, 0.0), (0.0, 0.0), Preposition.RIGHT, EGO_UP) == pytest.approx(1.0)
    assert membership((-1.0, 0.0), (0.0, 0.0), Preposition.LEFT, EGO_UP) == pytest.approx(1.0)


def test_membership_diagonal_splits_between_adjacent():
    # Halfway between front and right both degrees equal cos 45deg.
    target = (1.0, 1.0)
    assert membership(target, (0.0, 0.0), Preposition.FRONT, EGO_UP) == pytest.approx(COS45)
    assert membership(target, (0.0, 0.0), Preposition.RIGHT, EGO_UP) == pytest.approx(COS45)
    assert membership(target, (0.0, 0.0), Preposition.BEHIND, EGO_UP) == 0.0
    assert membership(target, (0.0, 0.0), Preposition.LEFT, EGO_UP) == 0.0


def test_membership_rejects_coincident_points():
    with pytest.raises(CoincidentPointsError):
        membership((0.0, 0.0), (0.0, 0.0), Preposition.FRONT, EGO_UP)
    with pytest.raises(CoincidentPointsError):
        relation((0.0, 0.0), (1e-9, 0.0), EGO_UP)


def test_relation_square_scene(facing_square_scene):
    scene = facing_square_scene
    listener_frame = frame_instance(FrameKind.ADDRESSEE, scene)
    speaker_frame = frame_instance(FrameKind.EGOCENTRIC, scene)
    c = scene.entity("c")
    assert relation(scene.entity("a"), c, listener_frame) is Preposition.FRONT
    assert relation(scene.entity("d"), c, speaker_frame) is Preposition.FRONT
    assert relation(scene.entity("a"), c, speaker_frame) is Preposition.BEHIND
    assert relation(scene.entity("b"), c, speaker_frame) is Preposition.RIGHT
    assert relation(scene.entity("b"), c, listener_frame) is Preposition.LEFT


def test_relation_tie_on_boundary_prefers_canonical_order():
    tie = relation((1.0, 1.0), (0.0, 0.0), EGO_UP)
    assert tie is Preposition.FRONT  # front beats right on the exact boundary
    assert relation((1.0, -1.0), (0.0, 0.0), EGO_UP) is Preposition.BEHIND
    assert relation((-1.0, -1.0), (0.0, 0.0), EGO_UP) is Preposition.BEHIND
    assert relation((-1.0, 1.0), (0.0, 0.0), EGO_UP) is Preposition.FRONT


angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
radii = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@given(angles, radii, angles)
def test_partition_exactly_one_relation(theta, r, head):
    frame = FrameInstance(FrameKind.EGOCENTRIC, None, heading_vec(head))
    target = (r * math.cos(theta), r * math.sin(theta))
    result = relation(target, (0.0, 0.0), frame)
    assert result in PREPOSITION_ORDER
    degrees = memberships(target, (0.0, 0.0), frame)
    assert max(m.degree for m in degrees) == pytest.approx(
        membership(target, (0.0, 0.0), result, frame)
    )


@given(angles, radii, angles, angles)
def test_rotation_equivariance(theta, r, head, rot):
    # Rotating scene and frame together leaves the relation unchanged
    # (checked away from the quadrant boundaries where ties flip).
    frame = FrameInstance(FrameKind.EGOCENTRIC, None, heading_vec(head))
    target = (r * math.cos(theta), r * math.sin(theta))
    degrees = sorted(m.degree for m in memberships(target, (0.0, 0.0), frame))
    if abs(degrees[-1] - degrees[-2]) < 1e-6:
        return  # boundary: tie-break direction is not rotation-equivariant
    rotated_frame = FrameInstance(FrameKind.EGOCENTRIC, None, rotate(frame.front_axis, rot))
    assert relation(rotate(target, rot), (0.0, 0.0), rotated_frame) is relation(
        target, (0.0, 0.0), frame
    )


@given(angles, radii, st.floats(min_value=0.001, max_value=1000.0, allow_nan=False))
def test_scale_invariance(theta, r, scale):
    frame = EGO_UP
    target = (r * math.cos(theta), r * math.sin(theta))
    scaled = (target[0] * scale, target[1] * scale)
    for prep in PREPOSITION_ORDER:
        assert membership(scaled, (0.0, 0.0), prep, frame) == pytest.approx(
            membership(target, (0.0, 0.0), prep, frame), abs=1e-9
        )
    assert relation(scaled, (0.0, 0.0), frame) is relation(target, (0.0, 0.0), frame)


QUARTER_MAP = {
    Preposition.FRONT: Preposition.RIGHT,
    Preposition.RIGHT: Preposition.BEHIND,
    Preposition.BEHIND: Preposition.LEFT,
    Preposition.LEFT: Preposition.FRONT,
}


@given(angles, radii)
def test_quarter_turn_consistency(theta, r):
    # A frame rotated +90deg sees the previous front as its right, etc.
    frame = EGO_UP
    target = (r * math.cos(theta), r * math.sin(theta))
    degrees = sorted(m.degree for m in memberships(target, (0.0, 0.0), frame))
    if abs(degrees[-1] - degrees[-2]) < 1e-6:
        return
    turned = FrameInstance(FrameKind.EGOCENTRIC, None, (-frame.front_axis[1], frame.front_axis[0]))
    assert relation(target, (0.0, 0.0), turned) is QUARTER_MAP[
        relation(target, (0.0, 0.0), frame)
    ]


@given(angles, radii, angles)
def test_at_most_two_positive_memberships(theta, r, head):
    frame = FrameInstance(FrameKind.EGOCENTRIC, None, heading_vec(head))
    target = (r * math.cos(theta), r * math.sin(theta))
    positive = [m for m in memberships(target, (0.0, 0.0), frame) if m.degree > 1e-12]
    assert 1 <= len(positive) <= 2


def test_membership_accepts_entities(blocks_car_scene):
    a = blocks_car_scene.entity("blk_a")
    car = blocks_car_scene.entity("car1")
    ego = frame_instance(FrameKind.EGOCENTRIC, blocks_car_scene)
    assert relation(a, car, ego) is Preposition.LEFT
    assert relation(blocks_car_scene.entity("blk_b"), car, ego) is Preposition.RIGHT
