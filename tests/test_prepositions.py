import itertools
import math

import pytest
from hypothesis import assume, given, strategies as st

from pcsreg.frames import FrameInstance, FrameKind, frame_instance
from helpers import rotate
from pcsreg.geometry import heading_vec, quarter_left
from pcsreg.prepositions import (
    PREPOSITION_ORDER,
    RELATION_TIE_TOL,
    CoincidentPointsError,
    Preposition,
    membership,
    relation,
)
from pcsreg.scene import MIN_SEPARATION

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
    assert [p.value for p in PREPOSITION_ORDER] == ["front", "behind", "left", "right"]
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
    degrees = [membership(target, (0.0, 0.0), p, frame) for p in PREPOSITION_ORDER]
    assert max(degrees) == pytest.approx(
        membership(target, (0.0, 0.0), result, frame)
    )


@given(angles, radii, angles, angles)
def test_rotation_equivariance(theta, r, head, rot):
    # Rotating scene and frame together leaves the relation unchanged
    # (checked away from the quadrant boundaries where ties flip).
    frame = FrameInstance(FrameKind.EGOCENTRIC, None, heading_vec(head))
    target = (r * math.cos(theta), r * math.sin(theta))
    degrees = sorted(membership(target, (0.0, 0.0), p, frame) for p in PREPOSITION_ORDER)
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
    degrees = sorted(membership(target, (0.0, 0.0), p, frame) for p in PREPOSITION_ORDER)
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
    degrees = [membership(target, (0.0, 0.0), p, frame) for p in PREPOSITION_ORDER]
    positive = [d for d in degrees if d > 1e-12]
    assert 1 <= len(positive) <= 2


def test_membership_accepts_entities(blocks_car_scene):
    a = blocks_car_scene.entity("blk_a")
    car = blocks_car_scene.entity("car1")
    ego = frame_instance(FrameKind.EGOCENTRIC, blocks_car_scene)
    assert relation(a, car, ego) is Preposition.LEFT
    assert relation(blocks_car_scene.entity("blk_b"), car, ego) is Preposition.RIGHT


# --- relation against the membership rule -------------------------------------


def membership_rule(target, landmark, frame):
    """The reference rule: the first preposition whose ``membership`` degree
    is within RELATION_TIE_TOL of the maximum."""
    degrees = [membership(target, landmark, p, frame) for p in PREPOSITION_ORDER]
    best = max(degrees)
    return next(p for p, d in zip(PREPOSITION_ORDER, degrees) if d >= best - RELATION_TIE_TOL)


coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
axes = st.tuples(coords, coords).filter(lambda v: math.hypot(*v) > 1e-3)


@given(coords, coords, coords, coords, axes | angles.map(heading_vec))
def test_relation_matches_the_membership_rule(tx, ty, lx, ly, front):
    assume(math.hypot(tx - lx, ty - ly) >= MIN_SEPARATION)
    frame = FrameInstance(FrameKind.EGOCENTRIC, "speaker", front)
    assert relation((tx, ty), (lx, ly), frame) is membership_rule((tx, ty), (lx, ly), frame)


def quarter_turns(front):
    turns = [front]
    for _ in range(3):
        turns.append(quarter_left(turns[-1]))
    return turns


DIAGONAL_FRONTS = quarter_turns((0.0, 1.0)) + [
    f for head in (0.1, 0.5, 1.0, 2.0, 3.0, 4.5, 5.9) for f in quarter_turns(heading_vec(head))
]


@pytest.mark.parametrize("front", DIAGONAL_FRONTS, ids=lambda f: f"({f[0]:.3f},{f[1]:.3f})")
def test_relation_breaks_45_degree_ties_like_the_membership_rule(front):
    # Displacements at every k * 45 degrees from the frame's front axis,
    # built from the axis by sign flips and coordinate swaps.
    fx, fy = front
    frame = FrameInstance(FrameKind.EGOCENTRIC, "speaker", front)
    steps = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for (a, b), radius in itertools.product(steps, [1e-3, 0.37, 1.0, 7.5]):
        d = (radius * (a * fx + b * fy), radius * (a * fy - b * fx))
        for landmark in [(0.0, 0.0), (0.3, -1.2)]:
            target = (landmark[0] + d[0], landmark[1] + d[1])
            assert relation(target, landmark, frame) is membership_rule(target, landmark, frame)
