"""Projective preposition semantics over centroids, decided by crisp quadrants.

The model is angle-only: the degree to which a target lies in a direction
from a landmark is the clamped cosine of the angular deviation from that
direction's canonical axis in the active reference frame.  Distance plays no
role, so membership is invariant under scaling about the landmark, and the
crisp relation partitions the plane into four quadrants around the frame's
axes: its front axis and the exact half and quarter turns of it (``_axis``).

The model reads only the crisp relation.  ``membership`` computes one
fuzzy degree and is the reference that tests and the benchmark read.
``_quadrant`` computes the crisp relation of one pair from the degrees, bit
for bit, and is the exact reference for ``relation``.  Tests hold it to
``membership``.

The quadrant boundaries are the frame's two 45-degree diagonals, so with
front (fx, fy) and right (fy, -fx) the relation of a displacement d follows
from the signs of u = d.(front + right) and v = d.(front - right): front
when both are positive, behind when both are negative, left when u < 0 < v
and right when v < 0 < u; u > 0 alone puts it in front or right, and v > 0
in front or left.  ``partitions`` decides each pair by these signs when |u|
and |v| both exceed the margin M = ``scene.margin_scale`` * (|fx| + |fy|),
the scale being 1e-9 * max(1, C) for C the largest |coordinate| of a table
corner, and calls ``_quadrant`` on every other pair.  A candidate landmark
in ``generator.select_landmark`` is compared with the band between the
target's and a distractor's projections on each diagonal, and only within
M of an edge goes to ``_quadrant``.  Beyond M, a sign gives its answer:

- u / (|d| |front|) is f + r and v / (|d| |front|) is f - r, where f and r
  are ``_quadrant``'s degrees toward front and right, and the largest
  degree exceeds both degrees on the other side of u's diagonal by at
  least |f + r|, and of v's by |f - r|.  ``Scene`` keeps every centroid
  inside the table, so |d| <= 2 sqrt(2) max(1, C); with |front| <=
  |fx| + |fy| that gap exceeds 1e-9 / (2 sqrt(2)), about 3.5e-10, so
  neither ``RELATION_TIE_TOL`` (1e-12) nor the rounding of f and r (about
  1e-16) can change the answer.
- ``Scene`` bounds C by ``_FLOAT_MAX`` / 8, so under a unit front axis
  every displacement, projected point, band edge, u and v is at most
  4 sqrt(2) C in size: none overflows, here or in ``_quadrant``.
- u and v computed in floating point, from the displacement or as the
  difference of two projected points, and a projected point compared with
  another's plus or minus M, are off by about 1e-15 * C * (|fx| + |fy|),
  far below M, so their signs are those of the exact u and v of the
  displacement that ``_quadrant`` would be given.

The sign path skips ``_quadrant``'s coincidence check: ``Scene`` validation
already rejects any two centroids closer than ``MIN_SEPARATION``, measured
by the same ``math.hypot``.  No u, v or projection is non-finite.

``partitions`` reads the frames that every landmark shares from
``scene.frames``, where ``frames.frame_instance``, the one frame binder,
builds each once per scene.  ``Preposition.order`` is a plain member
attribute, set as the class is created.

Topological prepositions ("near") carry no frame dependence and are outside
this model; the expression parser rejects them.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .frames import FrameInstance, applicable_frames
from .geometry import Vec, dot, norm, opposite, quarter_left, quarter_right, sub
from .scene import MIN_SEPARATION, Entity, Scene

RELATION_TIE_TOL = 1e-12


class CoincidentPointsError(ValueError):
    pass


def coincident(dist: float) -> CoincidentPointsError:
    """The error for a target and landmark ``dist`` apart, under ``MIN_SEPARATION``."""
    return CoincidentPointsError(
        f"target and landmark are coincident (separation {dist} < {MIN_SEPARATION})"
    )


class Preposition(enum.Enum):
    """Canonical ordering (tie-breaks) follows declaration order; ``order``
    is the member's index in it."""

    FRONT = "front"
    BEHIND = "behind"
    LEFT = "left"
    RIGHT = "right"

    def __init__(self, value: str):
        self.order = len(type(self).__members__)  # the members declared before this one

    __hash__ = object.__hash__  # identity, as Enum's equality


PREPOSITION_ORDER: tuple[Preposition, ...] = tuple(Preposition)


def _axis(prep: Preposition, frame: FrameInstance) -> Vec:
    """The preposition's canonical axis: front, or an exact quarter or half
    turn of it, with right the viewer's right seen from above."""
    front = frame.front_axis
    if prep is Preposition.FRONT:
        return front
    if prep is Preposition.BEHIND:
        return opposite(front)
    if prep is Preposition.LEFT:
        return quarter_left(front)
    return quarter_right(front)


def membership(target, landmark_point, prep: Preposition, frame: FrameInstance) -> float:
    """Degree in [0, 1] to which ``target`` lies toward ``prep`` of the landmark.

    ``target`` and ``landmark_point`` may be entities or raw points.
    """
    t = target.centroid if isinstance(target, Entity) else target
    o = landmark_point.centroid if isinstance(landmark_point, Entity) else landmark_point
    d = sub(t, o)
    dist = norm(d)
    if dist < MIN_SEPARATION:
        raise coincident(dist)
    axis = _axis(prep, frame)
    cos_theta = dot(d, axis) / (dist * norm(axis))
    return max(0.0, min(1.0, cos_theta))


def relation(target, landmark, frame: FrameInstance) -> Preposition:
    """The maximal-membership preposition for the pair under ``frame``.

    Ties within RELATION_TIE_TOL (the 45-degree quadrant boundaries) break
    to the canonically earlier preposition, so the result is a total,
    deterministic function of the geometry.  ``target`` and ``landmark``
    may be entities or raw points.
    """
    t = target.centroid if isinstance(target, Entity) else target
    o = landmark.centroid if isinstance(landmark, Entity) else landmark
    fx, fy = frame.front_axis
    return PREPOSITION_ORDER[_quadrant(t[0] - o[0], t[1] - o[1], fx, fy)]


def _quadrant(dx: float, dy: float, fx: float, fy: float) -> int:
    """The ``PREPOSITION_ORDER`` index of ``relation`` for the displacement
    (dx, dy) under the front axis (fx, fy).

    The behind, left and right axes are exact sign flips and coordinate
    swaps of front, so two dot products give the four ``membership``
    degrees bit for bit: (f, -f, -r, r) in canonical order, where the
    right axis is ``quarter_right(front) == (fy, -fx)``.
    """
    dist = math.hypot(dx, dy)
    if dist < MIN_SEPARATION:
        raise coincident(dist)
    scale = dist * math.hypot(fx, fy)
    f = (dx * fx + dy * fy) / scale
    r = (dx * fy + dy * -fx) / scale
    # The degrees are max(0, min(1, x)) for x in (f, -f, -r, r).  Their
    # maximum is min(1, max(|f|, |r|)), at least cos 45°, so 0 < floor < 1
    # and a degree reaches floor exactly when its unclamped x does.
    floor = min(1.0, max(abs(f), abs(r))) - RELATION_TIE_TOL
    if f >= floor:
        return 0
    if -f >= floor:
        return 1
    if -r >= floor:
        return 2
    return 3


class Partition(NamedTuple):
    """Every other entity's relation to one landmark under one frame."""

    frame: FrameInstance
    members: tuple[tuple[str, ...], ...]  # ids per preposition, in PREPOSITION_ORDER

    def relation_of(self, entity_id: str) -> Preposition:
        """The relation of ``entity_id``, which must not be the landmark."""
        for prep, ids in zip(PREPOSITION_ORDER, self.members):
            if entity_id in ids:
                return prep
        raise KeyError(f"no relation for {entity_id!r}")


def partitions(landmark: Entity, scene: Scene) -> tuple[Partition, ...]:
    """``relation(e, landmark, frame)`` for every entity ``e`` but the landmark,
    under each frame of ``applicable_frames(landmark, scene)``, in that order.

    Each partition lists the ids in each preposition in scene entity order.
    Computed once per landmark and kept in ``scene.relations``.  Each
    displacement is computed once for all frames and decided by the signs
    of its diagonal projections, with ``_quadrant`` inside the tie band
    (module docstring).
    """
    memo = scene.relations
    parts = memo.get(landmark.id)
    if parts is None:
        lx, ly = landmark.centroid
        others = [
            (e.id, e.centroid[0] - lx, e.centroid[1] - ly)
            for e in scene.entities
            if e.id != landmark.id
        ]
        built = []
        for frame in applicable_frames(landmark, scene):
            fx, fy = frame.front_axis
            a, b = fx + fy, fy - fx  # front + right; front - right is (-b, a)
            m = scene.margin_scale * (abs(fx) + abs(fy))
            nm = -m
            members: tuple[list[str], ...] = ([], [], [], [])
            for eid, dx, dy in others:
                u = dx * a + dy * b
                v = dy * a - dx * b
                if (u > m or u < nm) and (v > m or v < nm):
                    q = (0 if v > 0 else 3) if u > 0 else (2 if v > 0 else 1)
                else:
                    q = _quadrant(dx, dy, fx, fy)
                members[q].append(eid)
            built.append(Partition(frame, tuple(map(tuple, members))))
        parts = memo[landmark.id] = tuple(built)
    return parts


# Exact surface strings.  Plain forms take a full NP landmark; the speaker /
# listener forms are used when the landmark is a conversation participant.
PLAIN_SURFACE: dict[Preposition, str] = {
    Preposition.FRONT: "in front of",
    Preposition.BEHIND: "behind",
    Preposition.LEFT: "to the left of",
    Preposition.RIGHT: "to the right of",
}

SPEAKER_SURFACE: dict[Preposition, str] = {
    Preposition.FRONT: "in front of me",
    Preposition.BEHIND: "behind me",
    Preposition.LEFT: "on my left",
    Preposition.RIGHT: "on my right",
}

LISTENER_SURFACE: dict[Preposition, str] = {
    Preposition.FRONT: "in front of you",
    Preposition.BEHIND: "behind you",
    Preposition.LEFT: "on your left",
    Preposition.RIGHT: "on your right",
}

# Frame-independent spatial terms we explicitly do not model.
TOPOLOGICAL_MARKERS: tuple[tuple[str, ...], ...] = (
    ("near",),
    ("next", "to"),
    ("beside",),
    ("close", "to"),
)
