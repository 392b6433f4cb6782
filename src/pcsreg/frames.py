"""Reference frames, preference tables, and the content-window update.

Four frame kinds are supported.  Each instantiated frame contributes a front
axis; the remaining direction axes are exact quarter turns of it, so the
projective semantics for any frame is a 90-degree rotation of any other.

Preference tables give, per landmark category, the probability that a
listener adopts each frame kind.  The shipped defaults come from an
elicitation study of tabletop instructions; they are configuration, not
code, and can be replaced from a JSON file.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

from .geometry import Vec, heading_vec, opposite, quarter_left, quarter_right
from .scene import Entity, LandmarkType, Scene, check_document, landmark_type, read_json

ROW_SUM_TOL = 1e-9
FILE_ROW_SUM_TOL = 1e-6


class FrameError(ValueError):
    pass


class FrameKind(enum.Enum):
    """Canonical ordering (used for tie-breaking) follows declaration order."""

    EGOCENTRIC = "egocentric"
    ADDRESSEE = "addressee"
    INTRINSIC = "intrinsic"
    EXTRINSIC = "extrinsic"

    @property
    def order(self) -> int:
        return FRAME_ORDER.index(self)


FRAME_ORDER: tuple[FrameKind, ...] = (
    FrameKind.EGOCENTRIC,
    FrameKind.ADDRESSEE,
    FrameKind.INTRINSIC,
    FrameKind.EXTRINSIC,
)


@dataclass(frozen=True)
class FrameInstance:
    """A frame kind bound to a concrete origin in a scene.

    ``front_axis`` is the origin's view direction (scene north for the
    extrinsic frame).  Right is the viewer's right seen from above, i.e. a
    clockwise quarter turn of front.
    """

    kind: FrameKind
    origin_entity: str | None
    front_axis: Vec

    @property
    def right_axis(self) -> Vec:
        return quarter_right(self.front_axis)

    @property
    def behind_axis(self) -> Vec:
        return opposite(self.front_axis)

    @property
    def left_axis(self) -> Vec:
        return quarter_left(self.front_axis)


def frame_instance(
    kind: FrameKind, scene: Scene, intrinsic_origin: str | None = None
) -> FrameInstance:
    """Bind a frame kind to the scene.

    The intrinsic frame requires ``intrinsic_origin`` naming an oriented
    object; the other kinds ignore it.
    """
    if kind is FrameKind.EGOCENTRIC:
        e = scene.speaker
        return FrameInstance(kind, e.id, heading_vec(e.heading))
    if kind is FrameKind.ADDRESSEE:
        e = scene.listener
        return FrameInstance(kind, e.id, heading_vec(e.heading))
    if kind is FrameKind.EXTRINSIC:
        return FrameInstance(kind, None, scene.north)
    # intrinsic
    if intrinsic_origin is None:
        raise FrameError("intrinsic frame requires an origin entity")
    origin = scene.entity(intrinsic_origin)
    if not supports_intrinsic(origin):
        raise FrameError(
            f"intrinsic frame origin {intrinsic_origin!r} is not an oriented object"
        )
    return FrameInstance(kind, origin.id, heading_vec(origin.heading))


def supports_intrinsic(entity) -> bool:
    """An entity anchors an intrinsic frame iff it is an oriented object."""
    return landmark_type(entity) is LandmarkType.ORIENTED_OBJECT


def applicable_frames(landmark: Entity, scene: Scene) -> tuple[FrameInstance, ...]:
    """The frames a listener can adopt at ``landmark``, in ``FRAME_ORDER``.

    Egocentric and addressee frames originate at the speaker and the
    listener, the extrinsic frame has no origin, and the intrinsic frame is
    applicable only at an oriented object, which is its origin.
    """
    return tuple(
        frame_instance(kind, scene, landmark.id)
        for kind in FRAME_ORDER
        if kind is not FrameKind.INTRINSIC or supports_intrinsic(landmark)
    )


Row = tuple[float, float, float, float]

# Frame-kind usage ratios per landmark category, elicited from human
# tabletop instructions.  Order: (egocentric, addressee, intrinsic,
# extrinsic).  Rows are renormalized exactly on construction.
_DEFAULT_ROWS: dict[LandmarkType, Row] = {
    LandmarkType.SPEAKER: (1.0, 0.0, 0.0, 0.0),
    LandmarkType.LISTENER: (0.0408, 0.9592, 0.0, 0.0),
    LandmarkType.ORIENTED_OBJECT: (0.045, 0.045, 0.905, 0.005),
    LandmarkType.UNORIENTED_OBJECT: (0.6667, 0.2014, 0.1181, 0.0138),
}

_FILE_KEYS = {
    "speaker": LandmarkType.SPEAKER,
    "listener": LandmarkType.LISTENER,
    "oriented_object": LandmarkType.ORIENTED_OBJECT,
    "unoriented_object": LandmarkType.UNORIENTED_OBJECT,
}


def _renormalize(row: Sequence[float]) -> Row:
    s = float(sum(row))
    return tuple(float(v) / s for v in row)  # type: ignore[return-value]


@dataclass(frozen=True)
class PreferenceTable:
    """Per landmark-type probability distribution over frame kinds."""

    rows: dict[LandmarkType, Row]

    def __post_init__(self):
        for lt in LandmarkType:
            if lt not in self.rows:
                raise FrameError(f"preference table missing row for {lt.value}")
            row = self.rows[lt]
            if len(row) != len(FRAME_ORDER):
                raise FrameError(f"row {lt.value} must have {len(FRAME_ORDER)} entries")
            if any(v < 0.0 or v > 1.0 for v in row):
                raise FrameError(f"row {lt.value} has entries outside [0, 1]: {row}")
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                raise FrameError(f"row {lt.value} does not sum to 1: {row}")

    def row(self, lt: LandmarkType) -> Row:
        return self.rows[lt]


def default_preferences() -> PreferenceTable:
    return PreferenceTable({lt: _renormalize(row) for lt, row in _DEFAULT_ROWS.items()})


PREFS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Preferences",
    "type": "object",
    "required": list(_FILE_KEYS),
    "additionalProperties": False,
    "properties": {
        key: {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 4,
            "maxItems": 4,
            "description": "order: egocentric, addressee, intrinsic, extrinsic; sums to 1 within 1e-6",
        }
        for key in _FILE_KEYS
    },
}


def preference_error(path: tuple, message: str) -> FrameError:
    """The error for a preference document whose ``path`` breaks ``PREFS_SCHEMA``."""
    return FrameError(f"row {path[0]!r} {message}" if path else f"preference document {message}")


def preferences_from_dict(doc: dict) -> PreferenceTable:
    """Check ``doc`` against ``PREFS_SCHEMA`` and the row sums, then build the table."""
    check_document(doc, PREFS_SCHEMA, preference_error)
    for key in _FILE_KEYS:
        if abs(sum(doc[key]) - 1.0) > FILE_ROW_SUM_TOL:
            raise FrameError(f"row {key!r} must sum to 1 within {FILE_ROW_SUM_TOL}")
    return PreferenceTable({lt: _renormalize(doc[key]) for key, lt in _FILE_KEYS.items()})


def load_preferences(source: Union[str, Path, bytes, IO]) -> PreferenceTable:
    """Load a preference table from a path, JSON text or bytes, or an open file."""
    return preferences_from_dict(read_json(source, FrameError))


def preferences_to_dict(table: PreferenceTable) -> dict:
    return {key: list(table.row(lt)) for key, lt in _FILE_KEYS.items()}


def preference_entropy(p: Sequence[float]) -> float:
    """Shannon entropy in bits; 0*lg(0) taken as 0.

    Only the ordering of entropies matters to landmark prioritization, and
    the ordering is invariant under a change of log base.
    """
    if abs(sum(p) - 1.0) > ROW_SUM_TOL:
        raise FrameError(f"distribution does not sum to 1: {p}")
    if any(v < 0 for v in p):
        raise FrameError(f"distribution has negative entries: {p}")
    return -sum(v * math.log2(v) for v in p if v > 0.0)


@dataclass(frozen=True)
class PreferenceState:
    """Per relation-unit preference distributions for one landmark chain.

    Index 0 is the leftmost (shallowest) unit; the last index is the chain
    anchor.
    """

    distributions: tuple[Row, ...]

    def __post_init__(self):
        for row in self.distributions:
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                raise FrameError(f"unit distribution does not sum to 1: {row}")


def update_preferences(
    state: PreferenceState, chain_types: Sequence[LandmarkType]
) -> PreferenceState:
    """One simultaneous content-window update of the per-unit distributions.

    The window couples each unit to its neighbor one step to the right in
    the surface string: a unit whose landmark has no orientation adopts the
    current distribution of that neighbor (the next-deeper unit).  All other
    units, and the rightmost unit, are unchanged.
    """
    if len(state.distributions) != len(chain_types):
        raise FrameError(
            f"state length {len(state.distributions)} does not match chain length {len(chain_types)}"
        )
    old = state.distributions
    new = list(old)
    for i, lt in enumerate(chain_types):
        if lt is LandmarkType.UNORIENTED_OBJECT and i + 1 < len(old):
            new[i] = old[i + 1]
    return PreferenceState(tuple(new))
