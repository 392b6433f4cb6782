"""Reference frames, preference tables, and the content-window update.

Four frame kinds are supported.  Each instantiated frame contributes a front
axis; the remaining direction axes are exact quarter turns of it, so the
projective semantics for any frame is a 90-degree rotation of any other.
The egocentric, addressee and extrinsic frames do not depend on the
landmark, so a scene builds each of them, with its sign margin, once: on
first use, into ``scene.frames`` (``shared_frame``).  ``FrameKind.order``
is a plain member attribute, set as the class is created.

Preference tables give, per landmark category, the probability that a
listener adopts each frame kind.  The shipped defaults come from an
elicitation study of tabletop instructions; they are configuration, not
code, and can be replaced from a JSON file.
"""

from __future__ import annotations

import enum
import functools
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .geometry import Vec, heading_vec, ordered_sum
from .scene import (
    Entity,
    LandmarkType,
    Scene,
    TableExtent,
    check_document,
    landmark_type,
    read_json,
)

ROW_SUM_TOL = 1e-9
FILE_ROW_SUM_TOL = 1e-6


class FrameError(ValueError):
    pass


class FrameKind(enum.Enum):
    """Canonical ordering (used for tie-breaking) follows declaration order;
    ``order`` is the member's index in it."""

    EGOCENTRIC = "egocentric"
    ADDRESSEE = "addressee"
    INTRINSIC = "intrinsic"
    EXTRINSIC = "extrinsic"

    def __init__(self, value: str):
        self.order = len(type(self).__members__)  # the members declared before this one

    __hash__ = object.__hash__  # identity, as Enum's equality


FRAME_ORDER: tuple[FrameKind, ...] = tuple(FrameKind)


@dataclass(frozen=True)
class FrameInstance:
    """A frame kind bound to a concrete origin in a scene.

    ``front_axis`` is the origin's view direction (scene north for the
    extrinsic frame); ``prepositions`` derives the other axes from it.
    """

    kind: FrameKind
    origin_entity: str | None
    front_axis: Vec


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


def sign_margin(table: TableExtent, front: Vec) -> float:
    """The margin M outside which the signs of the diagonal projections
    decide the relation under the front axis ``front`` for centroids inside
    ``table`` (``prepositions`` module docstring); ``Scene`` keeps the
    corners finite."""
    (x0, y0), (x1, y1) = table.min_corner, table.max_corner
    extent = max(1.0, abs(x0), abs(y0), abs(x1), abs(y1))
    return 1e-9 * extent * (abs(front[0]) + abs(front[1]))


_SHARED_KINDS = (FrameKind.EGOCENTRIC, FrameKind.ADDRESSEE, FrameKind.EXTRINSIC)


def shared_frame(kind: FrameKind, scene: Scene) -> tuple[FrameInstance, float]:
    """The scene's egocentric, addressee or extrinsic frame with its
    ``sign_margin``: built on first use and kept in ``scene.frames``."""
    entry = scene.frames.get(kind)
    if entry is None:
        frame = frame_instance(kind, scene)
        entry = scene.frames[kind] = frame, sign_margin(scene.table, frame.front_axis)
    return entry


def frame_margin(frame: FrameInstance, scene: Scene) -> float:
    """``sign_margin`` of ``frame`` in ``scene``, read from ``scene.frames``
    when ``frame`` is one of its frames."""
    entry = scene.frames.get(frame.kind)
    if entry is not None and entry[0] is frame:
        return entry[1]
    return sign_margin(scene.table, frame.front_axis)


def applicable_frames(landmark: Entity, scene: Scene) -> tuple[FrameInstance, ...]:
    """The frames a listener can adopt at ``landmark``, in ``FRAME_ORDER``.

    Egocentric and addressee frames originate at the speaker and the
    listener, the extrinsic frame has no origin, and the intrinsic frame is
    applicable only at an oriented object, which is its origin.  The
    others are the scene's ``shared_frame`` instances.
    """
    frames = [shared_frame(kind, scene)[0] for kind in _SHARED_KINDS]
    if supports_intrinsic(landmark):
        frames.insert(2, frame_instance(FrameKind.INTRINSIC, scene, landmark.id))
    return tuple(frames)


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

_FILE_KEYS = {lt.value: lt for lt in LandmarkType}


def _renormalize(row: Sequence[float]) -> Row:
    s = ordered_sum(row)
    return tuple(float(v) / s for v in row)  # type: ignore[return-value]


@dataclass(frozen=True)
class PreferenceTable:
    """Per landmark-type probability distribution over frame kinds.

    ``rows`` is stored as a read-only copy, so a table can be shared.  Each
    row meets ``PREFS_SCHEMA`` and sums to 1 within ``ROW_SUM_TOL``, entries <= 1.
    """

    rows: Mapping[LandmarkType, Row]

    def __post_init__(self):
        if not isinstance(self.rows, Mapping):
            raise preference_error((), f"must be of type object, got {reprlib.repr(self.rows)}")
        rows = MappingProxyType(dict(self.rows))
        object.__setattr__(self, "rows", rows)
        doc = {lt.value: rows[lt] for lt in LandmarkType if lt in rows}
        check_document(doc, PREFS_SCHEMA, preference_error)
        for key, row in doc.items():
            if max(row) > 1.0 or abs(ordered_sum(row) - 1.0) > ROW_SUM_TOL:
                raise FrameError(f"row {key!r} must sum to 1 within {ROW_SUM_TOL}, entries <= 1")

    def row(self, lt: LandmarkType) -> Row:
        return self.rows[lt]


@functools.cache
def default_preferences() -> PreferenceTable:
    """The built-in table, built once and shared by every caller."""
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
        if abs(ordered_sum(doc[key]) - 1.0) > FILE_ROW_SUM_TOL:
            raise FrameError(f"row {key!r} must sum to 1 within {FILE_ROW_SUM_TOL}")
    return PreferenceTable({lt: _renormalize(doc[key]) for key, lt in _FILE_KEYS.items()})


def load_preferences(source: Union[str, Path]) -> PreferenceTable:
    """Load a preference table from a path or JSON text."""
    return preferences_from_dict(read_json(source, FrameError))


def preference_entropy(p: Sequence[float]) -> float:
    """Shannon entropy in bits; 0*lg(0) taken as 0.

    Only the ordering of entropies matters to landmark prioritization, and
    the ordering is invariant under a change of log base.
    """
    if abs(ordered_sum(p) - 1.0) > ROW_SUM_TOL:
        raise FrameError(f"distribution does not sum to 1: {p}")
    if any(v < 0 for v in p):
        raise FrameError(f"distribution has negative entries: {p}")
    return -ordered_sum(v * math.log2(v) for v in p if v > 0.0)


def update_preferences(
    distributions: tuple[Row, ...], chain_types: Sequence[LandmarkType]
) -> tuple[Row, ...]:
    """One simultaneous content-window update of the per-unit distributions.

    ``distributions`` holds one row per relation unit of a landmark chain,
    the leftmost (shallowest) unit first and the chain anchor last.  The
    window couples each unit to its neighbor one step to the right in the
    surface string: a unit whose landmark has no orientation adopts the
    current distribution of that neighbor (the next-deeper unit).  All other
    units, and the rightmost unit, are unchanged.
    """
    if len(distributions) != len(chain_types):
        raise FrameError(
            f"{len(distributions)} distributions for a chain of length {len(chain_types)}"
        )
    new = list(distributions)
    for i, lt in enumerate(chain_types[:-1]):
        if lt is LandmarkType.UNORIENTED_OBJECT:
            new[i] = distributions[i + 1]
    return tuple(new)
