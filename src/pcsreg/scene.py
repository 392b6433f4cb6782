"""Immutable world model: entities, agents, table extent, scene file I/O.

A scene is a flat list of entities on a table plane.  Two of the entities
are the conversation participants (speaker and listener); they can serve as
landmarks but never as reference targets.  Everything is validated on
construction so no partially built scene can escape.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Union

from .geometry import Vec, distance

# Minimum centroid separation (meters); projective angles are undefined for
# coincident points.
MIN_SEPARATION = 1e-6

UNIT_NORM_TOL = 1e-9


class SceneError(ValueError):
    """Scene document rejected; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class EntityKind(enum.Enum):
    OBJECT = "object"
    SPEAKER = "speaker"
    LISTENER = "listener"


class LandmarkType(enum.Enum):
    """Landmark category that indexes reference-frame preference rows."""

    SPEAKER = "speaker"
    LISTENER = "listener"
    ORIENTED_OBJECT = "oriented_object"
    UNORIENTED_OBJECT = "unoriented_object"


@dataclass(frozen=True)
class Entity:
    id: str
    kind: EntityKind
    category: str
    centroid: Vec
    color: str | None = None
    shape: str | None = None
    heading: float | None = None  # radians, CCW from +x; None = no orientation

    @property
    def referable_as_target(self) -> bool:
        return self.kind is EntityKind.OBJECT

    @property
    def oriented(self) -> bool:
        return self.heading is not None


def landmark_type(entity: Entity) -> LandmarkType:
    """Classify an entity for preference-table lookup (total function)."""
    if entity.kind is EntityKind.SPEAKER:
        return LandmarkType.SPEAKER
    if entity.kind is EntityKind.LISTENER:
        return LandmarkType.LISTENER
    if entity.oriented:
        return LandmarkType.ORIENTED_OBJECT
    return LandmarkType.UNORIENTED_OBJECT


@dataclass(frozen=True)
class TableExtent:
    min_corner: Vec
    max_corner: Vec

    def contains(self, p: Vec) -> bool:
        return (
            self.min_corner[0] <= p[0] <= self.max_corner[0]
            and self.min_corner[1] <= p[1] <= self.max_corner[1]
        )


@dataclass(frozen=True)
class Scene:
    entities: tuple[Entity, ...]
    table: TableExtent
    north: Vec = (0.0, 1.0)
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        _validate(self)
        object.__setattr__(self, "_by_id", {e.id: e for e in self.entities})

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise KeyError(f"no entity with id {entity_id!r}") from None

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    @property
    def speaker(self) -> Entity:
        return next(e for e in self.entities if e.kind is EntityKind.SPEAKER)

    @property
    def listener(self) -> Entity:
        return next(e for e in self.entities if e.kind is EntityKind.LISTENER)

    def objects(self) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.kind is EntityKind.OBJECT)

    def referable_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities if e.referable_as_target)


def _validate(scene: Scene) -> None:
    seen: set[str] = set()
    for i, e in enumerate(scene.entities):
        if e.id in seen:
            raise SceneError(f"entities[{i}].id", f"duplicate id {e.id!r}")
        seen.add(e.id)
        if e.kind in (EntityKind.SPEAKER, EntityKind.LISTENER) and e.heading is None:
            raise SceneError(f"entities[{i}].heading", f"{e.kind.value} must have a heading")
    for kind in (EntityKind.SPEAKER, EntityKind.LISTENER):
        n = sum(1 for e in scene.entities if e.kind is kind)
        if n == 0:
            raise SceneError("entities", f"missing {kind.value}")
        if n > 1:
            raise SceneError("entities", f"more than one {kind.value}")
    for i, e in enumerate(scene.entities):
        if not scene.table.contains(e.centroid):
            raise SceneError(
                f"entities[{i}].pos", f"centroid {e.centroid} outside table extent"
            )
        for other in scene.entities[:i]:
            if distance(e.centroid, other.centroid) < MIN_SEPARATION:
                raise SceneError(
                    f"entities[{i}].pos",
                    f"centroid collides with entity {other.id!r} (separation < {MIN_SEPARATION})",
                )
    if abs(math.hypot(*scene.north) - 1.0) > UNIT_NORM_TOL:
        raise SceneError("north", f"must be a unit vector, got {scene.north}")
    if not (
        scene.table.min_corner[0] < scene.table.max_corner[0]
        and scene.table.min_corner[1] < scene.table.max_corner[1]
    ):
        raise SceneError("table", "min corner must be strictly below max corner")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SceneError(f"{path}.{key}", "missing required field")
    return doc[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite(number) -> bool:
    """Whether an int or float converts to a finite float."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


def _point(value, path: str) -> Vec:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_number(v) for v in value)
    ):
        raise SceneError(path, f"expected [x, y] numbers, got {value!r}")
    if not all(is_finite(v) for v in value):
        raise SceneError(path, f"coordinates must be finite, got {value!r}")
    return (float(value[0]), float(value[1]))


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("$", "scene document must be a JSON object")
    table_doc = _require(doc, "table", "$")
    if not isinstance(table_doc, dict):
        raise SceneError("table", "must be an object with 'min' and 'max'")
    table = TableExtent(
        _point(_require(table_doc, "min", "table"), "table.min"),
        _point(_require(table_doc, "max", "table"), "table.max"),
    )
    north = _point(doc["north"], "north") if "north" in doc else (0.0, 1.0)

    raw_entities = _require(doc, "entities", "$")
    if not isinstance(raw_entities, list):
        raise SceneError("entities", "must be a list")
    entities = []
    for i, raw in enumerate(raw_entities):
        path = f"entities[{i}]"
        if not isinstance(raw, dict):
            raise SceneError(path, "entity must be an object")
        eid = _require(raw, "id", path)
        if not isinstance(eid, str) or not eid:
            raise SceneError(f"{path}.id", "must be a non-empty string")
        kind_raw = _require(raw, "kind", path)
        try:
            kind = EntityKind(kind_raw)
        except ValueError:
            raise SceneError(f"{path}.kind", f"unknown kind {kind_raw!r}") from None
        category = _require(raw, "category", path)
        if not isinstance(category, str) or not category:
            raise SceneError(f"{path}.category", "must be a non-empty string")
        pos = _point(_require(raw, "pos", path), f"{path}.pos")
        heading = raw.get("heading")
        if heading is not None and not _is_number(heading):
            raise SceneError(f"{path}.heading", "must be a number or null")
        if heading is not None and not is_finite(heading):
            raise SceneError(f"{path}.heading", f"must be finite, got {heading!r}")
        for attr in ("color", "shape"):
            v = raw.get(attr)
            if v is not None and not isinstance(v, str):
                raise SceneError(f"{path}.{attr}", "must be a string or null")
        entities.append(
            Entity(
                id=eid,
                kind=kind,
                category=category,
                centroid=pos,
                color=raw.get("color"),
                shape=raw.get("shape"),
                heading=None if heading is None else float(heading),
            )
        )
    return Scene(entities=tuple(entities), table=table, north=north)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "north": [scene.north[0], scene.north[1]],
        "table": {
            "min": list(scene.table.min_corner),
            "max": list(scene.table.max_corner),
        },
        "entities": [
            {
                "id": e.id,
                "kind": e.kind.value,
                "category": e.category,
                "color": e.color,
                "shape": e.shape,
                "pos": [e.centroid[0], e.centroid[1]],
                "heading": e.heading,
            }
            for e in scene.entities
        ],
    }


def read_json(source: Union[str, Path, bytes, IO], invalid: Callable[[str], Exception]):
    """Parse the JSON document in ``source``.

    ``source`` may be a filesystem path, raw JSON text/bytes, or an open
    file object.  Text that is not JSON raises ``invalid(message)``.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    elif isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    elif hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        raise TypeError(f"unsupported document source: {type(source)!r}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise invalid(f"not valid JSON: {exc}") from None


def load_scene(source: Union[str, Path, bytes, IO]) -> Scene:
    """Load and validate a scene from a JSON document (see ``read_json``).

    Entity order is preserved from the document.
    """
    return scene_from_dict(read_json(source, lambda message: SceneError("$", message)))


def dump_scene(scene: Scene) -> str:
    """Serialize a scene to canonical JSON (round-trips through load_scene)."""
    return json.dumps(scene_to_dict(scene), indent=2, sort_keys=True)


def attribute_vocabulary(scene: Scene) -> dict[str, set[str]]:
    """Lowercased category/color/shape vocabularies present in the scene."""
    vocab: dict[str, set[str]] = {"category": set(), "color": set(), "shape": set()}
    for e in scene.entities:
        vocab["category"].add(e.category.lower())
        if e.color:
            vocab["color"].add(e.color.lower())
        if e.shape:
            vocab["shape"].add(e.shape.lower())
    return vocab
