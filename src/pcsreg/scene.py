"""Immutable world model: entities, agents, table extent, scene file I/O.

A scene is a flat list of entities on a table plane.  Two of the entities
are the conversation participants (speaker and listener); they can serve as
landmarks but never as reference targets.  Everything is validated on
construction so no partially built scene can escape, and the scene carries
the attribute index and per-landmark relation memo that its readers share.
"""

from __future__ import annotations

import enum
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

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
    kind = entity.kind
    if kind is EntityKind.OBJECT:
        if entity.heading is None:
            return LandmarkType.UNORIENTED_OBJECT
        return LandmarkType.ORIENTED_OBJECT
    if kind is EntityKind.SPEAKER:
        return LandmarkType.SPEAKER
    return LandmarkType.LISTENER


@dataclass(frozen=True)
class TableExtent:
    min_corner: Vec
    max_corner: Vec

    def contains(self, p: Vec) -> bool:
        return (
            self.min_corner[0] <= p[0] <= self.max_corner[0]
            and self.min_corner[1] <= p[1] <= self.max_corner[1]
        )


ATTRIBUTE_SLOTS = ("category", "color", "shape")


@dataclass(frozen=True)
class Scene:
    """Entities on a table, validated on construction.

    Two derived fields sit outside equality, hashing and ``repr`` and hold
    no reference back to the scene, so a scene is freed as soon as its last
    reference goes.  ``attributes`` maps (slot, lowercased value) to the
    ids of the entities with that value in that slot, in scene order.
    ``relations`` holds, per landmark id, the frames and preposition
    partitions of ``prepositions.partitions``, filled as landmarks are
    first used.
    """

    entities: tuple[Entity, ...]
    table: TableExtent
    north: Vec = (0.0, 1.0)
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    speaker: Entity = field(init=False, repr=False, compare=False, hash=False, default=None)
    listener: Entity = field(init=False, repr=False, compare=False, hash=False, default=None)
    _referable_ids: tuple = field(init=False, repr=False, compare=False, hash=False, default=None)
    attributes: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    relations: dict = field(init=False, repr=False, compare=False, hash=False, default_factory=dict)

    def __post_init__(self):
        by_id, speaker, listener, referable = _validate(self)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "speaker", speaker)
        object.__setattr__(self, "listener", listener)
        object.__setattr__(self, "_referable_ids", referable)
        # Tuples of ids and interned values keep the index small: a scene
        # holds it for as long as it lives.
        index: dict[tuple[str, str], list[str]] = {}
        for e in self.entities:
            for slot in ATTRIBUTE_SLOTS:
                value = getattr(e, slot)
                if value is not None:
                    index.setdefault((slot, sys.intern(value.lower())), []).append(e.id)
        object.__setattr__(self, "attributes", {key: tuple(ids) for key, ids in index.items()})

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise KeyError(f"no entity with id {entity_id!r}") from None

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def objects(self) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.kind is EntityKind.OBJECT)

    def referable_ids(self) -> tuple[str, ...]:
        return self._referable_ids


def _validate(scene: Scene) -> tuple[dict, Entity, Entity, tuple[str, ...]]:
    """Raise ``SceneError`` for the first invalid field; otherwise return
    the scene's id index, speaker, listener and referable ids, all found in
    the pass that checks ids and agents."""
    by_id: dict[str, Entity] = {}
    agents: dict[EntityKind, list[Entity]] = {EntityKind.SPEAKER: [], EntityKind.LISTENER: []}
    referable = []
    for i, e in enumerate(scene.entities):
        if e.id in by_id:
            raise SceneError(f"entities[{i}].id", f"duplicate id {e.id!r}")
        by_id[e.id] = e
        if e.kind in agents:
            if e.heading is None:
                raise SceneError(f"entities[{i}].heading", f"{e.kind.value} must have a heading")
            agents[e.kind].append(e)
        if e.referable_as_target:
            referable.append(e.id)
    for kind, found in agents.items():
        if not found:
            raise SceneError("entities", f"missing {kind.value}")
        if len(found) > 1:
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
    return by_id, agents[EntityKind.SPEAKER][0], agents[EntityKind.LISTENER][0], tuple(referable)


SCENE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Scene",
    "type": "object",
    "required": ["table", "entities"],
    "properties": {
        "north": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
            "description": "unit vector; default [0, 1]",
        },
        "table": {
            "type": "object",
            "required": ["min", "max"],
            "properties": {
                "min": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                "max": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            },
        },
        "entities": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "category", "pos"],
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "kind": {"enum": [kind.value for kind in EntityKind]},
                    "category": {"type": "string", "minLength": 1},
                    "color": {"type": ["string", "null"], "minLength": 1},
                    "shape": {"type": ["string", "null"], "minLength": 1},
                    "pos": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
                    "heading": {
                        "type": ["number", "null"],
                        "description": "radians CCW from +x; null = no orientation",
                    },
                },
            },
        },
    },
}


def dotted_path(path: tuple) -> str:
    """``("entities", 0, "pos")`` -> ``"entities[0].pos"``; the root is ``"$"``."""
    text = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return text[1:] or "$"


def _point(value) -> Vec:
    return (float(value[0]), float(value[1]))


def scene_from_dict(doc: dict) -> Scene:
    """Check ``doc`` against ``SCENE_SCHEMA``, then build and validate the scene."""
    check_document(doc, SCENE_SCHEMA, lambda path, message: SceneError(dotted_path(path), message))
    table = doc["table"]
    return Scene(
        entities=tuple(
            Entity(
                id=raw["id"],
                kind=EntityKind(raw["kind"]),
                category=raw["category"],
                centroid=_point(raw["pos"]),
                color=raw.get("color"),
                shape=raw.get("shape"),
                heading=None if raw.get("heading") is None else float(raw["heading"]),
            )
            for raw in doc["entities"]
        ),
        table=TableExtent(_point(table["min"]), _point(table["max"])),
        north=_point(doc["north"]) if "north" in doc else (0.0, 1.0),
    )


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


def parse_json(text: str, invalid: Callable[[str], Exception]):
    """Parse JSON ``text``; text that is not JSON, or is nested too deeply
    for the parser, raises ``invalid(message)``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise invalid(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise invalid("nested too deeply") from None


def read_json(source: Union[str, Path], invalid: Callable[[str], Exception]):
    """``parse_json`` of ``source``: a ``str`` whose first non-blank character
    is ``{`` or ``[`` is JSON text, anything else a filesystem path."""
    if not (isinstance(source, str) and source.lstrip().startswith(("{", "["))):
        source = Path(source).read_text(encoding="utf-8")
    return parse_json(source, invalid)


class _Invalid(Exception):
    """A value breaks its schema; ``path`` gains a key per level while unwinding."""

    def __init__(self, message: str, *key):
        super().__init__(message)
        self.path = list(key)  # innermost key first


# The JSON type of each Python type that ``json.loads`` produces.
_JSON_TYPES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    type(None): "null",
}

_FLOAT_MAX = sys.float_info.max

# A bad item of a list of scalars is reported as the list's fault, naming
# what the list must contain.
_PLURALS = {"number": "finite numbers", "integer": "integers", "string": "strings"}


def _check(value, schema: dict, root: dict) -> None:
    if "$ref" in schema:
        schema = root["definitions"][schema["$ref"].rpartition("/")[2]]
    name = _JSON_TYPES.get(type(value))
    types = schema.get("type")
    if types is not None and name != types:
        names = (types,) if isinstance(types, str) else types
        if name not in names and not (name == "integer" and "number" in names):
            raise _Invalid(f"must be of type {' or '.join(names)}, got {reprlib.repr(value)}")
    if "enum" in schema and value not in schema["enum"]:
        raise _Invalid(f"must be one of {schema['enum']}, got {reprlib.repr(value)}")
    if name == "object":
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise _Invalid("is missing", key)
        for key, needs in schema.get("dependencies", {}).items():
            for other in needs:
                if key in value and other not in value:
                    raise _Invalid(f"is required when {key!r} is present", other)
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    raise _Invalid("is not allowed", key)
        for key, item in value.items():
            sub = properties.get(key)
            if sub is not None:
                try:
                    _check(item, sub, root)
                except _Invalid as exc:
                    exc.path.append(key)
                    raise
    elif name == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        if not lo <= len(value) <= hi:
            raise _Invalid(f"must have [{lo}, {hi}] items, got {reprlib.repr(value)}")
        items = schema.get("items")
        for i, item in enumerate(value if items is not None else ()):
            try:
                _check(item, items, root)
            except _Invalid as exc:
                if "properties" in items:
                    exc.path.append(i)
                    raise
                want = _PLURALS.get(items.get("type"), f"values from {items.get('enum')}")
                if "minimum" in items:
                    want += f" >= {items['minimum']}"
                if "minLength" in items:
                    want += f" of at least {items['minLength']} characters"
                raise _Invalid(f"must contain {want}, got {reprlib.repr(value)}") from None
    elif name == "number" or name == "integer":
        # Also rejects ints beyond the float range, such as 10**400.
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise _Invalid(f"must be finite, got {reprlib.repr(value)}")
        if not schema.get("minimum", value) <= value <= schema.get("maximum", value):
            lo, hi = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
            raise _Invalid(f"must be in [{lo}, {hi}], got {value!r}")
    elif name == "string" and len(value) < schema.get("minLength", 0):
        raise _Invalid(f"must have at least {schema['minLength']} characters, got {value!r}")


def check_document(doc, schema: dict, invalid: Callable[[tuple, str], Exception]) -> None:
    """Raise ``invalid(path, message)`` unless ``doc`` satisfies ``schema``.

    Covers the JSON-schema keywords the document schemas use: ``type``,
    ``enum``, ``minimum``/``maximum``, ``minLength``, ``required``,
    ``dependencies`` (array form), ``properties``,
    ``additionalProperties: false``, ``items``, ``minItems``/``maxItems``
    and ``$ref`` into ``definitions``.  Every number must also be finite.
    ``path`` holds the keys and indexes down to the bad value; a bad item of
    a list of scalars is reported at the list.  A document too deep for the
    check to recurse through is ``invalid((), "nested too deeply")``.
    """
    try:
        _check(doc, schema, schema)
    except _Invalid as exc:
        raise invalid(tuple(reversed(exc.path)), exc.args[0]) from None
    except RecursionError:
        raise invalid((), "nested too deeply") from None


def load_scene(source: Union[str, Path]) -> Scene:
    """Load and validate a scene from a JSON document (see ``read_json``).

    Entity order is preserved from the document.
    """
    return scene_from_dict(read_json(source, lambda message: SceneError("$", message)))


def dump_scene(scene: Scene) -> str:
    """Serialize a scene to canonical JSON (round-trips through load_scene)."""
    return json.dumps(scene_to_dict(scene), indent=2, sort_keys=True)


def attribute_vocabulary(scene: Scene) -> dict[str, set[str]]:
    """Lowercased category/color/shape vocabularies present in the scene."""
    vocab: dict[str, set[str]] = {slot: set() for slot in ATTRIBUTE_SLOTS}
    for slot, value in scene.attributes:
        if value:
            vocab[slot].add(value)
    return vocab
