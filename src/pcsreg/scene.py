"""Immutable world model: entities, agents, table extent, scene file I/O.

A scene is a flat list of entities on a table plane.  Two of the entities
are the conversation participants (speaker and listener); they can serve as
landmarks but never as reference targets.  Every scene is validated on
construction, its types once, by ``SCENE_SCHEMA``, so no partially built
scene can escape, and it carries what its readers share: the attribute
index, the per-landmark relation memo and the table of frames that every
landmark shares, the last two filled on first use.  Each document schema is
compiled once per process, on its first ``check_document``, into tables
that map a value's Python type to the tests of its JSON type's keywords,
so a value costs one lookup plus its own tests.  ``json_text`` is the one
writer of every JSON document the package prints or saves; it writes only
JSON values as ``check_document`` reads them, the exact types of
``_JSON_TYPES`` with every number finite.
"""

from __future__ import annotations

import enum
import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Union

from .geometry import Vec, distance

# Minimum centroid separation (meters); projective angles are undefined for
# coincident points.
MIN_SEPARATION = 1e-6

UNIT_NORM_TOL = 1e-9

# A number is finite when ``abs(value) <= _FLOAT_MAX``: NaN, infinities and
# ints such as 10**400 fail.
_FLOAT_MAX = sys.float_info.max

# Finds a code point in U+D800-U+DFFF: ``json.loads`` reads the escape
# ``"\ud800"`` as one, a lone surrogate, which no UTF-8 output can encode.
_SURROGATE = re.compile(r"[\ud800-\udfff]").search


class SceneError(ValueError):
    """Scene document rejected; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class EntityKind(enum.Enum):
    OBJECT = "object"
    SPEAKER = "speaker"
    LISTENER = "listener"

    __hash__ = object.__hash__  # identity, as Enum's equality


class LandmarkType(enum.Enum):
    """Landmark category that indexes reference-frame preference rows."""

    SPEAKER = "speaker"
    LISTENER = "listener"
    ORIENTED_OBJECT = "oriented_object"
    UNORIENTED_OBJECT = "unoriented_object"

    __hash__ = object.__hash__


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


ATTRIBUTE_SLOTS = ("category", "color", "shape")


@dataclass(frozen=True)
class Scene:
    """Entities on a table, validated on construction.

    Checked against ``SCENE_SCHEMA`` over its document (``scene_to_dict``),
    then by the semantic rules (``_validate``).  Points given as lists are
    stored as tuples, so such a scene equals and hashes like one built from
    tuples.  Four derived fields sit outside equality, hashing and ``repr``
    and hold no reference back to the scene, so it is freed with its last
    reference.  ``attributes`` maps (slot, lowercased value) to the ids of
    the entities with that value in that slot, in scene order.
    ``relations`` holds, per landmark id, the frames and preposition
    partitions of ``prepositions.partitions``, filled as landmarks are first
    used.  ``frames`` holds the frames that every landmark shares, filled on
    first use by ``frames.frame_instance``, the one frame binder.
    ``margin_scale`` is 1e-9 * max(1, C), C the largest |coordinate| of a
    table corner; times |fx| + |fy| it is the sign margin of front axis
    (fx, fy) (``prepositions``).
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
    frames: dict = field(init=False, repr=False, compare=False, hash=False, default_factory=dict)
    margin_scale: float = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        for name, value in zip(_VALIDATED, _validate(self)):
            object.__setattr__(self, name, value)

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


class _TypesChecked(tuple):
    """Entities of a scene whose types, table and ``north`` included, meet
    ``SCENE_SCHEMA``; as a ``Scene``'s ``entities`` they skip the type checks."""


# Each attribute slot, in scene order, and the slot that may not share its
# words in one scene: ``resolver.parse_expression`` reads a word before
# the category as a color when the scene has it as one, so a shape that is
# also a color would not read back.
_RIVAL_SLOTS = (("category", None), ("color", "shape"), ("shape", "color"))

# The fields that ``_validate`` returns, in order.
_VALIDATED = (
    "entities", "table", "north", "_by_id", "speaker", "listener", "_referable_ids", "attributes",
    "margin_scale",
)


def _validate(scene: Scene) -> tuple:
    """Raise ``SceneError`` for the first invalid field; otherwise return
    the fields of ``_VALIDATED``: the entities (a plain tuple), table and
    north with every point a tuple, and the scene's id index, speaker,
    listener, referable ids and attribute index, all built in the one pass
    over the entities that checks them, and the table's margin scale.

    Types come first, unless the entities are ``_TypesChecked``: the rules
    with no JSON form (the table is a ``TableExtent``, each entity an
    ``Entity`` with an ``EntityKind``), then ``SCENE_SCHEMA`` over
    ``scene_to_dict``, which holds a value of the wrong type as it is, for
    the schema to report.  Then the semantic rules: min corner below max,
    corners within ``_FLOAT_MAX / 8`` (``prepositions``), a unit ``north``,
    each entity in scene order (first that its color or shape is no
    earlier shape or color, ``_RIVAL_SLOTS``), and last a missing agent.
    """
    table = scene.table
    if type(scene.entities) is not _TypesChecked:
        if not isinstance(table, TableExtent):
            raise SceneError("table", f"must be a TableExtent, got {reprlib.repr(table)}")
        if type(scene.entities) in (tuple, list):
            for i, e in enumerate(scene.entities):
                if not isinstance(e, Entity):
                    raise SceneError(f"entities[{i}]", f"must be an Entity, got {reprlib.repr(e)}")
                if not isinstance(e.kind, EntityKind):
                    raise SceneError(f"entities[{i}].kind", f"must be an EntityKind, got {e.kind!r}")
        check_document(scene_to_dict(scene), SCENE_SCHEMA, _scene_error)
    low, high = table.min_corner, table.max_corner
    if not (low[0] < high[0] and low[1] < high[1]):
        raise SceneError("table", "min corner must be strictly below max corner")
    reach = max(abs(low[0]), abs(low[1]), abs(high[0]), abs(high[1]))
    if reach > _FLOAT_MAX / 8:
        raise SceneError("table", f"corner coordinates must lie within +-{_FLOAT_MAX / 8!r}, got {reach!r}")
    if not abs(math.hypot(*scene.north) - 1.0) <= UNIT_NORM_TOL:
        raise SceneError("north", f"must be a 2-d unit vector, got {reprlib.repr(scene.north)}")
    if type(low) is not tuple or type(high) is not tuple:
        table = TableExtent(tuple(low), tuple(high))
    by_id: dict[str, Entity] = {}
    agents: dict[EntityKind, Entity | None] = {EntityKind.SPEAKER: None, EntityKind.LISTENER: None}
    referable = []
    # Tuples of ids and interned values keep the index small: a scene
    # holds it for as long as it lives.
    index: dict[tuple[str, str], list[str]] = {}
    for i, e in enumerate(scene.entities):
        for slot, rival in _RIVAL_SLOTS:
            value = getattr(e, slot)
            if value is not None:
                word = sys.intern(value.lower())
                if rival is not None:
                    owners = index.get((rival, word))
                    if owners is not None:
                        raise SceneError(
                            f"entities[{i}].{slot}",
                            f"{value!r} is the {rival} of entity {owners[0]!r}; a word may be a "
                            "color or a shape in one scene, not both",
                        )
                index.setdefault((slot, word), []).append(e.id)
        if not (low[0] <= e.centroid[0] <= high[0] and low[1] <= e.centroid[1] <= high[1]):
            raise SceneError(f"entities[{i}].pos", f"centroid {e.centroid} outside table extent")
        if type(e.centroid) is not tuple:
            e = replace(e, centroid=tuple(e.centroid))
        if e.id in by_id:
            raise SceneError(f"entities[{i}].id", f"duplicate id {e.id!r}")
        if e.kind in agents:
            if e.heading is None:
                raise SceneError(f"entities[{i}].heading", f"{e.kind.value} must have a heading")
            if agents[e.kind] is not None:
                raise SceneError("entities", f"more than one {e.kind.value}")
            agents[e.kind] = e
        elif e.referable_as_target:
            referable.append(e.id)
        for other in by_id.values():
            if distance(e.centroid, other.centroid) < MIN_SEPARATION:
                raise SceneError(
                    f"entities[{i}].pos",
                    f"centroid collides with entity {other.id!r} (separation < {MIN_SEPARATION})",
                )
        by_id[e.id] = e
    for kind, found in agents.items():
        if found is None:
            raise SceneError("entities", f"missing {kind.value}")
    attributes = {key: tuple(ids) for key, ids in index.items()}
    speaker, listener = agents.values()
    entities = tuple(by_id.values())
    scale = 1e-9 * max(1.0, reach)
    return entities, table, tuple(scene.north), by_id, speaker, listener, tuple(referable), attributes, scale


# Every word of ``prepositions``' surfaces and topological markers, which
# ``resolver.parse_expression`` reads as part of a marker, not of a noun
# phrase.  (This module cannot import ``prepositions``; a test checks that
# the list holds exactly those words.)
MARKER_WORDS = (
    "behind", "beside", "close", "front", "in", "left", "me", "my", "near", "next", "of", "on",
    "right", "the", "to", "you", "your",
)

# A category, color or shape value: one token, which is no marker word in
# any letter case, so the text ``generate`` realizes parses back.  The
# pattern is a search, as JSON Schema's: its first lookahead rejects any
# whitespace, the second a whole marker word, written as ``[Bb][Ee]...``
# because a JSON Schema pattern has no case-insensitive flag.
ATTRIBUTE_VALUE = {
    "type": "string",
    "minLength": 1,
    "pattern": r"^(?![\s\S]*\s)(?!(?:%s)$)"
    % "|".join("".join(f"[{c.upper()}{c}]" for c in word) for word in MARKER_WORDS),
    "description": "a single word that no preposition or marker uses, in any letter case",
}

SCENE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Scene",
    "type": "object",
    "required": ["table", "entities"],
    "additionalProperties": False,
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
            "additionalProperties": False,
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
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "kind": {"enum": [kind.value for kind in EntityKind]},
                    "category": ATTRIBUTE_VALUE,
                    "color": {**ATTRIBUTE_VALUE, "type": ["string", "null"]},
                    "shape": {**ATTRIBUTE_VALUE, "type": ["string", "null"]},
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


def _scene_error(path: tuple, message: str) -> SceneError:
    return SceneError(dotted_path(path), message)


def _point(value) -> Vec:
    return (float(value[0]), float(value[1]))


_KINDS = {kind.value: kind for kind in EntityKind}


def scene_from_dict(doc: dict) -> Scene:
    """Check ``doc`` against ``SCENE_SCHEMA``, then build the scene, whose
    types the schema has checked, and check its semantic rules."""
    check_document(doc, SCENE_SCHEMA, _scene_error)
    table = doc["table"]
    return Scene(
        entities=_TypesChecked(
            Entity(
                id=raw["id"],
                kind=_KINDS[raw["kind"]],
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
    """The scene's document: each point is the tuple the scene holds, which
    ``json_text`` writes as an array.  A value of the wrong type, entities
    that are no tuple or list included, is held as it is, so
    ``check_document`` can report it."""
    entities = scene.entities
    if type(entities) in (tuple, list):
        entities = [
            {"id": e.id, "kind": e.kind.value, "category": e.category, "color": e.color,
             "shape": e.shape, "pos": e.centroid, "heading": e.heading} for e in entities
        ]
    table = scene.table
    return {"table": {"min": table.min_corner, "max": table.max_corner}, "north": scene.north,
            "entities": entities}


def parse_json(text: str, invalid: Callable[[str], Exception]):
    """Parse JSON ``text``; text that is not JSON, holds an integer too long
    for ``int``, or is nested too deeply for the parser, raises
    ``invalid(message)``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise invalid(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise invalid("nested too deeply") from None


def read_json(source: Union[str, Path], invalid: Callable[[str], Exception]):
    """``parse_json`` of ``source``: a ``str`` whose first non-blank character
    is ``{`` or ``[`` is JSON text, anything else a filesystem path, which
    is wrapped in ``Path`` unless it is one."""
    if not (isinstance(source, str) and source.lstrip().startswith(("{", "["))):
        path = source if isinstance(source, Path) else Path(source)
        source = path.read_text(encoding="utf-8")
    return parse_json(source, invalid)


class _Invalid(Exception):
    """A value breaks its schema; ``path`` gains a key per level while unwinding."""

    def __init__(self, message: str, *key):
        super().__init__(message)
        self.path = list(key)  # innermost key first


# The JSON type of each Python type that ``json.loads`` produces, and of
# a tuple, which ``json_text`` writes as an array: a JSON value, to the
# checks and the writer alike, is one of these exact types.
_JSON_TYPES = {
    dict: "object",
    list: "array",
    tuple: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    type(None): "null",
}

class _Checks(dict):
    """A compiled schema: each Python type of ``_JSON_TYPES`` maps to the
    test of its JSON type's keywords, or to None where nothing is left to
    check; any other type, a subclass included, gets ``other``."""

    __slots__ = ("other",)

    def __missing__(self, kind):
        return self.other


def _compile(schema: dict, root: dict, refs: dict) -> _Checks:
    """``schema`` as a ``_Checks`` table whose tests raise ``_Invalid`` for
    a value that breaks it.  A ``$ref`` is its definition's one table,
    compiled on the first reference and kept in ``refs`` (shared by every
    reference into ``root``); the table is registered before the definition
    is compiled into it, so a recursive definition points at its own table
    and a recursive document costs one call per level."""
    if "$ref" in schema:
        name = schema["$ref"].rpartition("/")[2]
        checks = refs.get(name)
        if checks is None:
            checks = refs[name] = _Checks()
            definition = _compile(root["definitions"][name], root, refs)
            checks.update(definition)
            checks.other = definition.other
        return checks

    checks = _Checks()
    types = schema.get("type")
    names = (types,) if isinstance(types, str) else types
    allowed = None if types is None else {*names, *(["integer"] if "number" in names else [])}
    enum = schema.get("enum")
    properties = {key: _compile(sub, root, refs) for key, sub in schema.get("properties", {}).items()}
    required = schema.get("required", ())
    needs = [(key, other) for key, rest in schema.get("dependencies", {}).items() for other in rest]
    closed = schema.get("additionalProperties") is False
    lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
    unique = schema.get("uniqueItems")
    items = schema.get("items")
    # A list of plain numbers is checked in one loop, without a call per
    # item; its first bad item is left to the per-item checks to report.
    plain = items is not None and items.keys() <= {"type", "minimum", "maximum"}
    numbers = None
    if plain and items.get("type") in ("number", "integer"):
        numbers = (int,) if items["type"] == "integer" else (int, float)
        item_least, item_most = items.get("minimum", -math.inf), items.get("maximum", math.inf)
    each = None if items is None else _compile(items, root, refs)
    least, most = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
    min_length = schema.get("minLength", 0)
    search = re.compile(schema["pattern"]).search if "pattern" in schema else None

    def wrong_type(value):
        raise _Invalid(f"must be of type {' or '.join(names)}, got {reprlib.repr(value)}")

    def check_object(value):
        for key in required:
            if key not in value:
                raise _Invalid("is missing", key)
        for key, other in needs:
            if key in value and other not in value:
                raise _Invalid(f"is required when {key!r} is present", other)
        if closed:
            for key in value:
                if key not in properties:
                    raise _Invalid("is not allowed", key)
        for key, item in value.items():
            sub = properties.get(key)
            if sub is not None:
                test = sub[type(item)]
                if test is not None:
                    try:
                        test(item)
                    except _Invalid as exc:
                        exc.path.append(key)
                        raise

    def check_array(value):
        if not lo <= len(value) <= hi:
            raise _Invalid(f"must have [{lo}, {hi}] items, got {reprlib.repr(value)}")
        if unique and any(item in value[:i] for i, item in enumerate(value)):
            raise _Invalid(f"must not repeat an item, got {reprlib.repr(value)}")
        if numbers:
            for item in value:
                if type(item) not in numbers or not (
                    abs(item) <= _FLOAT_MAX and item_least <= item <= item_most
                ):
                    break
            else:
                return
        if each is not None:
            for i, item in enumerate(value):
                test = each[type(item)]
                if test is not None:
                    try:
                        test(item)
                    except _Invalid as exc:
                        exc.path.append(i)
                        raise

    def check_number(value):
        if not abs(value) <= _FLOAT_MAX:
            raise _Invalid(f"must be finite, got {reprlib.repr(value)}")
        if not least <= value <= most:
            raise _Invalid(f"must be in [{least}, {most}], got {value!r}")

    def check_string(value):
        if not value.isascii() and _SURROGATE(value):
            raise _Invalid(f"must not hold a lone surrogate, got {reprlib.repr(value)}")
        if len(value) < min_length:
            raise _Invalid(f"must have at least {min_length} characters, got {value!r}")
        if search is not None and not search(value):
            raise _Invalid(f"must be {schema['description']}, got {reprlib.repr(value)}")

    # Each JSON type's test, None where its keywords are absent; every
    # number and string is tested, since every number must be finite and
    # no string may hold a lone surrogate.
    tests = {
        "object": check_object if required or needs or closed or properties else None,
        "array": check_array if lo or hi < math.inf or unique or items is not None else None,
        "number": check_number,
        "integer": check_number,
        "string": check_string,
        "boolean": None,
        "null": None,
    }
    other = None if allowed is None else wrong_type
    if enum is not None:

        def in_enum(test):
            def check(value):
                if value not in enum:
                    raise _Invalid(f"must be one of {enum}, got {reprlib.repr(value)}")
                if test is not None:
                    test(value)

            return check

        tests = {name: in_enum(test) for name, test in tests.items()}
        other = other or in_enum(None)
    for kind, name in _JSON_TYPES.items():
        checks[kind] = tests[name] if allowed is None or name in allowed else wrong_type
    checks.other = other
    return checks


# Each schema's compiled check, keyed by the schema's identity.  An entry
# holds its schema, so the id stays that schema's.
_COMPILED: dict[int, tuple[dict, _Checks]] = {}


def check_document(doc, schema: dict, invalid: Callable[[tuple, str], Exception]) -> None:
    """Raise ``invalid(path, message)`` unless ``doc`` satisfies ``schema``.

    Covers the JSON-schema keywords the document schemas use: ``type``,
    ``enum``, ``minimum``/``maximum``, ``minLength``, ``pattern`` (a
    search, so a pattern anchors itself to match the whole string; its
    schema's ``description`` names the rule in the message), ``required``,
    ``dependencies`` (array form), ``properties``,
    ``additionalProperties: false``, ``items``, ``minItems``/``maxItems``,
    ``uniqueItems`` and ``$ref`` into ``definitions``.  Every number must
    also be finite, no string may hold a code point in U+D800-U+DFFF (a
    lone surrogate, which no UTF-8 output can encode; a valid pair loads
    as one code point), and a tuple counts as an array.  A value of any
    other Python type, a subclass of these included, breaks a schema with
    ``type`` and meets only ``enum`` otherwise.  Every fault is reported
    where it is, in the words of the check it broke: ``path`` holds the keys
    and indexes down to the bad value, an item of a list of scalars
    included.  A document too deep for the check to recurse through is
    ``invalid((), "nested too deeply")``.

    A schema is compiled on its first use and the result kept for the
    life of the process, keyed by the schema object's identity: callers
    pass module-level schemas, and never change one after its first use.
    The compiled form is a table per schema node from each Python type of
    a JSON type to the tests of that type's keywords (None where none
    applies), so a value costs one lookup plus its own tests; each ``$ref``
    definition is compiled once, into one table that every reference to it,
    its own included, shares.
    """
    entry = _COMPILED.get(id(schema))
    if entry is None:
        entry = _COMPILED[id(schema)] = (schema, _compile(schema, schema, {}))
    test = entry[1][type(doc)]
    try:
        if test is not None:
            test(doc)
    except _Invalid as exc:
        raise invalid(tuple(reversed(exc.path)), exc.args[0]) from None
    except RecursionError:
        raise invalid((), "nested too deeply") from None


def load_scene(source: Union[str, Path]) -> Scene:
    """Load and validate a scene from a JSON document (see ``read_json``).

    Entity order is preserved from the document.
    """
    return scene_from_dict(read_json(source, lambda message: SceneError("$", message)))


_ESCAPE = json.encoder.encode_basestring_ascii


def _write(value, out: list, indent: str) -> None:
    """Append the text of ``value`` to ``out``; ``indent`` is the newline
    and spaces that open a line at ``value``'s level.  Each branch is one
    exact type of ``_JSON_TYPES``."""
    kind = type(value)
    if kind is str:
        out.append(_ESCAPE(value))
    elif kind is int or kind is float:
        if not abs(value) <= _FLOAT_MAX:
            raise ValueError(f"numbers must be finite, got {value!r}")
        out.append(repr(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _ESCAPE(key) + ": ")
            _write(item, out, inner)
            separator = "," + inner
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(indent + "]")
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def json_text(doc) -> str:
    """The canonical text of a JSON document, which every writer uses:
    for a document of JSON values (``_JSON_TYPES`` by exact type, every
    number finite), exactly ``json.dumps(doc, indent=2, sort_keys=True)``,
    so equal documents give equal bytes.  Two-space indent, sorted keys,
    ASCII escapes and a tuple as an array.  Any other value, a subclass or
    a key that is no ``str`` included, raises ``TypeError``, and a number
    beyond the largest float (NaN, an infinity, an int such as 10**400)
    ``ValueError``.  Written in one pass into one list, since ``indent``
    rules out the stdlib's C encoder.  The package writes only trees it
    built, so a cyclic document is not looked for and raises
    ``RecursionError``."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def dump_scene(scene: Scene) -> str:
    """Serialize a scene to canonical JSON (round-trips through load_scene)."""
    return json_text(scene_to_dict(scene))


def attribute_vocabulary(scene: Scene) -> dict[str, set[str]]:
    """Lowercased category/color/shape vocabularies present in the scene."""
    vocab: dict[str, set[str]] = {slot: set() for slot in ATTRIBUTE_SLOTS}
    for slot, value in scene.attributes:
        vocab[slot].add(value)
    return vocab
