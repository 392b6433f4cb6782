"""Shared helpers: deterministic random expression trees over a scene, a
simulated listener that compiles its own plan, a rotation, a scene with the
speaker turned, the preference-file form of a table, the surface parser that
scans every marker list at every token, and the interpretive schema check
that ``check_document``'s compiled check is held to."""

import math
import random
import re
import reprlib
from dataclasses import replace

from pcsreg.harness import ListenerPlan, simulate_listener
from pcsreg.prepositions import (
    LISTENER_SURFACE,
    PLAIN_SURFACE,
    SPEAKER_SURFACE,
    TOPOLOGICAL_MARKERS,
    Preposition,
)
from pcsreg.resolver import (
    AttributePhrase,
    Compound,
    Leaf,
    ParseError,
    PersonRef,
    TopologicalPrepositionError,
    _classify_attrs,
)
from pcsreg.scene import (
    _FLOAT_MAX,
    _JSON_TYPES,
    _PLURALS,
    EntityKind,
    LandmarkType,
    Scene,
    _Invalid,
)

PREPS = list(Preposition)

# Every word of the preposition surfaces and the topological markers, read
# off the tables that the parser's marker table is built from.
SURFACE_WORDS = sorted(
    {word for table in (PLAIN_SURFACE, SPEAKER_SURFACE, LISTENER_SURFACE)
     for surface in table.values() for word in surface.split()}
    | {word for seq in TOPOLOGICAL_MARKERS for word in seq}
)

# The sampling pools of the benchmark's crowded tables: two categories, two
# colors and no shapes, so many objects share a description.
CROWDED_POOLS = {"categories": ("block", "cup"), "colors": ("red", "blue"), "shapes": ()}


def random_phrase(scene: Scene, rng: random.Random) -> AttributePhrase:
    objs = scene.objects()
    e = objs[rng.randrange(len(objs))]
    attrs = {}
    if rng.random() < 0.85:
        attrs["category"] = e.category
    if e.color and rng.random() < 0.5:
        attrs["color"] = e.color
    if e.shape and rng.random() < 0.3:
        attrs["shape"] = e.shape
    if rng.random() < 0.08:
        attrs["color"] = "ultraviolet"  # exercise empty consistent sets
    if not attrs:
        attrs["category"] = e.category
    return AttributePhrase(**attrs)


def random_tree(scene: Scene, rng: random.Random, max_depth: int = 2):
    target_depth = rng.randrange(max_depth + 1)
    if rng.random() < 0.25:
        person = PersonRef.SPEAKER if rng.random() < 0.5 else PersonRef.LISTENER
        node = Leaf(AttributePhrase(person=person))
        if target_depth == 0:
            target_depth = 1  # bare "me" cannot refer to a target
    else:
        node = Leaf(random_phrase(scene, rng))
    for _ in range(target_depth):
        node = Compound(random_phrase(scene, rng), PREPS[rng.randrange(4)], node)
    return node


def listen(tree, scene, true_prefs, rng, consistency_coupling=0.0):
    """``simulate_listener`` on a plan compiled for this one call."""
    return simulate_listener(
        ListenerPlan(tree, scene, true_prefs), rng.random, consistency_coupling
    )


def rotate(v, angle):
    """``v`` turned counterclockwise by ``angle`` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def turn_speaker(scene, angle):
    """``scene`` with the speaker's heading turned counterclockwise by ``angle``."""
    entities = tuple(
        replace(e, heading=e.heading + angle) if e.kind is EntityKind.SPEAKER else e
        for e in scene.entities
    )
    return Scene(entities, scene.table, scene.north)


def preferences_to_dict(table):
    """The preference-file document of ``table``, one row per landmark type."""
    return {lt.value: list(table.row(lt)) for lt in LandmarkType}


# (token sequence, preposition, implied person landmark or None) of every
# projective marker, longest first, so "in front of" wins over any shorter
# overlap.
PROJECTIVE_MARKERS = sorted(
    [(tuple(s.split()), p, None) for p, s in PLAIN_SURFACE.items()]
    + [
        (tuple(s.split()), p, person)
        for surfaces, person, pronoun in (
            (SPEAKER_SURFACE, PersonRef.SPEAKER, " me"),
            (LISTENER_SURFACE, PersonRef.LISTENER, " you"),
        )
        for p, s in surfaces.items()
        if s != PLAIN_SURFACE[p] + pronoun
    ],
    key=lambda m: -len(m[0]),
)


def _match_at(tokens, i, seq):
    return tuple(tokens[i : i + len(seq)]) == seq


def reference_parse_np(tokens, lexicon):
    """The surface parser's loop as two scans at every token: every
    topological marker, then every projective marker, longest first."""
    if tokens == ["me"]:
        return Leaf(AttributePhrase(person=PersonRef.SPEAKER))
    if tokens == ["you"]:
        return Leaf(AttributePhrase(person=PersonRef.LISTENER))
    if not tokens or tokens[0] != "the":
        raise ParseError(f"expected a noun phrase, got {' '.join(tokens) or '<empty>'!r}")
    i = 1
    words = []
    while i < len(tokens):
        for seq in TOPOLOGICAL_MARKERS:
            if _match_at(tokens, i, seq):
                raise TopologicalPrepositionError(
                    f"topological preposition {' '.join(seq)!r} is not supported; "
                    "use a projective preposition (front/behind/left/right)"
                )
        marker = next((m for m in PROJECTIVE_MARKERS if _match_at(tokens, i, m[0])), None)
        if marker is not None:
            seq, prep, person = marker
            if not words:
                raise ParseError(f"missing noun phrase before {' '.join(seq)!r}")
            head = _classify_attrs(words, lexicon)
            rest = tokens[i + len(seq) :]
            if person is not None:
                if rest:
                    raise ParseError(
                        f"unexpected tokens after {' '.join(seq)!r}: {' '.join(rest)!r}"
                    )
                return Compound(head, prep, Leaf(AttributePhrase(person=person)))
            return Compound(head, prep, reference_parse_np(rest, lexicon))
        words.append(tokens[i])
        i += 1
    return Leaf(_classify_attrs(words, lexicon))


def reference_check(doc, schema: dict):
    """``check_document``'s verdict on ``doc``, reached by walking ``schema``
    on every call: None when it accepts, else the (path, message) that it
    passes to ``invalid``."""
    try:
        _check(doc, schema, schema)
    except _Invalid as exc:
        return tuple(reversed(exc.path)), exc.args[0]
    except RecursionError:
        return (), "nested too deeply"
    return None


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
        if schema.get("uniqueItems") and any(item in value[:i] for i, item in enumerate(value)):
            raise _Invalid(f"must not repeat an item, got {reprlib.repr(value)}")
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
                if "pattern" in items:
                    want += f", each {items['description']}"
                raise _Invalid(f"must contain {want}, got {reprlib.repr(value)}") from None
    elif name == "number" or name == "integer":
        if not abs(value) <= _FLOAT_MAX:
            raise _Invalid(f"must be finite, got {reprlib.repr(value)}")
        if not schema.get("minimum", value) <= value <= schema.get("maximum", value):
            lo, hi = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
            raise _Invalid(f"must be in [{lo}, {hi}], got {value!r}")
    elif name == "string":
        if len(value) < schema.get("minLength", 0):
            raise _Invalid(f"must have at least {schema['minLength']} characters, got {value!r}")
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise _Invalid(f"must be {schema['description']}, got {reprlib.repr(value)}")
