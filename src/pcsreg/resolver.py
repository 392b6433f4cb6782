"""Probabilistic referring-expression resolution.

Expressions are right-branching trees: a visual head phrase optionally
located relative to a landmark subtree through a projective preposition.
Resolution is computed bottom-up.  A leaf denotes the uniform distribution
over the entities consistent with its attributes; a relation node combines
the landmark's distribution with the preposition applied under every frame
kind a listener might adopt, weighted by the frame preference for the
concrete landmark's type; the node's head phrase then filters the result
multiplicatively, and each node renormalizes.

Zero total mass is a legitimate analytical outcome (the expression fits
nothing), so it is reported as an unresolvable marker rather than raised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Union

from .frames import PreferenceTable
from .geometry import ordered_sum
from .prepositions import (
    PLAIN_SURFACE,
    TOPOLOGICAL_MARKERS,
    LISTENER_SURFACE,
    SPEAKER_SURFACE,
    Preposition,
    partitions,
)
from .scene import ATTRIBUTE_SLOTS, Scene, check_document, dotted_path, landmark_type, parse_json


class ParseError(ValueError):
    pass


class TopologicalPrepositionError(ParseError):
    """Raised for frame-independent prepositions the model excludes."""


class PersonRef(enum.Enum):
    SPEAKER = "speaker"
    LISTENER = "listener"


@dataclass(frozen=True)
class AttributePhrase:
    """Visual content of one noun phrase.

    Either a person reference ("me"/"you") or any non-empty combination of
    category, color, and shape.
    """

    category: str | None = None
    color: str | None = None
    shape: str | None = None
    person: PersonRef | None = None

    def __post_init__(self):
        if self.person is not None:
            if self.category or self.color or self.shape:
                raise ValueError("person phrase cannot carry visual attributes")
        elif not (self.category or self.color or self.shape):
            raise ValueError("attribute phrase must set at least one field")


@dataclass(frozen=True)
class Leaf:
    head: AttributePhrase


@dataclass(frozen=True)
class Compound:
    head: AttributePhrase
    prep: Preposition
    landmark: "ExpressionTree"


ExpressionTree = Union[Leaf, Compound]


def spine(tree: ExpressionTree) -> tuple[list[Compound], Leaf]:
    """The relation units, outermost first, and the innermost leaf (a loop,
    so depth is not bounded by the interpreter's recursion limit)."""
    units = []
    while isinstance(tree, Compound):
        units.append(tree)
        tree = tree.landmark
    return units, tree


def depth(tree: ExpressionTree) -> int:
    """Number of relation units (the expression's complexity)."""
    return len(spine(tree)[0])


def consistent_set(phrase: AttributePhrase, scene: Scene) -> set[str]:
    """Ids of entities consistent with the phrase (empty set is valid).

    Every attribute the phrase sets must match case-insensitively.  The
    result is a new set, read off the scene's attribute index.
    """
    if phrase.person is not None:
        target = scene.speaker if phrase.person is PersonRef.SPEAKER else scene.listener
        ids = {target.id}
    else:
        index = scene.attributes
        ids = None
        for slot in ATTRIBUTE_SLOTS:
            value = getattr(phrase, slot)
            if value is not None:
                matches = index.get((slot, value.lower()), ())
                if ids is None:
                    ids = set(matches)
                else:
                    ids.intersection_update(matches)
    return ids


@dataclass(frozen=True)
class Denotation:
    """Distribution over referable entities, or the unresolvable marker."""

    probs: Mapping[str, float] | None

    @property
    def unresolvable(self) -> bool:
        return self.probs is None

    def get(self, entity_id: str, default: float = 0.0) -> float:
        if self.probs is None:
            return default
        return self.probs.get(entity_id, default)

    def argmax(self) -> str | None:
        if self.probs is None:
            return None
        return max(self.probs, key=self.probs.__getitem__)  # the first of equal maxima


def denote(tree: ExpressionTree, scene: Scene, prefs: PreferenceTable) -> Denotation:
    """Resolve an expression to a distribution over referable entities.

    The innermost leaf's distribution is carried out through each relation
    unit from the innermost outwards.  Each unit counts a candidate toward
    the preposition's mass under every applicable frame where the crisp
    relation holds, weighted by the frame preference for the landmark's
    type.
    """
    units, leaf = spine(tree)
    ids = consistent_set(leaf.head, scene)
    if not ids:
        return Denotation(None)
    p = 1.0 / len(ids)
    child = {e.id: p for e in scene.entities if e.id in ids}

    for node in reversed(units):
        pp = {e.id: 0.0 for e in scene.entities}
        side = node.prep.order
        for lm_id, p_child in child.items():
            if p_child <= 0.0:
                continue
            lm = scene.entity(lm_id)
            row = prefs.row(landmark_type(lm))
            for part in partitions(lm, scene):
                p_frame = row[part.frame.kind.order]
                if p_frame == 0.0:
                    continue
                weight = p_frame * p_child
                for eid in part.members[side]:
                    pp[eid] += weight

        total = ordered_sum(pp.values())
        if total <= 0.0:
            return Denotation(None)
        head_ids = consistent_set(node.head, scene)
        if not head_ids:
            return Denotation(None)
        head_p = 1.0 / len(head_ids)
        combined = {
            e.id: (pp[e.id] / total) * head_p for e in scene.entities if e.id in head_ids
        }
        s = ordered_sum(combined.values())
        if s <= 0.0:
            return Denotation(None)
        child = {eid: p / s for eid, p in combined.items()}

    restricted = {eid: child.get(eid, 0.0) for eid in scene.referable_ids()}
    total = ordered_sum(restricted.values())
    if total <= 0.0:
        return Denotation(None)
    return Denotation({eid: p / total for eid, p in restricted.items()})


# --- surface-string parsing -------------------------------------------------

# (token sequence, preposition, implied person landmark or None), scanned
# longest-first so "in front of" wins over any shorter overlap.
_MARKERS: list[tuple[tuple[str, ...], Preposition, PersonRef | None]] = []
for _prep, _surface in PLAIN_SURFACE.items():
    _MARKERS.append((tuple(_surface.split()), _prep, None))
for _prep, _surface in SPEAKER_SURFACE.items():
    if _surface != PLAIN_SURFACE[_prep] + " me":
        _MARKERS.append((tuple(_surface.split()), _prep, PersonRef.SPEAKER))
for _prep, _surface in LISTENER_SURFACE.items():
    if _surface != PLAIN_SURFACE[_prep] + " you":
        _MARKERS.append((tuple(_surface.split()), _prep, PersonRef.LISTENER))
_MARKERS.sort(key=lambda m: -len(m[0]))
# A marker sequence can match only where its first token stands.
_MARKER_STARTS = {seq[0] for seq, _, _ in _MARKERS} | {seq[0] for seq in TOPOLOGICAL_MARKERS}

Lexicon = Mapping[str, set]


def _match_at(tokens: list[str], i: int, seq: tuple[str, ...]) -> bool:
    return tuple(tokens[i : i + len(seq)]) == seq


def _classify_attrs(words: list[str], lexicon: Lexicon) -> AttributePhrase:
    slots: dict[str, str | None] = {"category": None, "color": None, "shape": None}
    for pos, word in enumerate(words):
        last = pos == len(words) - 1
        # Realization order is color, shape, category with category final,
        # so the last word prefers the category reading on vocabulary overlap.
        order = ("category", "shape", "color") if last else ("color", "shape", "category")
        placed = False
        for slot in order:
            if slots[slot] is None and word in lexicon.get(slot, ()):  # type: ignore[arg-type]
                slots[slot] = word
                placed = True
                break
        if not placed:
            raise ParseError(f"unknown token {word!r}")
    if not any(slots.values()):
        raise ParseError("empty noun phrase")
    return AttributePhrase(category=slots["category"], color=slots["color"], shape=slots["shape"])


def _parse_np(tokens: list[str], lexicon: Lexicon) -> ExpressionTree:
    if tokens == ["me"]:
        return Leaf(AttributePhrase(person=PersonRef.SPEAKER))
    if tokens == ["you"]:
        return Leaf(AttributePhrase(person=PersonRef.LISTENER))
    if not tokens or tokens[0] != "the":
        raise ParseError(f"expected a noun phrase, got {' '.join(tokens) or '<empty>'!r}")
    i = 1
    words: list[str] = []
    while i < len(tokens):
        if tokens[i] in _MARKER_STARTS:
            for seq in TOPOLOGICAL_MARKERS:
                if _match_at(tokens, i, seq):
                    raise TopologicalPrepositionError(
                        f"topological preposition {' '.join(seq)!r} is not supported; "
                        "use a projective preposition (front/behind/left/right)"
                    )
            marker = next((m for m in _MARKERS if _match_at(tokens, i, m[0])), None)
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
                return Compound(head, prep, _parse_np(rest, lexicon))
        words.append(tokens[i])
        i += 1
    return Leaf(_classify_attrs(words, lexicon))


def parse_expression(text: str, lexicon: Lexicon) -> ExpressionTree:
    """Parse a surface string produced by the expression templates.

    ``lexicon`` is the scene-derived vocabulary mapping each attribute slot
    to its known lowercase words (see ``scene.attribute_vocabulary``).
    """
    tokens = text.lower().split()
    if not tokens:
        raise ParseError("empty expression")
    try:
        return _parse_np(tokens, lexicon)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


# --- structured (JSON) form -------------------------------------------------


def phrase_to_dict(phrase: AttributePhrase) -> dict:
    if phrase.person is not None:
        return {"person": phrase.person.value}
    fields = {slot: getattr(phrase, slot) for slot in ATTRIBUTE_SLOTS}
    return {slot: value for slot, value in fields.items() if value is not None}


def tree_to_dict(tree: ExpressionTree) -> dict:
    if isinstance(tree, Leaf):
        return {"head": phrase_to_dict(tree.head)}
    return {
        "head": phrase_to_dict(tree.head),
        "prep": tree.prep.value,
        "landmark": tree_to_dict(tree.landmark),
    }


EXPRESSION_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "Expression",
    "$ref": "#/definitions/expression",
    "definitions": {
        "expression": {
            "type": "object",
            "required": ["head"],
            "additionalProperties": False,
            "dependencies": {"prep": ["landmark"], "landmark": ["prep"]},
            "properties": {
                "head": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        **{
                            slot: {"type": ["string", "null"], "minLength": 1}
                            for slot in ATTRIBUTE_SLOTS
                        },
                        "person": {"enum": [person.value for person in PersonRef]},
                    },
                    "description": "person alone, or at least one non-null category, color or shape",
                },
                "prep": {"enum": [prep.value for prep in Preposition]},
                "landmark": {"$ref": "#/definitions/expression"},
            },
        }
    },
}


def _expression_error(path: tuple, message: str) -> ParseError:
    return ParseError(f"{dotted_path(path)}: {message}")


def tree_from_dict(doc: dict) -> ExpressionTree:
    """Check ``doc`` against ``EXPRESSION_SCHEMA`` and ``AttributePhrase``'s
    rules, outermost unit first, then build the tree in a loop."""
    check_document(doc, EXPRESSION_SCHEMA, _expression_error)
    heads, preps = [], []
    while True:
        head = doc["head"]
        fields = {slot: head.get(slot) for slot in ATTRIBUTE_SLOTS}
        if "person" in head:
            fields["person"] = PersonRef(head["person"])
        try:
            heads.append(AttributePhrase(**fields))
        except ValueError as exc:
            raise _expression_error(("landmark",) * len(preps) + ("head",), str(exc)) from None
        if "landmark" not in doc:
            break
        preps.append(Preposition(doc["prep"]))
        doc = doc["landmark"]
    tree: ExpressionTree = Leaf(heads.pop())
    while heads:
        tree = Compound(heads.pop(), preps.pop(), tree)
    return tree


def parse_expression_json(text: str) -> ExpressionTree:
    return tree_from_dict(parse_json(text, ParseError))
