"""Shared helpers: deterministic random expression trees over a scene, a
simulated listener that compiles its own plan, a rotation, a scene with the
speaker turned and the preference-file form of a table."""

import math
import random
from dataclasses import replace

from pcsreg.harness import ListenerPlan, simulate_listener
from pcsreg.prepositions import Preposition
from pcsreg.resolver import AttributePhrase, Compound, Leaf, PersonRef
from pcsreg.scene import EntityKind, LandmarkType, Scene

PREPS = list(Preposition)

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
