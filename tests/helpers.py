"""Shared helpers: deterministic random expression trees over a scene, and
a simulated listener that compiles its own plan."""

import random

from pcsreg.harness import ListenerPlan, simulate_listener
from pcsreg.prepositions import Preposition
from pcsreg.resolver import AttributePhrase, Compound, Leaf, PersonRef
from pcsreg.scene import Scene

PREPS = list(Preposition)


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
