"""Generation sees geometry only through the quadrant of each pair and the
order of distances.  So a mirror image, a rigid rotation and a uniform scale
plus shift of a scene leave every ambiguous target's landmark chain, pcsreg's
pick and the ranking behind it unchanged, bit for bit; a mirror image swaps
"left" and "right" in every surface and changes nothing else.
"""

import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import rotate
from pcsreg.frames import default_preferences
from pcsreg.generator import (
    GenerationError,
    build_landmark_chain,
    describe_visual,
    expression_space,
)
from pcsreg.harness import sample_scene
from pcsreg.optimizer import rank
from pcsreg.scene import Scene, TableExtent

PREFS = default_preferences()
scenes = st.builds(
    sample_scene,
    st.integers(min_value=0, max_value=2**63 - 1),
    st.sampled_from([(3, 8), (8, 16), (16, 30)]),
)


def generation(scene, surface=lambda text: text):
    """Per ambiguous target: the chain's landmarks, pass count and
    convergence, pcsreg's pick, and ``rank``'s denotation and score per
    surface, with each surface mapped through ``surface``; or the text of
    the generation error."""
    referable = set(scene.referable_ids())
    out = {}
    for target in scene.referable_ids():
        if describe_visual(target, referable, scene).distinguishing:
            continue
        try:
            chain = build_landmark_chain(target, scene, PREFS)
            best, scored = rank(expression_space(chain, scene), target, scene, PREFS)
        except GenerationError as exc:
            out[target] = str(exc)
            continue
        out[target] = (
            chain.landmarks,
            chain.iterations,
            chain.converged,
            best.strategy,
            surface(best.surface),
            {surface(text): (d.probs, sc) for text, (d, sc) in scored.items()},
        )
    return out


def moved(scene, point, heading, direction):
    """``scene`` with every centroid and table corner mapped by ``point``,
    every heading by ``heading`` and north by ``direction``; the table is
    the box around the mapped corners."""
    entities = tuple(
        replace(
            e,
            centroid=point(e.centroid),
            heading=None if e.heading is None else heading(e.heading),
        )
        for e in scene.entities
    )
    (x0, y0), (x1, y1) = scene.table.min_corner, scene.table.max_corner
    xs, ys = zip(*(point(c) for c in ((x0, y0), (x0, y1), (x1, y0), (x1, y1))))
    table = TableExtent((min(xs), min(ys)), (max(xs), max(ys)))
    return Scene(entities, table, direction(scene.north))


def swap_sides(text):
    return re.sub(r"\b(left|right)\b", lambda m: "right" if m[1] == "left" else "left", text)


@pytest.mark.deep
@settings(deadline=None)
@given(scenes)
def test_mirror_image_keeps_generation(scene):
    def flip(p):
        return (-p[0], p[1])

    mirrored = moved(scene, flip, lambda h: math.pi - h, flip)
    assert generation(mirrored, swap_sides) == generation(scene)


@pytest.mark.deep
@settings(deadline=None)
@given(scenes, st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_keeps_generation(scene, angle):
    def turn(p):
        return rotate(p, angle)

    assert generation(moved(scene, turn, lambda h: h + angle, turn)) == generation(scene)


@pytest.mark.deep
@settings(deadline=None)
@given(
    scenes,
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_scale_and_shift_keeps_generation(scene, scale, dx, dy):
    def place(p):
        return (scale * p[0] + dx, scale * p[1] + dy)

    assert generation(moved(scene, place, lambda h: h, lambda v: v)) == generation(scene)
