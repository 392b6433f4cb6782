"""Minimal 2D vector helpers for the table plane, and the one float sum.

Vectors and points are plain ``(x, y)`` tuples of floats.  Quarter-turn
rotations are computed by coordinate swaps so that perpendicularity is exact
in floating point, not approximate.
"""

from __future__ import annotations

import math

Vec = tuple[float, float]


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1]


def norm(a: Vec) -> float:
    return math.hypot(a[0], a[1])


def distance(a: Vec, b: Vec) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def heading_vec(angle: float) -> Vec:
    """Unit vector for a heading angle (radians, CCW from +x)."""
    return (math.cos(angle), math.sin(angle))


def quarter_left(v: Vec) -> Vec:
    """Exact +90 deg (counterclockwise) rotation."""
    return (-v[1], v[0])


def quarter_right(v: Vec) -> Vec:
    """Exact -90 deg (clockwise) rotation."""
    return (v[1], -v[0])


def opposite(v: Vec) -> Vec:
    return (-v[0], -v[1])


def ordered_sum(values) -> float:
    """The float total of ``values`` added left to right, as ``sum`` adds
    up to Python 3.11.  From 3.12 ``sum`` compensates its rounding, so every
    total that reaches an output uses this to stay byte-identical across
    interpreters."""
    total = 0.0
    for v in values:
        total += v
    return total
