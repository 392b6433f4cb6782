import math

import pytest
from hypothesis import settings

from pcsreg.frames import PreferenceTable, default_preferences
from pcsreg.scene import Entity, EntityKind, LandmarkType, Scene, TableExtent

HALF_PI = math.pi / 2

# A long run of the property tests that take their example count from the
# profile: ``pytest --hypothesis-profile=deep``.
settings.register_profile("deep", max_examples=3000, deadline=None)


@pytest.fixture(scope="session")
def default_prefs():
    return default_preferences()


@pytest.fixture(scope="session")
def two_frame_prefs():
    """Speaker 0.4 / listener 0.6, no intrinsic or extrinsic use."""
    return PreferenceTable({lt: (0.4, 0.6, 0.0, 0.0) for lt in LandmarkType})


@pytest.fixture(scope="session")
def facing_square_scene():
    """Four objects between two agents facing each other across the table.

    The square sits at the center; one object is between it and the speaker,
    one between it and the listener, one off to the side.  "in front of the
    square" is therefore ambiguous between the speaker's and the listener's
    reading.
    """
    return Scene(
        entities=(
            Entity("a", EntityKind.OBJECT, "object", (0.0, -0.5)),
            Entity("b", EntityKind.OBJECT, "object", (0.5, 0.0)),
            Entity("c", EntityKind.OBJECT, "object", (0.0, 0.0), shape="square"),
            Entity("d", EntityKind.OBJECT, "object", (0.0, 0.5)),
            Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
            Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
        ),
        table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
    )


@pytest.fixture(scope="session")
def blocks_car_scene():
    """Two identical yellow blocks flanking an oriented toy car.

    Neither agent separates the blocks (both are in front of either agent),
    so the car is the only discriminating landmark: one block to its left,
    the other to its right in the speaker's frame.
    """
    return Scene(
        entities=(
            Entity("blk_a", EntityKind.OBJECT, "block", (-0.4, 0.0), color="yellow"),
            Entity("blk_b", EntityKind.OBJECT, "block", (0.4, 0.0), color="yellow"),
            Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.0), heading=HALF_PI),
            Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
            Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
        ),
        table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
    )


@pytest.fixture(scope="session")
def update_chain_scene():
    """Needs a two-landmark chain: cuboid first, oriented car second.

    The duplicated yellow blocks force a landmark; the agents and the car
    fail to separate them, the nearer cuboid succeeds.  The cuboid itself is
    duplicated, and only the car separates the cuboids.
    """
    return Scene(
        entities=(
            Entity("blk_a", EntityKind.OBJECT, "block", (-0.3, 0.0), color="yellow"),
            Entity("blk_b", EntityKind.OBJECT, "block", (0.3, 0.0), color="yellow"),
            Entity("cub1", EntityKind.OBJECT, "cuboid", (-0.3, 0.4)),
            Entity("cub2", EntityKind.OBJECT, "cuboid", (0.3, -0.8)),
            Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.6), heading=HALF_PI),
            Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.2), heading=HALF_PI),
            Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.2), heading=-HALF_PI),
        ),
        table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
    )


@pytest.fixture(scope="session")
def diagonal_scene():
    """Blocks on the 45-degree diagonals of a blue cup, seen by a speaker
    facing up the table.

    The cup sits at (0.21, 0.13), so some displacements from it come out a
    unit in the last place apart in x and y: the strict maximum of the
    degrees would put red ``block1`` and ``block3`` to the cup's right, and
    the ``RELATION_TIE_TOL`` tie rule puts them in front and behind.  Red
    ``block4`` lies plainly to the right, so the cup separates the three red
    blocks only under the tie rule.
    """
    cx, cy = 0.21, 0.13
    blocks = {
        "block1": ((0.3, 0.3), "red"),
        "block2": ((-0.3, 0.3), "green"),
        "block3": ((0.3, -0.3), "red"),
        "block4": ((0.45, 0.0), "red"),
    }
    return Scene(
        entities=(Entity("cup1", EntityKind.OBJECT, "cup", (cx, cy), color="blue"),)
        + tuple(
            Entity(bid, EntityKind.OBJECT, "block", (cx + ox, cy + oy), color=color)
            for bid, ((ox, oy), color) in blocks.items()
        )
        + (
            Entity("cup2", EntityKind.OBJECT, "cup", (-1.0, -0.9), color="blue"),
            Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.2), heading=HALF_PI),
            Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.2), heading=-HALF_PI),
        ),
        table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
    )
