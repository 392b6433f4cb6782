import math

import pytest

from pcsreg.frames import FrameInstance, FrameKind, frame_instance
from pcsreg.generator import (
    MAX_CHAIN_REBUILDS,
    GenerationError,
    NoDiscriminatingLandmarkError,
    build_landmark_chain,
    describe_visual,
    expression_space,
    realize,
    select_landmark,
    verify_chain_discrimination,
)
from pcsreg.geometry import rotate
from pcsreg.harness import derive_seed, sample_scene
from pcsreg.prepositions import Preposition
from pcsreg.resolver import AttributePhrase, Compound, Leaf, PersonRef
from pcsreg.scene import Entity, EntityKind, LandmarkType, Scene, TableExtent, landmark_type

HALF_PI = math.pi / 2


def entity_rows(scene, prefs):
    return {e.id: prefs.row(landmark_type(e)) for e in scene.entities}


class TestDescribeVisual:
    def test_unique_category_is_enough(self, blocks_car_scene):
        domain = set(blocks_car_scene.referable_ids())
        d = describe_visual("car1", domain, blocks_car_scene)
        assert d.attrs == AttributePhrase(category="car")
        assert d.distinguishing

    def test_color_added_when_needed(self):
        scene = Scene(
            entities=(
                Entity("y", EntityKind.OBJECT, "block", (-0.2, 0.0), color="yellow"),
                Entity("r", EntityKind.OBJECT, "block", (0.2, 0.0), color="red"),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        d = describe_visual("y", {"y", "r"}, scene)
        assert d.attrs == AttributePhrase(category="block", color="yellow")
        assert d.distinguishing

    def test_identical_pair_is_not_distinguishing(self, blocks_car_scene):
        domain = set(blocks_car_scene.referable_ids())
        d = describe_visual("blk_a", domain, blocks_car_scene)
        assert d.attrs == AttributePhrase(category="block", color="yellow")
        assert not d.distinguishing

    def test_requires_target_in_domain(self, blocks_car_scene):
        with pytest.raises(ValueError):
            describe_visual("blk_a", {"blk_b"}, blocks_car_scene)


class TestSelectLandmark:
    def test_discriminating_car(self, blocks_car_scene, default_prefs):
        domain = set(blocks_car_scene.referable_ids())
        ego = frame_instance(FrameKind.EGOCENTRIC, blocks_car_scene)
        d, lm = select_landmark(
            "blk_a", domain, blocks_car_scene, entity_rows(blocks_car_scene, default_prefs), ego
        )
        assert lm == "car1"
        assert d.attrs == AttributePhrase(category="block", color="yellow")

    def test_distinguishing_description_needs_no_landmark(self, blocks_car_scene, default_prefs):
        domain = set(blocks_car_scene.referable_ids())
        ego = frame_instance(FrameKind.EGOCENTRIC, blocks_car_scene)
        d, lm = select_landmark(
            "car1", domain, blocks_car_scene, entity_rows(blocks_car_scene, default_prefs), ego
        )
        assert lm is None
        assert d.distinguishing

    def test_symmetric_distractor_fails(self, default_prefs):
        # Both blocks lie to the car's left (and in front of both agents), so
        # no candidate separates them.
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "block", (-0.5, 0.05), color="yellow"),
                Entity("blk_b", EntityKind.OBJECT, "block", (-0.5, -0.05), color="yellow"),
                Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.0), heading=HALF_PI),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        ego = frame_instance(FrameKind.EGOCENTRIC, scene)
        with pytest.raises(NoDiscriminatingLandmarkError):
            select_landmark(
                "blk_a", set(scene.referable_ids()), scene, entity_rows(scene, default_prefs), ego
            )

    def test_entropy_sets_priority(self, default_prefs):
        # The listener separates the blocks here and outranks the car by
        # entropy even though the car also separates them.
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "block", (0.7, 0.15), color="yellow"),
                Entity("blk_b", EntityKind.OBJECT, "block", (0.85, -0.4), color="yellow"),
                Entity("car1", EntityKind.OBJECT, "car", (0.3, 0.6), heading=HALF_PI),
                Entity("speaker", EntityKind.SPEAKER, "robot", (-1.0, 0.0), heading=0.0),
                Entity("listener", EntityKind.LISTENER, "person", (1.0, 0.0), heading=math.pi),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        ego = frame_instance(FrameKind.EGOCENTRIC, scene)
        rows = entity_rows(scene, default_prefs)
        d, lm = select_landmark("blk_a", set(scene.referable_ids()), scene, rows, ego)
        assert lm == "listener"


class TestBuildChain:
    def test_blocks_car_chain(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        assert chain.k == 1
        assert chain.landmarks == ("car1",)
        assert [d.attrs for d in chain.descriptions] == [
            AttributePhrase(category="block", color="yellow"),
            AttributePhrase(category="car"),
        ]
        assert chain.iterations == 1
        assert chain.converged

    def test_unique_target_has_empty_stack(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("car1", blocks_car_scene, default_prefs)
        assert chain.k == 0
        assert len(chain.descriptions) == 1
        assert chain.descriptions[0].distinguishing

    def test_update_rebuild_fixed_point(self, update_chain_scene, default_prefs):
        chain = build_landmark_chain("blk_a", update_chain_scene, default_prefs)
        assert chain.landmarks == ("cub1", "car1")
        # The cuboid unit adopted its right neighbor's (oriented) row.
        oriented = default_prefs.row(LandmarkType.ORIENTED_OBJECT)
        assert chain.distributions == (oriented, oriented)
        assert chain.iterations == 2
        assert chain.iterations <= chain.k + 1
        assert chain.converged

    def test_person_anchor_chain(self, default_prefs):
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "block", (0.7, 0.15), color="yellow"),
                Entity("blk_b", EntityKind.OBJECT, "block", (0.85, -0.4), color="yellow"),
                Entity("speaker", EntityKind.SPEAKER, "robot", (-1.0, 0.0), heading=0.0),
                Entity("listener", EntityKind.LISTENER, "person", (1.0, 0.0), heading=math.pi),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        chain = build_landmark_chain("blk_a", scene, default_prefs)
        assert chain.landmarks == ("listener",)
        assert chain.descriptions[-1].attrs == AttributePhrase(person=PersonRef.LISTENER)

    def test_rejects_non_referable_target(self, blocks_car_scene, default_prefs):
        with pytest.raises(GenerationError):
            build_landmark_chain("speaker", blocks_car_scene, default_prefs)
        with pytest.raises(GenerationError):
            build_landmark_chain("ghost", blocks_car_scene, default_prefs)

    def test_failure_propagates(self, default_prefs):
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "block", (-0.5, 0.05), color="yellow"),
                Entity("blk_b", EntityKind.OBJECT, "block", (-0.5, -0.05), color="yellow"),
                Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.0), heading=HALF_PI),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        with pytest.raises(GenerationError, match="distinguishing"):
            build_landmark_chain("blk_a", scene, default_prefs)

    def test_discrimination_recheck(self, update_chain_scene, default_prefs):
        chain = build_landmark_chain("blk_a", update_chain_scene, default_prefs)
        assert verify_chain_discrimination(chain, update_chain_scene)

    @pytest.mark.parametrize("quarters", [1, 2, 3])
    def test_default_frame_rotation_keeps_landmarks(self, quarters, default_prefs):
        # Quarter-turn default frames select identical landmark sequences.
        for seed in range(25):
            scene = sample_scene(seed)
            ego = frame_instance(FrameKind.EGOCENTRIC, scene)
            turned = FrameInstance(
                ego.kind, ego.origin_entity, rotate(ego.front_axis, quarters * HALF_PI)
            )
            for target in scene.referable_ids():
                try:
                    base_chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    with pytest.raises(GenerationError):
                        build_landmark_chain(target, scene, default_prefs, default_frame=turned)
                    continue
                turned_chain = build_landmark_chain(
                    target, scene, default_prefs, default_frame=turned
                )
                assert turned_chain.landmarks == base_chain.landmarks

    def test_oscillating_rebuild_stops_at_the_cap(self, default_prefs):
        # With the default table the rebuild for cup6 alternates between two
        # chains and never reaches a fixed point; it must still end within
        # the cap with a chain that discriminates.
        scene = sample_scene(
            derive_seed(1, "scene", 97),
            objects=(3, 8),
            categories=("block", "cup"),
            colors=("red", "blue"),
            shapes=(),
        )
        chain = build_landmark_chain("cup6", scene, default_prefs)
        assert chain.iterations <= MAX_CHAIN_REBUILDS
        assert verify_chain_discrimination(chain, scene)


class TestExpressionSpace:
    def test_oriented_landmark_has_four_strategies(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        space = expression_space(chain, blocks_car_scene)
        assert len(space) == 4
        kinds = {c.strategy[0][0] for c in space}
        assert kinds == set(FrameKind)
        assert {c.surface for c in space} == {
            "the yellow block to the left of the car",
            "the yellow block to the right of the car",
        }

    def test_unoriented_landmark_skips_intrinsic(self, default_prefs):
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "block", (-0.4, 0.0), color="yellow"),
                Entity("blk_b", EntityKind.OBJECT, "block", (0.4, 0.0), color="yellow"),
                Entity("cub1", EntityKind.OBJECT, "cuboid", (-0.4, 0.4)),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        chain = build_landmark_chain("blk_a", scene, default_prefs)
        assert chain.landmarks == ("cub1",)
        space = expression_space(chain, scene)
        assert len(space) == 3
        assert FrameKind.INTRINSIC not in {c.strategy[0][0] for c in space}

    def test_two_unit_space_size(self, update_chain_scene, default_prefs):
        chain = build_landmark_chain("blk_a", update_chain_scene, default_prefs)
        space = expression_space(chain, update_chain_scene)
        assert len(space) == 12  # 3 frames at the cuboid unit x 4 at the car unit
        assert all(len(c.strategy) == 2 for c in space)

    def test_k0_single_candidate(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("car1", blocks_car_scene, default_prefs)
        space = expression_space(chain, blocks_car_scene)
        assert len(space) == 1
        assert space[0].surface == "the car"
        assert len(space[0].strategy) == 0


class TestRealize:
    def test_leaf(self):
        assert realize(Leaf(AttributePhrase(category="block", color="red"))) == "the red block"

    def test_attribute_order(self):
        tree = Leaf(AttributePhrase(category="block", color="red", shape="square"))
        assert realize(tree) == "the red square block"

    def test_person_possessive_forms(self):
        tree = Compound(
            AttributePhrase(category="cuboid"),
            Preposition.LEFT,
            Leaf(AttributePhrase(person=PersonRef.SPEAKER)),
        )
        assert realize(tree) == "the cuboid on my left"
        front = Compound(
            AttributePhrase(category="cuboid"),
            Preposition.FRONT,
            Leaf(AttributePhrase(person=PersonRef.LISTENER)),
        )
        assert realize(front) == "the cuboid in front of you"

    def test_depth_two_sentence(self):
        tree = Compound(
            AttributePhrase(category="triangle", color="red"),
            Preposition.FRONT,
            Compound(
                AttributePhrase(category="cuboid"),
                Preposition.LEFT,
                Leaf(AttributePhrase(person=PersonRef.SPEAKER)),
            ),
        )
        assert realize(tree) == "the red triangle in front of the cuboid on my left"


class TestStack:
    def test_domain_shrinks_monotonically(self, default_prefs):
        # Chains can never exceed the entity count.
        for seed in range(15):
            scene = sample_scene(seed)
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                assert chain.k <= len(scene.entities)
                assert len(set(chain.landmarks)) == chain.k
                assert verify_chain_discrimination(chain, scene)
