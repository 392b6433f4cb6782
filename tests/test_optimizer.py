import pytest

from helpers import CROWDED_POOLS

from pcsreg.frames import FrameKind, PreferenceTable, default_preferences
from pcsreg.generator import (
    MAX_COMPLEXITY,
    GenerationError,
    build_landmark_chain,
    expression_space,
)
from pcsreg.geometry import ordered_sum
from pcsreg.harness import derive_seed, sample_scene
from pcsreg.optimizer import (
    METHODS,
    Score,
    generate,
    generate_methods,
    rank,
    score,
    select_best,
)
from pcsreg.prepositions import Preposition
from pcsreg.resolver import AttributePhrase, Compound, Leaf
from pcsreg.scene import LandmarkType
from pcsreg.generator import CandidateExpression, realize


def make_candidate(tree, kinds_origins):
    return CandidateExpression(tree, tuple(kinds_origins), realize(tree))


def kinds(candidate):
    """The frame kind of each unit of the candidate's strategy."""
    return tuple(kind for kind, _ in candidate.strategy)


SQUARE_EXPR = Compound(
    AttributePhrase(category="object"),
    Preposition.FRONT,
    Leaf(AttributePhrase(shape="square")),
)


class TestScore:
    def test_square_expression_scores(self, facing_square_scene, two_frame_prefs):
        cand = make_candidate(SQUARE_EXPR, [(FrameKind.ADDRESSEE, "listener")])
        got = score(cand, "a", facing_square_scene, two_frame_prefs)
        assert got.appropriateness == 1
        assert got.effectiveness == pytest.approx(0.6, abs=1e-12)
        assert got.total == pytest.approx(1.6, abs=1e-12)
        other = score(cand, "d", facing_square_scene, two_frame_prefs)
        assert other.appropriateness == 0
        assert other.effectiveness == pytest.approx(0.4, abs=1e-12)

    def test_unresolvable_scores_zero(self, facing_square_scene, two_frame_prefs):
        tree = Leaf(AttributePhrase(color="purple"))
        cand = make_candidate(tree, [])
        assert score(cand, "a", facing_square_scene, two_frame_prefs) == Score(0, 0.0)

    def test_bounds(self, default_prefs):
        for seed in range(10):
            scene = sample_scene(seed)
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                for cand in expression_space(chain, scene):
                    sc = score(cand, target, scene, default_prefs)
                    assert sc.appropriateness in (0, 1)
                    assert 0.0 <= sc.effectiveness <= 1.0
                    assert 0.0 <= sc.total <= 2.0

    def test_exact_tie_counts_as_appropriate(self, blocks_car_scene, default_prefs):
        # "the block in front of me" puts equal mass on both blocks.
        from pcsreg.resolver import PersonRef

        tree = Compound(
            AttributePhrase(category="block"),
            Preposition.FRONT,
            Leaf(AttributePhrase(person=PersonRef.SPEAKER)),
        )
        cand = make_candidate(tree, [(FrameKind.EGOCENTRIC, "speaker")])
        sc = score(cand, "blk_a", blocks_car_scene, default_prefs)
        assert sc.appropriateness == 1
        assert sc.effectiveness == pytest.approx(0.5)


class TestSelectBest:
    def test_strict_argmax(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        space = expression_space(chain, blocks_car_scene)
        best, sc = select_best(space, "blk_a", blocks_car_scene, default_prefs)
        assert best.surface == "the yellow block to the left of the car"
        assert sc.total == pytest.approx(1.955, abs=1e-12)
        totals = [
            score(c, "blk_a", blocks_car_scene, default_prefs).total for c in space
        ]
        assert sc.total == max(totals)

    def test_empty_candidates_rejected(self, blocks_car_scene, default_prefs):
        with pytest.raises(ValueError):
            select_best([], "blk_a", blocks_car_scene, default_prefs)

    def test_consistent_strategy_wins_ties(self, update_chain_scene, default_prefs):
        # North equals the speaker's heading here, so the extrinsic frame
        # reproduces the egocentric prepositions: mixed strategies tie with
        # the pure one on identical trees and must lose the tie-break.
        chain = build_landmark_chain("blk_a", update_chain_scene, default_prefs)
        space = expression_space(chain, update_chain_scene)
        best, sc = select_best(space, "blk_a", update_chain_scene, default_prefs)
        assert len(set(kinds(best))) <= 1
        mixed = [
            c
            for c in space
            if c.surface == best.surface and len(set(kinds(c))) > 1
        ]
        assert mixed, "expected tied mixed-strategy duplicates in the space"
        for c in mixed:
            assert score(c, "blk_a", update_chain_scene, default_prefs).total == sc.total

    def test_canonical_order_breaks_remaining_ties(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        space = expression_space(chain, blocks_car_scene)
        best, _ = select_best(space, "blk_a", blocks_car_scene, default_prefs)
        # Left is produced by egocentric, intrinsic, and extrinsic strategies
        # (all consistent at k=1); egocentric is canonically first.
        assert kinds(best) == (FrameKind.EGOCENTRIC,)

    def test_selection_is_optimal_over_rescored_space(self, default_prefs):
        for seed in range(20):
            scene = sample_scene(seed)
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                space = expression_space(chain, scene)
                _, sc = select_best(space, target, scene, default_prefs)
                rescored = max(
                    score(c, target, scene, default_prefs).total for c in space
                )
                assert sc.total == rescored

    def test_argmax_invariant_to_common_row_scaling(self, blocks_car_scene):
        base = default_preferences()
        scaled = PreferenceTable(
            {
                lt: tuple(
                    (v * 3.0) / sum(w * 3.0 for w in base.row(lt)) for v in base.row(lt)
                )
                for lt in LandmarkType
            }
        )
        chain = build_landmark_chain("blk_a", blocks_car_scene, base)
        space = expression_space(chain, blocks_car_scene)
        best_base, _ = select_best(space, "blk_a", blocks_car_scene, base)
        best_scaled, _ = select_best(space, "blk_a", blocks_car_scene, scaled)
        assert best_base.surface == best_scaled.surface

    def test_crowded_score_is_the_same_on_every_python(self, default_prefs):
        """A float total added with the compensated ``sum`` of Python 3.12+
        ends ...571 here; added left to right it is ...572 on every version."""
        scene = sample_scene(
            derive_seed(7, "crowded", "scene", 12), objects=(16, 30), **CROWDED_POOLS
        )
        chain = build_landmark_chain("block16", scene, default_prefs)
        best, sc = select_best(expression_space(chain, scene), "block16", scene, default_prefs)
        assert best.surface == "the red block in front of the blue cup on your right"
        assert sc.effectiveness == 0.7649880491639572


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 == 0.6000000000000001
    assert ordered_sum([]) == 0.0


class TestGreedyMax:
    def test_oriented_landmark_takes_intrinsic(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        cand = generate("max", chain, blocks_car_scene, default_prefs)
        assert kinds(cand) == (FrameKind.INTRINSIC,)
        assert cand.surface == "the yellow block to the left of the car"

    def test_listener_landmark_takes_addressee(self, default_prefs):
        import math

        from pcsreg.scene import Entity, EntityKind, Scene, TableExtent

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
        cand = generate("max", chain, scene, default_prefs)
        assert kinds(cand) == (FrameKind.ADDRESSEE,)

    def test_unoriented_landmark_takes_egocentric(self, default_prefs):
        import math

        from pcsreg.scene import Entity, EntityKind, Scene, TableExtent

        HALF_PI = math.pi / 2
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
        cand = generate("max", chain, scene, default_prefs)
        assert kinds(cand) == (FrameKind.EGOCENTRIC,)

    def test_pcsreg_dominates_greedy(self, default_prefs):
        for seed in range(20):
            scene = sample_scene(seed)
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                space = expression_space(chain, scene)
                _, best_score = select_best(space, target, scene, default_prefs)
                greedy = generate("max", chain, scene, default_prefs)
                greedy_score = score(greedy, target, scene, default_prefs)
                assert best_score.total >= greedy_score.total


class TestBaselines:
    def test_robot_and_human_perspectives(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        robot = generate("robot", chain, blocks_car_scene, default_prefs)
        assert robot.surface == "the yellow block to the left of the car"
        assert kinds(robot) == (FrameKind.EGOCENTRIC,)
        human = generate("human", chain, blocks_car_scene, default_prefs)
        assert human.surface == "the yellow block to the right of the car"
        assert kinds(human) == (FrameKind.ADDRESSEE,)

    def test_random_is_seeded(self, update_chain_scene, default_prefs):
        chain = build_landmark_chain("blk_a", update_chain_scene, default_prefs)
        a = generate("random", chain, update_chain_scene, default_prefs, seed=99)
        b = generate("random", chain, update_chain_scene, default_prefs, seed=99)
        assert a == b
        drawn = {
            kinds(generate("random", chain, update_chain_scene, default_prefs, seed=s))
            for s in range(30)
        }
        assert len(drawn) > 1

    def test_random_requires_seed(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        with pytest.raises(ValueError, match="method 'random' requires a seed"):
            generate("random", chain, blocks_car_scene, default_prefs)

    def test_unknown_baseline_rejected(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("blk_a", blocks_car_scene, default_prefs)
        with pytest.raises(ValueError, match="unknown method 'alien'"):
            generate("alien", chain, blocks_car_scene, default_prefs)

    def test_arguments_are_checked_without_landmarks(self, blocks_car_scene, default_prefs):
        chain = build_landmark_chain("car1", blocks_car_scene, default_prefs)
        assert chain.k == 0
        with pytest.raises(ValueError, match="method 'random' requires a seed"):
            generate("random", chain, blocks_car_scene, default_prefs)
        with pytest.raises(ValueError, match="unknown method 'alien'"):
            generate("alien", chain, blocks_car_scene, default_prefs)
        robot = generate("robot", chain, blocks_car_scene, default_prefs)
        assert robot == expression_space(chain, blocks_car_scene)[0]


@pytest.mark.parametrize("objects", [(3, 8), (8, 16)], ids=str)
def test_every_method_picks_from_the_expression_space(objects, default_prefs):
    """Greedy and baseline candidates equal some member of the exhaustive space."""
    depths = set()
    for i in range(40):
        scene = sample_scene(
            derive_seed(5, "space", objects, i),
            objects=objects,
            categories=("block", "cup"),
            colors=("red", "blue"),
            shapes=(),
        )
        for target in scene.referable_ids():
            try:
                chain = build_landmark_chain(target, scene, default_prefs)
            except GenerationError:
                continue
            if chain.k > MAX_COMPLEXITY:
                continue
            depths.add(chain.k)
            space = {(c.tree, c.strategy, c.surface) for c in expression_space(chain, scene)}
            for method, seed in [("max", None), ("robot", None), ("human", None)] + [
                ("random", s) for s in range(3)
            ]:
                c = generate(method, chain, scene, default_prefs, seed=seed)
                assert (c.tree, c.strategy, c.surface) in space
    assert 0 in depths and max(depths) >= 2


@pytest.mark.parametrize("objects", [(3, 8), (8, 16)], ids=str)
def test_generate_methods_is_generate_for_each_method(objects, default_prefs):
    """Each pick is ``generate``'s candidate or the error it raises, and
    ``scored`` is the table of the ranking behind ``pcsreg``'s pick."""
    scenes = [sample_scene(derive_seed(5, "methods", objects, i), objects=objects) for i in range(20)]
    # Target block15 of this scene needs a five-unit chain, one over the cap.
    scenes.append(sample_scene(derive_seed(1, "scene", 189), objects=(8, 16), **CROWDED_POOLS))
    capped = 0
    for scene in scenes:
        for target in scene.referable_ids():
            try:
                chain = build_landmark_chain(target, scene, default_prefs)
            except GenerationError:
                continue
            seed = derive_seed(5, "strategy", target)
            picks, scored = generate_methods(METHODS, chain, scene, default_prefs, seed=seed)
            assert list(picks) == list(METHODS)
            for method in METHODS:
                try:
                    want = generate(method, chain, scene, default_prefs, seed=seed)
                except GenerationError as exc:
                    assert type(picks[method]) is type(exc) and str(picks[method]) == str(exc)
                    capped += 1
                else:
                    assert picks[method] == want
            if chain.k > MAX_COMPLEXITY:
                assert scored == {}
            else:
                space = expression_space(chain, scene)
                assert scored == rank(space, target, scene, default_prefs)[1]
    assert capped > 0
