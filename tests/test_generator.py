import dataclasses
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import CROWDED_POOLS, turn_speaker
from pcsreg import generator, prepositions
from pcsreg.frames import (
    FrameInstance,
    FrameKind,
    applicable_frames,
    frame_instance,
    preference_entropy,
    update_preferences,
)
from pcsreg.generator import (
    MAX_CHAIN_REBUILDS,
    MAX_COMPLEXITY,
    GenerationError,
    LandmarkChain,
    NoDiscriminatingLandmarkError,
    VisualDescription,
    build_landmark_chain,
    describe_visual,
    expression_space,
    realize,
    select_landmark,
    verify_chain_discrimination,
)
from pcsreg.geometry import distance, heading_vec
from pcsreg.harness import derive_seed, sample_scene
from pcsreg.prepositions import Preposition, partitions, relation
from pcsreg.resolver import AttributePhrase, Compound, Leaf, PersonRef, consistent_set
from pcsreg.scene import (
    Entity,
    EntityKind,
    LandmarkType,
    Scene,
    SceneError,
    TableExtent,
    landmark_type,
)

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


class TestCaseFolding:
    """``consistent_set`` matches case-insensitively, so "Yellow" and
    "yellow", or "Block" and "block", are one value to landmark selection."""

    def test_mixed_case_pair_needs_a_landmark(self, blocks_car_scene, default_prefs):
        entities = list(blocks_car_scene.entities)
        entities[0] = dataclasses.replace(entities[0], category="Block", color="Yellow")
        scene = Scene(tuple(entities), blocks_car_scene.table)
        domain = set(scene.referable_ids())
        rows = entity_rows(scene, default_prefs)
        ego = frame_instance(FrameKind.EGOCENTRIC, scene)
        for target, phrase in (
            ("blk_a", AttributePhrase(category="Block", color="Yellow")),
            ("blk_b", AttributePhrase(category="block", color="yellow")),
        ):
            assert describe_visual(target, domain, scene) == VisualDescription(phrase, False)
            assert select_landmark(target, domain, scene, rows, ego) == (
                VisualDescription(phrase, False),
                "car1",
            )

    def test_mixed_case_distractor_is_not_a_landmark(self, default_prefs):
        # As in ``test_symmetric_distractor_fails``: blk_b alone would
        # separate blk_a, but it shares blk_a's description.
        scene = Scene(
            entities=(
                Entity("blk_a", EntityKind.OBJECT, "Block", (-0.5, 0.05), color="RED"),
                Entity("blk_b", EntityKind.OBJECT, "block", (-0.5, -0.05), color="red"),
                Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.0), heading=HALF_PI),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        ego = frame_instance(FrameKind.EGOCENTRIC, scene)
        rows = entity_rows(scene, default_prefs)
        with pytest.raises(NoDiscriminatingLandmarkError, match=r"\['blk_b'\]"):
            select_landmark("blk_a", set(scene.referable_ids()), scene, rows, ego)


def reference_description(target_id, domain, scene):
    """Incremental attribute selection phrase by phrase: each phrase is built
    whole and matched against the domain through ``consistent_set``."""
    target = scene.entity(target_id)
    selected = {"category": target.category}
    for attr in ("color", "shape"):
        if consistent_set(AttributePhrase(**selected), scene) & domain == {target_id}:
            break
        if getattr(target, attr) is not None:
            selected[attr] = getattr(target, attr)
    phrase = AttributePhrase(**selected)
    return VisualDescription(phrase, consistent_set(phrase, scene) & domain == {target_id})


def reference_landmark(target_id, domain, scene, rows, default_frame):
    """Landmark selection by brute force: every candidate sorted by
    (entropy, distance, id), each related to the target and to every
    distractor through ``relation``."""
    d_vf = reference_description(target_id, domain, scene)
    if d_vf.distinguishing:
        return d_vf, None
    target = scene.entity(target_id)
    described = consistent_set(d_vf.attrs, scene)
    distractors = sorted((described & domain) - {target_id})
    pool = [scene.entity(eid) for eid in domain] + [scene.speaker, scene.listener]
    ranked = sorted(
        (e for e in pool if e.id not in described),
        key=lambda e: (
            preference_entropy(rows[e.id]),
            distance(e.centroid, target.centroid),
            e.id,
        ),
    )
    for cand in ranked:
        r = relation(target, cand, default_frame)
        if all(relation(scene.entity(d), cand, default_frame) is not r for d in distractors):
            return d_vf, cand.id
    raise NoDiscriminatingLandmarkError(
        f"no candidate landmark discriminates {target_id!r} from {distractors}"
    )


def outcome(select, *args):
    try:
        return select(*args)
    except NoDiscriminatingLandmarkError as exc:
        return str(exc)


def compare_along_chain_domains(scene, prefs, default_frame):
    """``select_landmark`` against the reference at every step of every
    referable target's first build pass; returns (steps, failed steps)."""
    rows = entity_rows(scene, prefs)
    steps = failures = 0
    for target in scene.referable_ids():
        domain = set(scene.referable_ids())
        current = target
        while scene.entity(current).kind is EntityKind.OBJECT:
            args = (current, domain, scene, rows, default_frame)
            want = outcome(reference_landmark, *args)
            assert outcome(select_landmark, *args) == want, (target, current)
            steps += 1
            if isinstance(want, str):
                failures += 1
                break
            d_vf, lm = want
            if lm is None:
                break
            domain = domain - consistent_set(d_vf.attrs, scene)
            current = lm
    return steps, failures


VOCABULARIES = {"default": {}, "crowded": CROWDED_POOLS}


@pytest.mark.deep
@settings(deadline=None)
@pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
@pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_describe_visual_matches_reference(default_prefs, objects, vocabulary, seed):
    """``describe_visual`` equals the phrase-by-phrase reference at every
    step of every referable target's first build pass."""
    scene = sample_scene(seed, objects=objects, **VOCABULARIES[vocabulary])
    rows = entity_rows(scene, default_prefs)
    ego = frame_instance(FrameKind.EGOCENTRIC, scene)
    for target in scene.referable_ids():
        domain = set(scene.referable_ids())
        current = target
        while scene.entity(current).kind is EntityKind.OBJECT:
            d_vf = describe_visual(current, domain, scene)
            assert d_vf == reference_description(current, domain, scene), (target, current)
            try:
                _, lm = select_landmark(current, domain, scene, rows, ego)
            except NoDiscriminatingLandmarkError:
                break
            if lm is None:
                break
            domain = domain - consistent_set(d_vf.attrs, scene)
            current = lm


class TestSelectLandmarkMatchesReference:
    @pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    @pytest.mark.parametrize("prefs_name", ["default", "two_frame"])
    def test_sampled_scenes(self, objects, vocabulary, prefs_name, request):
        prefs = request.getfixturevalue(f"{prefs_name}_prefs")
        steps = failures = 0
        for i in range(8):
            scene = sample_scene(
                derive_seed("select-reference", objects, vocabulary, i),
                objects=objects,
                **VOCABULARIES[vocabulary],
            )
            ego = frame_instance(FrameKind.EGOCENTRIC, scene)
            # A front axis of another length and direction than any heading's.
            skewed = FrameInstance(ego.kind, ego.origin_entity, (0.6, -1.3))
            for frame in (ego, skewed):
                n, f = compare_along_chain_domains(scene, prefs, frame)
                steps += n
                failures += f
        assert 0 < failures < steps

    def test_diagonal_ties(self, diagonal_scene, default_prefs, two_frame_prefs):
        ego = frame_instance(FrameKind.EGOCENTRIC, diagonal_scene)
        cup = diagonal_scene.entity("cup1")
        # The tie rule, not the strict maximum, decides these relations.
        for bid, prep in (("block1", Preposition.FRONT), ("block3", Preposition.BEHIND)):
            assert relation(diagonal_scene.entity(bid), cup, ego) is prep
        rows = entity_rows(diagonal_scene, default_prefs)
        referable = set(diagonal_scene.referable_ids())
        assert select_landmark("block1", referable, diagonal_scene, rows, ego)[1] == "cup1"
        for prefs in (default_prefs, two_frame_prefs):
            steps, _ = compare_along_chain_domains(diagonal_scene, prefs, ego)
            assert steps >= len(referable)


def assert_partitions_match_relation(scene, landmarks):
    for lm in landmarks:
        for part in partitions(lm, scene):
            for e in scene.entities:
                if e.id != lm.id:
                    assert part.relation_of(e.id) is relation(e, lm, part.frame), (lm.id, e.id)


# Angular offsets from a 45-degree diagonal, in radians: on it, under and
# over the tie tolerance, and around the sign test's margin.
DIAGONAL_OFFSETS = [0.0] + [s * o for o in (1e-16, 1e-12, 1e-9, 1e-6) for s in (1.0, -1.0)]
headings = st.floats(min_value=-10.0, max_value=10.0)


@st.composite
def diagonal_tables(draw):
    """A table 0.01 to 1e4 wide with red blocks on the 45-degree diagonals
    of the oriented ``car0`` under one frame, a few cups, and that frame."""
    size = draw(st.floats(min_value=0.01, max_value=1e4))
    fraction = st.floats(min_value=-1.0, max_value=1.0)
    mid = (draw(fraction) * size, draw(fraction) * size)
    kind = draw(st.sampled_from(FrameKind))
    speaker_h, listener_h, car_h, north_h = (draw(headings) for _ in range(4))
    front = heading_vec(
        {
            FrameKind.EGOCENTRIC: speaker_h,
            FrameKind.ADDRESSEE: listener_h,
            FrameKind.INTRINSIC: car_h,
            FrameKind.EXTRINSIC: north_h,
        }[kind]
    )
    fx, fy = front
    car = (mid[0] + draw(fraction) * size / 4, mid[1] + draw(fraction) * size / 4)
    entities = [Entity("car0", EntityKind.OBJECT, "car", car, heading=car_h)]
    for i in range(draw(st.integers(min_value=2, max_value=8))):
        # Radii at least size / 200 apart keep blocks on one diagonal apart.
        radius = size * (0.02 + 0.015 * i + 0.01 * draw(st.floats(0.0, 1.0)))
        a, b = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        offset = draw(st.sampled_from(DIAGONAL_OFFSETS) | st.floats(-1e-6, 1e-6))
        if offset == 0.0 and draw(st.booleans()):
            # Exactly on the diagonal: a sign flip and swap of the front axis.
            d = (radius * (a * fx + b * fy), radius * (a * fy - b * fx))
        else:
            theta = math.atan2(fy, fx) + math.atan2(b, a) + offset
            d = (radius * math.cos(theta), radius * math.sin(theta))
        centroid = (car[0] + d[0], car[1] + d[1])
        entities.append(Entity(f"block{i}", EntityKind.OBJECT, "block", centroid, color="red"))
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        centroid = (mid[0] + draw(fraction) * size / 2, mid[1] + draw(fraction) * size / 2)
        entities.append(Entity(f"cup{i}", EntityKind.OBJECT, "cup", centroid))
    low, high = (mid[0], mid[1] - 0.49 * size), (mid[0], mid[1] + 0.49 * size)
    entities += [
        Entity("speaker", EntityKind.SPEAKER, "robot", low, heading=speaker_h),
        Entity("listener", EntityKind.LISTENER, "person", high, heading=listener_h),
    ]
    half = size / 2
    table = TableExtent((mid[0] - half, mid[1] - half), (mid[0] + half, mid[1] + half))
    try:
        scene = Scene(tuple(entities), table, north=heading_vec(north_h))
    except SceneError:  # a cup drawn onto another entity
        assume(False)
    return scene, kind


UNIFORM_ROW = (0.25, 0.25, 0.25, 0.25)


@pytest.mark.deep
class TestSignQuadrantMatchesRelation:
    """``partitions`` and ``select_landmark`` decide quadrants by the signs
    of diagonal projections, with ``_quadrant`` in a tie band; both must
    agree with ``relation`` everywhere."""

    @settings(deadline=None)
    @given(diagonal_tables())
    def test_on_the_diagonals(self, drawn):
        scene, kind = drawn
        assert_partitions_match_relation(scene, scene.entities)
        frame = frame_instance(kind, scene, "car0")
        # The car goes first, so its diagonal displacements are tested.
        rows = {e.id: UNIFORM_ROW for e in scene.entities} | {"car0": (1.0, 0.0, 0.0, 0.0)}
        domain = set(scene.referable_ids())
        for target in domain:
            args = (target, domain, scene, rows, frame)
            assert outcome(select_landmark, *args) == outcome(reference_landmark, *args)

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.sampled_from(sorted(VOCABULARIES)),
        st.sampled_from(FrameKind),
        headings,
    )
    def test_on_sampled_tables(self, default_prefs, seed, vocabulary, kind, heading):
        scene = sample_scene(seed, objects=(16, 30), **VOCABULARIES[vocabulary])
        assert_partitions_match_relation(scene, scene.entities)
        frame = FrameInstance(kind, None, heading_vec(heading))
        compare_along_chain_domains(scene, default_prefs, frame)

    def test_diagonal_ties_take_the_exact_fallback(self, diagonal_scene, default_prefs, monkeypatch):
        calls = []
        exact = prepositions._quadrant

        def counted(*args):
            calls.append(args)
            return exact(*args)

        fresh = Scene(diagonal_scene.entities, diagonal_scene.table)  # no partitions yet
        ego = frame_instance(FrameKind.EGOCENTRIC, fresh)
        rows = entity_rows(fresh, default_prefs)
        monkeypatch.setattr(generator, "_quadrant", counted)
        assert select_landmark("block1", set(fresh.referable_ids()), fresh, rows, ego)[1] == "cup1"
        assert calls
        calls.clear()
        monkeypatch.setattr(prepositions, "_quadrant", counted)
        partitions(fresh.entity("cup1"), fresh)
        assert calls
        monkeypatch.undo()
        assert_partitions_match_relation(fresh, [fresh.entity("cup1")])


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
        # A speaker turned by quarter turns selects identical landmark sequences.
        for seed in range(25):
            scene = sample_scene(seed)
            turned = turn_speaker(scene, quarters * HALF_PI)
            for target in scene.referable_ids():
                try:
                    base_chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    with pytest.raises(GenerationError):
                        build_landmark_chain(target, turned, default_prefs)
                    continue
                turned_chain = build_landmark_chain(target, turned, default_prefs)
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


def reference_chain(target_id, scene, prefs):
    """``build_landmark_chain``'s passes over an ``entity_rows`` dict filled
    for every entity before the first step, with each unit's options
    related through ``relation``."""
    rows = entity_rows(scene, prefs)
    ego = frame_instance(FrameKind.EGOCENTRIC, scene)
    for iterations in range(1, MAX_CHAIN_REBUILDS + 1):
        domain = set(scene.referable_ids())
        current, descriptions, landmarks = target_id, [], []
        while True:
            try:
                d_vf, lm = select_landmark(current, domain, scene, rows, ego)
            except NoDiscriminatingLandmarkError as exc:
                raise GenerationError(
                    f"cannot generate a distinguishing expression for {target_id!r}: {exc}"
                ) from exc
            descriptions.append(d_vf)
            if lm is None:
                break
            landmarks.append(lm)
            domain -= consistent_set(d_vf.attrs, scene)
            current = lm
        distributions = tuple(rows[eid] for eid in landmarks)
        updated = update_preferences(
            distributions, [landmark_type(scene.entity(eid)) for eid in landmarks]
        )
        converged = updated == distributions
        if converged:
            break
        rows.update(zip(landmarks, updated))
        distributions = updated
    options = []
    for src_id, lm_id in zip([target_id, *landmarks], landmarks):
        src, landmark = scene.entity(src_id), scene.entity(lm_id)
        frames = applicable_frames(landmark, scene)
        options.append(tuple((f, relation(src, landmark, f)) for f in frames))
    return LandmarkChain(
        target_id,
        tuple(landmarks),
        tuple(descriptions),
        distributions,
        tuple(options),
        iterations,
        converged,
    )


# The one sampled target set whose rebuild runs all ``MAX_CHAIN_REBUILDS``
# passes: ``test_acceptance.py``'s ``KNOWN_OSCILLATIONS``, scene 133 at 8-16
# objects.
OSCILLATING_SEED = derive_seed("acceptance", 133)


def assert_builds_match_reference(scene, prefs):
    """Every referable target's chain, or its ``GenerationError`` message,
    equals the eager reference's; returns the chains built."""
    chains = []
    for target in scene.referable_ids():
        try:
            want = reference_chain(target, scene, prefs)
        except GenerationError as exc:
            with pytest.raises(GenerationError) as err:
                build_landmark_chain(target, scene, prefs)
            assert str(err.value) == str(exc), target
            continue
        chains.append(build_landmark_chain(target, scene, prefs))
        # Dataclass equality compares every field of the chain.
        assert chains[-1] == want, target
    return chains


@pytest.mark.deep
@settings(deadline=None)
@pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
@pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
@example(seed=OSCILLATING_SEED)
def test_build_landmark_chain_matches_eager_reference(default_prefs, objects, vocabulary, seed):
    """Rows read on first use give the chains, and the failures, of rows
    read for every entity up front."""
    scene = sample_scene(seed, objects=objects, **VOCABULARIES[vocabulary])
    assert_builds_match_reference(scene, default_prefs)


def test_oscillating_build_matches_eager_reference(default_prefs):
    scene = sample_scene(OSCILLATING_SEED, objects=(8, 16))
    chains = {c.target: c for c in assert_builds_match_reference(scene, default_prefs)}
    for target in ("cup1", "cup2"):
        assert chains[target].iterations == MAX_CHAIN_REBUILDS
        assert not chains[target].converged


class TestRowLookups:
    """``build_landmark_chain`` classifies an entity only when a step ranks
    it or the update reads a landmark's type."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []

        def counted(entity):
            calls.append(entity.id)
            return landmark_type(entity)

        monkeypatch.setattr(generator, "landmark_type", counted)
        return calls

    def test_failing_first_step_classifies_no_entity(self, lookups, default_prefs):
        # The yellow blocks share every quadrant of the car and both agents.
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
        with pytest.raises(GenerationError, match=r"from \['blk_b'\]"):
            build_landmark_chain("blk_a", scene, default_prefs)
        assert lookups == []

    def test_one_landmark_chain_classifies_its_separating_candidates(
        self, lookups, blocks_car_scene, default_prefs
    ):
        scene = blocks_car_scene
        ego = frame_instance(FrameKind.EGOCENTRIC, scene)
        target, distractor = scene.entity("blk_a"), scene.entity("blk_b")
        separating = [
            e.id
            for e in scene.entities
            if e.category != "block"
            and relation(target, e, ego) is not relation(distractor, e, ego)
        ]
        chain = build_landmark_chain("blk_a", scene, default_prefs)
        assert chain.landmarks == ("car1",)
        assert separating == ["car1"]
        assert 0 < len(lookups) <= len(separating) + chain.k


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


class TestChainOptions:
    @pytest.mark.parametrize("objects", [(3, 8), (8, 16), (16, 30)], ids=str)
    @pytest.mark.parametrize("vocabulary", sorted(VOCABULARIES))
    def test_options_match_reference(self, objects, vocabulary, default_prefs):
        # Each unit's options are every applicable frame at its landmark with
        # the located entity's relation under it: the target for the first
        # unit, then each landmark in turn.
        ks = []
        for i in range(6):
            scene = sample_scene(
                derive_seed("chain-options", objects, vocabulary, i),
                objects=objects,
                **VOCABULARIES[vocabulary],
            )
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                want = []
                located = (chain.target,) + chain.landmarks[:-1]
                for src_id, lm_id in zip(located, chain.landmarks):
                    src, landmark = scene.entity(src_id), scene.entity(lm_id)
                    frames = applicable_frames(landmark, scene)
                    want.append(tuple((f, relation(src, landmark, f)) for f in frames))
                assert chain.options == tuple(want), (i, target)
                ks.append(chain.k)
                if chain.k <= MAX_COMPLEXITY:
                    counts = [len(options) for options in chain.options]
                    assert len(expression_space(chain, scene)) == math.prod(counts)
        assert 0 in ks and max(ks) >= 2  # later units locate a landmark, not the target


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
