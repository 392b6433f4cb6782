import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CROWDED_POOLS, listen, random_tree

from pcsreg import cli
from pcsreg.frames import (
    FRAME_ORDER,
    FrameInstance,
    FrameKind,
    PreferenceTable,
    default_preferences,
    frame_instance,
    supports_intrinsic,
)
from pcsreg.generator import (
    ComplexityCapError,
    GenerationError,
    build_landmark_chain,
    describe_visual,
    expression_space,
)
from pcsreg.geometry import heading_vec
from pcsreg.harness import (
    _DEPENDS_ON_DRAWS,
    ORACLE_MAX_DEPTH,
    HarnessError,
    ListenerPlan,
    MethodStats,
    TrialConfig,
    TrialReport,
    config_from_dict,
    derive_seed,
    derive_seeds,
    format_report_text,
    oracle_denote,
    records_to_csv,
    report_to_json,
    run_comparison,
    sample_scene,
    simulate_listener,
)
from pcsreg.optimizer import generate, select_best
from pcsreg.prepositions import Preposition, relation
from pcsreg.resolver import AttributePhrase, Compound, Leaf, consistent_set, denote, depth
from pcsreg.scene import LandmarkType, dump_scene, landmark_type, load_scene

DEMO_DIR = Path(__file__).resolve().parent.parent / "demo"
DEMO_CONFIG = DEMO_DIR / "eval_config.json"
DEMO_SCENES = ("facing_pair_square.json", "two_blocks_car.json")

SQUARE_EXPR = Compound(
    AttributePhrase(category="object"),
    Preposition.FRONT,
    Leaf(AttributePhrase(shape="square")),
)

ALL_EGO = PreferenceTable({lt: (1.0, 0.0, 0.0, 0.0) for lt in LandmarkType})
ALL_ADDR = PreferenceTable({lt: (0.0, 1.0, 0.0, 0.0) for lt in LandmarkType})
INTRINSIC_ONLY = PreferenceTable({lt: (0.0, 0.0, 1.0, 0.0) for lt in LandmarkType})


class TestSampleScene:
    def test_deterministic_bytes(self):
        assert dump_scene(sample_scene(0)) == dump_scene(sample_scene(0))
        assert dump_scene(sample_scene(0)) != dump_scene(sample_scene(1))

    def test_object_count_range(self):
        for seed in range(30):
            scene = sample_scene(seed, objects=(3, 8))
            assert 3 <= len(scene.objects()) <= 8

    def test_agents_face_each_other(self):
        scene = sample_scene(5)
        assert scene.speaker.centroid[1] < scene.listener.centroid[1]
        assert math.cos(scene.speaker.heading) == pytest.approx(0.0, abs=1e-12)
        assert math.sin(scene.speaker.heading) == pytest.approx(1.0)
        assert math.sin(scene.listener.heading) == pytest.approx(-1.0)

    def test_shared_visual_description_pair(self):
        shared = 0
        for seed in range(40):
            scene = sample_scene(seed)
            visuals = [(o.category, o.color, o.shape) for o in scene.objects()]
            if len(visuals) != len(set(visuals)):
                shared += 1
        assert shared / 40 >= 0.5  # forced pair: in fact always shared

    def test_validates_pools_and_range(self):
        with pytest.raises(HarnessError):
            sample_scene(0, categories=())
        with pytest.raises(HarnessError):
            sample_scene(0, objects=(1, 4))
        for pool in ("colors", "shapes"):  # a sampled "" would fail load_scene
            with pytest.raises(HarnessError, match=f"'{pool}' must contain strings"):
                sample_scene(3, **{pool: ("",)})
        # A pool is a tuple or list: a string is no list of its letters.
        for pool, value in (("categories", "block"), ("colors", {"red"})):
            with pytest.raises(HarnessError, match=f"'{pool}' must be of type array"):
                sample_scene(0, **{pool: value})

    def test_placement_failure_is_reported(self):
        with pytest.raises(HarnessError, match="could not place"):
            sample_scene(0, objects=(2000, 2000))


class TestSimulateListener:
    def test_degenerate_prefs_pick_one_reading(self, facing_square_scene):
        rng = random.Random(1)
        # Speaker-only preferences resolve the split toward the entity in
        # front of the square from the speaker's side, listener-only toward
        # the other one.
        assert listen(SQUARE_EXPR, facing_square_scene, ALL_EGO, rng) == "d"
        assert listen(SQUARE_EXPR, facing_square_scene, ALL_ADDR, rng) == "a"

    def test_confused_on_empty_anchor(self, facing_square_scene):
        tree = Compound(
            AttributePhrase(category="object"),
            Preposition.FRONT,
            Leaf(AttributePhrase(color="purple")),
        )
        assert listen(tree, facing_square_scene, ALL_EGO, random.Random(0)) is None

    def test_confused_when_no_frame_applicable(self, facing_square_scene):
        # The square is unoriented, so an intrinsic-only listener cannot
        # interpret a relation anchored at it.
        assert listen(SQUARE_EXPR, facing_square_scene, INTRINSIC_ONLY, random.Random(0)) is None

    def test_inapplicable_mass_renormalizes(self, facing_square_scene):
        half_intrinsic = PreferenceTable({lt: (0.5, 0.0, 0.5, 0.0) for lt in LandmarkType})
        outcomes = {
            listen(SQUARE_EXPR, facing_square_scene, half_intrinsic, random.Random(s))
            for s in range(50)
        }
        assert outcomes == {"d"}  # egocentric is the only applicable frame

    def test_empirical_frequency_matches_effectiveness(
        self, facing_square_scene, two_frame_prefs
    ):
        # For one relation unit with singleton survivor sets per frame, the
        # listener's hit rate converges on the denotation mass.
        n = 10_000
        hits = 0
        for trial in range(n):
            rng = random.Random(derive_seed(123, trial))
            hits += listen(SQUARE_EXPR, facing_square_scene, two_frame_prefs, rng) == "a"
        expected = denote(SQUARE_EXPR, facing_square_scene, two_frame_prefs).get("a")
        stderr = math.sqrt(expected * (1 - expected) / n)
        assert abs(hits / n - expected) <= 3 * stderr

    def test_consistency_coupling_reuses_frames(self):
        # Every unit resolves under both frames here, to different entities,
        # so the hit rate for the doubly-egocentric reading is 0.25 for
        # independent per-unit frame draws but 0.5 with full coupling.
        import math

        from pcsreg.scene import Entity, EntityKind, Scene, TableExtent

        HALF_PI = math.pi / 2
        scene = Scene(
            entities=(
                Entity("blk_p", EntityKind.OBJECT, "block", (-0.5, -0.4), color="yellow"),
                Entity("blk_q", EntityKind.OBJECT, "block", (-0.5, 0.4), color="yellow"),
                Entity("blk_r", EntityKind.OBJECT, "block", (0.5, -0.4), color="yellow"),
                Entity("blk_s", EntityKind.OBJECT, "block", (0.5, 0.4), color="yellow"),
                Entity("cub_a", EntityKind.OBJECT, "cuboid", (-0.5, 0.0)),
                Entity("cub_b", EntityKind.OBJECT, "cuboid", (0.5, 0.0)),
                Entity("car1", EntityKind.OBJECT, "car", (0.0, 0.0), heading=HALF_PI),
                Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
                Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
            ),
            table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
        )
        tree = Compound(
            AttributePhrase(category="block", color="yellow"),
            Preposition.BEHIND,
            Compound(
                AttributePhrase(category="cuboid"),
                Preposition.LEFT,
                Leaf(AttributePhrase(category="car")),
            ),
        )
        two_frame = PreferenceTable({lt: (0.5, 0.5, 0.0, 0.0) for lt in LandmarkType})
        n = 400
        independent = sum(
            listen(tree, scene, two_frame, random.Random(s)) == "blk_p"
            for s in range(n)
        )
        coupled = sum(
            listen(tree, scene, two_frame, random.Random(s), consistency_coupling=1.0) == "blk_p"
            for s in range(n)
        )
        assert coupled > independent + 0.1 * n


def reference_units(tree):
    """The tree's relation units deepest-first, and the innermost phrase."""
    units = []
    node = tree
    while isinstance(node, Compound):
        units.append((node.head, node.prep))
        node = node.landmark
    units.reverse()
    return units, node.head


def reference_options(head, prep, resolved, scene, true_prefs):
    """The unit's adoptable frames at ``resolved`` as (kind, weight, survivors)."""
    head_ids = sorted(consistent_set(head, scene))
    row = true_prefs.row(landmark_type(resolved))
    options = []
    for kind in FRAME_ORDER:
        p = row[kind.order]
        if p <= 0.0:
            continue
        if kind is FrameKind.INTRINSIC:
            if not supports_intrinsic(resolved):
                continue
            frame = FrameInstance(kind, resolved.id, heading_vec(resolved.heading))
        else:
            frame = frame_instance(kind, scene)
        survivors = [
            eid
            for eid in head_ids
            if eid != resolved.id and relation(scene.entity(eid), resolved, frame) is prep
        ]
        if survivors:
            options.append((kind, p, survivors))
    return options


def reference_listener(tree, scene, true_prefs, rng, consistency_coupling=0.0):
    """The uncompiled listener: recomputes every relation on every trial."""
    units, anchor = reference_units(tree)
    ids = consistent_set(anchor, scene)
    if not ids:
        return None
    resolved = scene.entity(min(ids))
    prev_kind = None
    for head, prep in units:
        options = reference_options(head, prep, resolved, scene, true_prefs)
        if not options:
            return None
        total = sum(p for _, p, _ in options)
        draw = rng.random()
        chosen = None
        if prev_kind is not None and consistency_coupling > 0.0 and draw < consistency_coupling:
            chosen = next((o for o in options if o[0] is prev_kind), None)
        if chosen is None:
            u = rng.random() * total
            acc = 0.0
            chosen = options[-1]
            for option in options:
                acc += option[1]
                if u <= acc:
                    chosen = option
                    break
        kind, _, survivors = chosen
        resolved = scene.entity(survivors[0])
        prev_kind = kind
    return resolved.id


def method_trees(scene, prefs, seed):
    """Every method's expression for every ambiguous target of the scene."""
    all_ids = set(scene.referable_ids())
    for target in scene.referable_ids():
        if describe_visual(target, all_ids, scene).distinguishing:
            continue
        try:
            chain = build_landmark_chain(target, scene, prefs)
        except GenerationError:
            continue
        for method in ("max", "robot", "human"):
            yield generate(method, chain, scene, prefs).tree
        yield generate("random", chain, scene, prefs, seed=seed).tree
        try:
            yield select_best(expression_space(chain, scene), target, scene, prefs)[0].tree
        except ComplexityCapError:
            pass


class CountingRandom(random.Random):
    """A ``Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class TestListenerEquivalence:
    """The compiled listener matches the uncompiled walk draw for draw."""

    @pytest.mark.parametrize("objects", [(3, 8), (8, 16)])
    def test_matches_reference(self, objects, default_prefs, two_frame_prefs):
        tables = (default_prefs, two_frame_prefs, INTRINSIC_ONLY)
        calls = confused = 0
        for seed in range(100):
            scene = sample_scene(derive_seed("listener", seed), objects=objects)
            for tree in method_trees(scene, default_prefs, seed):
                for prefs in tables:
                    for coupling in (0.0, 0.5, 1.0):
                        for trial in range(2):
                            trial_seed = derive_seed(seed, trial)
                            expected_rng = random.Random(trial_seed)
                            rng = CountingRandom(trial_seed)
                            expected = reference_listener(
                                tree, scene, prefs, expected_rng, coupling
                            )
                            assert listen(tree, scene, prefs, rng, coupling) == expected
                            assert rng.getstate() == expected_rng.getstate()
                            # ``run_comparison`` precomputes this many draws.
                            assert rng.calls <= 2 * depth(tree)
                            calls += 1
                            confused += expected is None
        assert calls > 1000
        assert 0 < confused < calls

    def test_interleaved_scenes_and_tables_match_reference(self, default_prefs, two_frame_prefs):
        # Each call switches scene or table: every tree is compiled against
        # both scenes, including the one it was not generated for.
        scenes = [sample_scene(derive_seed("interleave", i)) for i in range(2)]
        trees = [t for i, scene in enumerate(scenes) for t in method_trees(scene, default_prefs, i)]
        calls = confused = 0
        for trial in range(3):
            for tree in trees:
                for scene in scenes:
                    for prefs in (default_prefs, two_frame_prefs):
                        trial_seed = derive_seed("interleave", trial, calls)
                        expected_rng = random.Random(trial_seed)
                        rng = random.Random(trial_seed)
                        expected = reference_listener(tree, scene, prefs, expected_rng)
                        assert listen(tree, scene, prefs, rng) == expected
                        assert rng.getstate() == expected_rng.getstate()
                        calls += 1
                        confused += expected is None
        assert calls > 100
        assert 0 < confused < calls


def reference_reachable(tree, scene, true_prefs):
    """Every answer of the uncompiled listener over every option of every
    unit, by enumerating each path of options, and the (unit level,
    landmark id) pairs at which some path resolves a unit."""
    units, anchor = reference_units(tree)
    ids = consistent_set(anchor, scene)
    visited = set()
    if not ids:
        return {None}, visited

    def walk(level, resolved):
        if level == len(units):
            return {resolved.id}
        visited.add((level, resolved.id))
        head, prep = units[level]
        options = reference_options(head, prep, resolved, scene, true_prefs)
        if not options:
            return {None}
        return set().union(
            *(walk(level + 1, scene.entity(survivors[0])) for _, _, survivors in options)
        )

    return walk(0, scene.entity(min(ids))), visited


def test_fixed_plans_answer_every_draw(default_prefs, two_frame_prefs):
    answers = []
    drawing = branching = 0
    for seed in range(30):
        scene = sample_scene(derive_seed("fixed", seed), objects=(3, 8))
        rng = random.Random(seed)
        trees = list(method_trees(scene, default_prefs, seed))
        trees += [random_tree(scene, rng, max_depth=3) for _ in range(4)]
        for tree in trees:
            for prefs in (default_prefs, two_frame_prefs, INTRINSIC_ONLY):
                plan = ListenerPlan(tree, scene, prefs)
                fixed = plan.fixed
                if fixed is _DEPENDS_ON_DRAWS:
                    drawing += 1
                    continue
                answers.append(fixed)
                # A step with several options whose paths all end alike.
                branching += any(len(options) > 1 for options, _ in plan.steps.values())
                for s in range(20):
                    for coupling in (0.0, 0.5, 1.0):
                        assert simulate_listener(plan, random.Random(s).random, coupling) == fixed
                        rng = random.Random(s)
                        assert reference_listener(tree, scene, prefs, rng, coupling) == fixed
    assert drawing > 0 and branching > 0
    assert None in answers and len(set(answers)) > 10


@pytest.mark.parametrize("source", ["demo", (3, 8), (8, 16)], ids=str)
def test_fixed_is_the_one_reachable_answer(source, default_prefs, two_frame_prefs):
    if source == "demo":
        scenes = [load_scene(DEMO_DIR / name) for name in DEMO_SCENES]
    else:
        scenes = [sample_scene(derive_seed("reachable", seed), objects=source) for seed in range(50)]
    n_reachable = set()
    for i, scene in enumerate(scenes):
        rng = random.Random(i)
        trees = list(method_trees(scene, default_prefs, i))
        trees += [random_tree(scene, rng, max_depth=3) for _ in range(6)]
        for tree in trees:
            for prefs in (default_prefs, two_frame_prefs, INTRINSIC_ONLY):
                reachable, visited = reference_reachable(tree, scene, prefs)
                n_reachable.add(min(len(reachable), 2))
                want = reachable.pop() if len(reachable) == 1 else _DEPENDS_ON_DRAWS
                plan = ListenerPlan(tree, scene, prefs)
                assert plan.fixed == want, tree
                # The plan's table holds exactly the steps some path reaches.
                assert set(plan.steps) == visited, tree
    assert n_reachable == {1, 2}


GOLDEN_DIGESTS = {
    # sha256 of report_to_json + records_to_csv for demo/eval_config.json,
    # as-is and with consistency_coupling 0.3; records are kept in both.
    0.0: "69b651ed0746841e8e5c6d630c306dea1ca4405850749d30516dbd85fbc2fe04",
    0.3: "2bbdad2e35f9b81c40be6e922ea238f713388cd2e25f6a7ef8e8c647b507336e",
}


@pytest.mark.parametrize("coupling", sorted(GOLDEN_DIGESTS))
def test_demo_report_bytes_are_golden(coupling):
    doc = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    doc["consistency_coupling"] = coupling
    report = run_comparison(config_from_dict(doc), collect_records=True)
    text = report_to_json(report) + records_to_csv(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[coupling]


@pytest.mark.parametrize("coupling", sorted(GOLDEN_DIGESTS))
def test_demo_report_without_records_equals_the_golden_run(coupling):
    doc = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    doc["consistency_coupling"] = coupling
    cfg = config_from_dict(doc)
    assert not cfg.per_trial_csv  # what ``pcsreg evaluate`` runs on the demo config
    with_records = report_to_json(run_comparison(cfg, collect_records=True))
    assert report_to_json(run_comparison(cfg, collect_records=False)) == with_records


# sha256 of ``pcsreg evaluate``'s stdout, the bytes of ``report.txt``, for
# demo/eval_config.json at each coupling of ``GOLDEN_DIGESTS``.
REPORT_TEXT_DIGESTS = {
    0.0: "022aefff7590546a3c5faccc95c799e7ae3c9cae0b56e7314c3ec87b8f9bb8b7",
    0.3: "d7a4ddc4e938efd2fd34f0f2ebdc30a79d0f2121f36ec6f33e4a303b2ac8be22",
}


@pytest.mark.parametrize("coupling", sorted(REPORT_TEXT_DIGESTS))
def test_demo_report_text_bytes_are_golden(coupling, tmp_path, capsys):
    doc = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    doc["consistency_coupling"] = coupling
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    assert (tmp_path / "out" / "report.txt").read_text(encoding="utf-8") == stdout
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_TEXT_DIGESTS[coupling]


def test_report_text_reads_a_bucket_with_no_trials_as_a_dash():
    stats = MethodStats(n_expressions=1, n_trials=4, n_correct=3, expected_sum=0.5)
    stats.by_k["k1"].update(trials=4, correct=3)
    report = TrialReport(1, 1, 1, 4, {"robot": stats})
    assert format_report_text(report).splitlines()[-1].split() == [
        "robot", "0.7500", "0.5000", "0.7500", "-", "0"
    ]


MISMATCHED_TABLE_DIGESTS = {
    # sha256 of report_to_json + records_to_csv for demo/eval_config.json
    # with one of its tables set to demo/preferences_two_frame.json: the
    # listener's masses then come from ``denote``, not from the ranking.
    "assumed_prefs": "f2de8096797d20bb69367d31b4e587627c4f829fd70e44e2e411774ed8f9257a",
    "true_prefs": "c0f0e2a766e7468b4207832f66d3556fdffc8da514870ef2ec87bfd3488ddb96",
}


@pytest.mark.parametrize("key", sorted(MISMATCHED_TABLE_DIGESTS))
def test_demo_report_with_mismatched_tables_is_golden(key):
    doc = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    doc[key] = json.loads((DEMO_DIR / "preferences_two_frame.json").read_text(encoding="utf-8"))
    report = run_comparison(config_from_dict(doc), collect_records=True)
    text = report_to_json(report) + records_to_csv(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MISMATCHED_TABLE_DIGESTS[key]


@pytest.mark.deep
@settings(deadline=None)
@given(
    seed=st.integers(),
    scene_idx=st.integers(min_value=0),
    target_id=st.text(min_size=1),
    count=st.integers(min_value=0, max_value=40),
)
@example(seed=-7, scene_idx=0, target_id="tasse_bleue_\u00e9\u4e2d", count=1)
@example(seed=2**63 + 5, scene_idx=3, target_id="block1", count=20)
def test_prefix_seeds_equal_derive_seed(seed, scene_idx, target_id, count):
    seeds = derive_seeds(seed, "trial", scene_idx, target_id, count=count)
    assert seeds == [derive_seed(seed, "trial", scene_idx, target_id, t) for t in range(count)]


@pytest.mark.deep
@settings(deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=4),
    k=st.integers(min_value=0, max_value=16),
)
def test_reseeded_generator_draws_as_a_fresh_one(seeds, k):
    rng = random.Random(0)
    for s in seeds:
        rng.seed(s)
        fresh = random.Random(s)
        assert [rng.random() for _ in range(k)] == [fresh.random() for _ in range(k)]


def oracle_difference(tree, scene, prefs):
    """Max |denote - oracle_denote| over the referable ids, or None when
    both are unresolvable."""
    a = denote(tree, scene, prefs)
    b = oracle_denote(tree, scene, prefs)
    assert a.unresolvable == b.unresolvable, tree
    if a.unresolvable:
        return None
    assert a.probs.keys() == b.probs.keys()
    return max(abs(a.probs[eid] - b.probs[eid]) for eid in a.probs)


class TestOracle:
    def test_square_scene(self, facing_square_scene, two_frame_prefs):
        d = oracle_denote(SQUARE_EXPR, facing_square_scene, two_frame_prefs)
        assert d.probs == pytest.approx({"a": 0.6, "b": 0.0, "c": 0.0, "d": 0.4}, abs=1e-12)

    def test_leaf_matches_denote(self, facing_square_scene, default_prefs):
        tree = Leaf(AttributePhrase(category="object"))
        assert oracle_denote(tree, facing_square_scene, default_prefs).probs == denote(
            tree, facing_square_scene, default_prefs
        ).probs

    def test_random_pairs_match_denote(self, default_prefs):
        worst = 0.0
        checked = 0
        for seed in range(120):
            scene = sample_scene(derive_seed("oracle", seed), objects=(2, 4))
            rng = random.Random(seed)
            tree = random_tree(scene, rng, max_depth=2)
            a = denote(tree, scene, default_prefs)
            b = oracle_denote(tree, scene, default_prefs)
            assert a.unresolvable == b.unresolvable
            if a.unresolvable:
                continue
            checked += 1
            for eid in a.probs:
                worst = max(worst, abs(a.probs[eid] - b.probs[eid]))
        assert checked > 50
        assert worst <= 1e-9

    @pytest.mark.parametrize("objects", [(8, 16), (16, 30)], ids=str)
    def test_random_trees_match_denote_on_larger_tables(self, objects, default_prefs):
        worst = 0.0
        checked = 0
        depths = set()
        for i in range(150):
            scene = sample_scene(derive_seed("oracle-large", objects, i // 5), objects=objects)
            tree = random_tree(
                scene, random.Random(derive_seed("oracle-tree", objects, i)), ORACLE_MAX_DEPTH
            )
            depths.add(depth(tree))
            diff = oracle_difference(tree, scene, default_prefs)
            if diff is not None:
                checked += 1
                worst = max(worst, diff)
        assert depths == set(range(ORACLE_MAX_DEPTH + 1))
        assert checked > 75
        assert worst <= 1e-9

    @pytest.mark.parametrize("objects", [(8, 16), (16, 30)], ids=str)
    @pytest.mark.parametrize("vocabulary", ["default", "crowded"])
    def test_expression_space_surfaces_match_denote(self, objects, vocabulary, default_prefs):
        # Every distinct tree of every chain the oracle's depth bound admits.
        pools = {"default": {}, "crowded": CROWDED_POOLS}[vocabulary]
        worst = 0.0
        trees_checked = 0
        for i in range(15):
            scene = sample_scene(derive_seed("oracle-space", objects, vocabulary, i), objects=objects, **pools)
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, default_prefs)
                except GenerationError:
                    continue
                if chain.k > ORACLE_MAX_DEPTH:
                    continue
                for tree in {c.tree for c in expression_space(chain, scene)}:
                    diff = oracle_difference(tree, scene, default_prefs)
                    if diff is not None:
                        worst = max(worst, diff)
                        trees_checked += 1
        assert trees_checked > 200
        assert worst <= 1e-9

    def test_size_limits(self, default_prefs):
        deep = Leaf(AttributePhrase(category="block"))
        for _ in range(4):
            deep = Compound(AttributePhrase(category="block"), Preposition.FRONT, deep)
        small = sample_scene(1, objects=(2, 2))
        with pytest.raises(HarnessError):
            oracle_denote(deep, small, default_prefs)


def tiny_config(**overrides):
    doc = {
        "seed": 11,
        "n_scenes": 4,
        "trials_per_expression": 3,
        "methods": ["pcsreg", "max", "robot", "human", "random"],
        "objects": [3, 5],
    }
    doc.update(overrides)
    return config_from_dict(doc)


class TestRunComparison:
    def test_deterministic_report(self):
        cfg = tiny_config()
        a = run_comparison(cfg)
        b = run_comparison(cfg)
        assert report_to_json(a) == report_to_json(b)
        assert format_report_text(a) == format_report_text(b)

    def test_method_isolation(self):
        full = run_comparison(tiny_config())
        solo = run_comparison(tiny_config(methods=["pcsreg"]))
        assert report_to_dict_method(full, "pcsreg") == report_to_dict_method(solo, "pcsreg")

    def test_trial_prefix_stability(self):
        short = run_comparison(tiny_config(trials_per_expression=2))
        long = run_comparison(tiny_config(trials_per_expression=4))
        key = lambda r: (r["scene"], r["target"], r["method"], r["trial"])
        short_map = {key(r): r["identified"] for r in short.records}
        long_map = {key(r): r["identified"] for r in long.records}
        for k, v in short_map.items():
            assert long_map[k] == v

    def test_robot_with_shared_frame_is_exact_for_single_unit(self):
        # When the listener provably shares the robot's frame, a one-unit
        # expression whose anchor is unique scene-wide must always land:
        # generation already checked that every same-description distractor
        # has a different relation to that anchor.
        from pcsreg.generator import GenerationError, build_landmark_chain
        from pcsreg.resolver import consistent_set

        cfg = tiny_config(methods=["robot"], true_prefs=preferences_doc_all_ego())
        report = run_comparison(cfg)
        prefs = default_preferences()
        eligible = set()
        for scene_idx in range(cfg.n_scenes):
            scene = sample_scene(
                derive_seed(cfg.seed, "scene", scene_idx), objects=cfg.objects
            )
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, prefs)
                except GenerationError:
                    continue
                if chain.k != 1:
                    continue
                anchor = chain.descriptions[-1].attrs
                if len(consistent_set(anchor, scene)) == 1:
                    eligible.add((scene_idx, target))
        checked = [r for r in report.records if (r["scene"], r["target"]) in eligible]
        assert checked, "expected at least one eligible single-unit expression"
        assert all(r["correct"] for r in checked)

    def test_bucket_counts_sum_to_total(self):
        report = run_comparison(tiny_config())
        for st in report.stats.values():
            assert sum(b["trials"] for b in st.by_k.values()) == st.n_trials

    def test_complexity_cap_counts_as_failure(self, monkeypatch):
        # Target block15 of this scene needs a five-unit chain, one over the
        # exhaustive-search cap: pcsreg fails on it, the other methods
        # still produce an expression.
        import pcsreg.harness as harness

        scene = cap_scene()
        monkeypatch.setattr(harness, "sample_scene", lambda *args, **kwargs: scene)
        cfg = tiny_config(n_scenes=1, trials_per_expression=1)
        report = run_comparison(cfg)
        cap_failures = report.stats["pcsreg"].n_failures - report.stats["max"].n_failures
        assert cap_failures >= 1
        assert any(
            r["target"] == "block15" and r["method"] == "pcsreg" and r["k"] is None
            for r in report.records
        )
        assert any(
            r["target"] == "block15" and r["method"] == "max" and r["k"] == 5
            for r in report.records
        )

    def test_csv_export(self):
        report = run_comparison(tiny_config(n_scenes=1))
        text = records_to_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "scene,target,method,trial,k,identified,correct"
        assert len(lines) == len(report.records) + 1


def cap_scene():
    return sample_scene(
        derive_seed(1, "scene", 189),
        objects=(8, 16),
        categories=("block", "cup"),
        colors=("red", "blue"),
        shapes=(),
    )


def test_complexity_cap_is_a_generation_error(default_prefs):
    scene = cap_scene()
    chain = build_landmark_chain("block15", scene, default_prefs)
    assert chain.k == 5
    # The cap is checked on the chain, before any candidate is built.
    with pytest.raises(ComplexityCapError) as info:
        expression_space(chain, scene)
    assert isinstance(info.value, GenerationError)


def report_to_dict_method(report, method):
    from pcsreg.harness import report_to_dict

    return report_to_dict(report)["methods"][method]


def preferences_doc_all_ego():
    return {
        "speaker": [1.0, 0.0, 0.0, 0.0],
        "listener": [1.0, 0.0, 0.0, 0.0],
        "oriented_object": [1.0, 0.0, 0.0, 0.0],
        "unoriented_object": [1.0, 0.0, 0.0, 0.0],
    }


class TestConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(HarnessError):
            tiny_config(n_scenes=0)
        with pytest.raises(HarnessError):
            tiny_config(trials_per_expression=0)

    def test_rejects_empty_or_unknown_methods(self):
        with pytest.raises(HarnessError):
            tiny_config(methods=[])
        with pytest.raises(HarnessError):
            tiny_config(methods=["pcsreg", "psychic"])

    def test_rejects_other_context_windows(self):
        with pytest.raises(HarnessError):
            tiny_config(context_window=[0, 2])

    def test_rejects_unknown_keys_by_name(self):
        with pytest.raises(HarnessError, match="'trials'"):
            tiny_config(trials=3)

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": "11"},
            {"n_scenes": 2.5},
            {"methods": "pcsreg"},
            {"objects": 5},
            {"objects": ["a", "b"]},
            {"objects": [3, 4, 5]},
            {"colors": "red"},
            {"consistency_coupling": True},
            {"per_trial_csv": "yes"},
            {"true_prefs": [1.0, 0.0, 0.0, 0.0]},
        ]
        # A short row fails the schema, a row summing to 0.5 the sum rule;
        # the message names the table and the row.
        + [
            {table: {**preferences_doc_all_ego(), "speaker": row}}
            for table in ("true_prefs", "assumed_prefs")
            for row in ([1, 0, 0], [0.5, 0.0, 0.0, 0.0])
        ]
        # A method listed twice would be tallied twice per target.
        + [{"methods": ["robot", "robot"]}],
    )
    def test_rejects_wrong_types(self, override):
        with pytest.raises(HarnessError, match=repr(next(iter(override)))):
            tiny_config(**override)

    @pytest.mark.parametrize(
        "override", [{"objects": [1, 3]}, {"objects": [5, 4]}, {"categories": []}]
    )
    def test_rejects_empty_pools(self, override):
        with pytest.raises(HarnessError):
            tiny_config(**override)

    @pytest.mark.parametrize("pool", ["categories", "colors", "shapes"])
    def test_rejects_empty_strings_in_pools(self, pool):
        with pytest.raises(HarnessError, match=f"'{pool}' must contain strings of at least 1 char"):
            tiny_config(**{pool: ["red", ""]})

    @pytest.mark.parametrize("pool", ["categories", "colors", "shapes"])
    @pytest.mark.parametrize("value", ["toy car", "behind", "On", "red "])
    def test_rejects_pool_values_that_would_not_parse_back(self, pool, value):
        message = f"^config field '{pool}' must contain strings of at least 1 characters, each a single word"
        with pytest.raises(HarnessError, match=message):
            tiny_config(**{pool: ["red", value]})
        with pytest.raises(HarnessError, match=message):
            sample_scene(1, **{pool: ("red", value)})

    @pytest.mark.parametrize(
        "colors, shapes", [(["red", "round"], ["square", "round"]), (["Round"], ["ROUND"])]
    )
    def test_rejects_a_word_in_colors_and_shapes(self, colors, shapes):
        # A sampled scene could hold the word as one entity's color and
        # another's shape, which load_scene rejects.
        message = (
            "^config field 'shapes' must share no word with 'colors' in any letter case, "
            f"got {shapes[-1]!r}$"
        )
        with pytest.raises(HarnessError, match=message):
            tiny_config(colors=colors, shapes=shapes)
        with pytest.raises(HarnessError, match=message):
            sample_scene(1, colors=tuple(colors), shapes=tuple(shapes))

    @pytest.mark.parametrize("override", [{"seed": 10**400}, {"objects": [3, 10**400]}])
    def test_rejects_ints_beyond_float_range(self, override):
        with pytest.raises(HarnessError, match=repr(next(iter(override)))):
            tiny_config(**override)

    def test_accepts_custom_prefs(self):
        cfg = tiny_config(true_prefs=preferences_doc_all_ego())
        assert cfg.true_prefs.row(LandmarkType.LISTENER) == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("consistency_coupling", 2.0),
            ("methods", ()),
            ("methods", ("pcsreg", "psychic")),
            ("methods", ("robot", "robot")),
            ("n_scenes", 0),
            ("trials_per_expression", 0),
            ("objects", (1, 3)),
            ("objects", (5, 4)),
            ("categories", ()),
            ("true_prefs", "x"),
            ("true_prefs", None),
            ("assumed_prefs", {"speaker": [1.0, 0.0, 0.0, 0.0]}),
        ],
        ids=[
            "coupling", "no_methods", "unknown_method", "repeated_method", "n_scenes", "trials",
            "objects_below_2", "objects_hi_below_lo", "no_categories", "true_prefs_str",
            "true_prefs_none", "assumed_prefs_dict",
        ],
    )
    def test_direct_constructor_validates(self, name, value):
        fields = {
            "seed": 1,
            "n_scenes": 1,
            "trials_per_expression": 1,
            "true_prefs": default_preferences(),
            "methods": ("pcsreg",),
            name: value,
        }
        with pytest.raises(HarnessError, match=repr(name)):
            TrialConfig(**fields)

    def test_tuple_field_is_checked_as_an_array(self):
        """A tuple field is checked as the array it would be in a config
        file, and the message shows the value the caller passed."""
        with pytest.raises(HarnessError) as from_file:
            tiny_config(objects=[1, 4])
        fields = {"seed": 1, "n_scenes": 1, "trials_per_expression": 1, "methods": ("pcsreg",)}
        with pytest.raises(HarnessError) as direct:
            TrialConfig(**fields, true_prefs=default_preferences(), objects=(1, 4))
        message = "config field 'objects' must contain integers >= 2, got "
        assert (str(from_file.value), str(direct.value)) == (message + "[1, 4]", message + "(1, 4)")
