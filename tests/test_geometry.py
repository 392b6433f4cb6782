"""The scene's derived fields: attribute index, relation partitions, lifetime.

Each result read off ``Scene.attributes`` or ``Scene.relations`` is compared
with the entity-by-entity computation it replaces, exactly rather than
within a tolerance.
"""

import gc
import itertools
import math
import random
import weakref

import pytest

from helpers import listen, random_tree
from pcsreg import harness
from pcsreg.frames import PreferenceTable, applicable_frames, default_preferences
from pcsreg.harness import (
    _DEPENDS_ON_DRAWS,
    METHODS,
    ListenerPlan,
    TrialConfig,
    derive_seed,
    derive_seeds,
    run_comparison,
    sample_scene,
)
from pcsreg.generator import (
    GenerationError,
    build_landmark_chain,
    describe_visual,
    expression_space,
    realize,
)
from pcsreg.optimizer import generate
from pcsreg.prepositions import PREPOSITION_ORDER, partitions, relation
from pcsreg.resolver import (
    AttributePhrase,
    Compound,
    Leaf,
    PersonRef,
    consistent_set,
    denote,
    depth,
)
from pcsreg.scene import Entity, EntityKind, LandmarkType, Scene, TableExtent, landmark_type

SIZES = [(3, 8), (8, 16), (16, 30)]
HALF_PI = math.pi / 2


def scan_matches(phrase, entity):
    """Case-insensitive exact match of every attribute the phrase sets."""
    if phrase.person is not None:
        kind = EntityKind.SPEAKER if phrase.person is PersonRef.SPEAKER else EntityKind.LISTENER
        return entity.kind is kind
    for want, have in (
        (phrase.category, entity.category),
        (phrase.color, entity.color),
        (phrase.shape, entity.shape),
    ):
        if want is not None and (have is None or want.lower() != have.lower()):
            return False
    return True


def scan_set(phrase, scene):
    return {e.id for e in scene.entities if scan_matches(phrase, e)}


def reference_denote_full(tree, scene, prefs):
    """The resolution model relation by relation, with no per-scene tables."""
    if isinstance(tree, Leaf):
        ids = scan_set(tree.head, scene)
        if not ids:
            return None
        p = 1.0 / len(ids)
        return {e.id: p for e in scene.entities if e.id in ids}
    child = reference_denote_full(tree.landmark, scene, prefs)
    if child is None:
        return None
    pp = {e.id: 0.0 for e in scene.entities}
    for lm_id, p_child in child.items():
        if p_child <= 0.0:
            continue
        lm = scene.entity(lm_id)
        row = prefs.row(landmark_type(lm))
        for frame in applicable_frames(lm, scene):
            p_frame = row[frame.kind.order]
            if p_frame == 0.0:
                continue
            for e in scene.entities:
                if e.id != lm_id and relation(e, lm, frame) is tree.prep:
                    pp[e.id] += p_frame * p_child
    total = sum(pp.values())
    if total <= 0.0:
        return None
    head_ids = scan_set(tree.head, scene)
    if not head_ids:
        return None
    head_p = 1.0 / len(head_ids)
    combined = {e.id: (pp[e.id] / total) * head_p for e in scene.entities if e.id in head_ids}
    s = sum(combined.values())
    if s <= 0.0:
        return None
    return {eid: p / s for eid, p in combined.items()}


def reference_denote(tree, scene, prefs):
    full = reference_denote_full(tree, scene, prefs)
    if full is None:
        return None
    restricted = {eid: full.get(eid, 0.0) for eid in scene.referable_ids()}
    total = sum(restricted.values())
    if total <= 0.0:
        return None
    return {eid: p / total for eid, p in restricted.items()}


@pytest.mark.parametrize("objects", SIZES, ids=str)
@pytest.mark.parametrize("prefs_name", ["default", "two_frame"])
def test_denote_equals_the_relation_by_relation_model(objects, prefs_name, request):
    prefs = request.getfixturevalue(f"{prefs_name}_prefs")
    depths = set()
    for i in range(12):
        scene = sample_scene(derive_seed(6, "denote", objects, i), objects=objects)
        rng = random.Random(derive_seed(6, "trees", objects, i))
        for _ in range(6):
            tree = random_tree(scene, rng, max_depth=3)
            depths.add(depth(tree))
            got = denote(tree, scene, prefs)
            want = reference_denote(tree, scene, prefs)
            if want is None:
                assert got.unresolvable
            else:
                assert list(got.probs.items()) == list(want.items())
    assert depths == {0, 1, 2, 3}


def test_partitions_hold_every_relation_in_scene_order(diagonal_scene):
    scenes = [sample_scene(derive_seed(6, "partitions", i), objects=o) for i, o in enumerate(SIZES)]
    for scene in scenes + [diagonal_scene]:
        for lm in scene.entities:
            parts = partitions(lm, scene)
            assert [p.frame for p in parts] == list(applicable_frames(lm, scene))
            assert partitions(lm, scene) is parts  # built once per landmark
            for part in parts:
                for prep, ids in zip(PREPOSITION_ORDER, part.members):
                    assert list(ids) == [
                        e.id
                        for e in scene.entities
                        if e.id != lm.id and relation(e, lm, part.frame) is prep
                    ]
                    for eid in ids:
                        assert part.relation_of(eid) is prep


@pytest.fixture(scope="module")
def mixed_case_scene():
    """Case variants and attribute-free objects."""
    objects = [
        ("b1", "block", "red", "square"),
        ("b2", "Block", "RED", None),
        ("b3", "BLOCK", "Red", "Square"),
        ("b4", "block", None, "round"),
        ("b5", "block", None, None),
        ("c1", "cup", None, None),
        ("c2", "Cup", "blue", "ROUND"),
        ("r1", "robot", "red", None),
    ]
    return Scene(
        entities=tuple(
            Entity(eid, EntityKind.OBJECT, cat, (0.2 * i - 0.8, 0.1 * (i % 3)), col, shape)
            for i, (eid, cat, col, shape) in enumerate(objects)
        )
        + (
            Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=HALF_PI),
            Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-HALF_PI),
        ),
        table=TableExtent((-1.5, -1.5), (1.5, 1.5)),
    )


def phrases_over(values):
    """Every phrase over the given per-slot values that sets some truthy field."""
    for category, color, shape in itertools.product(*values):
        if category or color or shape:
            yield AttributePhrase(category=category, color=color, shape=shape)


def case_variants(*words):
    return [None] + [case(w) for w in words for case in (str.lower, str.upper, str.title)]


def test_consistent_set_equals_an_attribute_scan(mixed_case_scene):
    scene = mixed_case_scene
    values = (
        case_variants("block", "cup", "robot", "person", "ultraviolet"),
        case_variants("red", "blue"),
        case_variants("square", "round"),
    )
    phrases = list(phrases_over(values)) + [
        AttributePhrase(person=PersonRef.SPEAKER),
        AttributePhrase(person=PersonRef.LISTENER),
    ]
    sizes = set()
    for phrase in phrases:
        got = consistent_set(phrase, scene)
        assert got == scan_set(phrase, scene)
        sizes.add(len(got))
    assert 0 in sizes and max(sizes) >= 5


def test_consistent_set_on_sampled_tables():
    for i, objects in enumerate(SIZES):
        scene = sample_scene(derive_seed(6, "consistent", i), objects=objects)
        values = [
            [None] + sorted({getattr(e, slot) for e in scene.objects()} - {None})
            for slot in ("category", "color", "shape")
        ]
        for phrase in phrases_over(values):
            assert consistent_set(phrase, scene) == scan_set(phrase, scene)


def test_consistent_set_returns_a_new_set(mixed_case_scene):
    phrase = AttributePhrase(category="block")
    first = consistent_set(phrase, mixed_case_scene)
    first.clear()
    first.add("intruder")
    assert consistent_set(phrase, mixed_case_scene) == {"b1", "b2", "b3", "b4", "b5"}
    speaker = consistent_set(AttributePhrase(person=PersonRef.SPEAKER), mixed_case_scene)
    speaker.add("intruder")
    assert consistent_set(AttributePhrase(person=PersonRef.SPEAKER), mixed_case_scene) == {
        "speaker"
    }


def test_derived_fields_are_outside_equality_and_repr():
    a = sample_scene(derive_seed(6, "lazy"))
    b = sample_scene(derive_seed(6, "lazy"))
    partitions(a.speaker, a)
    assert a.relations and not b.relations
    assert a.frames and not b.frames
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert a.margin_scale == b.margin_scale and a.margin_scale > 0
    assert all(name not in repr(a) for name in ("attributes", "relations", "frames", "margin_scale"))


def test_a_scene_with_geometry_is_freed_without_the_cycle_collector(default_prefs):
    gc.disable()
    try:
        scene = sample_scene(derive_seed(6, "weakref"), objects=(8, 16))
        tree = Compound(
            AttributePhrase(category=scene.objects()[0].category),
            PREPOSITION_ORDER[0],
            Leaf(AttributePhrase(category=scene.objects()[1].category)),
        )
        denote(tree, scene, default_prefs)
        plan = ListenerPlan(tree, scene, default_prefs)
        assert scene.relations and scene.frames  # partitions and shared frames were built
        ref = weakref.ref(scene)
        del scene
        assert ref() is None
        assert plan.steps  # the plan outlives its scene
    finally:
        gc.enable()


def comparison_trees(cfg):
    """(scene index, scene, target, each method's tree or None) in
    ``run_comparison``'s order."""
    assumed = cfg.assumed_prefs or default_preferences()
    for scene_idx in range(cfg.n_scenes):
        scene = sample_scene(derive_seed(cfg.seed, "scene", scene_idx), objects=cfg.objects)
        all_ids = set(scene.referable_ids())
        for target_id in scene.referable_ids():
            if describe_visual(target_id, all_ids, scene).distinguishing:
                continue
            try:
                chain = build_landmark_chain(target_id, scene, assumed)
            except GenerationError:
                chain = None
            strategy_seed = derive_seed(cfg.seed, "strategy", scene_idx, target_id)
            trees = {}
            for method in cfg.methods:
                trees[method] = None
                if chain is not None:
                    try:
                        trees[method] = generate(method, chain, scene, assumed, seed=strategy_seed).tree
                    except GenerationError:
                        pass
            yield scene_idx, scene, target_id, trees


def reference_records(cfg):
    """``run_comparison``'s records with a freshly seeded ``Random`` per method."""
    records = []
    for scene_idx, scene, target_id, trees in comparison_trees(cfg):
        for trial in range(cfg.trials_per_expression):
            trial_seed = derive_seed(cfg.seed, "trial", scene_idx, target_id, trial)
            for method in cfg.methods:
                tree = trees[method]
                identified = None
                if tree is not None:
                    identified = listen(
                        tree, scene, cfg.true_prefs, random.Random(trial_seed),
                        cfg.consistency_coupling,
                    )
                records.append(
                    {
                        "scene": scene_idx,
                        "target": target_id,
                        "method": method,
                        "trial": trial,
                        "k": None if tree is None else depth(tree),
                        "identified": identified,
                        "correct": identified == target_id,
                    }
                )
    return records


@pytest.mark.parametrize("objects", [(3, 8), (8, 16)], ids=str)
@pytest.mark.parametrize("coupling", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_comparison_replays_one_seeding_per_trial(objects, coupling, seed, default_prefs):
    cfg = TrialConfig(
        seed=seed,
        n_scenes=3,
        trials_per_expression=12,
        true_prefs=default_prefs,
        methods=METHODS,
        objects=objects,
        consistency_coupling=coupling,
    )
    records = run_comparison(cfg).records
    assert records and records == reference_records(cfg)


def tallied(records, cfg):
    """Per-method counts of ``MethodStats`` tallied record by record."""
    counts = {}
    for method in cfg.methods:
        mine = [r for r in records if r["method"] == method]
        by_k = {b: {"trials": 0, "correct": 0} for b in ("k1", "k2plus", "failed")}
        for r in mine:
            bucket = by_k["failed" if r["k"] is None else "k1" if r["k"] == 1 else "k2plus"]
            bucket["trials"] += 1
            bucket["correct"] += r["correct"]
        counts[method] = {
            "n_expressions": len(mine) // cfg.trials_per_expression,
            "n_failures": sum(r["k"] is None for r in mine) // cfg.trials_per_expression,
            "n_trials": len(mine),
            "n_correct": sum(r["correct"] for r in mine),
            "by_k": by_k,
        }
    return counts


def counts_of(stats):
    return {
        method: {
            "n_expressions": st.n_expressions,
            "n_failures": st.n_failures,
            "n_trials": st.n_trials,
            "n_correct": st.n_correct,
            "by_k": st.by_k,
        }
        for method, st in stats.items()
    }


INTRINSIC_ONLY = PreferenceTable({lt: (0.0, 0.0, 1.0, 0.0) for lt in LandmarkType})


@pytest.mark.parametrize("objects", [(3, 8), (8, 16)], ids=str)
@pytest.mark.parametrize("prefs_name", ["default", "two_frame", "intrinsic_only"])
def test_both_tally_paths_equal_the_reference_counts(objects, prefs_name, request):
    if prefs_name == "intrinsic_only":
        true_prefs = INTRINSIC_ONLY
    else:
        true_prefs = request.getfixturevalue(f"{prefs_name}_prefs")
    kinds = set()
    for coupling in (0.0, 0.5, 1.0):
        cfg = TrialConfig(
            seed=4,
            n_scenes=3,
            trials_per_expression=12,
            true_prefs=true_prefs,
            methods=METHODS,
            objects=objects,
            consistency_coupling=coupling,
        )
        want = tallied(reference_records(cfg), cfg)
        without = run_comparison(cfg, collect_records=False)
        with_records = run_comparison(cfg, collect_records=True)
        assert not without.records
        assert counts_of(without.stats) == counts_of(with_records.stats) == want
        assert [st.expected_sum for st in without.stats.values()] == [
            st.expected_sum for st in with_records.stats.values()
        ]
        for _, scene, _, trees in comparison_trees(cfg):
            if all(tree is None for tree in trees.values()):
                kinds.add("no tree")
            for tree in filter(None, trees.values()):
                fixed = ListenerPlan(tree, scene, true_prefs).fixed
                kinds.add("draws" if fixed is _DEPENDS_ON_DRAWS else "fixed")
    # One frame kind per landmark leaves every step at most one option.
    drawing = set() if prefs_name == "intrinsic_only" else {"draws"}
    assert kinds == {"no tree", "fixed"} | drawing


@pytest.mark.parametrize("collect_records", [False, True])
@pytest.mark.parametrize("prefs_name", ["default", "intrinsic_only"])
def test_trial_seeds_are_derived_once_per_target_that_draws(
    prefs_name, collect_records, request, monkeypatch
):
    """Only a target with a drawing plan walks its trials: with
    ``INTRINSIC_ONLY`` every plan is fixed and no trial seed is derived."""
    if prefs_name == "intrinsic_only":
        true_prefs = INTRINSIC_ONLY
    else:
        true_prefs = request.getfixturevalue(f"{prefs_name}_prefs")
    cfg = TrialConfig(
        seed=4,
        n_scenes=3,
        trials_per_expression=12,
        true_prefs=true_prefs,
        methods=METHODS,
        objects=(3, 8),
    )
    want = []
    for scene_idx, scene, target_id, trees in comparison_trees(cfg):
        plans = [ListenerPlan(tree, scene, true_prefs) for tree in filter(None, trees.values())]
        if any(plan.fixed is _DEPENDS_ON_DRAWS for plan in plans):
            want.append((cfg.seed, "trial", scene_idx, target_id))
    assert bool(want) == (prefs_name == "default")

    calls = []

    def counting_derive_seeds(*parts, count):
        calls.append(parts)
        assert count == cfg.trials_per_expression
        return derive_seeds(*parts, count=count)

    monkeypatch.setattr(harness, "derive_seeds", counting_derive_seeds)
    run_comparison(cfg, collect_records=collect_records)
    assert calls == want


def ranked_surfaces(scene, target_id, prefs):
    """The surfaces ``pcsreg``'s ranking scores for the target, if it ranks."""
    try:
        chain = build_landmark_chain(target_id, scene, prefs)
        return {c.surface for c in expression_space(chain, scene)}
    except GenerationError:
        return set()


@pytest.mark.parametrize("objects", [(3, 8), (8, 16)], ids=str)
@pytest.mark.parametrize("prefs_name", ["default", "two_frame"])
def test_each_distinct_tree_is_denoted_once_per_target(objects, prefs_name, request, monkeypatch):
    """With equal tables the harness denotes only the trees whose surface
    the ranking did not score; with different tables, every distinct tree."""
    true_prefs = request.getfixturevalue(f"{prefs_name}_prefs")
    cfg = TrialConfig(
        seed=5,
        n_scenes=6,
        trials_per_expression=3,
        true_prefs=true_prefs,
        methods=METHODS,
        objects=objects,
    )
    equal_tables = true_prefs == default_preferences()
    want_plans, want_denoted = [], []
    n_trees = 0
    sums = {method: 0.0 for method in cfg.methods}
    for _, scene, target_id, trees in comparison_trees(cfg):
        ranked = ranked_surfaces(scene, target_id, true_prefs) if equal_tables else set()
        distinct = []
        for method, tree in trees.items():
            if tree is None:
                continue
            n_trees += 1
            if tree not in distinct:
                distinct.append(tree)
            sums[method] += denote(tree, scene, true_prefs).get(target_id, 0.0)
        want_plans += distinct
        want_denoted += [tree for tree in distinct if realize(tree) not in ranked]
    assert 0 < len(want_plans) < n_trees
    if equal_tables:
        assert len(want_denoted) < len(want_plans)
    else:
        assert want_denoted == want_plans

    calls = []
    plans = []

    def counting_denote(tree, scene, prefs):
        calls.append(tree)
        return denote(tree, scene, prefs)

    def counting_plan(tree, scene, prefs):
        plans.append(tree)
        return ListenerPlan(tree, scene, prefs)

    monkeypatch.setattr(harness, "denote", counting_denote)
    monkeypatch.setattr(harness, "ListenerPlan", counting_plan)
    report = run_comparison(cfg, collect_records=False)
    assert calls == want_denoted
    assert plans == want_plans  # one plan per distinct tree per target
    for method, st in report.stats.items():
        assert st.expected_accuracy == sums[method] / st.n_expressions
