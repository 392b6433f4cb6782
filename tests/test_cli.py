import contextlib
import copy
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pcsreg import cli
from pcsreg.frames import FrameError, default_preferences, preferences_from_dict
from pcsreg.generator import (
    MAX_COMPLEXITY,
    GenerationError,
    build_landmark_chain,
    expression_space,
    realize,
)
from pcsreg.harness import (
    METHODS,
    HarnessError,
    config_from_dict,
    derive_seed,
    format_report_text,
    sample_scene,
)
from pcsreg.optimizer import generate, score_denotation, select_best
from pcsreg.prepositions import (
    LISTENER_SURFACE,
    PLAIN_SURFACE,
    SPEAKER_SURFACE,
    TOPOLOGICAL_MARKERS,
)
from pcsreg.resolver import ParseError, denote, depth, spine, tree_from_dict, tree_to_dict
from pcsreg.scene import (
    SceneError,
    attribute_vocabulary,
    dump_scene,
    load_scene,
    scene_from_dict,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"
DEMO_SCENES = ("two_blocks_car.json", "facing_pair_square.json")


NAN_PREFS = {
    "speaker": [1.0, 0.0, 0.0, 0.0],
    "listener": [float("nan"), 1.0, 0.0, 0.0],
    "oriented_object": [0.0, 0.0, 1.0, 0.0],
    "unoriented_object": [1.0, 0.0, 0.0, 0.0],
}


# Two yellow blocks that no landmark separates: generating for blk_a exits 4.
AMBIGUOUS_SCENE = {
    "table": {"min": [-1.5, -1.5], "max": [1.5, 1.5]},
    "entities": [
        {"id": "blk_a", "kind": "object", "category": "block", "color": "yellow",
         "pos": [-0.5, 0.05]},
        {"id": "blk_b", "kind": "object", "category": "block", "color": "yellow",
         "pos": [-0.5, -0.05]},
        {"id": "car1", "kind": "object", "category": "car", "pos": [0.0, 0.0],
         "heading": 1.5707963267948966},
        {"id": "speaker", "kind": "speaker", "category": "robot", "pos": [0.0, -1.0],
         "heading": 1.5707963267948966},
        {"id": "listener", "kind": "listener", "category": "person", "pos": [0.0, 1.0],
         "heading": -1.5707963267948966},
    ],
}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "pcsreg", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def scene_paths(tmp_path_factory, blocks_car_scene, facing_square_scene):
    root = tmp_path_factory.mktemp("scenes")
    blocks = root / "blocks_car.json"
    blocks.write_text(dump_scene(blocks_car_scene))
    square = root / "square.json"
    square.write_text(dump_scene(facing_square_scene))
    two_frame = root / "two_frame_prefs.json"
    two_frame.write_text(
        json.dumps(
            {
                "speaker": [0.4, 0.6, 0.0, 0.0],
                "listener": [0.4, 0.6, 0.0, 0.0],
                "oriented_object": [0.4, 0.6, 0.0, 0.0],
                "unoriented_object": [0.4, 0.6, 0.0, 0.0],
            }
        )
    )
    return {"blocks": blocks, "square": square, "two_frame": two_frame}


class TestGenerate:
    def test_surface_output(self, scene_paths):
        out = run_cli("generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a")
        assert out.returncode == 0
        assert out.stdout == "the yellow block to the left of the car\n"

    def test_json_detail(self, scene_paths):
        out = run_cli(
            "generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a", "--json"
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["surface"] == "the yellow block to the left of the car"
        assert doc["k"] == 1
        assert doc["appropriateness"] == 1
        assert doc["strategy"] == [{"kind": "egocentric", "origin": "speaker"}]
        assert doc["tree"]["prep"] == "left"

    def test_methods_differ(self, scene_paths):
        human = run_cli(
            "generate",
            "--scene", str(scene_paths["blocks"]),
            "--target", "blk_a",
            "--method", "human",
        )
        assert human.stdout == "the yellow block to the right of the car\n"

    def test_random_requires_seed(self, scene_paths):
        out = run_cli(
            "generate",
            "--scene", str(scene_paths["blocks"]),
            "--target", "blk_a",
            "--method", "random",
        )
        assert out.returncode == 1
        seeded = run_cli(
            "generate",
            "--scene", str(scene_paths["blocks"]),
            "--target", "blk_a",
            "--method", "random",
            "--seed", "7",
        )
        assert seeded.returncode == 0

    def test_unknown_target_exits_3(self, scene_paths):
        out = run_cli("generate", "--scene", str(scene_paths["blocks"]), "--target", "ghost")
        assert out.returncode == 3
        agent = run_cli("generate", "--scene", str(scene_paths["blocks"]), "--target", "speaker")
        assert agent.returncode == 3

    def test_invalid_scene_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = run_cli("generate", "--scene", str(bad), "--target", "x")
        assert out.returncode == 2

    def test_generation_failure_exits_4(self, tmp_path):
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(AMBIGUOUS_SCENE))
        out = run_cli("generate", "--scene", str(path), "--target", "blk_a")
        assert out.returncode == 4
        assert "warning" in out.stderr
        assert "'the yellow block'" in out.stderr  # best-effort fallback
        assert out.stdout == ""

    def test_complexity_cap_exits_4(self, tmp_path):
        # block15 needs a five-unit chain, one over the exhaustive-search cap.
        from pcsreg.harness import derive_seed, sample_scene

        scene = sample_scene(
            derive_seed(1, "scene", 189),
            objects=(8, 16),
            categories=("block", "cup"),
            colors=("red", "blue"),
            shapes=(),
        )
        path = tmp_path / "deep.json"
        path.write_text(dump_scene(scene))
        for verb in ("generate", "explain"):
            out = run_cli(verb, "--scene", str(path), "--target", "block15")
            assert out.returncode == 4, verb
            assert "complexity exceeds the cap" in out.stderr, verb
            assert "Traceback" not in out.stderr, verb
            assert out.stdout == "", verb

    def test_directory_scene_exits_2(self, tmp_path):
        out = run_cli("generate", "--scene", str(tmp_path), "--target", "blk_a")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr

    def test_non_finite_scene_exits_2(self, tmp_path, blocks_car_scene):
        doc = json.loads(dump_scene(blocks_car_scene))
        doc["entities"][2]["heading"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = run_cli("generate", "--scene", str(path), "--target", "blk_a")
        assert out.returncode == 2
        assert "entities[2].heading" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("slot", ["color", "shape"])
    def test_empty_attribute_string_exits_2(self, tmp_path, slot):
        doc = json.loads((DEMO / "two_blocks_car.json").read_text())
        doc["entities"][0][slot] = ""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        out = run_cli("generate", "--json", "--scene", str(path), "--target", "blk_a")
        assert out.returncode == 2
        assert f"entities[0].{slot}" in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("category", ["toy car", "behind"])
    def test_category_that_would_not_parse_back_exits_2(self, tmp_path, category):
        # "toy car" would be realized as two words, "behind" read as a marker.
        doc = json.loads((DEMO / "two_blocks_car.json").read_text())
        assert doc["entities"][2]["id"] == "car1"
        doc["entities"][2]["category"] = category
        scene = tmp_path / "category.json"
        scene.write_text(json.dumps(doc))
        for argv in (("generate", "--target", "blk_a"), ("resolve", "--expr", "the yellow block")):
            out = run_cli(*argv, "--scene", str(scene))
            assert out.returncode == 2, argv
            assert "entities[2].category: must be a single word" in out.stderr, argv
            assert out.stdout == "", argv

    def test_word_that_is_a_color_and_a_shape_exits_2(self, tmp_path):
        # "the round block" for t1 would read "round" as c1's color.
        doc = json.loads((DEMO / "two_blocks_car.json").read_text())
        doc["entities"][0].update(id="t1", shape="round", color=None)
        doc["entities"][1].update(id="t2", color=None)
        doc["entities"][2].update(id="c1", category="cup", color="round", heading=None)
        scene = tmp_path / "round.json"
        scene.write_text(json.dumps(doc))
        for argv in (("generate", "--target", "t1"), ("resolve", "--expr", "the round block")):
            out = run_cli(*argv, "--scene", str(scene))
            assert out.returncode == 2, argv
            assert "entities[2].color: 'round' is the shape of entity 't1'" in out.stderr, argv
            assert out.stdout == "", argv

    @pytest.mark.parametrize("path", ["entities[0].colour", "tabel"])
    def test_unknown_scene_key_exits_2(self, tmp_path, path):
        # A misspelt key is an error, not a silently dropped attribute.
        doc = json.loads((DEMO / "two_blocks_car.json").read_text())
        if path == "tabel":
            doc["tabel"] = doc["table"]
        else:
            doc["entities"][0]["colour"] = doc["entities"][0].pop("color")
        scene = tmp_path / "misspelt.json"
        scene.write_text(json.dumps(doc))
        for argv in (("generate", "--target", "blk_a"), ("resolve", "--expr", "the yellow block")):
            out = run_cli(*argv, "--scene", str(scene))
            assert out.returncode == 2, argv
            assert f"{path}: is not allowed" in out.stderr, argv
            assert out.stdout == "", argv

    def test_non_finite_prefs_exit_2(self, tmp_path, scene_paths):
        path = tmp_path / "nan_prefs.json"
        path.write_text(json.dumps(NAN_PREFS))
        out = run_cli(
            "generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a",
            "--prefs", str(path),
        )
        assert out.returncode == 2
        assert "row 'listener'" in out.stderr

    def test_unknown_flag_exits_1(self, scene_paths):
        out = run_cli(
            "generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a", "--bogus"
        )
        assert out.returncode == 1

    def test_deterministic_output(self, scene_paths):
        args = ("generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a", "--json")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestResolve:
    def test_listing(self, scene_paths):
        out = run_cli(
            "resolve",
            "--scene", str(scene_paths["square"]),
            "--expr", "the object in front of the square",
            "--prefs", str(scene_paths["two_frame"]),
        )
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[0] == "a\t0.600000"
        assert lines[1] == "d\t0.400000"
        assert "argmax\ta" in lines

    def test_single_consistent_entity(self, scene_paths):
        out = run_cli(
            "resolve",
            "--scene", str(scene_paths["square"]),
            "--expr", "the square",
        )
        assert out.stdout.splitlines()[0] == "c\t1.000000"

    def test_unresolvable_is_exit_zero(self, scene_paths):
        out = run_cli(
            "resolve",
            "--scene", str(scene_paths["square"]),
            "--expr", json.dumps({"head": {"color": "purple"}}),
        )
        assert out.returncode == 0
        assert out.stdout == "unresolvable\n"

    def test_parse_failure_exits_5(self, scene_paths):
        out = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]), "--expr", "the shiny widget"
        )
        assert out.returncode == 5
        topo = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]), "--expr", "the block near the car"
        )
        assert topo.returncode == 5
        person = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]),
            "--expr", json.dumps({"head": {"person": "speaker", "category": "block"}}),
        )
        assert person.returncode == 5
        assert "person phrase cannot carry visual attributes" in person.stderr
        assert "Traceback" not in person.stderr

    def test_missing_expression_file_exits_5(self, scene_paths, tmp_path):
        out = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]),
            "--expr", "@" + str(tmp_path / "missing.txt"),
        )
        assert out.returncode == 5
        assert "Traceback" not in out.stderr

    def test_imperative_prefix_stripped(self, scene_paths):
        out = run_cli(
            "resolve",
            "--scene", str(scene_paths["blocks"]),
            "--expr", "Pick up the yellow block to the left of the car",
            "--target", "blk_a",
            "--json",
        )
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["k"] == 1
        assert doc["appropriateness"] == 1

    def test_expression_from_file(self, scene_paths, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(json.dumps({"head": {"shape": "square"}}))
        out = run_cli(
            "resolve", "--scene", str(scene_paths["square"]), "--expr", f"@{expr}"
        )
        assert out.stdout.splitlines()[0] == "c\t1.000000"

    @pytest.mark.parametrize(
        "head, field",
        [
            ({"category": 5}, "category"),
            ({"color": ["a"]}, "color"),
            ({"person": "speaker", "category": ""}, "category"),
            ({"category": "", "color": "yellow"}, "category"),
        ],
        ids=["category_number", "color_list", "person_empty_category", "empty_category"],
    )
    def test_non_string_attribute_exits_5(self, scene_paths, head, field):
        out = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]), "--expr", json.dumps({"head": head})
        )
        assert out.returncode == 5
        assert f"cannot parse expression: head.{field}: " in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "expr, message",
        [
            ({"head": {"category": "block", "extra": 1}}, "head.extra: is not allowed"),
            ({"head": {"category": "block"}, "extra": 1}, "extra: is not allowed"),
            (
                {"head": {"category": "block"}, "prep": "front", "landmark": 5},
                "landmark: must be of type object, got 5",
            ),
            (
                {
                    "head": {"category": "block"},
                    "prep": "front",
                    "landmark": {"head": {"category": "car", "size": 2}},
                },
                "landmark.head.size: is not allowed",
            ),
        ],
        ids=["phrase_key", "expression_key", "landmark_number", "nested_phrase_key"],
    )
    def test_malformed_json_expression_exits_5(self, scene_paths, expr, message):
        out = run_cli(
            "resolve", "--scene", str(scene_paths["blocks"]), "--expr", json.dumps(expr)
        )
        assert out.returncode == 5
        assert out.stderr == f"error: cannot parse expression: {message}\n"

    def test_pipeline_identity(self, scene_paths):
        gen = run_cli(
            "generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a", "--json"
        )
        gen_doc = json.loads(gen.stdout)
        res = run_cli(
            "resolve",
            "--scene", str(scene_paths["blocks"]),
            "--expr", gen_doc["surface"],
            "--target", "blk_a",
            "--json",
        )
        res_doc = json.loads(res.stdout)
        assert res_doc["effectiveness"] == gen_doc["effectiveness"]
        assert res_doc["appropriateness"] == gen_doc["appropriateness"]


class TestExplain:
    def test_report_structure(self, scene_paths):
        out = run_cli("explain", "--scene", str(scene_paths["blocks"]), "--target", "blk_a")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["k"] == 1
        assert len(doc["candidates"]) == 4
        selected = doc["candidates"][doc["selected_index"]]
        assert selected["surface"] == "the yellow block to the left of the car"
        totals = [c["total"] for c in doc["candidates"]]
        assert selected["total"] == max(totals)
        assert all("denotation" in c for c in doc["candidates"])

    def test_rows_match_independent_scoring(self, tmp_path, capsys):
        # Chains with k >= 2 give strategies that share a surface, so rows
        # repeat a surface and must repeat its denotation and score.
        prefs = default_preferences()
        checked = duplicated = 0
        for i in range(40):
            scene = sample_scene(
                derive_seed(9, "explain", i),
                objects=(8, 16),
                categories=("block", "cup"),
                colors=("red", "blue"),
                shapes=(),
            )
            path = tmp_path / f"scene{i}.json"
            path.write_text(dump_scene(scene))
            for target in scene.referable_ids():
                try:
                    chain = build_landmark_chain(target, scene, prefs)
                except GenerationError:
                    continue
                if not 2 <= chain.k <= MAX_COMPLEXITY:
                    continue
                assert cli.main(["explain", "--scene", str(path), "--target", target]) == 0
                doc = json.loads(capsys.readouterr().out)
                candidates = expression_space(chain, scene)
                best, _ = select_best(candidates, target, scene, prefs)
                assert doc["selected_index"] == candidates.index(best)
                assert [row["surface"] for row in doc["candidates"]] == [
                    c.surface for c in candidates
                ]
                for row, cand in zip(doc["candidates"], candidates):
                    d = denote(cand.tree, scene, prefs)
                    sc = score_denotation(d, target)
                    assert row["appropriateness"] == sc.appropriateness
                    assert row["effectiveness"] == sc.effectiveness
                    assert row["total"] == sc.total
                    assert row["denotation"] == (None if d.unresolvable else dict(d.probs))
                checked += 1
                duplicated += len({c.surface for c in candidates}) < len(candidates)
        assert checked >= 20 and duplicated >= 10


class TestEvaluate:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "n_scenes": 2,
                    "trials_per_expression": 2,
                    "methods": ["pcsreg", "robot"],
                    "objects": [3, 4],
                    "per_trial_csv": True,
                }
            )
        )
        return path

    def test_report_files(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        out = run_cli("evaluate", "--config", str(config_path), "--out", str(out_dir))
        assert out.returncode == 0
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "trials.csv").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["methods"]) == {"pcsreg", "robot"}

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        first = run_cli("evaluate", "--config", str(config_path), "--out", str(a))
        second = run_cli("evaluate", "--config", str(config_path), "--out", str(b))
        assert first.stdout == second.stdout
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_invalid_config_exits_2(self, tmp_path):
        empty_methods = tmp_path / "bad.json"
        empty_methods.write_text(
            json.dumps({"seed": 1, "n_scenes": 1, "trials_per_expression": 1, "methods": []})
        )
        out = run_cli("evaluate", "--config", str(empty_methods))
        assert out.returncode == 2

    @pytest.mark.parametrize(
        "override",
        [
            {"objects": [1, 3]},
            {"categories": []},
            {"objects": 5},
            {"objects": ["a", "b"]},
            {"categories": [""]},
            {"colors": [""]},
            {"shapes": ["round", ""]},
            {"shapes": ["square", "Red"]},
        ],
    )
    def test_bad_sampling_pools_exit_2(self, tmp_path, override):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"seed": 1, "n_scenes": 1, "trials_per_expression": 1, **override})
        )
        out = run_cli("evaluate", "--config", str(path))
        assert out.returncode == 2
        assert repr(next(iter(override))) in out.stderr
        assert "Traceback" not in out.stderr

    def test_non_finite_true_prefs_exit_2(self, tmp_path):
        path = tmp_path / "nan_prefs_config.json"
        path.write_text(
            json.dumps(
                {"seed": 1, "n_scenes": 1, "trials_per_expression": 1, "true_prefs": NAN_PREFS}
            )
        )
        out = run_cli("evaluate", "--config", str(path))
        assert out.returncode == 2
        assert "row 'listener'" in out.stderr
        assert "Traceback" not in out.stderr

    def test_unplaceable_tables_exit_2(self, tmp_path):
        path = tmp_path / "crowded.json"
        path.write_text(
            json.dumps(
                {"seed": 1, "n_scenes": 1, "trials_per_expression": 1, "objects": [2000, 2000]}
            )
        )
        out = run_cli("evaluate", "--config", str(path))
        assert out.returncode == 2
        assert "could not place an object" in out.stderr
        assert "Traceback" not in out.stderr

    def test_out_naming_a_file_exits_1(self, config_path, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = run_cli("evaluate", "--config", str(config_path), "--out", str(taken))
        assert out.returncode == 1
        assert out.stdout == ""
        assert "cannot create output directory" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "per_trial_csv, with_out",
        [
            pytest.param(False, True, id="False"),
            pytest.param(True, True, id="True"),
            # Without --out nothing writes trials.csv, so nothing collects records.
            pytest.param(True, False, id="True-without-out"),
        ],
    )
    def test_records_collected_only_for_trials_csv(
        self, tmp_path, monkeypatch, capsys, per_trial_csv, with_out
    ):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"seed": 5, "n_scenes": 1, "trials_per_expression": 1,
                        "methods": ["robot"], "per_trial_csv": per_trial_csv})
        )
        collected = []
        real = cli.run_comparison

        def spy(cfg, collect_records):
            collected.append(collect_records)
            return real(cfg, collect_records)

        monkeypatch.setattr(cli, "run_comparison", spy)
        argv = ["evaluate", "--config", str(path)]
        if with_out:
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert collected == [per_trial_csv and with_out]
        # The report printed is the one a run that collects records prints.
        with_records = real(config_from_dict(json.loads(path.read_text())), True)
        assert capsys.readouterr().out == format_report_text(with_records)


class TestSchema:
    def test_schemas_print(self):
        out = run_cli("schema")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert set(doc) == {"scene", "preferences", "config", "expression"}
        assert doc["scene"]["properties"]["entities"]["type"] == "array"
        expression = doc["expression"]["definitions"]["expression"]
        assert expression["properties"]["landmark"] == {"$ref": "#/definitions/expression"}

    def test_printed_schemas_are_valid_draft_7(self):
        jsonschema = pytest.importorskip("jsonschema")
        for schema in json.loads(run_cli("schema").stdout).values():
            jsonschema.Draft7Validator.check_schema(schema)

    def test_schema_bytes_are_pinned(self):
        out = run_cli("schema")
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == (
            "92a4d3f2248f1ed3156b7ce077293e89ccea0f4bca2eaddb2c160d2dfae6474c"
        )


def test_missing_verb_exits_1():
    out = run_cli()
    assert out.returncode == 1


def test_usage_errors_return_their_code_in_process(scene_paths, capsys):
    argv = ["resolve", "--scene", str(scene_paths["square"]),
            "--expr", "the object in front of the square"]
    assert cli.main(argv) == 0
    before = capsys.readouterr()
    assert cli.main(["resolve"]) == 1
    assert "the following arguments are required: --scene, --expr" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: pcsreg")
    assert cli.main(argv) == 0
    assert capsys.readouterr() == before


def test_parser_is_built_on_first_use_and_reused():
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import pcsreg, pcsreg.cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        pcsreg.cli.main(["schema"])
    counts.append(len(built))
print(counts)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout)
    assert counts[0] == 0  # importing the package builds no parser
    assert counts[1] > 0 and counts[1] == counts[2] == counts[3]


@pytest.mark.parametrize(
    "args",
    [
        ("schema",),
        ("resolve", "--scene", str(DEMO / "facing_pair_square.json"),
         "--expr", "the object in front of the square"),
    ],
    ids=["schema", "resolve"],
)
def test_closed_stdout_exits_1_without_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before pcsreg writes anything
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pcsreg", *args],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert "Exception ignored" not in out.stderr


def test_repeated_main_calls_match_fresh_processes(scene_paths, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width on both sides
    ambiguous = tmp_path / "ambiguous.json"
    ambiguous.write_text(json.dumps(AMBIGUOUS_SCENE))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 3, "n_scenes": 1, "trials_per_expression": 2, "objects": [3, 4]})
    )
    blocks, square = str(scene_paths["blocks"]), str(scene_paths["square"])
    calls = [
        (["generate", "--scene", blocks, "--target", "blk_a", "--json"], 0),
        (["generate", "--scene", blocks, "--target", "blk_a", "--method", "random"], 1),
        (["generate", "--scene", str(tmp_path / "missing.json"), "--target", "blk_a"], 2),
        (["resolve", "--scene", square, "--expr", "the object in front of the square"], 0),
        (["resolve", "--scene", square, "--expr", "the object in front of"], 5),
        (["resolve"], 1),
        (["explain", "--scene", blocks, "--target", "ghost"], 3),
        (["explain", "--scene", blocks, "--target", "blk_a"], 0),
        (["generate", "--scene", str(ambiguous), "--target", "blk_a"], 4),
        (["evaluate", "--config", str(config)], 0),
        (["schema"], 0),
        (["--help"], 0),
        (["resolve", "--help"], 0),
        ([], 1),
        (["generate", "--scene", blocks, "--target", "blk_a", "--bogus"], 1),
        (["resolve", "--scene", square, "--expr", "the object in front of the square",
          "--target", "a", "--json"], 0),
    ]
    assert {code for _, code in calls} == {0, 1, 2, 3, 4, 5}
    for argv, code in calls:
        got = cli.main(argv)
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (got, captured.out, captured.err) == (code, fresh.stdout, fresh.stderr), argv
        assert fresh.returncode == code


TOP_LEVEL_USAGE = "usage: pcsreg [-h] {generate,resolve,explain,evaluate,schema} ..."


def _usage_battery(scene_paths, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "n_scenes": 1, "trials_per_expression": 1}))
    blocks, square = str(scene_paths["blocks"]), str(scene_paths["square"])
    expr = "the object in front of the square"
    valid = {
        "generate": ["--scene", blocks, "--target", "blk_a"],
        "resolve": ["--scene", square, "--expr", expr, "--json"],
        "explain": ["--scene", blocks, "--target", "blk_a"],
        "evaluate": ["--config", str(config)],
        "schema": [],
    }
    return [
        *([verb, *args] for verb, args in valid.items()),
        *([verb, "-h"] for verb in valid),
        *([verb, *args, "--bogus"] for verb, args in valid.items()),
        ["generate", "--scene", blocks],  # a required option missing
        ["evaluate"],
        ["resolve", "--sc", square, "--ex", expr],  # abbreviations
        ["generate", "--s", blocks, "--target", "blk_a"],  # ambiguous: --scene or --seed
        ["generate", "--scene=" + blocks, "--target", "blk_a", "--json"],
        ["generate", "--scene", blocks, "--target", "blk_a", "--method", "nope"],
        ["generate", "--scene", blocks, "--target", "blk_a", "--seed", "x"],
        ["generate", "--scene", blocks, "--target", "blk_a", "--method", "random"],
        ["generate", "--scene", blocks, "--target", "blk_a", "--he"],
        ["schema", "extra"],  # an extra positional
        ["resolve", "--scene", square, "--expr", expr, "extra"],
        ["schema", "--"],
        ["resolve", "--scene", square, "--", "--expr", expr],
        [],
        ["--help"],
        ["-h"],
        ["nope"],
        ["gen", "--scene", blocks, "--target", "blk_a"],  # verbs are never abbreviated
        ["--bogus", "schema"],  # an option before the verb
        ["-h", "schema"],
    ]


def test_verb_routing_matches_the_full_parse(scene_paths, tmp_path, capsys, monkeypatch):
    """``main`` parses a leading verb with that verb's own parser; each call
    gives the exit code, stdout and stderr of a ``main`` that runs every argv
    through the full parser."""
    monkeypatch.setenv("COLUMNS", "80")
    battery = _usage_battery(scene_paths, tmp_path)
    got = []
    for argv in battery:
        code = cli.main(argv)
        got.append((code, *capsys.readouterr()))
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    for argv, routed in zip(battery, got):
        code = cli.main(argv)
        assert routed == (code, *capsys.readouterr()), argv
    assert {code for code, _, _ in got} == {0, 1}


def test_unrecognized_arguments_print_the_top_level_usage(scene_paths, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["generate", "--scene", str(scene_paths["blocks"]), "--target", "blk_a", "--bogus"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [TOP_LEVEL_USAGE, "error: unrecognized arguments: --bogus"]


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pcsreg", "schema", "--bogus"])
    assert cli.main() == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: unrecognized arguments: --bogus"
    monkeypatch.setattr(sys, "argv", ["pcsreg", "schema"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out).keys() == {"scene", "preferences", "config", "expression"}


def test_log_lines_go_to_each_calls_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("PCSREG_LOG", "info")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 5, "n_scenes": 1, "trials_per_expression": 1, "methods": ["robot"]})
    )
    root = logging.getLogger()
    root_before = (root.level, list(root.handlers))
    for out in ("a", "b"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / out)])
        assert code == 0
        assert "INFO reports written to" in err.getvalue()
    assert len(logging.getLogger("pcsreg").handlers) == 1
    assert (root.level, list(root.handlers)) == root_before


def test_a_kept_log_handler_follows_each_calls_level(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 5, "n_scenes": 1, "trials_per_expression": 1, "methods": ["robot"]})
    )
    err = io.StringIO()
    outputs, handlers = [], []
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        for level in ("info", "error"):
            monkeypatch.setenv("PCSREG_LOG", level)
            start = len(err.getvalue())
            code = cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / level)])
            assert code == 0
            outputs.append(err.getvalue()[start:])
            handlers.append(list(logging.getLogger("pcsreg").handlers))
    assert len(handlers[0]) == 1 and handlers[1] == handlers[0]
    assert "INFO reports written to" in outputs[0]
    assert "INFO reports written to" not in outputs[1]


@pytest.mark.parametrize(
    "case, code",
    [("surface", 5), ("json", 5), ("scene", 2), ("prefs", 2), ("config", 2)],
)
def test_over_deep_documents_exit_without_traceback(case, code, tmp_path):
    """Nesting past the interpreter's recursion limit is a documented failure."""
    deep = tmp_path / "deep"
    if case == "surface":
        deep.write_text("the yellow block to the left of " * 3000 + "the car")
    elif case == "json":
        unit = '{"head": {"category": "block"}, "prep": "left", "landmark": '
        deep.write_text(unit * 3000 + '{"head": {"category": "car"}}' + "}" * 3000)
    else:
        deep.write_text("[" * 100_000)
    scene = str(DEMO / "two_blocks_car.json")
    args = {
        "surface": ("resolve", "--scene", scene, "--expr", f"@{deep}"),
        "json": ("resolve", "--scene", scene, "--expr", f"@{deep}"),
        "scene": ("resolve", "--scene", str(deep), "--expr", "the car"),
        "prefs": ("generate", "--scene", scene, "--target", "blk_a", "--prefs", str(deep)),
        "config": ("evaluate", "--config", str(deep)),
    }[case]
    out = run_cli(*args)
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    assert "nested too deeply" in out.stderr


def _expression_of(units: int, form: str) -> str:
    if form == "surface":
        return "the yellow block to the left of " * units + "the car"
    unit = '{"head": {"category": "block"}, "prep": "left", "landmark": '
    return unit * units + '{"head": {"category": "car"}}' + "}" * units


@pytest.mark.parametrize("form", ["surface", "json"])
def test_expressions_up_to_the_parser_limit_resolve_without_traceback(form, tmp_path):
    """Every expression the parser accepts also denotes: from 980 units up
    to two past the parser's limit, resolve exits 0 or 5, never with a
    traceback."""
    scene = str(DEMO / "two_blocks_car.json")
    path = tmp_path / "expr"
    codes = {}
    units = 980
    while codes.get(units - 2) != 5 or codes.get(units - 1) != 5:
        assert units < 1200, f"the parser still accepts {units} units"
        path.write_text(_expression_of(units, form))
        out = run_cli("resolve", "--scene", scene, "--expr", f"@{path}")
        assert out.returncode in (0, 5), (units, out.stderr)
        assert "Traceback" not in out.stderr, units
        codes[units] = out.returncode
        units += 1


@pytest.mark.parametrize("scene_file", DEMO_SCENES)
def test_generate_matches_cli_surface(scene_file, capsys):
    path = DEMO / scene_file
    scene = load_scene(path)
    prefs = default_preferences()
    for target in scene.referable_ids():
        for method in METHODS:
            code = cli.main(
                ["generate", "--scene", str(path), "--target", target,
                 "--method", method, "--seed", "7", "--json"]
            )
            out = capsys.readouterr().out
            try:
                chain = build_landmark_chain(target, scene, prefs)
                candidate = generate(method, chain, scene, prefs, seed=7)
            except GenerationError:
                assert code == 4
                continue
            assert code == 0
            doc = json.loads(out)
            assert doc["surface"] == realize(candidate.tree) == candidate.surface
            assert doc["tree"] == tree_to_dict(candidate.tree)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _with(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _mutants(doc):
    """``doc``, then copies with one value of a wrong type, one extra key, or
    one list (a preference row, a point, ...) one item short."""
    yield doc
    for path in _paths(doc):
        value = doc
        for key in path:
            value = value[key]
        yield _with(doc, path, 1 if isinstance(value, str) else "x")
        if isinstance(value, dict):
            yield _with(doc, path, {**value, "extra": 1})
        if isinstance(value, list) and value:
            yield _with(doc, path, value[:-1])


def _accepts(loader, doc) -> bool:
    try:
        loader(doc)
    except (SceneError, FrameError, HarnessError, ParseError):
        return False
    return True


def _generated_trees() -> list:
    """The expressions generated for the demo scenes and for one sampled
    scene, which has a two-unit chain with a person landmark."""
    prefs = default_preferences()
    scenes = [load_scene(DEMO / name) for name in DEMO_SCENES] + [sample_scene(12)]
    trees = []
    for scene in scenes:
        for target in scene.referable_ids():
            try:
                chain = build_landmark_chain(target, scene, prefs)
            except GenerationError:
                continue
            trees += [candidate.tree for candidate in expression_space(chain, scene)]
    return trees


def test_loaders_accept_only_what_the_schemas_accept():
    jsonschema = pytest.importorskip("jsonschema")
    prefs_doc = json.loads((DEMO / "preferences_two_frame.json").read_text())
    config_doc = json.loads((DEMO / "eval_config.json").read_text())
    trees = _generated_trees()
    assert max(map(depth, trees)) >= 2
    assert any(spine(tree)[1].head.person is not None for tree in trees)
    expressions = {json.dumps(tree_to_dict(tree), sort_keys=True) for tree in trees}
    valid = [
        (cli.SCENE_SCHEMA, scene_from_dict, json.loads((DEMO / name).read_text()))
        for name in DEMO_SCENES
    ] + [
        (cli.PREFS_SCHEMA, preferences_from_dict, prefs_doc),
        (cli.CONFIG_SCHEMA, config_from_dict, config_doc),
        (cli.CONFIG_SCHEMA, config_from_dict, {**config_doc, "true_prefs": prefs_doc}),
    ] + [(cli.EXPRESSION_SCHEMA, tree_from_dict, json.loads(doc)) for doc in sorted(expressions)]
    cases = valid + [
        (cli.CONFIG_SCHEMA, config_from_dict, {**config_doc, "objects": [1, 3]}),
        (cli.CONFIG_SCHEMA, config_from_dict, {**config_doc, "methods": ["robot", "robot"]}),
    ]
    checked = rejected = 0
    for schema, loader, doc in cases:
        validator = jsonschema.Draft7Validator(schema)
        for mutant in _mutants(doc):
            schema_ok = validator.is_valid(mutant)
            assert schema_ok or not _accepts(loader, mutant), mutant
            checked += 1
            rejected += not schema_ok
    for schema, loader, doc in valid:
        assert jsonschema.Draft7Validator(schema).is_valid(doc) and _accepts(loader, doc)
    assert rejected > checked // 2


# One sha256 per demo scene over the stdout of the generate, explain and
# resolve runs in ``_golden_stdout``.
GOLDEN_CLI_STDOUT = {
    "two_blocks_car.json": "81e8fd9444a4c59553e820dd0ae5e17b4b77514c5d97c6a02c4e131e38beeeaf",
    "facing_pair_square.json": "e8c0ae3b15bc17f38bffdd964307bba45652af1261123ec731d2782516808c15",
}


def _golden_stdout(path: Path, capsys) -> bytes:
    """Exit codes and stdout of ``generate --json --seed 7`` for every
    referable target and method, ``explain`` for every target, and
    ``resolve --json`` of each generated surface for its target."""
    out = []

    def run(*argv):
        code = cli.main([argv[0], "--scene", str(path), *argv[1:]])
        text = capsys.readouterr().out
        out.append(f"{' '.join(argv)}\n{code}\n{text}")
        return code, text

    for target in load_scene(path).referable_ids():
        for method in METHODS:
            code, text = run(
                "generate", "--target", target, "--method", method, "--seed", "7", "--json"
            )
            if code == 0:
                run("resolve", "--expr", json.loads(text)["surface"], "--target", target, "--json")
        run("explain", "--target", target)
    return "".join(out).encode()


@pytest.mark.parametrize("scene_file", DEMO_SCENES)
def test_cli_stdout_bytes_are_golden(scene_file, capsys):
    stdout = _golden_stdout(DEMO / scene_file, capsys)
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN_CLI_STDOUT[scene_file]


# --- resolve fuzzing ------------------------------------------------------------

# Every word and whole surface of a preposition marker, every word of the
# demo scenes' vocabularies (alone and after "the") and of the stripped
# prefixes, so token strings reach the parser's branches and often parse.
_MARKER_SURFACES = [
    surface
    for table in (PLAIN_SURFACE, SPEAKER_SURFACE, LISTENER_SURFACE)
    for surface in table.values()
] + [" ".join(seq) for seq in TOPOLOGICAL_MARKERS]
_VOCABULARY = {
    word
    for name in DEMO_SCENES
    for words in attribute_vocabulary(load_scene(DEMO / name)).values()
    for word in words
}
_FUZZ_WORDS = sorted(
    {word for surface in _MARKER_SURFACES for word in surface.split()}
    | _VOCABULARY
    | {word for prefix in cli.IMPERATIVE_PREFIXES for word in prefix.split()}
    | {"the", "me", "you", "please", "Please", "THE", "Block"}
)
_FUZZ_PIECES = sorted(
    set(_FUZZ_WORDS) | set(_MARKER_SURFACES) | {f"the {word}" for word in _VOCABULARY}
)
_FUZZ_KEYS = ["head", "prep", "landmark", "person", "category", "color", "shape", "x"]
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=2)
    | st.sampled_from(_FUZZ_WORDS + ["", "front", "left", "speaker", "listener"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=6,
)
_json_objects = st.dictionaries(st.sampled_from(_FUZZ_KEYS), _json_values, max_size=3).map(
    json.dumps
)
_noun_phrases = st.lists(st.sampled_from(sorted(_VOCABULARY)), min_size=1, max_size=3).map(
    lambda words: "the " + " ".join(words)
)
_fuzz_expressions = st.one_of(
    st.lists(st.sampled_from(_FUZZ_PIECES), max_size=8).map(" ".join),
    # Noun phrases joined by markers: these often parse and denote.
    st.builds(
        lambda units, last: " ".join(f"{np} {marker}" for np, marker in units) + " " + last,
        st.lists(st.tuples(_noun_phrases, st.sampled_from(_MARKER_SURFACES)), max_size=3),
        _noun_phrases | st.sampled_from(["me", "you"]),
    ),
    _json_objects,
    # Cut short or with a stray tail, so most of these are malformed JSON.
    st.builds(
        lambda doc, cut, tail: doc[:cut] + tail,
        _json_objects,
        st.integers(min_value=0, max_value=80),
        st.sampled_from(["", "}", ",", "]"]),
    ),
    st.sampled_from(
        [
            f"@{DEMO}",  # a directory
            f"@{DEMO / 'no-such-expression.txt'}",
            f"@{DEMO / 'no-such-dir' / 'expression.txt'}",
            f"@{DEMO / 'null'}\0byte.txt",
            "@",
        ]
    ),
)


@pytest.mark.deep
@given(
    st.sampled_from(DEMO_SCENES),
    _fuzz_expressions,
    st.none() | st.sampled_from(["blk_a", "car1", "speaker", "a", "no-such-id"]),
    st.booleans(),
)
def test_resolve_fuzz_exits_with_a_documented_code(scene_file, expr, target, as_json):
    argv = ["resolve", "--scene", str(DEMO / scene_file), "--expr", expr]
    if target is not None:
        argv += ["--target", target]
    if as_json:
        argv.append("--json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert 0 <= code <= 5, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["resolve", "--scene", str(DEMO / "two_blocks_car.json"), "--expr", "@x\0y"], 5),
        (["generate", "--scene", "x\0y.json", "--target", "blk_a"], 2),
        (["evaluate", "--config", "x\0y.json"], 2),
    ],
)
def test_paths_with_a_null_byte_exit_with_their_code(argv, code, capsys):
    """Only an in-process caller can pass one: ``open`` raises ValueError."""
    assert cli.main(argv) == code
    assert "embedded null byte" in capsys.readouterr().err


# --- document fuzzing -----------------------------------------------------------

# A mutation replaces the value at one path with one of these, deletes it,
# or gives the nearest enclosing object an unknown key.
_FUZZ_VALUES = [float("nan"), None, "", [], {}, -1, [0.5, 0.25, 0.25]]
_DELETE, _ADD_KEY = "delete", "add key"
_PREFS_DOC = json.loads((DEMO / "preferences_two_frame.json").read_text())
# The demo config at two scenes of two trials, with both preference tables.
_CONFIG_DOC = {
    **json.loads((DEMO / "eval_config.json").read_text()),
    "n_scenes": 2,
    "trials_per_expression": 2,
    "true_prefs": _PREFS_DOC,
    "assumed_prefs": _PREFS_DOC,
}


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, path, edit):
    """A copy of ``doc`` with ``edit`` applied at ``path``."""
    if edit not in (_DELETE, _ADD_KEY):
        return _with(doc, path, edit)
    doc = copy.deepcopy(doc)
    if edit == _DELETE:
        del _node(doc, path[:-1])[path[-1]]
        return doc
    while not isinstance(_node(doc, path), dict):
        path = path[:-1]
    _node(doc, path)["unknown"] = 1
    return doc


def _fuzzed(doc):
    """Copies of ``doc`` mutated at one drawn path."""
    paths = list(_paths(doc))
    return st.sampled_from(_FUZZ_VALUES + [_DELETE, _ADD_KEY]).flatmap(
        lambda edit: st.sampled_from(paths[1:] if edit == _DELETE else paths).map(
            lambda path: _mutate(doc, path, edit)
        )
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _assert_documented_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert 0 <= code <= 5, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.deep
@given(
    st.sampled_from(DEMO_SCENES).flatmap(
        lambda name: _fuzzed(json.loads((DEMO / name).read_text()))
    ),
    st.sampled_from(["blk_a", "car1", "a", "c", "speaker", "no-such-id"]),
    st.sampled_from(METHODS),
)
def test_scene_fuzz_exits_with_a_documented_code(fuzz_dir, scene, target, method):
    path = _write(fuzz_dir / "scene.json", scene)
    _assert_documented_exit(
        ["generate", "--scene", path, "--target", target, "--method", method, "--seed", "7", "--json"]
    )
    _assert_documented_exit(["explain", "--scene", path, "--target", target])


@pytest.mark.deep
@given(_fuzzed(_PREFS_DOC), st.sampled_from(DEMO_SCENES), st.sampled_from(["blk_a", "a"]))
def test_preferences_fuzz_exits_with_a_documented_code(fuzz_dir, prefs, scene_file, target):
    path = _write(fuzz_dir / "prefs.json", prefs)
    scene = str(DEMO / scene_file)
    _assert_documented_exit(["generate", "--scene", scene, "--target", target, "--prefs", path])
    _assert_documented_exit(["explain", "--scene", scene, "--target", target, "--prefs", path])


@pytest.mark.deep
@given(_fuzzed(_CONFIG_DOC))
def test_config_fuzz_exits_with_a_documented_code(fuzz_dir, config):
    _assert_documented_exit(["evaluate", "--config", _write(fuzz_dir / "config.json", config)])
