"""Command-line interface.

Verbs: generate, resolve, explain, evaluate, schema.  Primary output goes
to stdout and is byte-deterministic for fixed inputs and seeds; stderr
carries diagnostics only.  Exit codes: 1 usage, unwritable output or a
stdout closed by its reader, 2 invalid scene/config, 3 invalid target,
4 generation failed, 5 expression parse failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import NoReturn

from .frames import PREFS_SCHEMA, FrameError, PreferenceTable, default_preferences, load_preferences
from .generator import (
    GenerationError,
    build_landmark_chain,
    describe_visual,
    expression_space,
    realize,
)
from .harness import (
    CONFIG_SCHEMA,
    METHODS,
    HarnessError,
    config_from_dict,
    format_report_text,
    records_to_csv,
    report_to_json,
    run_comparison,
)
from .optimizer import generate, rank, score, score_denotation
from .resolver import (
    EXPRESSION_SCHEMA,
    Leaf,
    ParseError,
    denote,
    depth,
    parse_expression,
    parse_expression_json,
    tree_to_dict,
)
from .scene import (
    SCENE_SCHEMA,
    Scene,
    SceneError,
    attribute_vocabulary,
    json_text,
    load_scene,
    read_json,
)

EXIT_USAGE = 1
EXIT_BAD_SCENE = 2
EXIT_BAD_TARGET = 3
EXIT_GENERATION_FAILED = 4
EXIT_PARSE_FAILURE = 5

# Imperative verb prefixes stripped (case-insensitively) before parsing;
# the expression model covers only the referring noun phrase.
IMPERATIVE_PREFIXES = (
    "pick up ",
    "give me ",
    "hand me ",
    "point to ",
    "point at ",
    "pick ",
    "grab ",
    "take ",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _note(message: str) -> None:
    """Print ``INFO message`` to the current ``sys.stderr`` when
    ``PCSREG_LOG`` is ``info`` or ``debug`` (any letter case)."""
    if os.environ.get("PCSREG_LOG", "").lower() in ("info", "debug"):
        print(f"INFO {message}", file=sys.stderr)


def _fail(code: int, message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _read(what: str, path: str, load, code: int = EXIT_BAD_SCENE):
    """``load(Path(path))``; an unreadable file or a rejected document exits ``code``."""
    if not path:  # ``Path("")`` is the current directory
        _fail(code, f"{what} file path is empty")
    if "\0" in path:  # ``open`` raises ValueError, not OSError, for these
        _fail(code, f"cannot read {what} file {path!r}: embedded null byte")
    try:
        return load(Path(path))
    except FileNotFoundError:
        _fail(code, f"{what} file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(code, f"cannot read {what} file {path}: {exc}")
    except (SceneError, FrameError, HarnessError) as exc:
        _fail(code, f"invalid {what}: {exc}")


def _load_scene(path: str) -> Scene:
    return _read("scene", path, load_scene)


def _load_prefs(path: str | None) -> PreferenceTable:
    return default_preferences() if path is None else _read("preferences", path, load_preferences)


def _check_target(scene: Scene, target: str) -> None:
    if not scene.has_entity(target):
        _fail(EXIT_BAD_TARGET, f"no entity with id {target!r}")
    if not scene.entity(target).referable_as_target:
        _fail(EXIT_BAD_TARGET, f"entity {target!r} cannot be a reference target")


def _strategy_json(strategy) -> list[dict]:
    return [{"kind": kind.value, "origin": origin} for kind, origin in strategy]


def cmd_generate(args) -> int:
    scene = _load_scene(args.scene)
    _check_target(scene, args.target)
    prefs = _load_prefs(args.prefs)
    try:
        chain = build_landmark_chain(args.target, scene, prefs)
        candidate = generate(args.method, chain, scene, prefs, seed=args.seed)
    except GenerationError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        fallback = describe_visual(args.target, set(scene.referable_ids()), scene)
        surface = realize(Leaf(fallback.attrs))
        print(f"warning: best-effort ambiguous description: {surface!r}", file=sys.stderr)
        raise SystemExit(EXIT_GENERATION_FAILED)
    if not chain.converged:
        _note("preference updating hit the rebuild cap without a fixed point")
    if args.json:
        sc = score(candidate, args.target, scene, prefs)
        doc = {
            "surface": candidate.surface,
            "method": args.method,
            "target": args.target,
            "k": chain.k,
            "tree": tree_to_dict(candidate.tree),
            "strategy": _strategy_json(candidate.strategy),
            "appropriateness": sc.appropriateness,
            "effectiveness": sc.effectiveness,
            "total": sc.total,
        }
        print(json_text(doc))
    else:
        print(candidate.surface)
    return 0


def _read_expression(raw: str, scene: Scene):
    text = raw
    if text.startswith("@"):
        text = _read(
            "expression", text[1:], lambda p: p.read_text(encoding="utf-8"), EXIT_PARSE_FAILURE
        )
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_expression_json(stripped)
    lowered = stripped.lower()
    if lowered.startswith("please "):
        stripped = stripped[len("please ") :]
        lowered = stripped.lower()
    for prefix in IMPERATIVE_PREFIXES:
        if lowered.startswith(prefix):
            stripped = stripped[len(prefix) :]
            break
    return parse_expression(stripped, attribute_vocabulary(scene))


def cmd_resolve(args) -> int:
    scene = _load_scene(args.scene)
    prefs = _load_prefs(args.prefs)
    if args.target is not None:
        _check_target(scene, args.target)
    try:
        tree = _read_expression(args.expr, scene)
    except ParseError as exc:
        _fail(EXIT_PARSE_FAILURE, f"cannot parse expression: {exc}")
    d = denote(tree, scene, prefs)
    sc = None if args.target is None else score_denotation(d, args.target)

    if args.json:
        doc = {
            "unresolvable": d.unresolvable,
            "probs": None if d.unresolvable else dict(d.probs),
            "argmax": d.argmax(),
            "k": depth(tree),
        }
        if sc is not None:
            doc["target"] = args.target
            doc["effectiveness"] = sc.effectiveness
            doc["appropriateness"] = sc.appropriateness
        print(json_text(doc))
        return 0

    if d.unresolvable:
        print("unresolvable")
        return 0
    for eid, p in sorted(d.probs.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{eid}\t{p:.6f}")
    print(f"argmax\t{d.argmax()}")
    if sc is not None:
        print(f"appropriateness\t{sc.appropriateness}")
        print(f"effectiveness\t{sc.effectiveness:.6f}")
    return 0


def cmd_explain(args) -> int:
    scene = _load_scene(args.scene)
    _check_target(scene, args.target)
    prefs = _load_prefs(args.prefs)
    try:
        chain = build_landmark_chain(args.target, scene, prefs)
        candidates = expression_space(chain, scene)
        selected, scored = rank(candidates, args.target, scene, prefs)
    except GenerationError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_GENERATION_FAILED)
    rows = []
    for cand in candidates:
        d, sc = scored[cand.surface]
        rows.append(
            {
                "surface": cand.surface,
                "strategy": _strategy_json(cand.strategy),
                "appropriateness": sc.appropriateness,
                "effectiveness": sc.effectiveness,
                "total": sc.total,
                "denotation": None if d.unresolvable else dict(d.probs),
            }
        )
    doc = {
        "target": args.target,
        "k": chain.k,
        "candidates": rows,
        "selected_index": candidates.index(selected),
    }
    print(json_text(doc))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _read("config", args.config, lambda p: config_from_dict(read_json(p, HarnessError)))
    out = None if args.out is None else Path(args.out)
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _fail(EXIT_USAGE, f"cannot create output directory {out}: {exc}")
    try:
        report = run_comparison(cfg, collect_records=cfg.per_trial_csv and out is not None)
    except HarnessError as exc:  # e.g. tables too small for the object counts
        _fail(EXIT_BAD_SCENE, f"invalid config: {exc}")
    text = format_report_text(report)
    if out is not None:
        files = {"report.json": report_to_json(report), "report.txt": text}
        if cfg.per_trial_csv:
            files["trials.csv"] = records_to_csv(report)
        try:
            for name, content in files.items():
                (out / name).write_text(content, encoding="utf-8")
        except OSError as exc:
            _fail(EXIT_USAGE, f"cannot write reports to {out}: {exc}")
        _note(f"reports written to {out}")
    print(text, end="")
    return 0


def cmd_schema(_args) -> int:
    schemas = {
        "scene": SCENE_SCHEMA,
        "preferences": PREFS_SCHEMA,
        "config": CONFIG_SCHEMA,
        "expression": EXPRESSION_SCHEMA,
    }
    print(json_text(schemas))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``main`` call;
    its ``verbs`` maps each verb to the subparser registered for it.

    Sharing is safe because ``parse_args`` leaves the parser unchanged, and
    help, usage and error text read the terminal width and ``sys.stdout`` /
    ``sys.stderr`` when printed, not when built.
    """
    parser = _Parser(prog="pcsreg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("generate", help="generate the best referring expression for a target")
    gen.add_argument("--scene", required=True, help="scene JSON file")
    gen.add_argument("--target", required=True, help="target entity id")
    gen.add_argument("--prefs", help="preference table JSON file (default: built-in)")
    gen.add_argument("--method", choices=METHODS, default="pcsreg")
    gen.add_argument("--seed", type=int, help="seed (required for --method random)")
    gen.add_argument("--json", action="store_true", help="emit a JSON detail document")
    gen.set_defaults(func=cmd_generate)

    res = sub.add_parser("resolve", help="resolve an expression to an entity distribution")
    res.add_argument("--scene", required=True)
    res.add_argument("--expr", required=True, help="surface string, JSON object, or @file")
    res.add_argument("--prefs")
    res.add_argument("--target", help="report appropriateness/effectiveness for this id")
    res.add_argument("--json", action="store_true")
    res.set_defaults(func=cmd_resolve)

    exp = sub.add_parser("explain", help="score every candidate expression for a target")
    exp.add_argument("--scene", required=True)
    exp.add_argument("--target", required=True)
    exp.add_argument("--prefs")
    exp.set_defaults(func=cmd_explain)

    ev = sub.add_parser("evaluate", help="run the seeded method comparison")
    ev.add_argument("--config", required=True, help="trial config JSON file")
    ev.add_argument("--out", help="directory for report.json / report.txt")
    ev.set_defaults(func=cmd_evaluate)

    sch = sub.add_parser("schema", help="print the scene/preferences/config/expression JSON schemas")
    sch.set_defaults(func=cmd_schema)
    parser.verbs = {"generate": gen, "resolve": res, "explain": exp, "evaluate": ev, "schema": sch}
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` with a leading verb's arguments
    parsed once: by that verb's parser alone, unless it leaves some over."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one CLI command and return its exit code; safe to call repeatedly.

    ``argv`` defaults to ``sys.argv[1:]``.  A known verb's arguments are
    parsed by that verb's own parser; help and usage errors are argparse's
    own, as from the full parser.
    """
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            if args.verb == "generate" and args.method == "random" and args.seed is None:
                _fail(EXIT_USAGE, "--method random requires --seed")
            code = args.func(args)
        except SystemExit as exc:
            code = int(exc.code or 0)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the interpreter's
        # final flush of what is still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
