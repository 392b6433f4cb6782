"""The benchmark's workloads: listen, crowded and resolve.

Each workload makes the input of op ``i`` from the workload seed and ``i``
alone, so a run can be split over several processes.  It runs one op
(the only timed part) through the library's public functions, and judges
the op's output outside the timed span.  The judge returns an ``Outcome``:
its status, a reason for anything but success, the op's output bytes (for
the output digest), and the number of listener trials it ran.

Statuses: ``ok``; ``no_expression`` for a generation that ended in
``GenerationError`` (what ``pcsreg generate`` maps to exit 4); ``failed``
for an unexpected exception, a non-zero exit code on a valid expression or
a failed output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from pcsreg import cli, frames, generator, harness, optimizer, prepositions, resolver, scene

OK = "ok"
NO_EXPRESSION = "no_expression"
FAILED = "failed"

SCORE_TOL = 1e-12
PROB_TOL = 1e-9


def derive(*parts) -> int:
    """Stable 63-bit seed from the workload seed and an op's coordinates."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def reason_of(exc: BaseException) -> str:
    """Exception type plus its message with entity ids and numbers elided."""
    text = str(exc).splitlines()[0] if str(exc) else ""
    text = re.sub(r"'[^']*'", "'…'", text)
    text = re.sub(r"\[[^\]]*\]", "[…]", text)
    text = re.sub(r"\d+(\.\d+)?", "N", text)
    return f"{type(exc).__name__}: {text}"


@dataclass(frozen=True)
class Outcome:
    status: str
    output: bytes
    reason: str | None = None
    trials: int = 0


def _failed(exc: BaseException, output: bytes) -> Outcome:
    return Outcome(FAILED, output, reason_of(exc))


# --- listen ----------------------------------------------------------------------


@dataclass(frozen=True)
class ListenInput:
    index: int
    config: object


class Listen:
    """One ``run_comparison`` per op on a one-scene, all-method config."""

    name = "listen"
    setup_batch = 64
    trials_per_expression = 50

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, i: int) -> ListenInput:
        return ListenInput(
            i,
            harness.config_from_dict(
                {
                    "seed": derive(self.seed, self.name, i),
                    "n_scenes": 1,
                    "trials_per_expression": self.trials_per_expression,
                    "methods": list(harness.METHODS),
                    "objects": [3, 8],
                }
            ),
        )

    def prepare(self, inp):
        return inp.config

    def run(self, cfg):
        return harness.run_comparison(cfg, collect_records=False)

    def judge(self, inp, report, exc) -> Outcome:
        if exc is not None:
            return _failed(exc, f"{inp.index}\t!{type(exc).__name__}\n".encode())
        text = harness.report_to_json(report)
        doc = json.loads(text)
        problem = _report_problem(doc, inp.config)
        trials = sum(m["n_trials"] for m in doc["methods"].values())
        if problem is not None:
            return Outcome(FAILED, text.encode(), f"check: {problem}", trials)
        return Outcome(OK, text.encode(), None, trials)


def _report_problem(doc: dict, cfg) -> str | None:
    """First violated report invariant, or None."""
    if doc["seed"] != cfg.seed or doc["n_scenes"] != cfg.n_scenes:
        return "seed or scene count differs from the config"
    if doc["trials_per_expression"] != cfg.trials_per_expression:
        return "trials_per_expression differs from the config"
    if list(doc["methods"]) != sorted(cfg.methods):
        return "methods differ from the config"
    trials = cfg.trials_per_expression
    for method, m in doc["methods"].items():
        by_k = m["by_k"]
        if m["n_expressions"] != doc["n_targets"]:
            return f"{method}: n_expressions != n_targets"
        if m["n_trials"] != m["n_expressions"] * trials:
            return f"{method}: n_trials != n_expressions x trials"
        if not 0 <= m["n_failures"] <= m["n_expressions"]:
            return f"{method}: n_failures out of range"
        if not 0 <= m["n_correct"] <= m["n_trials"]:
            return f"{method}: n_correct out of range"
        if sum(b["trials"] for b in by_k.values()) != m["n_trials"]:
            return f"{method}: by_k trials do not sum to n_trials"
        if sum(b["correct"] for b in by_k.values()) != m["n_correct"]:
            return f"{method}: by_k correct do not sum to n_correct"
        if by_k["failed"]["trials"] != m["n_failures"] * trials or by_k["failed"]["correct"]:
            return f"{method}: failed bucket inconsistent with n_failures"
        expected = m["n_correct"] / m["n_trials"] if m["n_trials"] else 0.0
        if abs(m["accuracy"] - expected) > SCORE_TOL:
            return f"{method}: accuracy != n_correct / n_trials"
        if not -SCORE_TOL <= m["expected_accuracy"] <= 1.0 + PROB_TOL:
            return f"{method}: expected_accuracy outside [0, 1]"
    return None


# --- crowded ---------------------------------------------------------------------


@dataclass(frozen=True)
class CrowdedInput:
    index: int
    scene: object
    target: str


class Crowded:
    """``pcsreg generate --method pcsreg`` for one ambiguous target of a fresh table per op."""

    name = "crowded"
    setup_batch = 64
    objects = (16, 30)
    categories = ("block", "cup")
    colors = ("red", "blue")
    shapes = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.prefs = frames.default_preferences()

    def make_input(self, i: int) -> CrowdedInput:
        sc = harness.sample_scene(
            derive(self.seed, self.name, "scene", i),
            objects=self.objects,
            categories=self.categories,
            colors=self.colors,
            shapes=self.shapes,
        )
        # The first ambiguous target in a seeded order; sample_scene gives its
        # first two objects one description, so there always is one.
        ids = sc.referable_ids()
        order = random.Random(derive(self.seed, self.name, "target", i)).sample(ids, len(ids))
        target = next(t for t in order if not generator.describe_visual(t, set(ids), sc).distinguishing)
        return CrowdedInput(i, sc, target)

    def prepare(self, inp):
        return inp

    def run(self, inp):
        chain = generator.build_landmark_chain(inp.target, inp.scene, self.prefs)
        candidates = generator.expression_space(chain, inp.scene)
        best, sc = optimizer.select_best(candidates, inp.target, inp.scene, self.prefs)
        return chain, candidates, best, sc

    def judge(self, inp, result, exc) -> Outcome:
        head = f"{inp.index}\t{inp.target}\t"
        if exc is not None:
            output = f"{head}!{type(exc).__name__}\n".encode()
            if isinstance(exc, generator.GenerationError):
                return Outcome(NO_EXPRESSION, output, reason_of(exc))
            return _failed(exc, output)
        chain, candidates, best, sc = result
        output = f"{head}{best.surface}\t{sc.appropriateness}\t{sc.effectiveness!r}\n".encode()
        if not generator.verify_chain_discrimination(chain, inp.scene):
            return Outcome(FAILED, output, "check: chain does not discriminate the target")
        if best not in candidates:
            return Outcome(FAILED, output, "check: selected candidate not in the candidate list")
        totals: dict[str, float] = {}
        for c in candidates:
            if c.surface not in totals:
                totals[c.surface] = optimizer.score(c, inp.target, inp.scene, self.prefs).total
        if abs(totals[best.surface] - sc.total) > SCORE_TOL:
            return Outcome(FAILED, output, "check: selected score differs from its rescoring")
        if max(totals.values()) - sc.total > SCORE_TOL:
            return Outcome(FAILED, output, "check: selected score is not the maximum")
        return Outcome(OK, output)


# --- resolve ---------------------------------------------------------------------


@dataclass(frozen=True)
class ResolveInput:
    index: int
    scene: object
    scene_text: str
    tree: object
    surface: str


def _phrase(rng: random.Random, entity) -> resolver.AttributePhrase:
    """A head phrase from the entity's own attributes; category always set."""
    return resolver.AttributePhrase(
        category=entity.category,
        color=entity.color if entity.color and rng.random() < 0.5 else None,
        shape=entity.shape if entity.shape and rng.random() < 0.5 else None,
    )


def random_tree(rng: random.Random, sc):
    """A depth-1 to 3 tree over distinct in-scene entities with random prepositions."""
    k = rng.randint(1, 3)
    objs = list(sc.objects())
    rng.shuffle(objs)
    chain = objs[: k + 1]
    if rng.random() < 0.25:
        chain[-1] = sc.speaker if rng.random() < 0.5 else sc.listener
    preps = list(prepositions.PREPOSITION_ORDER)
    last = chain[-1]
    if last.referable_as_target:
        node = resolver.Leaf(_phrase(rng, last))
    else:
        person = "speaker" if last is sc.speaker else "listener"
        node = resolver.Leaf(resolver.AttributePhrase(person=resolver.PersonRef(person)))
    for entity in reversed(chain[:-1]):
        node = resolver.Compound(_phrase(rng, entity), preps[rng.randrange(len(preps))], node)
    return node


class Resolve:
    """One in-process ``pcsreg resolve --json`` per op on a freshly written scene."""

    name = "resolve"
    setup_batch = 256
    objects = (4, 6)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.prefs = frames.default_preferences()

    def make_input(self, i: int) -> ResolveInput:
        sc = harness.sample_scene(derive(self.seed, self.name, "scene", i), objects=self.objects)
        tree = random_tree(random.Random(derive(self.seed, self.name, "tree", i)), sc)
        return ResolveInput(i, sc, scene.dump_scene(sc), tree, generator.realize(tree))

    def prepare(self, inp):
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"scene-{inp.index}.json"
        path.write_text(inp.scene_text, encoding="utf-8")
        return ["resolve", "--scene", str(path), "--expr", inp.surface, "--json"]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def judge(self, inp, result, exc) -> Outcome:
        (self.workdir / f"scene-{inp.index}.json").unlink(missing_ok=True)
        if exc is not None:
            return _failed(exc, f"{inp.index}\t!{type(exc).__name__}\n".encode())
        code, stdout = result
        output = stdout.encode()
        if code != 0:
            return Outcome(FAILED, output, f"check: exit code {code} on a valid expression")
        vocab = scene.attribute_vocabulary(inp.scene)
        if resolver.parse_expression(inp.surface, vocab) != inp.tree:
            return Outcome(FAILED, output, "check: parse(realize(tree)) != tree")
        doc = json.loads(stdout)
        if doc["k"] != resolver.depth(inp.tree):
            return Outcome(FAILED, output, "check: reported depth differs from the tree")
        oracle = harness.oracle_denote(inp.tree, inp.scene, self.prefs)
        if doc["unresolvable"] != oracle.unresolvable or (doc["probs"] is None) != oracle.unresolvable:
            return Outcome(FAILED, output, "check: unresolvable marker differs from the oracle")
        if not oracle.unresolvable:
            probs = doc["probs"]
            if set(probs) != set(oracle.probs):
                return Outcome(FAILED, output, "check: probs cover other entities than the oracle")
            if any(abs(probs[e] - p) > PROB_TOL for e, p in oracle.probs.items()):
                return Outcome(FAILED, output, "check: probs differ from the oracle")
        return Outcome(OK, output)


WORKLOADS = {w.name: w for w in (Listen, Crowded, Resolve)}
