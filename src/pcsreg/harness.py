"""Seeded evaluation harness and the brute-force resolution oracle.

The harness samples random tabletop scenes, generates one expression per
method for every target whose visual description is ambiguous, and measures
how often a simulated listener identifies the intended target.  All
randomness is derived from the master seed through stable hashes, so trials
are reproducible and every method's listener reads one list of draws on
the same trial.  The listener reads a ``ListenerPlan``, which its caller
compiles once per expression, scene and true-preference table.

``oracle_denote`` is an independent check on the recursive resolution
model: it enumerates every joint assignment of a concrete landmark and a
frame kind to every relation unit and normalizes once at the end.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass, field
from typing import Callable

from .frames import (
    FRAME_ORDER,
    PREFS_SCHEMA,
    FrameError,
    FrameInstance,
    FrameKind,
    PreferenceTable,
    default_preferences,
    frame_instance,
    preference_error,
    preferences_from_dict,
    supports_intrinsic,
)
from .generator import CandidateExpression, GenerationError, build_landmark_chain, describe_visual
from .geometry import heading_vec, ordered_sum
from .optimizer import METHODS, generate_methods
from .prepositions import partitions, relation
from .resolver import (
    Denotation,
    ExpressionTree,
    consistent_set,
    denote,
    spine,
)
from .scene import Entity, EntityKind, Scene, TableExtent, check_document, json_text, landmark_type
from .scene import _TypesChecked

DEFAULT_CATEGORIES = ("block", "car", "cup", "book")
DEFAULT_COLORS = ("red", "yellow", "blue", "green")
DEFAULT_SHAPES = ("square", "round", "oblong")

ORACLE_MAX_DEPTH = 3

# Random positions ``sample_scene`` tries for each object before giving up.
PLACEMENT_ATTEMPTS = 200


class HarnessError(ValueError):
    pass


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from heterogeneous parts (not Python's hash())."""
    text = ":".join(str(p) for p in parts)
    return _digest_seed(hashlib.sha256(text.encode("utf-8")))


def derive_seeds(*parts, count: int) -> list[int]:
    """``[derive_seed(*parts, i) for i in range(count)]``, hashing the
    shared prefix once."""
    prefix = hashlib.sha256("".join(f"{p}:" for p in parts).encode("utf-8"))
    seeds = []
    for i in range(count):
        h = prefix.copy()
        h.update(b"%d" % i)
        seeds.append(_digest_seed(h))
    return seeds


def _digest_seed(h) -> int:
    """The seed of a sha256 hash: its first eight bytes, big-endian, with
    the top bit cleared."""
    return int.from_bytes(h.digest()[:8], "big") & (2**63 - 1)


# --- scene sampling ----------------------------------------------------------


def _check_pools(objects: tuple[int, int], categories, colors, shapes) -> None:
    """Raise ``HarnessError`` unless the sampling pools meet ``CONFIG_SCHEMA``
    and the object-count range has ``lo <= hi``."""
    pools = {"objects": objects, "categories": categories, "colors": colors, "shapes": shapes}
    check_document(pools, _POOLS_SCHEMA, _config_error)
    _check_object_range(objects)


def _check_object_range(objects: tuple[int, int]) -> None:
    """The one pool rule the schema cannot say: ``lo <= hi``."""
    if objects[0] > objects[1]:
        raise HarnessError(f"config field 'objects' must have lo <= hi, got {list(objects)}")


def sample_scene(
    seed: int,
    objects: tuple[int, int] = (3, 8),
    categories=DEFAULT_CATEGORIES,
    colors=DEFAULT_COLORS,
    shapes=DEFAULT_SHAPES,
) -> Scene:
    """Deterministic random tabletop scene.

    Speaker and listener face each other across the table; the first two
    objects always share a full visual description so at least one target
    needs a spatial reference.
    """
    _check_pools(objects, categories, colors, shapes)
    rng = random.Random(seed)
    n = rng.randint(*objects)

    entities = [
        Entity("speaker", EntityKind.SPEAKER, "robot", (0.0, -1.0), heading=1.5707963267948966),
        Entity("listener", EntityKind.LISTENER, "person", (0.0, 1.0), heading=-1.5707963267948966),
    ]
    positions = [(0.0, -1.0), (0.0, 1.0)]

    def place() -> tuple[float, float]:
        for _ in range(PLACEMENT_ATTEMPTS):
            p = (rng.uniform(-0.9, 0.9), rng.uniform(-0.7, 0.7))
            if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= 0.05**2 for q in positions):
                positions.append(p)
                return p
        raise HarnessError(
            f"could not place an object after {PLACEMENT_ATTEMPTS} attempts (seed {seed})"
        )

    def visual() -> tuple[str, str | None, str | None]:
        category = categories[rng.randrange(len(categories))]
        color = colors[rng.randrange(len(colors))] if colors and rng.random() < 0.8 else None
        shape = shapes[rng.randrange(len(shapes))] if shapes and rng.random() < 0.35 else None
        return category, color, shape

    shared = visual()
    objects_out = []
    for i in range(n):
        cat, color, shape = shared if i < 2 else visual()
        heading = rng.uniform(0.0, 6.283185307179586) if rng.random() < 0.4 else None
        objects_out.append(
            Entity(
                id=f"{cat}{i + 1}",
                kind=EntityKind.OBJECT,
                category=cat,
                centroid=place(),
                color=color,
                shape=shape,
                heading=heading,
            )
        )
    # Built from the checked pools: only the semantic rules are left to check.
    return Scene(
        entities=_TypesChecked(entities + objects_out),
        table=TableExtent((-1.2, -1.2), (1.2, 1.2)),
        north=(0.0, 1.0),
    )


# --- simulated listener -------------------------------------------------------


# ``ListenerPlan.fixed`` when the listener's answer depends on its draws.
_DEPENDS_ON_DRAWS = object()


class ListenerPlan:
    """One expression tree compiled against a scene and the true preference
    table ``prefs`` for the listener; ``simulate_listener`` reads it.

    ``anchor`` is the innermost phrase's referent (None if nothing matches)
    and ``depth`` the number of relation units.  ``steps`` maps (unit level,
    resolved landmark id) to the unit's adoptable options as (kind, weight,
    first survivor) and their total weight.  It is filled by following every
    option of every step from the anchor (None when a step has no option),
    which reaches every landmark that some draws reach.

    ``fixed`` is the listener's answer when that walk ends at one answer,
    and ``_DEPENDS_ON_DRAWS`` otherwise; whatever the draws or the
    coupling, the listener returns one of the answers it ends at.
    """

    def __init__(self, tree: ExpressionTree, scene: Scene, prefs: PreferenceTable):
        units, leaf = spine(tree)
        ids = consistent_set(leaf.head, scene)
        self.anchor = min(ids) if ids else None
        self.depth = len(units)
        self.steps: dict[tuple[int, str], tuple[list, float]] = {}
        reachable = {self.anchor}
        for level, unit in enumerate(reversed(units)):
            head_ids = sorted(consistent_set(unit.head, scene))
            after = set()
            for resolved_id in reachable:
                options = []
                if resolved_id is not None:
                    resolved = scene.entity(resolved_id)
                    row = prefs.row(landmark_type(resolved))
                    for part in partitions(resolved, scene):
                        p = row[part.frame.kind.order]
                        if p <= 0.0:
                            continue
                        members = part.members[unit.prep.order]
                        survivor = next((eid for eid in head_ids if eid in members), None)
                        if survivor is not None:
                            options.append((part.frame.kind, p, survivor))
                    total = ordered_sum(p for _, p, _ in options)
                    self.steps[level, resolved_id] = (options, total)
                if options:
                    after.update(survivor for _, _, survivor in options)
                else:
                    after.add(None)
            reachable = after
        self.fixed = next(iter(reachable)) if len(reachable) == 1 else _DEPENDS_ON_DRAWS


def simulate_listener(
    plan: ListenerPlan, draw: Callable[[], float], consistency_coupling: float = 0.0
) -> str | None:
    """One listener's crisp interpretation of the expression ``plan`` compiles.

    The listener resolves bottom-up and commits: the innermost phrase
    resolves to its first consistent entity, then for each relation unit one
    frame kind is sampled from the true preferences for the current
    landmark, the unit's head candidates are filtered by the crisp relation,
    and the first survivor becomes the referent for the next unit up.

    The listener only adopts frames under which the unit resolves to
    something: preference mass on frames with no surviving candidate (or
    that cannot be instantiated at the landmark) is renormalized over the
    rest, mirroring how the resolution model's normalization discards that
    mass.  When no adoptable frame resolves the unit at all, the listener is
    confused and None is returned (counted as an incorrect identification).

    ``consistency_coupling`` is the probability of reusing the previous
    unit's frame kind instead of sampling afresh; the default models fully
    independent per-unit frame choices.  ``draw()`` returns the next
    uniform number, e.g. ``rng.random``; it is called at most twice per
    unit, in the order an uncompiled walk calls ``rng.random()``, so trials
    that share a plan differ only in their draws.
    """
    resolved = plan.anchor
    if resolved is None:
        return None
    prev_kind: FrameKind | None = None
    for level in range(plan.depth):
        options, total = plan.steps[level, resolved]
        if not options:
            return None
        chosen = None
        # Every unit takes the coupling's draw, whether or not it can reuse a kind.
        if draw() < consistency_coupling and prev_kind is not None:
            chosen = next((o for o in options if o[0] is prev_kind), None)
        if chosen is None:
            u = draw() * total
            acc = 0.0
            chosen = options[-1]
            for option in options:
                acc += option[1]
                if u <= acc:
                    chosen = option
                    break
        prev_kind, _, resolved = chosen
    return resolved


# --- brute-force oracle -------------------------------------------------------


def oracle_denote(tree: ExpressionTree, scene: Scene, prefs: PreferenceTable) -> Denotation:
    """Joint enumeration over (landmark, frame) assignments for every unit.

    Kept structurally independent of the recursive model: weights multiply
    along a full assignment and are normalized exactly once.  Exponential in
    depth, so bounded to ``ORACLE_MAX_DEPTH`` relation units; its cost grows
    with the phrase sets' sizes, not with the entity count as such.
    """
    units, leaf = spine(tree)
    if len(units) > ORACLE_MAX_DEPTH:
        raise HarnessError(f"oracle limited to depth {ORACLE_MAX_DEPTH}, got {len(units)}")

    phrase_sets = [consistent_set(node.head, scene) for node in (*units, leaf)]
    if any(not s for s in phrase_sets):
        return Denotation(None)
    uniform = [1.0 / len(s) for s in phrase_sets]

    mass = {eid: 0.0 for eid in (e.id for e in scene.entities)}

    def assignments(level: int, upper_id: str, weight: float, referent: str):
        # level indexes the relation units root-first; upper_id is the entity
        # chosen for the level's head; all surviving weight belongs to the
        # root referent.
        if level == len(units):
            mass[referent] += weight
            return
        prep = units[level].prep
        next_set = phrase_sets[level + 1]
        for lm_id in next_set:
            if lm_id == upper_id:
                continue
            lm = scene.entity(lm_id)
            row = prefs.row(landmark_type(lm))
            for kind in FRAME_ORDER:
                p_f = row[kind.order]
                if p_f <= 0.0:
                    continue
                if kind is FrameKind.INTRINSIC:
                    if not supports_intrinsic(lm):
                        continue
                    frame = FrameInstance(kind, lm.id, heading_vec(lm.heading))
                else:
                    frame = frame_instance(kind, scene)
                if relation(scene.entity(upper_id), lm, frame) is not prep:
                    continue
                assignments(level + 1, lm_id, weight * p_f * uniform[level + 1], referent)

    for referent in phrase_sets[0]:
        assignments(0, referent, uniform[0], referent)

    referable = scene.referable_ids()
    restricted = {eid: mass.get(eid, 0.0) for eid in referable}
    total = sum(restricted.values())
    if total <= 0.0:
        return Denotation(None)
    return Denotation({eid: p / total for eid, p in restricted.items()})


# --- comparison runner --------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    seed: int
    n_scenes: int
    trials_per_expression: int
    true_prefs: PreferenceTable
    methods: tuple[str, ...]
    assumed_prefs: PreferenceTable | None = None
    objects: tuple[int, int] = (3, 8)
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    colors: tuple[str, ...] = DEFAULT_COLORS
    shapes: tuple[str, ...] = DEFAULT_SHAPES
    consistency_coupling: float = 0.0
    per_trial_csv: bool = False

    def __post_init__(self):
        # The fields as a config document, less the preference tables.
        tables = ("true_prefs", "assumed_prefs")
        doc = {key: value for key, value in vars(self).items() if key not in tables}
        check_document(doc, CONFIG_SCHEMA, _config_error)
        _check_object_range(self.objects)
        for key in tables:
            table = getattr(self, key)
            if not isinstance(table, PreferenceTable) and (key, table) != ("assumed_prefs", None):
                raise HarnessError(
                    f"config field {key!r} must be a PreferenceTable, got {type(table).__name__}"
                )


CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "TrialConfig",
    "type": "object",
    "required": ["seed", "n_scenes", "trials_per_expression"],
    "properties": {
        "seed": {"type": "integer"},
        "n_scenes": {"type": "integer", "minimum": 1},
        "trials_per_expression": {"type": "integer", "minimum": 1},
        "methods": {
            "type": "array",
            "items": {"enum": list(METHODS)},
            "minItems": 1,
            "uniqueItems": True,
        },
        "true_prefs": {"$ref": "#/definitions/preferences"},
        "assumed_prefs": {"$ref": "#/definitions/preferences"},
        "objects": {"type": "array", "items": {"type": "integer", "minimum": 2}, "minItems": 2, "maxItems": 2},
        "categories": {"type": "array", "items": {"type": "string", "minLength": 1}, "minItems": 1},
        "colors": {"type": "array", "items": {"type": "string", "minLength": 1}},
        "shapes": {"type": "array", "items": {"type": "string", "minLength": 1}},
        "consistency_coupling": {"type": "number", "minimum": 0, "maximum": 1},
        "per_trial_csv": {"type": "boolean"},
    },
    "additionalProperties": False,
    "definitions": {"preferences": PREFS_SCHEMA},
}

# The config fields that ``sample_scene``'s pools set; no pool refers to
# the preference definition, which this schema does not carry.
_POOLS_SCHEMA = {"properties": CONFIG_SCHEMA["properties"]}


def _config_error(path: tuple, message: str) -> HarnessError:
    if len(path) > 1:  # inside true_prefs or assumed_prefs: a preference error
        message = str(preference_error(path[1:], message))
    return HarnessError(f"config field {path[0]!r} {message}" if path else f"config {message}")


def config_from_dict(doc: dict) -> TrialConfig:
    """Check ``doc`` against ``CONFIG_SCHEMA``, then build and validate the config."""
    check_document(doc, CONFIG_SCHEMA, _config_error)
    fields = {key: tuple(value) if isinstance(value, list) else value for key, value in doc.items()}
    for key in ("true_prefs", "assumed_prefs"):
        if key in doc:
            try:
                fields[key] = preferences_from_dict(doc[key])
            except FrameError as exc:
                raise HarnessError(f"config field {key!r} {exc}") from None
    if "consistency_coupling" in doc:
        fields["consistency_coupling"] = float(doc["consistency_coupling"])
    return TrialConfig(**{"true_prefs": default_preferences(), "methods": METHODS, **fields})


@dataclass
class MethodStats:
    n_expressions: int = 0
    n_failures: int = 0
    n_trials: int = 0
    n_correct: int = 0
    expected_sum: float = 0.0
    by_k: dict = field(
        default_factory=lambda: {
            b: {"trials": 0, "correct": 0} for b in ("k1", "k2plus", "failed")
        }
    )

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_trials if self.n_trials else 0.0

    @property
    def expected_accuracy(self) -> float:
        return self.expected_sum / self.n_expressions if self.n_expressions else 0.0


@dataclass
class TrialReport:
    config_seed: int
    n_scenes: int
    n_targets: int
    trials_per_expression: int
    stats: dict[str, MethodStats]
    records: list[dict] = field(default_factory=list, repr=False)


# The columns of a per-trial record, in ``trials.csv`` order.
RECORD_FIELDS = ("scene", "target", "method", "trial", "k", "identified", "correct")


def run_comparison(cfg: TrialConfig, collect_records: bool = True) -> TrialReport:
    """Generate-and-listen comparison across methods, deterministic per seed.

    Every referable target whose visual description is ambiguous gets one
    expression per method, heard by ``trials_per_expression`` simulated
    listeners.  Per target: (1) each distinct surface gets one outcome
    ``[plan, mass, answers]``, shared by the methods that chose it, with its
    mass read from ``generate_methods``'s ranking when the tables are equal;
    (2) only if some plan draws, each trial reseeds one ``Random`` with
    ``derive_seed(seed, "trial", scene, target, trial)`` and every drawing
    plan reads those draws, so methods hear identical listeners; (3) each
    method's tallies, then the per-trial records, read the answers.
    """
    assumed = cfg.assumed_prefs or default_preferences()
    # The ranking's denotations are the listener's when the tables agree.
    same_tables = cfg.true_prefs == assumed
    # Reseeded before each trial that draws; ``seed(s)`` gives ``Random(s)``'s state.
    rng = random.Random(0)
    stats = {m: MethodStats() for m in cfg.methods}
    records: list[dict] = []
    n_targets = 0
    trials = cfg.trials_per_expression

    for scene_idx in range(cfg.n_scenes):
        scene = sample_scene(
            derive_seed(cfg.seed, "scene", scene_idx),
            objects=cfg.objects,
            categories=cfg.categories,
            colors=cfg.colors,
            shapes=cfg.shapes,
        )
        all_ids = set(scene.referable_ids())
        for target_id in scene.referable_ids():
            if describe_visual(target_id, all_ids, scene).distinguishing:
                continue
            n_targets += 1
            try:
                chain = build_landmark_chain(target_id, scene, assumed)
            except GenerationError:
                picks, scored = {}, {}
            else:
                strategy_seed = derive_seed(cfg.seed, "strategy", scene_idx, target_id)
                picks, scored = generate_methods(
                    cfg.methods, chain, scene, assumed, seed=strategy_seed
                )

            # Pass 1: per distinct surface (None for no expression), the
            # listener plan, the target's mass and the answer on each trial;
            # a drawing plan's answers start empty (``trials`` is at least 1).
            outcomes: dict[str | None, list] = {None: [None, 0.0, [None] * trials]}
            chosen = []
            for method in cfg.methods:
                pick = picks.get(method)
                surface = pick.surface if isinstance(pick, CandidateExpression) else None
                if surface not in outcomes:
                    plan = ListenerPlan(pick.tree, scene, cfg.true_prefs)
                    if same_tables and surface in scored:
                        denotation = scored[surface][0]
                    else:
                        denotation = denote(pick.tree, scene, cfg.true_prefs)
                    answers = [] if plan.fixed is _DEPENDS_ON_DRAWS else [plan.fixed] * trials
                    outcomes[surface] = [plan, denotation.get(target_id, 0.0), answers]
                plan, mass, answers = outcomes[surface]
                chosen.append((method, None if plan is None else plan.depth, mass, answers))

            # Pass 2: the trials, walked only for the plans that draw.
            drawing = [(plan, answers) for plan, _, answers in outcomes.values() if not answers]
            if drawing:
                n_draws = 2 * max(plan.depth for plan, _ in drawing)
                for seed in derive_seeds(cfg.seed, "trial", scene_idx, target_id, count=trials):
                    rng.seed(seed)
                    draws = [rng.random() for _ in range(n_draws)]
                    for plan, answers in drawing:
                        answers.append(
                            simulate_listener(plan, iter(draws).__next__, cfg.consistency_coupling)
                        )

            # Pass 3: the tallies, then the records, read the answers.
            for method, k, mass, answers in chosen:
                n_correct = answers.count(target_id)
                st = stats[method]
                st.n_expressions += 1
                st.n_failures += k is None
                st.expected_sum += mass
                st.n_trials += trials
                st.n_correct += n_correct
                bucket = st.by_k["failed" if k is None else "k1" if k == 1 else "k2plus"]
                bucket["trials"] += trials
                bucket["correct"] += n_correct
            if collect_records:
                for trial in range(trials):
                    for method, k, _, answers in chosen:
                        answer = answers[trial]
                        row = (scene_idx, target_id, method, trial, k, answer, answer == target_id)
                        records.append(dict(zip(RECORD_FIELDS, row)))

    return TrialReport(
        config_seed=cfg.seed,
        n_scenes=cfg.n_scenes,
        n_targets=n_targets,
        trials_per_expression=trials,
        stats=stats,
        records=records,
    )


def report_to_dict(report: TrialReport) -> dict:
    out = {
        "seed": report.config_seed,
        "n_scenes": report.n_scenes,
        "n_targets": report.n_targets,
        "trials_per_expression": report.trials_per_expression,
        "methods": {},
    }
    for method, st in report.stats.items():
        out["methods"][method] = {
            "n_expressions": st.n_expressions,
            "n_failures": st.n_failures,
            "n_trials": st.n_trials,
            "n_correct": st.n_correct,
            "accuracy": st.accuracy,
            "expected_accuracy": st.expected_accuracy,
            "by_k": {
                b: {
                    "trials": v["trials"],
                    "correct": v["correct"],
                    "accuracy": (v["correct"] / v["trials"]) if v["trials"] else 0.0,
                }
                for b, v in st.by_k.items()
            },
        }
    return out


def report_to_json(report: TrialReport) -> str:
    return json_text(report_to_dict(report))


def format_report_text(report: TrialReport) -> str:
    lines = [
        f"seed {report.config_seed}  scenes {report.n_scenes}  targets {report.n_targets}"
        f"  trials/expr {report.trials_per_expression}",
        "",
        f"{'method':<8} {'accuracy':>9} {'expected':>9} {'k=1':>9} {'k>1':>9} {'fail':>5}",
    ]
    for method, st in report.stats.items():
        k1 = st.by_k["k1"]
        k2 = st.by_k["k2plus"]
        k1a = f"{k1['correct'] / k1['trials']:.4f}" if k1["trials"] else "-"
        k2a = f"{k2['correct'] / k2['trials']:.4f}" if k2["trials"] else "-"
        lines.append(
            f"{method:<8} {st.accuracy:>9.4f} {st.expected_accuracy:>9.4f}"
            f" {k1a:>9} {k2a:>9} {st.n_failures:>5}"
        )
    return "\n".join(lines) + "\n"


def records_to_csv(report: TrialReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
    writer.writeheader()
    writer.writerows(report.records)
    return buf.getvalue()
