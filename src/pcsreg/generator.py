"""Content selection and realization for spatial referring expressions.

Generation proceeds in two stages.  First, landmarks are selected one at a
time: the target gets an incremental visual description, and if that fails
to single it out, candidate landmarks are tried in order of increasing
frame-preference entropy until one separates the target from every
same-description distractor under the speaker's frame.  The selected
landmark becomes the new thing to describe and the loop repeats until some
landmark is uniquely describable.  The selected landmarks, in push order
with the anchor last, are the paper's stack model: popping them yields the
nesting of the final expression.

Second, the per-unit preference distributions are run through the
content-window update; if any distribution changes, landmark selection is
re-run with the revised priorities, until a fixed point or
``MAX_CHAIN_REBUILDS`` passes, with ``converged=False`` then.

The finished chain also holds each relation unit's options: every
applicable frame with the crisp preposition it produces.  The expression
space is the set of candidate surface expressions obtained by picking one
option per unit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .frames import (
    FrameInstance,
    FrameKind,
    PreferenceTable,
    Row,
    frame_instance,
    frame_margin,
    preference_entropy,
    shared_frame,
    update_preferences,
)
from .prepositions import (
    LISTENER_SURFACE,
    PLAIN_SURFACE,
    SPEAKER_SURFACE,
    Preposition,
    _quadrant,
    partitions,
    relation,
)
from .resolver import (
    AttributePhrase,
    Compound,
    ExpressionTree,
    Leaf,
    PersonRef,
    consistent_set,
)
from .scene import Entity, EntityKind, Scene, landmark_type


class GenerationError(RuntimeError):
    pass


class NoDiscriminatingLandmarkError(GenerationError):
    """No candidate landmark separates the target from its distractors."""


# Exhaustive search is exponential in expression complexity; desk-scale
# chains stay well under this.
MAX_COMPLEXITY = 4


class ComplexityCapError(GenerationError):
    """The landmark chain is longer than exhaustive search allows."""


@dataclass(frozen=True)
class VisualDescription:
    attrs: AttributePhrase
    distinguishing: bool


@dataclass(frozen=True)
class CandidateExpression:
    tree: ExpressionTree
    strategy: tuple[tuple[FrameKind, str | None], ...]  # (kind, origin id) per relation unit
    surface: str


@dataclass(frozen=True)
class LandmarkChain:
    """Everything landmark selection produced for one target."""

    target: str
    landmarks: tuple[str, ...]  # push order, the anchor last
    descriptions: tuple[VisualDescription, ...]  # target first, anchor last
    # Settled frame preferences per unit, shallowest first; an unconverged
    # chain carries the last update's rows.
    distributions: tuple[Row, ...]
    # Per unit, (frame, relation of the target or previous landmark to the
    # unit's landmark under that frame), in ``applicable_frames`` order.
    options: tuple[tuple[tuple[FrameInstance, Preposition], ...], ...]
    iterations: int  # outer (re)build passes, for convergence checks
    converged: bool = True

    @property
    def k(self) -> int:
        return len(self.landmarks)


def _person_phrase(entity: Entity) -> AttributePhrase:
    ref = PersonRef.SPEAKER if entity.kind is EntityKind.SPEAKER else PersonRef.LISTENER
    return AttributePhrase(person=ref)


def _describe(target_id: str, domain: set[str], scene: Scene):
    """``describe_visual``'s description of the target, with the ids of the
    scene's entities that match it and those of them in ``domain``."""
    if target_id not in domain:
        raise ValueError(f"target {target_id!r} not in domain")
    target = scene.entity(target_id)
    selected = {"category": target.category}
    described = set(scene.attributes[("category", target.category.lower())])
    matches = described & domain  # always holds the target
    for attr in ("color", "shape"):
        if len(matches) == 1:
            break
        value = getattr(target, attr)
        if value is not None:
            selected[attr] = value
            described.intersection_update(scene.attributes[(attr, value.lower())])
            matches &= described
    return VisualDescription(AttributePhrase(**selected), len(matches) == 1), described, matches


def describe_visual(target_id: str, domain: set[str], scene: Scene) -> VisualDescription:
    """Incremental attribute selection over (category, color, shape).

    The category is always included; further attributes are added only while
    same-description distractors remain in the domain, stopping early once
    the description is distinguishing.  Each attribute narrows the scene's
    and the domain's matches once, case-insensitively as ``consistent_set``.
    """
    return _describe(target_id, domain, scene)[0]


# Each distinct preference row's entropy, computed (and the row validated)
# on its first use in the process.  Rows are the preference table's and the
# content-window update's, so a few dozen distinct rows cover a long run.
_row_entropy = functools.lru_cache(maxsize=1024)(preference_entropy)


def select_landmark(
    target_id: str,
    domain: set[str],
    scene: Scene,
    entity_rows: dict[str, tuple[float, ...]],
    frame: FrameInstance,
) -> tuple[VisualDescription, str | None]:
    """One landmark-selection step.

    Returns the target's visual description and, when that description is
    not distinguishing, the highest-priority candidate landmark whose
    relation to the target (under ``frame``) differs from its relation to
    every distractor.  Priority is ascending preference entropy, then
    distance to the target, then id; the id key is the one rule left in
    generation that depends on how entities are named.  The step computes
    the description's match sets once: the distractors are its other
    matches in ``domain``, and the candidates are the domain's objects and
    both agents, less its matches in the scene.  Every candidate is tested,
    the target's quadrant first, then each distractor's until one shares
    it, and only the candidates that separate are ranked and have their
    ``entity_rows`` read, so a step that fails ranks none.  The target and
    the distractors are projected onto the frame's two diagonals once per
    call, and each candidate once; each pair's quadrant is decided by the
    signs of the differences, and by ``prepositions._quadrant``, which is
    ``relation``, only within ``frames.sign_margin`` of a diagonal (the
    ``prepositions`` module docstring has the argument), read from
    ``scene.frames`` when ``frame`` is one of the scene's shared frames.
    """
    target = scene.entity(target_id)
    if target.kind is not EntityKind.OBJECT:
        return VisualDescription(_person_phrase(target), True), None

    d_vf, described, matches = _describe(target_id, domain, scene)
    if d_vf.distinguishing:
        return d_vf, None

    distractors = sorted(matches - {target_id})
    fx, fy = frame.front_axis
    a, b = fx + fy, fy - fx  # front + right; front - right is (-b, a)
    m = frame_margin(frame, scene)
    nm = -m
    located = [
        (px * a + py * b, py * a - px * b, px, py)
        for px, py in [target.centroid] + [scene.entity(eid).centroid for eid in distractors]
    ]
    tx, ty = target.centroid
    best = None
    for e in scene.entities:
        if e.id in described or (e.id not in domain and e.kind is EntityKind.OBJECT):
            continue
        cx, cy = e.centroid
        cu = cx * a + cy * b
        cv = cy * a - cx * b
        target_quadrant = -1
        for pu, pv, px, py in located:
            u = pu - cu
            v = pv - cv
            if (u > m or u < nm) and (v > m or v < nm):
                q = (0 if v > 0 else 3) if u > 0 else (2 if v > 0 else 1)
            else:
                q = _quadrant(px - cx, py - cy, fx, fy)
            if q == target_quadrant:
                break
            if target_quadrant < 0:
                target_quadrant = q
        else:
            # ``geometry.distance(e.centroid, target.centroid)``, inline.
            key = (_row_entropy(entity_rows[e.id]), math.hypot(cx - tx, cy - ty), e.id)
            if best is None or key < best:
                best = key
    if best is not None:
        return d_vf, best[2]
    raise NoDiscriminatingLandmarkError(
        f"no candidate landmark discriminates {target_id!r} from {distractors}"
    )


class _RowsOnFirstUse(dict):
    """Each entity's preference row by id, read from the table on first use."""

    def __init__(self, scene: Scene, base: PreferenceTable):
        self.scene, self.rows = scene, base.rows

    def __missing__(self, eid: str) -> Row:
        row = self[eid] = self.rows[landmark_type(self.scene.entity(eid))]
        return row


# Hard cap on re-build passes.  The update does not always reach a fixed
# point, even with the default preference table: a rebuild can alternate
# between two landmark chains whose unit rows swap back and forth, and such
# a build stops here with ``converged=False``.
MAX_CHAIN_REBUILDS = 16


def build_landmark_chain(target_id: str, scene: Scene, base: PreferenceTable) -> LandmarkChain:
    """Select the landmark chain for a target and settle its preferences.

    Runs landmark selection under the speaker's frame, reading each row
    from ``base`` on first use, applies the content-window preference
    update, and rebuilds while any per-unit distribution changes.  The
    chain carries the settled distributions and the build passes taken.
    """
    if not scene.has_entity(target_id):
        raise GenerationError(f"no entity with id {target_id!r}")
    if not scene.entity(target_id).referable_as_target:
        raise GenerationError(f"entity {target_id!r} is not a referable target")
    speaker_frame = shared_frame(FrameKind.EGOCENTRIC, scene)[0]
    entity_rows = _RowsOnFirstUse(scene, base)

    for iterations in range(1, MAX_CHAIN_REBUILDS + 1):
        domain = set(scene.referable_ids())
        current = target_id
        descriptions: list[VisualDescription] = []
        landmark_ids: list[str] = []
        while True:
            try:
                d_vf, lm = select_landmark(current, domain, scene, entity_rows, speaker_frame)
            except NoDiscriminatingLandmarkError as exc:
                raise GenerationError(
                    f"cannot generate a distinguishing expression for {target_id!r}: {exc}"
                ) from exc
            descriptions.append(d_vf)
            if lm is None:
                break
            landmark_ids.append(lm)
            domain -= consistent_set(d_vf.attrs, scene)
            current = lm

        chain_types = [landmark_type(scene.entity(eid)) for eid in landmark_ids]
        distributions = tuple(entity_rows[eid] for eid in landmark_ids)
        updated = update_preferences(distributions, chain_types)
        converged = updated == distributions
        if converged:
            break
        for eid, row in zip(landmark_ids, updated):
            entity_rows[eid] = row

    return LandmarkChain(
        target=target_id,
        landmarks=tuple(landmark_ids),
        descriptions=tuple(descriptions),
        distributions=updated,
        options=tuple(
            tuple((p.frame, p.relation_of(src_id)) for p in partitions(scene.entity(lm_id), scene))
            for src_id, lm_id in zip([target_id, *landmark_ids], landmark_ids)
        ),
        iterations=iterations,
        converged=converged,
    )


def candidate(
    chain: LandmarkChain, picks: tuple[tuple[FrameInstance, Preposition], ...]
) -> CandidateExpression:
    """The candidate for one (frame, preposition) pick per unit of the chain.

    The chain's descriptions nest target outermost, each unit joined by its
    pick's preposition; the strategy records each pick's frame.
    """
    tree: ExpressionTree = Leaf(chain.descriptions[-1].attrs)
    for i in range(chain.k - 1, -1, -1):
        tree = Compound(chain.descriptions[i].attrs, picks[i][1], tree)
    strategy = tuple((frame.kind, frame.origin_entity) for frame, _ in picks)
    return CandidateExpression(tree, strategy, realize(tree))


def expression_space(chain: LandmarkChain, scene: Scene) -> list[CandidateExpression]:
    """All candidate expressions reachable from a chain.

    One candidate per frame strategy, i.e. per pick of one of
    ``chain.options`` at every unit; strategies that produce identical
    prepositions yield identical trees and surfaces (kept, so the scorer
    can explain every strategy; deduplicate by surface when counting).  A
    chain without landmarks has the single leaf candidate.  Raises
    ``ComplexityCapError``, before enumerating, when the chain has more
    than ``MAX_COMPLEXITY`` units.  ``scene`` is unused; it stays because
    ``perfbench/workloads.py`` calls this with two arguments.
    """
    if chain.k > MAX_COMPLEXITY:
        raise ComplexityCapError(f"expression complexity exceeds the cap of {MAX_COMPLEXITY}")
    return [candidate(chain, picks) for picks in itertools.product(*chain.options)]


def _phrase_surface(phrase: AttributePhrase) -> str:
    if phrase.person is PersonRef.SPEAKER:
        return "me"
    if phrase.person is PersonRef.LISTENER:
        return "you"
    words = [w for w in (phrase.color, phrase.shape, phrase.category) if w]
    return "the " + " ".join(words)


def realize(tree: ExpressionTree) -> str:
    """Template realization; attribute order is color, shape, category."""
    if isinstance(tree, Leaf):
        return _phrase_surface(tree.head)
    head = _phrase_surface(tree.head)
    lm = tree.landmark
    if isinstance(lm, Leaf) and lm.head.person is not None:
        table = SPEAKER_SURFACE if lm.head.person is PersonRef.SPEAKER else LISTENER_SURFACE
        return f"{head} {table[tree.prep]}"
    return f"{head} {PLAIN_SURFACE[tree.prep]} {realize(lm)}"


def verify_chain_discrimination(chain: LandmarkChain, scene: Scene) -> bool:
    """Re-check the landmark-selection conditions for a finished chain.

    Under the speaker's frame, the located entity's relation to
    each landmark must differ from every same-description distractor's
    relation, and the anchor description must be distinguishing.
    """
    frame = frame_instance(FrameKind.EGOCENTRIC, scene)
    domain = set(scene.referable_ids())
    current = chain.target
    for d_vf, lm_id in zip(chain.descriptions, chain.landmarks):
        matching = consistent_set(d_vf.attrs, scene) & domain
        distractors = sorted(matching - {current})
        lm = scene.entity(lm_id)
        r = relation(scene.entity(current), lm, frame)
        for d in distractors:
            if relation(scene.entity(d), lm, frame) is r:
                return False
        domain -= matching
        current = lm_id
    anchor = chain.descriptions[-1]
    if anchor.attrs.person is not None:
        return True
    return consistent_set(anchor.attrs, scene) & domain == {current}
