"""Content selection and realization for spatial referring expressions.

Generation proceeds in two stages.  First, landmarks are selected one at a
time: the target gets an incremental visual description, and if that fails
to single it out, candidate landmarks are tried in order of increasing
frame-preference entropy until one separates the target from every
same-description distractor under the generation-time default frame.  The
selected landmark becomes the new thing to describe and the loop repeats
until some landmark is uniquely describable.  Selected landmarks live on a
stack; popping them yields the nesting of the final expression.

Second, the per-unit preference distributions are run through the
content-window update; if any distribution changes, landmark selection is
re-run with the revised priorities, until a fixed point.

The expression space is the set of candidate surface expressions obtained by
assigning every applicable frame kind to every relation unit and reading off
the crisp preposition each assignment produces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .frames import (
    FrameInstance,
    FrameKind,
    PreferenceState,
    PreferenceTable,
    frame_instance,
    preference_entropy,
    update_preferences,
)
from .geometry import distance
from .prepositions import (
    LISTENER_SURFACE,
    PLAIN_SURFACE,
    SPEAKER_SURFACE,
    Preposition,
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


@dataclass(frozen=True)
class VisualDescription:
    attrs: AttributePhrase
    distinguishing: bool


@dataclass(frozen=True)
class LandmarkStack:
    """Selected landmarks paired with their own visual descriptions, in
    push order; the final push is the uniquely-describable anchor."""

    entries: tuple[tuple[str, VisualDescription], ...]

    def __post_init__(self):
        ids = [eid for eid, _ in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError(f"landmark repeated in stack: {ids}")

    def ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.entries)

    def pop_order(self) -> tuple[tuple[str, VisualDescription], ...]:
        return tuple(reversed(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Strategy:
    """One frame assignment per relation unit: (kind, origin entity id)."""

    assignments: tuple[tuple[FrameKind, str | None], ...]

    @property
    def kinds(self) -> tuple[FrameKind, ...]:
        return tuple(kind for kind, _ in self.assignments)

    @property
    def consistent(self) -> bool:
        return len(set(self.kinds)) <= 1

    def __len__(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class CandidateExpression:
    tree: ExpressionTree
    strategy: Strategy
    surface: str


@dataclass(frozen=True)
class LandmarkChain:
    """Everything landmark selection produced for one target."""

    target: str
    stack: LandmarkStack
    descriptions: tuple[VisualDescription, ...]  # target first, anchor last
    state: PreferenceState
    default_frame: FrameInstance
    iterations: int  # outer (re)build passes, for convergence checks
    converged: bool = True

    @property
    def k(self) -> int:
        return len(self.stack)


def _person_phrase(entity: Entity) -> AttributePhrase:
    ref = PersonRef.SPEAKER if entity.kind is EntityKind.SPEAKER else PersonRef.LISTENER
    return AttributePhrase(person=ref)


def describe_visual(target_id: str, domain: set[str], scene: Scene) -> VisualDescription:
    """Incremental attribute selection over (category, color, shape).

    The category is always included; further attributes are added only while
    same-description distractors remain in the domain, stopping early once
    the description is distinguishing.
    """
    if target_id not in domain:
        raise ValueError(f"target {target_id!r} not in domain")
    target = scene.entity(target_id)
    selected = {"category": target.category}
    for attr in ("color", "shape"):
        matches = consistent_set(AttributePhrase(**selected), scene, within=domain)
        if matches == {target_id}:
            break
        value = getattr(target, attr)
        if value is not None:
            selected[attr] = value
    phrase = AttributePhrase(**selected)
    distinguishing = consistent_set(phrase, scene, within=domain) == {target_id}
    return VisualDescription(phrase, distinguishing)


def select_landmark(
    target_id: str,
    domain: set[str],
    scene: Scene,
    entity_rows: dict[str, tuple[float, ...]],
    default_frame: FrameInstance,
) -> tuple[VisualDescription, str | None]:
    """One landmark-selection step.

    Returns the target's visual description and, when that description is
    not distinguishing, the highest-priority candidate landmark whose
    relation to the target (under the default frame) differs from its
    relation to every distractor.  Candidates are prioritized by ascending
    preference entropy, then distance to the target, then id.
    """
    target = scene.entity(target_id)
    if target.kind is not EntityKind.OBJECT:
        return VisualDescription(_person_phrase(target), True), None

    d_vf = describe_visual(target_id, domain, scene)
    if d_vf.distinguishing:
        return d_vf, None

    described = consistent_set(d_vf.attrs, scene)
    distractors = [scene.entity(eid) for eid in sorted((described & domain) - {target_id})]
    pool = [scene.entity(eid) for eid in sorted(domain)] + [scene.speaker, scene.listener]
    candidates = [e for e in pool if e.id not in described]
    entropy = {row: preference_entropy(row) for row in {entity_rows[e.id] for e in candidates}}
    candidates.sort(
        key=lambda e: (
            entropy[entity_rows[e.id]],
            distance(e.centroid, target.centroid),
            e.id,
        )
    )
    for cand in candidates:
        r = relation(target, cand, default_frame)
        if all(relation(d, cand, default_frame) is not r for d in distractors):
            return d_vf, cand.id
    raise NoDiscriminatingLandmarkError(
        f"no candidate landmark discriminates {target_id!r} from "
        f"{[d.id for d in distractors]}"
    )


# Hard cap on re-build passes.  The update does not always reach a fixed
# point, even with the default preference table: a rebuild can alternate
# between two landmark chains whose unit rows swap back and forth, and such
# a build stops here with ``converged=False``.
MAX_CHAIN_REBUILDS = 16


def build_landmark_chain(
    target_id: str,
    scene: Scene,
    base: PreferenceTable,
    default_frame: FrameInstance | None = None,
) -> LandmarkChain:
    """Select the landmark chain for a target and settle its preferences.

    Runs landmark selection to completion, applies the content-window
    preference update, and rebuilds the chain while any per-unit
    distribution changes.  The returned chain carries the fixed-point
    preference state and the number of build passes taken.
    """
    if not scene.has_entity(target_id):
        raise GenerationError(f"no entity with id {target_id!r}")
    if not scene.entity(target_id).referable_as_target:
        raise GenerationError(f"entity {target_id!r} is not a referable target")
    if default_frame is None:
        default_frame = frame_instance(FrameKind.EGOCENTRIC, scene)

    entity_rows: dict[str, tuple[float, ...]] = {
        e.id: base.row(landmark_type(e)) for e in scene.entities
    }

    iterations = 0
    converged = False
    while True:
        iterations += 1
        domain = set(scene.referable_ids())
        current = target_id
        descriptions: list[VisualDescription] = []
        landmark_ids: list[str] = []
        while True:
            try:
                d_vf, lm = select_landmark(current, domain, scene, entity_rows, default_frame)
            except NoDiscriminatingLandmarkError as exc:
                raise GenerationError(
                    f"cannot generate a distinguishing expression for {target_id!r}: {exc}"
                ) from exc
            descriptions.append(d_vf)
            if lm is None:
                break
            landmark_ids.append(lm)
            domain -= consistent_set(d_vf.attrs, scene, within=domain)
            current = lm

        chain_types = [landmark_type(scene.entity(eid)) for eid in landmark_ids]
        state = PreferenceState(tuple(entity_rows[eid] for eid in landmark_ids))
        new_state = update_preferences(state, chain_types)
        if new_state.distributions == state.distributions:
            converged = True
            state = new_state
            break
        for eid, row in zip(landmark_ids, new_state.distributions):
            entity_rows[eid] = row
        if iterations >= MAX_CHAIN_REBUILDS:
            state = new_state
            break

    stack = LandmarkStack(
        tuple((eid, descriptions[i + 1]) for i, eid in enumerate(landmark_ids))
    )
    return LandmarkChain(
        target=target_id,
        stack=stack,
        descriptions=tuple(descriptions),
        state=state,
        default_frame=default_frame,
        iterations=iterations,
        converged=converged,
    )


def unit_options(
    chain: LandmarkChain, scene: Scene
) -> list[list[tuple[FrameInstance, Preposition]]]:
    """Each unit's (frame, crisp preposition) pairs, in ``applicable_frames`` order.

    The preposition is the located entity's relation to the unit's landmark
    under that frame: the target for the first unit, then each landmark in
    turn.
    """
    sources = (chain.target,) + chain.stack.ids()[:-1]
    return [
        [(p.frame, p.relation_of(src_id)) for p in partitions(scene.entity(lm_id), scene)]
        for src_id, lm_id in zip(sources, chain.stack.ids())
    ]


def candidate(
    chain: LandmarkChain, picks: tuple[tuple[FrameInstance, Preposition], ...]
) -> CandidateExpression:
    """The candidate for one (frame, preposition) pick per unit of the chain.

    The chain's descriptions nest target outermost, each unit joined by its
    pick's preposition; the strategy records each pick's frame.
    """
    if len(picks) != chain.k:
        raise ValueError(f"expected {chain.k} picks, got {len(picks)}")
    tree: ExpressionTree = Leaf(chain.descriptions[-1].attrs)
    for i in range(chain.k - 1, -1, -1):
        tree = Compound(chain.descriptions[i].attrs, picks[i][1], tree)
    strategy = Strategy(tuple((frame.kind, frame.origin_entity) for frame, _ in picks))
    return CandidateExpression(tree, strategy, realize(tree))


def expression_space(chain: LandmarkChain, scene: Scene) -> list[CandidateExpression]:
    """All candidate expressions reachable from a chain.

    One candidate per frame strategy, i.e. per choice of an applicable frame
    at every unit's landmark; strategies that produce identical
    prepositions yield identical trees and surfaces (kept, so the scorer
    can explain every strategy; deduplicate by surface when counting).  A
    chain without landmarks has the single leaf candidate.
    """
    return [candidate(chain, picks) for picks in itertools.product(*unit_options(chain, scene))]


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

    Under the chain's own default frame, the located entity's relation to
    each landmark must differ from every same-description distractor's
    relation, and the anchor description must be distinguishing.
    """
    domain = set(scene.referable_ids())
    current = chain.target
    for i, (lm_id, _) in enumerate(chain.stack.entries):
        d_vf = chain.descriptions[i]
        matching = consistent_set(d_vf.attrs, scene, within=domain)
        distractors = sorted(matching - {current})
        lm = scene.entity(lm_id)
        r = relation(scene.entity(current), lm, chain.default_frame)
        for d in distractors:
            if relation(scene.entity(d), lm, chain.default_frame) is r:
                return False
        domain -= matching
        current = lm_id
    anchor = chain.descriptions[-1]
    if anchor.attrs.person is not None:
        return True
    return consistent_set(anchor.attrs, scene, within=domain) == {current}
