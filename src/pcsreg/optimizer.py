"""Candidate scoring and best-expression selection.

A candidate is scored on two axes: appropriateness (is the intended target
the most probable referent of the expression?) and effectiveness (how much
probability mass the target receives).  The optimal expression maximizes
their sum over the exhaustively enumerated expression space.  A greedy
variant picks each unit's most-preferred frame independently and never
consults the resolution model, and three baselines share the same landmark
chain; ``generate_methods`` is the one dispatch on the method name, and
``generate`` its one-method case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .frames import FrameKind, PreferenceTable
from .generator import (
    CandidateExpression,
    GenerationError,
    LandmarkChain,
    candidate,
    expression_space,
)
from .resolver import Denotation, denote
from .scene import Scene

# A target ties for the maximum when within this of the top probability.
APPROPRIATENESS_TIE_TOL = 1e-12

METHODS = ("pcsreg", "max", "robot", "human", "random")

BASELINE_KINDS = {"robot": FrameKind.EGOCENTRIC, "human": FrameKind.ADDRESSEE}


@dataclass(frozen=True)
class Score:
    appropriateness: int  # 1 iff the target is (tied-)maximal in the denotation
    effectiveness: float  # probability mass the target receives

    @property
    def total(self) -> float:
        return self.appropriateness + self.effectiveness


def score_denotation(d: Denotation, target_id: str) -> Score:
    """Appropriateness and effectiveness of a denotation for the target."""
    if d.unresolvable:
        return Score(0, 0.0)
    effectiveness = d.get(target_id, 0.0)
    top = max(d.probs.values())
    appropriateness = 1 if effectiveness >= top - APPROPRIATENESS_TIE_TOL else 0
    return Score(appropriateness, effectiveness)


def score(
    candidate: CandidateExpression,
    target_id: str,
    scene: Scene,
    prefs: PreferenceTable,
) -> Score:
    return score_denotation(denote(candidate.tree, scene, prefs), target_id)


def _selection_key(candidate: CandidateExpression, total: float):
    # Higher total first; ties prefer frame-consistent strategies, then the
    # canonically smallest strategy.  A unit has one frame per kind, so the
    # kinds name one candidate of a chain and no surface is compared.
    kinds = tuple(kind.order for kind, _ in candidate.strategy)
    mixed = 0 if len(set(kinds)) <= 1 else 1
    return (-total, mixed, kinds)


def rank(
    candidates: list[CandidateExpression],
    target_id: str,
    scene: Scene,
    prefs: PreferenceTable,
) -> tuple[CandidateExpression, dict[str, tuple[Denotation, Score]]]:
    """Deterministic argmax of total score over the candidate list, with the
    denotation and score of every distinct surface.

    Duplicate trees (identical surfaces from different strategies) are
    denoted and scored once; the winner among exact ties is the candidate
    with a frame-consistent strategy, then the canonically smallest strategy.
    """
    if not candidates:
        raise ValueError("no candidate expressions to select from")
    scored: dict[str, tuple[Denotation, Score]] = {}
    for c in candidates:
        if c.surface not in scored:
            d = denote(c.tree, scene, prefs)
            scored[c.surface] = (d, score_denotation(d, target_id))
    best = min(candidates, key=lambda c: _selection_key(c, scored[c.surface][1].total))
    return best, scored


def select_best(
    candidates: list[CandidateExpression],
    target_id: str,
    scene: Scene,
    prefs: PreferenceTable,
) -> tuple[CandidateExpression, Score]:
    """``rank``'s winner and its score."""
    best, scored = rank(candidates, target_id, scene, prefs)
    return best, scored[best.surface][1]


def generate_methods(
    methods: tuple[str, ...],
    chain: LandmarkChain,
    scene: Scene,
    prefs: PreferenceTable,
    seed: int | None = None,
) -> tuple[dict[str, CandidateExpression | GenerationError], dict[str, tuple[Denotation, Score]]]:
    """Every method's pick from one chain, and the ranking behind ``pcsreg``'s.

    ``pcsreg`` is the exhaustive argmax of ``rank``.  The other methods
    pick one of ``chain.options`` per unit and never consult the
    resolution model: ``max`` the most-preferred frame under the chain's
    settled distributions (the canonically first on ties),
    ``robot``/``human`` the speaker's/listener's frame, and ``random`` a
    uniform draw per unit from ``Random(seed)``, so it requires a seed.
    With ``pcsreg`` requested, its expression space is built first and a
    baseline's pick is the element at its choices' ``itertools.product`` index.

    Returns ``(picks, scored)``.  ``picks`` maps each method to its
    candidate, or to the ``GenerationError`` that generation raised
    (``pcsreg`` on a chain over the complexity cap).  ``scored`` is
    ``rank``'s denotation under ``prefs`` and score of every distinct
    surface of the expression space, and is empty unless ``pcsreg`` is
    among ``methods`` and succeeds.  Other errors propagate.
    """
    picks: dict[str, CandidateExpression | GenerationError] = {}
    scored: dict[str, tuple[Denotation, Score]] = {}
    space = None
    if "pcsreg" in methods:
        try:
            space = expression_space(chain, scene)
            picks["pcsreg"], scored = rank(space, chain.target, scene, prefs)
        except GenerationError as exc:
            picks["pcsreg"] = exc
    for method in methods:
        if method != "pcsreg":
            picks[method] = _baseline(method, chain, seed, space)
    return {method: picks[method] for method in methods}, scored


def _baseline(
    method: str, chain: LandmarkChain, seed: int | None, space: list[CandidateExpression] | None
) -> CandidateExpression:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {', '.join(METHODS)})")
    if method == "random":
        if seed is None:
            raise ValueError("method 'random' requires a seed")
        rng = random.Random(seed)
    index, picks = 0, []
    for row, options in zip(chain.distributions, chain.options):
        if method == "max":
            i = max(range(len(options)), key=lambda j: row[options[j][0].kind.order])
        elif method == "random":
            i = rng.randrange(len(options))
        else:
            i = next(j for j, o in enumerate(options) if o[0].kind is BASELINE_KINDS[method])
        index = index * len(options) + i
        picks.append(options[i])
    return candidate(chain, tuple(picks)) if space is None else space[index]


def generate(
    method: str,
    chain: LandmarkChain,
    scene: Scene,
    prefs: PreferenceTable,
    seed: int | None = None,
) -> CandidateExpression:
    """The candidate ``method`` picks from the chain (unscored): the
    one-method case of ``generate_methods``, raising its error."""
    pick = generate_methods((method,), chain, scene, prefs, seed)[0][method]
    if isinstance(pick, GenerationError):
        raise pick
    return pick
