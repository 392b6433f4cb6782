"""Candidate scoring and best-expression selection.

A candidate is scored on two axes: appropriateness (is the intended target
the most probable referent of the expression?) and effectiveness (how much
probability mass the target receives).  The optimal expression maximizes
their sum over the exhaustively enumerated expression space.  A greedy
variant picks each unit's most-preferred frame independently and never
consults the resolution model, and three fixed-perspective baselines share
the same landmark chain.
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
    unit_options,
)
from .resolver import Denotation, denote
from .scene import Scene

# A target ties for the maximum when within this of the top probability.
APPROPRIATENESS_TIE_TOL = 1e-12

# Exhaustive search is exponential in expression complexity; desk-scale
# chains stay well under this.
MAX_COMPLEXITY = 4


class ComplexityCapError(GenerationError):
    """The landmark chain is longer than exhaustive search allows."""


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
    # canonically smallest strategy, then the shortest surface.
    return (
        -total,
        0 if candidate.strategy.consistent else 1,
        tuple(kind.order for kind in candidate.strategy.kinds),
        len(candidate.surface),
        candidate.surface,
    )


def select_best(
    candidates: list[CandidateExpression],
    target_id: str,
    scene: Scene,
    prefs: PreferenceTable,
) -> tuple[CandidateExpression, Score]:
    """Deterministic argmax of total score over the candidate list.

    Duplicate trees (identical surfaces from different strategies) are
    scored once; the winner among exact ties is the candidate with a
    frame-consistent strategy, then the canonically smallest strategy.
    """
    if not candidates:
        raise ValueError("no candidate expressions to select from")
    if any(len(c.strategy) > MAX_COMPLEXITY for c in candidates):
        raise ComplexityCapError(f"expression complexity exceeds the cap of {MAX_COMPLEXITY}")
    by_surface: dict[str, Score] = {}
    for c in candidates:
        if c.surface not in by_surface:
            by_surface[c.surface] = score(c, target_id, scene, prefs)
    best = min(candidates, key=lambda c: _selection_key(c, by_surface[c.surface].total))
    return best, by_surface[best.surface]


def select_greedy_max(chain: LandmarkChain, scene: Scene) -> CandidateExpression:
    """Per-unit argmax of the frame preference, ignoring the resolution model.

    Each unit independently takes the most-preferred applicable frame for
    its landmark (using the chain's settled per-unit distributions), so the
    choice never looks at what the rest of the expression denotes.
    """
    # max() keeps the canonically first frame on ties.
    return candidate(
        chain,
        tuple(
            max(options, key=lambda pick: row[pick[0].kind.order])
            for row, options in zip(chain.state.distributions, unit_options(chain, scene))
        ),
    )


def select_baseline(
    kind: str, chain: LandmarkChain, scene: Scene, seed: int | None = None
) -> CandidateExpression:
    """Fixed-perspective baselines sharing the chain and realization.

    ``robot`` locates every unit in the speaker's frame, ``human`` in the
    listener's; ``random`` draws one strategy uniformly from the applicable
    strategy set (a seed is required for reproducibility).
    """
    if kind == "random":
        if seed is None:
            raise ValueError("the random baseline requires a seed")
        rng = random.Random(seed)
    elif kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline {kind!r} (expected robot, human, or random)")
    picks = []
    for options in unit_options(chain, scene):
        if kind == "random":
            picks.append(options[rng.randrange(len(options))])
        else:
            picks.append(next(o for o in options if o[0].kind is BASELINE_KINDS[kind]))
    return candidate(chain, tuple(picks))


def generate(
    method: str,
    chain: LandmarkChain,
    scene: Scene,
    prefs: PreferenceTable,
    seed: int | None = None,
) -> CandidateExpression:
    """The candidate a generation method picks from the chain (unscored).

    ``pcsreg`` is the exhaustive argmax of ``select_best``, ``max`` the
    greedy per-unit choice, and ``robot``/``human``/``random`` the
    baselines; ``seed`` is used by ``random`` only.
    """
    if method == "pcsreg":
        return select_best(expression_space(chain, scene), chain.target, scene, prefs)[0]
    if method == "max":
        return select_greedy_max(chain, scene)
    return select_baseline(method, chain, scene, seed=seed)

