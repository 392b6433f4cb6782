"""Perspective-corrected spatial referring expressions for tabletop scenes.

Generates referring expressions whose reference-frame choices maximize a
probabilistic listener-resolution score, resolves expressions back to
entity distributions, and ships baselines plus a seeded simulated-listener
evaluation harness.
"""

from .frames import (
    FrameInstance,
    FrameKind,
    PreferenceTable,
    applicable_frames,
    default_preferences,
    frame_instance,
    load_preferences,
    preference_entropy,
    update_preferences,
)
from .generator import (
    CandidateExpression,
    ComplexityCapError,
    GenerationError,
    LandmarkChain,
    VisualDescription,
    build_landmark_chain,
    describe_visual,
    expression_space,
    realize,
    select_landmark,
)
from .harness import (
    ListenerPlan,
    TrialConfig,
    TrialReport,
    oracle_denote,
    run_comparison,
    sample_scene,
    simulate_listener,
)
from .optimizer import (
    Score,
    generate,
    rank,
    score,
    score_denotation,
    select_best,
)
from .prepositions import Preposition, membership, relation
from .resolver import (
    AttributePhrase,
    Compound,
    Denotation,
    ExpressionTree,
    Leaf,
    PersonRef,
    consistent_set,
    denote,
    depth,
    parse_expression,
)
from .scene import (
    Entity,
    EntityKind,
    LandmarkType,
    Scene,
    SceneError,
    landmark_type,
    load_scene,
)

__version__ = "0.1.0"
