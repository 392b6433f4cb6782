import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import PROJECTIVE_MARKERS, SURFACE_WORDS, random_tree, reference_parse_np
from pcsreg.frames import default_preferences
from pcsreg.generator import GenerationError, build_landmark_chain, expression_space, realize
from pcsreg.harness import HarnessError, derive_seed, sample_scene
from pcsreg.prepositions import TOPOLOGICAL_MARKERS, Preposition
from pcsreg.resolver import (
    AttributePhrase,
    Compound,
    Denotation,
    Leaf,
    ParseError,
    PersonRef,
    TopologicalPrepositionError,
    consistent_set,
    denote,
    depth,
    parse_expression,
    parse_expression_json,
    tree_from_dict,
    tree_to_dict,
)
from pcsreg.scene import SceneError, attribute_vocabulary, load_scene, scene_to_dict

SQUARE_EXPR = Compound(
    AttributePhrase(category="object"),
    Preposition.FRONT,
    Leaf(AttributePhrase(shape="square")),
)


class TestAttributePhrase:
    def test_requires_some_field(self):
        with pytest.raises(ValueError):
            AttributePhrase()

    def test_person_excludes_attributes(self):
        with pytest.raises(ValueError):
            AttributePhrase(category="block", person=PersonRef.SPEAKER)

    @pytest.mark.parametrize("person", ["speaker", "listener", 1, True])
    def test_person_must_be_a_person_ref(self, person):
        """A string ``person`` would otherwise denote the wrong agent."""
        with pytest.raises(ValueError, match="^person must be a PersonRef"):
            AttributePhrase(person=person)

    @pytest.mark.parametrize("field", ["category", "color", "shape"])
    @pytest.mark.parametrize("value", [5, 1.5, True, b"block", ["block"]])
    def test_attributes_must_be_strings(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a string or None"):
            AttributePhrase(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a string or None"):
            AttributePhrase(**{"category": "block", "color": "red", "shape": "cube", field: value})


    @pytest.mark.parametrize(
        "fields",
        [
            {"category": "", "color": "yellow"},
            {"person": PersonRef.SPEAKER, "category": ""},
            {"category": "block", "shape": ""},
        ],
        ids=["with_color", "with_person", "shape"],
    )
    def test_empty_strings_are_rejected(self, fields):
        """``""`` is no unset field: it would denote nothing and fail to
        round-trip through ``tree_to_dict``."""
        name = next(name for name, value in fields.items() if value == "")
        with pytest.raises(ValueError, match=f"^{name} must have at least 1 characters, got ''$"):
            AttributePhrase(**fields)


class TestConsistentSet:
    def test_category_matches_all_objects(self, facing_square_scene):
        assert consistent_set(AttributePhrase(category="object"), facing_square_scene) == {
            "a", "b", "c", "d",
        }

    def test_shape_matches_single(self, facing_square_scene):
        assert consistent_set(AttributePhrase(shape="square"), facing_square_scene) == {"c"}

    def test_no_match_is_empty(self, facing_square_scene):
        assert consistent_set(AttributePhrase(color="purple"), facing_square_scene) == set()

    def test_person_resolves_to_agent(self, facing_square_scene):
        assert consistent_set(AttributePhrase(person=PersonRef.SPEAKER), facing_square_scene) == {
            "speaker"
        }

    def test_matching_is_case_insensitive(self, blocks_car_scene):
        assert consistent_set(AttributePhrase(color="YELLOW"), blocks_car_scene) == {
            "blk_a", "blk_b",
        }


class TestDenote:
    def test_square_landmark_splits_by_perspective(self, facing_square_scene, two_frame_prefs):
        d = denote(SQUARE_EXPR, facing_square_scene, two_frame_prefs)
        assert d.probs == pytest.approx({"a": 0.6, "b": 0.0, "c": 0.0, "d": 0.4}, abs=1e-9)

    def test_leaf_denotations(self, facing_square_scene, two_frame_prefs):
        d = denote(Leaf(AttributePhrase(shape="square")), facing_square_scene, two_frame_prefs)
        assert d.probs == {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0}
        flat = denote(Leaf(AttributePhrase(category="object")), facing_square_scene, two_frame_prefs)
        assert flat.probs == pytest.approx({k: 0.25 for k in "abcd"})

    def test_empty_landmark_is_unresolvable(self, blocks_car_scene, default_prefs):
        tree = Compound(
            AttributePhrase(category="block", color="red"),
            Preposition.LEFT,
            Leaf(AttributePhrase(category="car", color="purple")),
        )
        d = denote(tree, blocks_car_scene, default_prefs)
        assert d.unresolvable
        assert d.argmax() is None

    def test_empty_head_is_unresolvable(self, blocks_car_scene, default_prefs):
        tree = Compound(
            AttributePhrase(category="sphere"),
            Preposition.LEFT,
            Leaf(AttributePhrase(category="car")),
        )
        assert denote(tree, blocks_car_scene, default_prefs).unresolvable

    def test_normalization(self, blocks_car_scene, default_prefs):
        tree = Compound(
            AttributePhrase(category="block"),
            Preposition.LEFT,
            Leaf(AttributePhrase(category="car")),
        )
        d = denote(tree, blocks_car_scene, default_prefs)
        assert abs(sum(d.probs.values()) - 1.0) <= 1e-9

    def test_support_subset_of_head(self, blocks_car_scene, default_prefs):
        tree = Compound(
            AttributePhrase(category="block"),
            Preposition.LEFT,
            Leaf(AttributePhrase(category="car")),
        )
        d = denote(tree, blocks_car_scene, default_prefs)
        support = {eid for eid, p in d.probs.items() if p > 0}
        assert support <= consistent_set(tree.head, blocks_car_scene)

    def test_person_landmark(self, blocks_car_scene, default_prefs):
        # "the block in front of me": both blocks are in front of the speaker.
        tree = Compound(
            AttributePhrase(category="block"),
            Preposition.FRONT,
            Leaf(AttributePhrase(person=PersonRef.SPEAKER)),
        )
        d = denote(tree, blocks_car_scene, default_prefs)
        assert d.probs == pytest.approx({"blk_a": 0.5, "blk_b": 0.5, "car1": 0.0})


class TestParse:
    def test_simple_pp(self, facing_square_scene):
        lex = attribute_vocabulary(facing_square_scene)
        tree = parse_expression("the object in front of the square", lex)
        assert tree == SQUARE_EXPR

    def test_depth_two_with_person(self):
        lex = {"category": {"triangle", "cuboid"}, "color": {"red"}, "shape": set()}
        tree = parse_expression("the red triangle in front of the cuboid on my left", lex)
        assert depth(tree) == 2
        assert tree.head == AttributePhrase(category="triangle", color="red")
        assert tree.prep is Preposition.FRONT
        inner = tree.landmark
        assert inner.head == AttributePhrase(category="cuboid")
        assert inner.prep is Preposition.LEFT
        assert inner.landmark == Leaf(AttributePhrase(person=PersonRef.SPEAKER))

    def test_topological_rejected(self, blocks_car_scene):
        lex = attribute_vocabulary(blocks_car_scene)
        with pytest.raises(TopologicalPrepositionError):
            parse_expression("the block near the car", lex)

    def test_unknown_token(self, blocks_car_scene):
        lex = attribute_vocabulary(blocks_car_scene)
        with pytest.raises(ParseError, match="unknown token"):
            parse_expression("the shiny block", lex)

    def test_behind_me_form(self):
        lex = {"category": {"block"}, "color": set(), "shape": set()}
        tree = parse_expression("the block behind me", lex)
        assert tree.prep is Preposition.BEHIND
        assert tree.landmark == Leaf(AttributePhrase(person=PersonRef.SPEAKER))

    def test_your_right_form(self):
        lex = {"category": {"block"}, "color": set(), "shape": set()}
        tree = parse_expression("the block on your right", lex)
        assert tree.prep is Preposition.RIGHT
        assert tree.landmark == Leaf(AttributePhrase(person=PersonRef.LISTENER))

    def test_trailing_tokens_after_person_rejected(self):
        lex = {"category": {"block", "car"}, "color": set(), "shape": set()}
        with pytest.raises(ParseError):
            parse_expression("the block on my left the car", lex)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("   ", {"category": set(), "color": set(), "shape": set()})


VOCAB = {
    "category": {"block", "car", "cuboid", "triangle"},
    "color": {"red", "yellow", "blue"},
    "shape": {"square", "round"},
}

phrases = st.builds(
    AttributePhrase,
    category=st.sampled_from(sorted(VOCAB["category"])),
    color=st.none() | st.sampled_from(sorted(VOCAB["color"])),
    shape=st.none() | st.sampled_from(sorted(VOCAB["shape"])),
)
anchors = phrases.map(Leaf) | st.sampled_from(
    [Leaf(AttributePhrase(person=PersonRef.SPEAKER)), Leaf(AttributePhrase(person=PersonRef.LISTENER))]
)
preps = st.sampled_from(list(Preposition))


def trees(max_depth=3):
    return st.recursive(
        anchors,
        lambda inner: st.builds(Compound, phrases, preps, inner),
        max_leaves=max_depth,
    )


@given(trees())
def test_parse_realize_round_trip(tree):
    # Person leaves are only realizable as landmarks, not roots.
    if isinstance(tree, Leaf) and tree.head.person is not None:
        return
    text = realize(tree)
    assert parse_expression(text, VOCAB) == tree


@given(trees())
def test_structured_json_round_trip(tree):
    doc = tree_to_dict(tree)
    assert tree_from_dict(json.loads(json.dumps(doc))) == tree


MARKER_TOKENS = [
    "in", "front", "of", "to", "the", "left", "on", "my", "your",
    "behind", "near", "next", "beside", "close", "me", "you",
]
# Colors and shapes that are also marker words, so a marker token can be a
# noun-phrase word wherever no marker sequence matches.
OVERLAP_VOCAB = {
    "category": {"block", "car"},
    "color": {"red", "left", "close"},
    "shape": {"round", "front", "near"},
}


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return type(exc), str(exc)


WORDS = sorted(set(MARKER_TOKENS).union(*OVERLAP_VOCAB.values()))
# Whole marker sequences, so that relation units form often; the
# projective ones three times as often as the topological ones.
MARKER_SEQS = [seq for seq, _, _ in PROJECTIVE_MARKERS] * 3 + list(TOPOLOGICAL_MARKERS)
# A noun phrase: "the" (sometimes left out), lexicon words in realization
# order, and sometimes one more token of any kind.
noun_phrases = st.builds(
    lambda the, attrs, extra: [*the, *(w for w in attrs if w), *extra],
    st.sampled_from([("the",)] * 4 + [()]),
    st.tuples(
        *(
            st.none() | st.sampled_from(sorted(OVERLAP_VOCAB[slot]))
            for slot in ("color", "shape", "category")
        )
    ),
    st.just(()) | st.lists(st.sampled_from(WORDS), max_size=1),
)
token_lists = st.builds(
    lambda units, last: [t for np, seq in units for t in (*np, *seq)] + last,
    st.lists(st.tuples(noun_phrases, st.sampled_from(MARKER_SEQS)), max_size=3),
    noun_phrases | st.sampled_from([["me"], ["you"]]),
) | st.lists(st.sampled_from(WORDS), max_size=12).map(lambda words: ["the", *words])


@settings(max_examples=300)
@given(token_lists)
def test_parse_matches_the_full_marker_scan(tokens):
    if not tokens:
        return  # parse_expression rejects empty text before the loop
    assert _outcome(parse_expression, " ".join(tokens), OVERLAP_VOCAB) == _outcome(
        reference_parse_np, tokens, OVERLAP_VOCAB
    )


def _same_outcome(tokens, lexicon):
    text = " ".join(tokens)
    assert _outcome(parse_expression, text, lexicon) == _outcome(reference_parse_np, tokens, lexicon), text


def _one_token_edits(tokens, words):
    """``tokens`` and every copy with one token dropped, or one of ``words``
    inserted or put in place of a token."""
    yield tokens
    for i in range(len(tokens) + 1):
        if i < len(tokens):
            yield tokens[:i] + tokens[i + 1 :]
        for word in words:
            yield tokens[:i] + [word] + tokens[i:]
            if i < len(tokens):
                yield tokens[:i] + [word] + tokens[i + 1 :]


NEAR_MISSES = [
    "the block next", "the block in front", "the block in", "the block to the",
    "the block to the left", "the block on my", "the block on your", "the block close",
    "the block in front of", "the block on", "the block next the car", "the block close of me",
    "the block in back of the car", "the block to left of the car", "the block on the left",
    "the block on my left of the car", "the block in front of me the car", "the block behind",
    "the block near", "near the block", "the near block", "the in front of the car",
]


def test_marker_table_matches_the_scans_on_near_misses():
    for text in NEAR_MISSES:
        _same_outcome(text.split(), VOCAB)


def test_marker_table_matches_the_scans_on_edited_surfaces():
    """Realized surfaces of sampled trees, each with a topological marker at
    every position and under every one-token edit, parse as the two scans
    parse them: the same tree, or the same error type and message."""
    rng = random.Random(34)
    for i in range(6):
        scene = sample_scene(derive_seed(34, "markers", i))
        lexicon = attribute_vocabulary(scene)
        words = sorted(set(MARKER_TOKENS).union(*lexicon.values()))
        for _ in range(4):
            tokens = realize(random_tree(scene, rng, max_depth=3)).split()
            for seq in TOPOLOGICAL_MARKERS:
                for at in range(len(tokens) + 1):
                    _same_outcome(tokens[:at] + list(seq) + tokens[at:], lexicon)
            for edited in _one_token_edits(tokens, words):
                if edited:
                    _same_outcome(edited, lexicon)


EDIT_WORDS = sorted(set(MARKER_TOKENS).union(*VOCAB.values()))


@pytest.mark.deep
@given(trees(max_depth=4), st.sampled_from(["keep", "drop", "insert", "replace"]), st.data())
def test_marker_table_matches_the_scans_on_an_edited_tree(tree, edit, data):
    if isinstance(tree, Leaf) and tree.head.person is not None:
        return
    tokens = realize(tree).split()
    at = data.draw(st.integers(0, len(tokens) - (edit != "insert")))
    word = data.draw(st.sampled_from(EDIT_WORDS))
    if edit == "drop":
        tokens[at : at + 1] = []
    elif edit == "insert":
        tokens.insert(at, word)
    elif edit == "replace":
        tokens[at] = word
    if tokens:
        _same_outcome(tokens, VOCAB)


def test_parse_expression_json(facing_square_scene):
    doc = {"head": {"category": "object"}, "prep": "front", "landmark": {"head": {"shape": "square"}}}
    assert parse_expression_json(json.dumps(doc)) == SQUARE_EXPR
    with pytest.raises(ParseError):
        parse_expression_json("{bad json")
    with pytest.raises(ParseError):
        parse_expression_json(json.dumps({"head": {"category": "x"}, "prep": "near", "landmark": {"head": {"category": "y"}}}))


@pytest.mark.parametrize("field", ["category", "color", "shape"])
@pytest.mark.parametrize("value", [5, 1.5, True, ["a"], {"x": "y"}])
def test_phrase_fields_must_be_strings(field, value):
    doc = {"head": {"category": "block", field: value}}
    with pytest.raises(ParseError, match=rf"^head\.{field}: must be of type string or null, got "):
        tree_from_dict(doc)
    nested = {"head": {"category": "block"}, "prep": "left", "landmark": doc}
    with pytest.raises(ParseError, match=rf"^landmark\.head\.{field}: must be of type string or null"):
        tree_from_dict(nested)


@pytest.mark.parametrize("field", ["category", "color", "shape"])
def test_person_phrase_rejects_visual_fields(field):
    doc = {"head": {"person": "speaker", field: "block"}}
    with pytest.raises(ParseError, match="person phrase cannot carry visual attributes"):
        tree_from_dict(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"head": {"person": "speaker", "color": "red"}}, "head: person phrase cannot carry"),
        (
            {"head": {"category": "block"}, "prep": "left", "landmark": {"head": {}}},
            "landmark.head: attribute phrase must set at least one field",
        ),
        (
            {
                "head": {"shape": None},
                "prep": "left",
                "landmark": {"head": {"person": "listener", "shape": "round"}},
            },
            "head: attribute phrase must set at least one field",
        ),
    ],
    ids=["root", "nested", "outermost_first"],
)
def test_phrase_rules_name_the_head(doc, message):
    with pytest.raises(ParseError) as info:
        tree_from_dict(doc)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"head": {"category": "block", "extra": 1}}, "head.extra: is not allowed"),
        ({"head": {"person": "you", "name": "x"}}, "head.name: is not allowed"),
        ({"head": {"category": "block"}, "extra": 1}, "extra: is not allowed"),
        (
            {"head": {"category": "block"}, "prep": "left", "landmark": {"head": {"category": "car"}, "x": 1, "y": 2}},
            "landmark.x: is not allowed",
        ),
        (
            {"head": {"category": "block"}, "prep": "left", "landmark": {"head": {"shape": "round", "size": 2}}},
            "landmark.head.size: is not allowed",
        ),
    ],
    ids=["phrase", "person_phrase", "expression", "nested_expression", "nested_phrase"],
)
def test_unknown_keys_are_rejected_by_name(doc, message):
    with pytest.raises(ParseError) as info:
        tree_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("landmark", [5, "the car", ["head"], None, True])
def test_landmark_must_be_an_object(landmark):
    doc = {"head": {"category": "block"}, "prep": "front", "landmark": landmark}
    with pytest.raises(ParseError, match=r"^landmark: must be of type object, got "):
        tree_from_dict(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"head": {"category": "block"}, "prep": "left"}, "landmark: is required when 'prep' is present"),
        (
            {"head": {"category": "block"}, "landmark": {"head": {"category": "car"}}},
            "prep: is required when 'landmark' is present",
        ),
        (
            {"head": {"category": "block"}, "prep": "left", "landmark": {"head": {"category": "car"}, "prep": "left"}},
            "landmark.landmark: is required when 'prep' is present",
        ),
        ({"prep": "left"}, "head: is missing"),
        ({"head": {"person": "me"}}, "head.person: must be one of ['speaker', 'listener'], got 'me'"),
        (["head"], "$: must be of type object, got ['head']"),
    ],
    ids=["prep_alone", "landmark_alone", "nested_prep_alone", "no_head", "person", "root"],
)
def test_malformed_documents_name_the_field(doc, message):
    with pytest.raises(ParseError) as info:
        tree_from_dict(doc)
    assert str(info.value) == message


def test_deep_documents_are_a_parse_error():
    """Deeper than the schema check can recurse, on every Python version."""
    doc = {"head": {"category": "car"}}
    for _ in range(5000):
        doc = {"head": {"category": "block"}, "prep": "left", "landmark": doc}
    with pytest.raises(ParseError, match="nested too deeply"):
        tree_from_dict(doc)


def test_phrase_fields_may_be_null():
    doc = {"head": {"category": "block", "color": None, "shape": None}}
    assert tree_from_dict(doc) == Leaf(AttributePhrase(category="block"))


def test_denotation_marker_behaviour():
    d = Denotation(None)
    assert d.unresolvable
    assert d.get("anything") == 0.0


# Vocabulary words: plain ones, and ones that a round trip cannot read
# back: every marker word and words holding whitespace.  No plain word is
# an agent's category ("robot", "person").
PLAIN_WORDS = ["block", "cup", "book", "red", "blue", "green", "round", "square", "tall"]
UNREADABLE_WORDS = st.sampled_from(SURFACE_WORDS) | st.sampled_from(
    ["toy car", "dark\tred", " cup", "cup\n"]
)
POOLS = ("categories", "colors", "shapes")
SLOTS = dict(zip(POOLS, ("category", "color", "shape")))


def _lowered(tree):
    """``tree`` with every attribute value lowercased."""
    attrs = (tree.head.category, tree.head.color, tree.head.shape)
    head = AttributePhrase(*(value and value.lower() for value in attrs), person=tree.head.person)
    if isinstance(tree, Leaf):
        return Leaf(head)
    return Compound(head, tree.prep, _lowered(tree.landmark))


@pytest.mark.deep
@settings(deadline=None)
@given(st.data(), st.integers(0, 2**32))
def test_generated_surfaces_parse_back_or_the_scene_is_rejected(data, seed):
    """A vocabulary value that is one word and no marker word in any case
    is accepted, and then every surface of every chain parses back to its
    tree lowercased, which denotes as the tree does; any other value is
    rejected at its path, in a scene file and in the sampling pools."""
    # The slots' words differ even lowercased: a word in two slots could be
    # parsed into the other slot.
    words = data.draw(st.lists(st.sampled_from(PLAIN_WORDS), min_size=3, max_size=6, unique=True))
    words += data.draw(st.lists(UNREADABLE_WORDS, max_size=1))
    pools = {pool: [] for pool in POOLS}
    for i, word in enumerate(words):
        pool = "categories" if i == 0 else data.draw(st.sampled_from(POOLS))
        pools[pool].append(data.draw(st.sampled_from([str.lower, str.upper, str.title]))(word))
    bad = {
        value for values in pools.values() for value in values
        if value.split() != [value] or value.lower() in SURFACE_WORDS
    }

    # Placeholder pools of the same sizes draw the same scene, whose
    # values are then swapped for the drawn ones.
    names = {pool: [f"{SLOTS[pool]}{i}" for i in range(len(pools[pool]))] for pool in POOLS}
    doc = scene_to_dict(sample_scene(seed, **{pool: tuple(v) for pool, v in names.items()}))
    swap = {name: value for pool in POOLS for name, value in zip(names[pool], pools[pool])}
    faults = []
    for i, entity in enumerate(doc["entities"]):
        if entity["kind"] == "object":  # the id is the category and a number
            entity["id"] = swap[entity["category"]] + entity["id"][len(entity["category"]):]
        for slot in SLOTS.values():
            entity[slot] = swap.get(entity[slot], entity[slot])
            if entity[slot] in bad:
                faults.append(f"entities[{i}].{slot}")
    first_pool = next((pool for pool in POOLS if bad.intersection(pools[pool])), None)
    try:
        sampled = sample_scene(seed, **{pool: tuple(v) for pool, v in pools.items()})
    except HarnessError as exc:
        assert first_pool and str(exc).startswith(f"config field {first_pool!r} must contain"), exc
    else:
        assert first_pool is None
        assert scene_to_dict(sampled) == doc
    try:
        scene = load_scene(json.dumps(doc))
    except SceneError as exc:
        assert faults and exc.path == faults[0]
        return
    assert not faults

    prefs = default_preferences()
    lexicon = attribute_vocabulary(scene)
    for target in scene.referable_ids():
        try:
            candidates = expression_space(build_landmark_chain(target, scene, prefs), scene)
        except GenerationError:
            continue
        for candidate in {c.surface: c for c in candidates}.values():
            tree = parse_expression(candidate.surface, lexicon)
            assert tree == _lowered(candidate.tree), candidate.surface
            assert denote(tree, scene, prefs) == denote(candidate.tree, scene, prefs)
