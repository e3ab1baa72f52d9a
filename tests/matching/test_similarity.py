"""Tests (incl. property-based) for the similarity library."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.products import generate_world
from repro.matching import similarity
from repro.matching.similarity import (
    dice,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    name_similarity,
    numeric_similarity,
    tfidf_cosine,
    token_set,
)

words = st.text(alphabet="abcdefgh ", max_size=12)


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    def test_similarity_bounds(self):
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("a", "b") == 0.0

    @given(words, words)
    def test_property_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words, words, words)
    def test_property_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_winkler_prefix_boost(self):
        assert jaro_winkler("prefixxx", "prefixyy") > jaro("prefixxx", "prefixyy")

    @given(words, words)
    def test_property_bounds_and_symmetry(self, a, b):
        score = jaro_winkler(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(jaro_winkler(b, a))


class TestTokenMeasures:
    def test_token_set(self):
        assert token_set("Offer_Price (GBP)") == {"offer", "price", "gbp"}

    def test_jaccard(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0

    def test_dice(self):
        assert dice({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)
        assert dice({"a"}, set()) == 0.0

    @given(st.sets(st.text(alphabet="abc", min_size=1, max_size=2)),
           st.sets(st.text(alphabet="abc", min_size=1, max_size=2)))
    def test_property_jaccard_le_dice(self, a, b):
        assert jaccard(a, b) <= dice(a, b) + 1e-12


class TestTfidfCosine:
    def test_identical_docs(self):
        corpus = [["tv", "acme"], ["radio", "globex"]]
        assert tfidf_cosine(["tv", "acme"], ["tv", "acme"], corpus) == pytest.approx(1.0)

    def test_rare_tokens_dominate(self):
        corpus = [["the", "acme", "tv"], ["the", "globex", "radio"],
                  ["the", "initech", "laptop"]]
        shared_rare = tfidf_cosine(["the", "acme"], ["acme"], corpus)
        shared_common = tfidf_cosine(["the", "acme"], ["the", "globex"], corpus)
        assert shared_rare > shared_common

    def test_empty(self):
        assert tfidf_cosine([], [], []) == 1.0
        assert tfidf_cosine(["a"], [], [["a"]]) == 0.0

    def test_document_frequencies_memoised_per_corpus_identity(self):
        from repro.matching.similarity import _doc_frequencies

        corpus = [["tv", "acme"], ["radio", "acme"]]
        first = _doc_frequencies(corpus)
        assert _doc_frequencies(corpus) is first
        # An equal but distinct corpus object gets its own entry — the
        # memo keys on identity, never content.
        clone = [list(doc) for doc in corpus]
        assert _doc_frequencies(clone) is not first
        assert _doc_frequencies(clone) == first

    def test_memoised_scores_match_fresh_corpus_scores(self):
        corpus = [["the", "acme", "tv"], ["the", "globex", "radio"]]
        warm = tfidf_cosine(["the", "acme"], ["acme"], corpus)
        again = tfidf_cosine(["the", "acme"], ["acme"], corpus)
        cold = tfidf_cosine(
            ["the", "acme"], ["acme"], [list(doc) for doc in corpus]
        )
        assert warm == again == cold


class TestNumericSimilarity:
    def test_equal(self):
        assert numeric_similarity(5.0, 5.0) == 1.0
        assert numeric_similarity(0.0, 0.0) == 1.0

    def test_relative(self):
        assert numeric_similarity(100.0, 90.0) == pytest.approx(0.9)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_property_bounds_and_symmetry(self, a, b):
        score = numeric_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(numeric_similarity(b, a))


class TestNameSimilarity:
    def test_snake_case_vs_words(self):
        assert name_similarity("offer_price", "offer price") == 1.0

    def test_shared_token(self):
        assert name_similarity("offer_price", "price") > 0.4

    def test_abbreviation(self):
        assert name_similarity("cat", "category") > 0.7

    def test_unrelated(self):
        assert name_similarity("price", "colour") < 0.5

    def test_empty(self):
        assert name_similarity("", "price") == 0.0

    @given(words, words)
    def test_property_bounds(self, a, b):
        assert 0.0 <= name_similarity(a, b) <= 1.0


def oracle_monge_elkan_directions(a, b):
    """The two directed Monge–Elkan scores, each token pair scored per
    direction with an uncached Jaro–Winkler (the pre-matrix measure)."""
    tokens_a = similarity._name_tokens(a)
    tokens_b = similarity._name_tokens(b)

    def token_sim(left, right):
        if any(c.isdigit() for c in left) or any(c.isdigit() for c in right):
            return 1.0 if left == right else 0.0
        score = jaro_winkler(left, right)
        return score if score >= 0.85 else 0.3 * score

    def directed(src, dst):
        return sum(
            max(token_sim(token, other) for other in dst) for token in src
        ) / len(src)

    return directed(tokens_a, tokens_b), directed(tokens_b, tokens_a)


def assert_monge_elkan_agrees_with_oracle(a, b):
    tokens_a = similarity._name_tokens(a)
    tokens_b = similarity._name_tokens(b)
    if not tokens_a or not tokens_b:
        expected = {"mean": float(tokens_a == tokens_b)}
        expected["min"] = expected["mean"]
    else:
        forward, backward = oracle_monge_elkan_directions(a, b)
        expected = {
            "mean": (forward + backward) / 2.0,
            "min": min(forward, backward),
        }
    for combine, score in expected.items():
        assert monge_elkan(a, b, combine=combine) == score, (a, b, combine)


name_words = st.sampled_from(
    ["acme", "acm", "globex", "the", "of", "pro", "max", "mini", "camera",
     "camrea", "tv", "123", "x1", "99", "inc"]
) | st.text(alphabet="abcdeimnorst019", min_size=1, max_size=9)
names = st.lists(name_words, max_size=6).map(" ".join)


class TestMongeElkanAgainstOracle:
    """The memoised one-matrix Monge–Elkan returns exactly what scoring
    every token pair in both directions returned, in both modes."""

    @given(names, names)
    def test_generated_names(self, a, b):
        assert_monge_elkan_agrees_with_oracle(a, b)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_arbitrary_text(self, a, b):
        assert_monge_elkan_agrees_with_oracle(a, b)

    def test_every_name_pair_of_the_e6_world(self):
        # The identity attributes ER compares: product, brand, category.
        world = generate_world(50, 6, seed=606)
        attributes = ("product", "brand", "category")
        values = {
            str(row[world.renames[source][attribute]])
            for source in world.source_names
            for row in world.source_rows[source]
            for attribute in attributes
        }
        values |= {
            record.raw(attribute)
            for record in world.ground_truth
            for attribute in attributes
        }
        assert len(values) > 80
        ordered = sorted(values)
        for a in ordered:
            for b in ordered:
                assert_monge_elkan_agrees_with_oracle(a, b)

    def test_named_cases(self):
        for a, b in (
            ("Acme Laptop Pro 15", "Acme Lptop Pro 15"),
            ("QA Analyst", "Junior QA Analyst"),
            ("The Acme Co", "Acme"),
            ("the of", "of the"),
            ("", "Globex Camera Z"),
            ("", ""),
        ):
            assert_monge_elkan_agrees_with_oracle(a, b)
            assert_monge_elkan_agrees_with_oracle(b, a)
