"""Tests for marginal-gain source selection."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SourceError
from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.selection.source_selection import SourceProfile, SourceSelector
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry


def profile(name, coverage, accuracy, cost):
    return SourceProfile(name, coverage, accuracy, cost)


class TestGainModel:
    def test_empty_set_has_no_gain(self):
        assert SourceSelector().gain([]) == 0.0

    def test_gain_grows_with_coverage(self):
        selector = SourceSelector(n_items=100)
        low = selector.gain([profile("a", 0.3, 0.9, 1)])
        high = selector.gain([profile("a", 0.9, 0.9, 1)])
        assert high > low

    def test_gain_grows_with_accuracy(self):
        selector = SourceSelector(n_items=100)
        bad = selector.gain([profile("a", 0.8, 0.4, 1)])
        good = selector.gain([profile("a", 0.8, 0.95, 1)])
        assert good > bad

    def test_redundant_sources_add_little(self):
        selector = SourceSelector(n_items=100)
        one = selector.gain([profile("a", 0.95, 0.95, 1)])
        two = selector.gain(
            [profile("a", 0.95, 0.95, 1), profile("b", 0.95, 0.95, 1)]
        )
        assert two - one < 0.15 * one

    def test_gain_deterministic(self):
        selector = SourceSelector(seed=5)
        profiles = [profile("a", 0.5, 0.8, 1)]
        assert selector.gain(profiles) == selector.gain(profiles)

    def test_validation(self):
        with pytest.raises(SourceError):
            SourceProfile("a", 1.2, 0.5, 1)
        with pytest.raises(SourceError):
            SourceProfile("a", 0.5, -0.1, 1)
        with pytest.raises(SourceError):
            SourceProfile("a", 0.5, 0.5, -1)
        with pytest.raises(SourceError):
            SourceSelector(n_items=0)


class TestGreedySelection:
    def test_stops_at_crossover(self):
        # A few good cheap sources, then a long tail of costly junk: the
        # selector must not buy the junk ("less is more").
        profiles = [
            profile("good-1", 0.8, 0.95, 3.0),
            profile("good-2", 0.7, 0.9, 3.0),
            profile("junk-1", 0.4, 0.35, 15.0),
            profile("junk-2", 0.4, 0.3, 15.0),
        ]
        result = SourceSelector(n_items=100, gain_per_item=0.5).select(profiles)
        assert "good-1" in result.selected
        assert all("junk" not in name for name in result.selected)
        assert set(result.rejected) >= {"junk-1", "junk-2"}

    def test_budget_respected(self):
        profiles = [
            profile("a", 0.9, 0.9, 5.0),
            profile("b", 0.9, 0.9, 5.0),
        ]
        result = SourceSelector(n_items=100).select(profiles, budget=5.0)
        assert len(result.selected) == 1
        assert result.total_cost <= 5.0

    def test_force_all_traces_past_crossover(self):
        profiles = [
            profile("good", 0.9, 0.95, 1.0),
            profile("junk", 0.2, 0.2, 50.0),
        ]
        result = SourceSelector(n_items=100).select(profiles, force_all=True)
        assert len(result.steps) == 2
        assert result.steps[-1].marginal_profit < 0

    def test_steps_record_trajectory(self):
        profiles = [profile("a", 0.8, 0.9, 1.0), profile("b", 0.5, 0.8, 1.0)]
        result = SourceSelector(n_items=50).select(profiles)
        assert result.steps[0].gain_before == 0.0
        for earlier, later in zip(result.steps, result.steps[1:]):
            assert later.gain_before == pytest.approx(earlier.gain_after)
        assert result.profit == pytest.approx(
            result.final_gain - result.total_cost
        )

    def test_greedy_prefers_high_value_first(self):
        profiles = [
            profile("small", 0.3, 0.9, 1.0),
            profile("big", 0.9, 0.9, 1.0),
        ]
        result = SourceSelector(n_items=100).select(profiles)
        assert result.selected[0] == "big"


class TestProfilesFromRegistry:
    def test_uses_annotations_and_reliability(self):
        registry = SourceRegistry()
        registry.register(MemorySource("a", [{"x": 1}], cost_per_access=2.0))
        registry.register(MemorySource("b", [{"x": 1}], cost_per_access=1.0))
        for __ in range(10):
            registry.observe("a", True)
            registry.observe("b", False)
        annotations = AnnotationStore()
        annotations.add(
            QualityAnnotation("source:a", Dimension.COMPLETENESS, 0.9)
        )
        profiles = {
            p.name: p
            for p in SourceSelector.profiles_from_registry(registry, annotations)
        }
        assert profiles["a"].accuracy > profiles["b"].accuracy
        assert profiles["a"].coverage == pytest.approx(0.9, abs=0.05)
        assert profiles["a"].cost == 2.0


def oracle_gain(selector, profiles):
    """The Monte-Carlo gain as first written: attribute lookups per draw
    and a string claim key per wrong vote."""
    if not profiles:
        return 0.0
    rng = random.Random(selector.seed)
    correct = 0
    for __ in range(selector.n_samples):
        votes = {}
        for source in profiles:
            if rng.random() >= source.coverage:
                continue
            weight = max(source.accuracy, 0.05)
            if rng.random() < source.accuracy:
                claim = "truth"
            else:
                claim = f"wrong-{rng.randint(1, 3)}"
            votes[claim] = votes.get(claim, 0.0) + weight
        if votes and max(votes, key=lambda v: votes[v]) == "truth":
            correct += 1
    expected_fraction = correct / selector.n_samples
    return expected_fraction * selector.n_items * selector.gain_per_item


rates = st.sampled_from([0.0, 1.0, 0.05]) | st.floats(0.0, 1.0)
profile_lists = st.lists(
    st.builds(profile, st.just("s"), rates, rates, st.just(1.0)), max_size=8
)


class TestGainAgainstOracle:
    """The tightened gain loop draws the same numbers in the same order
    and returns exactly the oracle's gain."""

    @given(profile_lists, st.integers(0, 2 ** 16), st.integers(1, 200))
    def test_generated_profiles(self, profiles, seed, n_samples):
        selector = SourceSelector(
            n_items=37, gain_per_item=1.5, n_samples=n_samples, seed=seed
        )
        assert selector.gain(profiles) == oracle_gain(selector, profiles)

    def test_boundary_rates_and_seeds(self):
        boundary = [0.0, 0.05, 1.0]
        profiles = [
            profile(f"s{i}", coverage, accuracy, 1.0)
            for i, (coverage, accuracy) in enumerate(
                (c, a) for c in boundary for a in boundary
            )
        ]
        for seed in (0, 1, 17, 606):
            selector = SourceSelector(seed=seed)
            for end in range(len(profiles) + 1):
                chosen = profiles[:end]
                assert selector.gain(chosen) == oracle_gain(selector, chosen)

    def test_equal_votes_tie_break_as_the_oracle(self):
        # Two always-covering sources of equal weight that disagree tie;
        # max keeps the claim inserted first, as the oracle's dict did.
        profiles = [profile("a", 1.0, 0.5, 1), profile("b", 1.0, 0.5, 1)]
        for seed in range(20):
            selector = SourceSelector(seed=seed, n_samples=50)
            assert selector.gain(profiles) == oracle_gain(selector, profiles)
