"""Schema matching with pluggable evidence channels (paper Section 2.3).

"A product types ontology could be used ... as an input to the matching of
sources that supplements syntactic matching."  The matcher therefore pools
independent evidence channels per candidate correspondence:

* **name** — string similarity between attribute names;
* **instance** — type and value-shape compatibility of the source column
  against the target attribute's declared type (plus vocabulary overlap
  when the data context supplies reference values);
* **ontology** — semantic similarity of the two names in the domain
  ontology;
* **feedback** — accumulated user/crowd verdicts on this correspondence.

Channels can be switched off individually, which is exactly the ablation
experiment E4 runs.  Evidence is pooled with the shared log-odds algebra
and a one-to-one assignment is chosen greedily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.context.data_context import DataContext
from repro.errors import TypeInferenceError
from repro.model.records import Table
from repro.model.schema import Attribute, DataType, Schema, coerce, infer_type
from repro.model.uncertainty import Evidence, pool_evidence
from repro.matching.similarity import name_similarity, token_set, jaccard

__all__ = ["Correspondence", "SchemaMatcher"]

@dataclass(frozen=True)
class Correspondence:
    """A scored candidate attribute correspondence."""

    source_attribute: str
    target_attribute: str
    confidence: float
    evidence: tuple[Evidence, ...] = ()

    def evidence_kinds(self) -> frozenset[str]:
        """The evidence channels that contributed."""
        return frozenset(e.kind for e in self.evidence)


class SchemaMatcher:
    """Evidence-pooling schema matcher.

    ``channels`` selects the evidence channels to use; ``context``
    provides the ontology and reference vocabularies; ``feedback`` is a
    mapping ``(source_attr, target_attr) -> list of booleans`` (True =
    user confirmed, False = user rejected) maintained by the feedback
    propagation layer.
    """

    ALL_CHANNELS = ("name", "instance", "ontology", "feedback")

    def __init__(
        self,
        context: DataContext | None = None,
        channels: Sequence[str] = ALL_CHANNELS,
        threshold: float = 0.5,
        feedback: Mapping[tuple[str, str], Sequence[bool]] | None = None,
    ) -> None:
        unknown = set(channels) - set(self.ALL_CHANNELS)
        if unknown:
            raise ValueError(f"unknown evidence channels: {sorted(unknown)}")
        self.context = context
        self.channels = tuple(channels)
        self.threshold = threshold
        self.feedback = dict(feedback or {})

    # -- evidence channels -------------------------------------------------

    def _name_evidence(self, source: str, target: Attribute) -> Evidence | None:
        score = name_similarity(source, target.name)
        if target.description:
            # Descriptions are hints, not names: token overlap only, damped,
            # so "offer page" cannot hijack "offer_price".
            description_score = 0.9 * jaccard(
                token_set(source), token_set(target.description)
            )
            score = max(score, description_score)
        # Bound away from 0/1: a dissimilar name is mild counter-evidence,
        # never a veto (the other channels may know better).
        return Evidence("name", 0.05 + 0.9 * score, weight=1.0)

    def _instance_evidence(
        self, column: list[object], target: Attribute
    ) -> Evidence | None:
        values = [v for v in column if v is not None and str(v).strip()]
        if not values:
            return None
        sample = values[:50]
        coercible = 0
        for raw in sample:
            try:
                coerce(raw, target.dtype)
            except TypeInferenceError:
                continue
            coercible += 1
        type_score = coercible / len(sample)
        if target.dtype is DataType.STRING:
            # Everything coerces to string; look at the inferred type instead.
            inferred = {infer_type(raw) for raw in sample}
            type_score = 0.7 if inferred == {DataType.STRING} else 0.4
        score = type_score
        if self.context is not None:
            vocabulary = self.context.vocabulary(target.name)
            if vocabulary:
                hits = sum(1 for raw in sample if raw in vocabulary)
                vocab_score = hits / len(sample)
                score = 0.4 * type_score + 0.6 * vocab_score
        # Type compatibility alone is weak evidence: scale into [0.2, 0.8]
        # so it can support or damp, but never decide by itself.
        return Evidence("instance", 0.2 + 0.6 * score, weight=0.8)

    def _ontology_evidence(
        self, source: str, target: Attribute
    ) -> Evidence | None:
        if self.context is None or self.context.ontology is None:
            return None
        score = self.context.ontology.term_similarity(source, target.name)
        if score == 0.0:
            return None  # the ontology is silent, not negative
        return Evidence("ontology", min(score, 0.95), weight=1.2)

    def _feedback_evidence(
        self, source: str, target: Attribute
    ) -> Evidence | None:
        verdicts = self.feedback.get((source, target.name))
        if not verdicts:
            return None
        positive = sum(1 for v in verdicts if v)
        # Laplace-smoothed agreement rate, weighted by how much feedback
        # there is — one click is a hint, five are a decision that must be
        # able to overrule even a confident ontology correspondence.
        score = (positive + 1) / (len(verdicts) + 2)
        return Evidence(
            "feedback", score, weight=min(3.0, 0.75 * len(verdicts))
        )

    # -- matching -----------------------------------------------------------

    def score_pair(
        self, table: Table, source_attribute: str, target: Attribute
    ) -> Correspondence:
        """Score one candidate correspondence with all enabled channels."""
        evidence: list[Evidence] = []
        if "name" in self.channels:
            item = self._name_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        if "instance" in self.channels:
            raws = [v.raw for v in table.column(source_attribute)]
            item = self._instance_evidence(raws, target)
            if item is not None:
                evidence.append(item)
        if "ontology" in self.channels:
            item = self._ontology_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        if "feedback" in self.channels:
            item = self._feedback_evidence(source_attribute, target)
            if item is not None:
                evidence.append(item)
        confidence = pool_evidence(evidence, prior=0.5)
        return Correspondence(
            source_attribute, target.name, confidence, tuple(evidence)
        )

    def match(self, table: Table, target_schema: Schema) -> list[Correspondence]:
        """One-to-one correspondences from ``table`` into ``target_schema``.

        Greedy best-first assignment over all scored pairs; only pairs at
        or above the threshold survive.  Evaluation-only attributes
        (leading underscore) are never matched.
        """
        candidates: list[Correspondence] = []
        for source_attribute in table.schema.names:
            if source_attribute.startswith("_"):
                continue
            for target in target_schema:
                candidates.append(
                    self.score_pair(table, source_attribute, target)
                )
        candidates.sort(key=lambda c: -c.confidence)
        chosen: list[Correspondence] = []
        used_sources: set[str] = set()
        used_targets: set[str] = set()
        for candidate in candidates:
            if candidate.confidence < self.threshold:
                break
            if (
                candidate.source_attribute in used_sources
                or candidate.target_attribute in used_targets
            ):
                continue
            chosen.append(candidate)
            used_sources.add(candidate.source_attribute)
            used_targets.add(candidate.target_attribute)
        return chosen

    def match_tables(self, source: Table, target: Table) -> list[Correspondence]:
        """Correspondences between two instance tables.

        Adds a value-overlap channel on top of :meth:`match`'s scoring by
        comparing actual column contents (token Jaccard of sampled values).
        """
        correspondences = []
        for source_attribute in source.schema.names:
            if source_attribute.startswith("_"):
                continue
            source_tokens = frozenset().union(
                *(
                    token_set(str(v.raw))
                    for v in source.column(source_attribute)[:100]
                    if not v.is_missing
                )
            ) if len(source) else frozenset()
            for target_attr in target.schema:
                base = self.score_pair(source, source_attribute, target_attr)
                target_tokens = frozenset().union(
                    *(
                        token_set(str(v.raw))
                        for v in target.column(target_attr.name)[:100]
                        if not v.is_missing
                    )
                ) if len(target) else frozenset()
                overlap = jaccard(source_tokens, target_tokens)
                evidence = base.evidence + (
                    Evidence("value-overlap", 0.1 + 0.85 * overlap, weight=0.8),
                )
                correspondences.append(
                    Correspondence(
                        source_attribute,
                        target_attr.name,
                        pool_evidence(list(evidence), prior=0.5),
                        evidence,
                    )
                )
        correspondences.sort(key=lambda c: -c.confidence)
        chosen: list[Correspondence] = []
        used_sources: set[str] = set()
        used_targets: set[str] = set()
        for candidate in correspondences:
            if candidate.confidence < self.threshold:
                break
            if (
                candidate.source_attribute in used_sources
                or candidate.target_attribute in used_targets
            ):
                continue
            chosen.append(candidate)
            used_sources.add(candidate.source_attribute)
            used_targets.add(candidate.target_attribute)
        return chosen
