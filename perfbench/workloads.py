"""The three closed-loop wrangle workloads, each driving ``Wrangler``.

One client in one process, sequentially (``parallel=None``): the next
operation starts only when the previous one has returned.  Every workload
builds its inputs from the seed, sets up once (the untimed warm-up), then
repeats one timed operation:

* ``cold-e6`` — a fresh wrangler and a full cold ``run()`` on the E6
  world.  Probe-time type inference, the preflight gate and schema
  matching dominate it; entity resolution is a few percent.
* ``payg-refresh`` — one feedback item plus ``run()`` on a wrangler that
  set-up ran cold once; the feedback cycles value, duplicate, match,
  relevance.  Only the invalidated cone recomputes, so resolution and
  fusion dominate and probe and preflight do no work.
* ``velocity-tick`` — the E6 world under checkpointing, with five
  cursor-declared retailers and one served as an HTML site.  A tick
  slides a window of rows on two retailers, re-prices listings on the
  site, refreshes those three sources and runs.  It is the only workload
  that writes (journal and snapshot fsyncs), fetches deltas, and induces
  and repairs a wrapper.

The world itself is fixed per workload (``WORLD_SEED``, the E6 world of
the ROADMAP) because quality and plan size swing widely between
generated worlds; the run seed shuffles each source's row order, picks
feedback targets and verdicts, and draws every tick's new rows.

Each workload splits an operation into ``prepare`` (untimed input
changes), ``execute`` (the timed call into the program) and ``verify``
(untimed output checks, which return a list of problems).
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.corrupt import format_date, format_price, maybe, perturb_price
from repro.datagen.htmlgen import annotations_for, render_site
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, TRUTH_COLUMN, generate_world
from repro.evaluation import pair_metrics, truth_labels, wrangle_scorecard
from repro.feedback.types import (
    DuplicateFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.feedback.workers import expert
from repro.ingest.checkpoint import CheckpointStore
from repro.model.records import Table
from repro.model.workingdata import canonical_bytes, table_fingerprint, tag_raw
from repro.sources.memory import MemoryDocumentSource, MemorySource

#: The ROADMAP's E6 world seed; see the module docstring for why it is fixed.
WORLD_SEED = 606

#: Counters read from ``WrangleResult.telemetry`` after every operation.
_COUNTERS = (
    "kernels.candidates",
    "kernels.pruned",
    "kernels.survivors",
    "feedback.nodes_invalidated",
    "ingest.commits",
)


def product_world(n_products: int, n_sources: int):
    """The fixed world of ``n_products`` products and ``n_sources`` sources."""
    return generate_world(n_products=n_products, n_sources=n_sources,
                          seed=WORLD_SEED)


def build_wrangler(world) -> Wrangler:
    """A precision-first wrangler over ``world`` with its master catalog."""
    user = UserContext.precision_first("bench", TARGET_SCHEMA, budget=60.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    return Wrangler(user, data, master_key="catalog",
                    join_attribute="product", today=world.today)


def add_memory_sources(wrangler: Wrangler, world, rows=None, cursor=None,
                       order=None):
    """Register each world source (or its entry in ``rows``) as memory,
    in ``order`` when given."""
    for name in order or world.source_names:
        if rows is not None and name not in rows:
            continue
        spec = world.specs[name]
        wrangler.add_source(MemorySource(
            name, (rows or world.source_rows)[name], cost_per_access=spec.cost,
            change_rate=spec.staleness, cursor=cursor,
        ))
    return wrangler


class Workload:
    """One workload: set-up, then repeated prepare / execute / verify."""

    #: Operations every timed process makes, however short its share of
    #: ``--seconds`` is; the quality metrics and peak memory are read
    #: after the last of them, so they do not depend on machine speed.
    min_ops = 1
    #: Operations the traced run records.
    trace_ops = 1
    #: Whether every operation builds a new wrangler.
    fresh_per_op = False
    #: Operations of different kinds repeat in cycles of this length; a
    #: run measures whole cycles so its median sees each kind equally.
    cycle = 1

    def __init__(self, seed: int, workdir: Path, stream: int = 0) -> None:
        self.workdir = workdir
        # Each timed process of a run draws its own stream of inputs from
        # the seed, so the run's samples cover more than one sequence.
        self.rng = random.Random(f"{seed}/{stream}")
        self.wrangler: Wrangler | None = None
        self.result = None
        self._last_counts: dict[str, float] = {}

    # -- hooks ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        """Untimed input changes before operation ``index``."""

    def execute(self, index: int):
        raise NotImplementedError

    def verify(self, index: int, result, counts: dict) -> list[str]:
        """Untimed output checks after operation ``index``, given its
        :meth:`counts`."""
        return []

    def finish(self) -> list[str]:
        """Checks after the last operation."""
        return []

    def changed_row_bytes(self) -> int:
        """Bytes of source rows the last ``prepare`` added or removed."""
        return 0

    # -- shared measurements ----------------------------------------------

    def quality(self) -> dict[str, float]:
        """Price accuracy of the current output and ER F1 over truth rows."""
        result = self.result
        translated = self.wrangler.working.get("table", "translated")
        truth = {rid: truth_id for rid, truth_id in
                 truth_labels(translated).items() if truth_id is not None}
        return {
            "price_accuracy": wrangle_scorecard(result.table, self.world)[
                "price_accuracy"],
            "entity_f1": pair_metrics(result.resolution, truth).f1,
        }

    def digest(self) -> str:
        """Content digest of the current wrangled table and scorecard."""
        card = wrangle_scorecard(self.result.table, self.world)
        return table_fingerprint(self.result.table) + "/" + ",".join(
            f"{key}={card[key]!r}" for key in sorted(card))

    def counts(self) -> dict[str, float]:
        """Deltas of the program's own work counters since the last call
        (since zero when every operation builds a new wrangler)."""
        wrangler = self.wrangler
        counters = self.result.telemetry["metrics"]["counters"]
        now = {name: counters.get(name, 0.0) for name in _COUNTERS}
        now["core.nodes_recomputed"] = wrangler.recompute_count()
        now["sources.access_cost"] = wrangler.registry.total_cost()
        now["model.annotations"] = len(wrangler.working.annotations)
        before = {} if self.fresh_per_op else self._last_counts
        self._last_counts = now
        return {name: value - before.get(name, 0.0)
                for name, value in now.items()}


class ColdE6(Workload):
    """A fresh wrangler and a full cold run per operation."""

    min_ops = 3
    trace_ops = 3
    fresh_per_op = True

    def setup(self) -> None:
        self.world = product_world(50, 6)
        self.order = self.rng.sample(self.world.source_names,
                                     len(self.world.source_names))
        self.execute(0)
        self.reference = self.digest()

    def execute(self, index: int):
        self.wrangler = add_memory_sources(build_wrangler(self.world), self.world,
                                           order=self.order)
        self.result = self.wrangler.run()
        return self.result

    def verify(self, index: int, result, counts: dict) -> list[str]:
        if self.digest() != self.reference:
            return [f"cold wrangle {index} output differs from the first"]
        return []


class PaygRefresh(Workload):
    """One feedback item and an incremental refresh per operation."""

    min_ops = 4
    trace_ops = 8
    KINDS = ("value", "duplicate", "match", "relevance")
    cycle = len(KINDS)

    def setup(self) -> None:
        self.world = product_world(200, 8)
        self.truth = self.world.truth_by_id()
        self.expert = expert(self.rng.randrange(2 ** 32))
        self.wrangler = add_memory_sources(build_wrangler(self.world), self.world)
        self.result = self.wrangler.run()
        self.nodes = len(self.wrangler.flow.nodes())
        self.counts()

    def prepare(self, index: int) -> None:
        self.item = getattr(self, "_" + self.KINDS[index % 4])()
        self._plan_runs = self.wrangler.flow.runs("plan")

    def _value(self):
        candidates = [r for r in self.result.table
                      if r.raw(TRUTH_COLUMN) in self.truth
                      and not r.get("price").is_missing]
        record = self.rng.choice(candidates)
        true_price = float(self.truth[record.raw(TRUTH_COLUMN)]["price"])
        price = record.raw("price")
        correct = (isinstance(price, (int, float))
                   and abs(price - true_price) <= 0.01 * max(true_price, 1.0))
        return ValueFeedback(entity=record.rid, attribute="price",
                             is_correct=self.expert.judge(correct))

    def _duplicate(self):
        translated = self.wrangler.working.get("table", "translated")
        records = [r for r in translated if r.raw(TRUTH_COLUMN) is not None]
        left = self.rng.choice(records)
        # Half the questions are about a true duplicate, so the labelled
        # pairs hold both classes, as an active learner would ask them.
        same = [r for r in records if r.rid != left.rid
                and r.raw(TRUTH_COLUMN) == left.raw(TRUTH_COLUMN)]
        pool = same if same and self.rng.random() < 0.5 else records
        right = left
        while right.rid == left.rid:
            right = self.rng.choice(pool)
        duplicate = left.raw(TRUTH_COLUMN) == right.raw(TRUTH_COLUMN)
        return DuplicateFeedback(rid_a=left.rid, rid_b=right.rid,
                                 is_duplicate=self.expert.judge(duplicate))

    def _match(self):
        source = self.rng.choice(sorted(self.result.plan.sources))
        correspondence = self.rng.choice(
            self.wrangler.working.get("match", source))
        canonical = {local: target for target, local
                     in self.world.renames[source].items()}
        correct = (canonical.get(correspondence.source_attribute)
                   == correspondence.target_attribute)
        return MatchFeedback(
            source_name=source,
            source_attribute=correspondence.source_attribute,
            target_attribute=correspondence.target_attribute,
            is_correct=self.expert.judge(correct),
        )

    def _relevance(self):
        source = self.rng.choice(self.world.source_names)
        relevant = self.world.specs[source].error_rate < 0.2
        return RelevanceFeedback(source_name=source,
                                 is_relevant=self.expert.judge(relevant))

    def execute(self, index: int):
        self.wrangler.apply_feedback([self.item])
        self.result = self.wrangler.run()
        return self.result

    def verify(self, index: int, result, counts: dict) -> list[str]:
        if self.wrangler.flow.runs("plan") != self._plan_runs:
            return []  # a replan may legitimately acquire new sources
        problems = []
        if counts["sources.access_cost"] != 0:
            problems.append(f"refresh {index} re-accessed sources")
        if counts["core.nodes_recomputed"] * 2 >= self.nodes:
            problems.append(
                f"refresh {index} recomputed {counts['core.nodes_recomputed']}"
                f" of {self.nodes} nodes")
        return problems

    def finish(self) -> list[str]:
        return _idempotent_rerun(self)


class VelocityTick(Workload):
    """Slide source windows, refresh, and rerun under checkpointing."""

    min_ops = 3
    trace_ops = 6
    HTML_SOURCE = "retailer-02"
    #: Rows slid per retailer and listings re-priced on the site per tick.
    K = 5

    def setup(self) -> None:
        self.world = product_world(50, 6)
        self.truth = self.world.truth_by_id()
        self.rows = {
            name: [dict(row, seq=seq) for seq, row in
                   enumerate(self.world.source_rows[name])]
            for name in self.world.source_names if name != self.HTML_SOURCE
        }
        self.next_seq = {name: len(rows) for name, rows in self.rows.items()}
        renames = self.world.renames[self.HTML_SOURCE]
        self.listings = [
            {key: "" if row.get(renames[key]) is None else str(row[renames[key]])
             for key in ("product", "brand", "price", "url", "updated")}
            for row in self.world.source_rows[self.HTML_SOURCE]
        ]
        self.listing_truth = [row[TRUTH_COLUMN] for row in
                              self.world.source_rows[self.HTML_SOURCE]]
        site = render_site(self.HTML_SOURCE, self.listings, "grid")
        self.site = SiteSource(self.HTML_SOURCE, site.pages,
                               cost_per_access=self.world.specs[self.HTML_SOURCE].cost)
        self.store = self.workdir / "checkpoints"
        wrangler = add_memory_sources(build_wrangler(self.world), self.world,
                                      rows=self.rows, cursor="seq")
        wrangler.add_source(self.site)
        # Examples point at the first listings, which ticks never re-price.
        wrangler.annotate_examples(self.HTML_SOURCE, annotations_for(site, 3))
        wrangler.checkpointing(CheckpointStore(self.store))
        self.wrangler = wrangler
        self.result = wrangler.run()
        self.runs = 1
        self.counts()
        # Ticks change retailers the plan selected, so each one does work.
        self.ticking = sorted(set(self.rows) & set(self.result.plan.sources))

    def _observation(self, name: str, row: dict) -> dict:
        """A fresh observation of ``row``'s product, drawn as the world
        draws them: sometimes stale, sometimes wrong."""
        spec = self.world.specs[name]
        renames = self.world.renames[name]
        price = float(self.truth[row[TRUTH_COLUMN]]["price"]) * (1 + spec.price_bias)
        updated = self.world.today
        if maybe(self.rng, spec.staleness):
            updated = updated.fromordinal(updated.toordinal() - self.rng.randint(7, 120))
            price = perturb_price(price, self.rng, spread=0.25)
        if maybe(self.rng, spec.error_rate):
            price = perturb_price(price, self.rng)
        fresh = dict(row, seq=self.next_seq[name])
        self.next_seq[name] += 1
        fresh[renames["price"]] = format_price(round(price, 2), self.rng)
        fresh[renames["updated"]] = format_date(updated, self.rng)
        return fresh

    def prepare(self, index: int) -> None:
        self.changed = []
        self.refreshed = self.rng.sample(self.ticking, 2)
        for name in self.refreshed:
            dropped = self.rows[name][:self.K]
            added = [self._observation(name, row) for row in dropped]
            self.rows[name] = self.rows[name][self.K:] + added
            self.wrangler.registry.get(name).replace_rows(self.rows[name])
            self.changed += dropped + added
        for position in self.rng.sample(range(3, len(self.listings)), self.K):
            old = self.listings[position]
            true_price = float(self.truth[self.listing_truth[position]]["price"])
            if maybe(self.rng, self.world.specs[self.HTML_SOURCE].error_rate):
                true_price = perturb_price(true_price, self.rng)
            self.listings[position] = dict(
                old, price=format_price(round(true_price, 2), self.rng))
            self.changed += [old, self.listings[position]]
        self.site.set_pages(
            render_site(self.HTML_SOURCE, self.listings, "grid").pages)

    def changed_row_bytes(self) -> int:
        return sum(len(canonical_bytes({k: tag_raw(v) for k, v in row.items()}))
                   for row in self.changed)

    def execute(self, index: int):
        for name in self.refreshed + [self.HTML_SOURCE]:
            self.wrangler.refresh_source(name)
        self.result = self.wrangler.run()
        return self.result

    def verify(self, index: int, result, counts: dict) -> list[str]:
        self.runs += 1
        problems = []
        acquisitions = result.ingest["acquisitions"]
        for name in self.refreshed:
            mode = acquisitions.get(name, {}).get("mode")
            if mode not in ("delta", "unchanged"):
                problems.append(f"tick {index}: {name} fetched as {mode!r}")
            held = self.wrangler.working.get("table", f"raw/{name}").to_rows()
            fresh = Table.from_rows(name, self.rows[name], source=name)
            if held != fresh.infer_schema().to_rows():
                problems.append(f"tick {index}: merged view of {name} is not "
                                "the source's current rows")
        return problems

    def finish(self) -> list[str]:
        problems = _idempotent_rerun(self)
        self.runs += 1
        completed = CheckpointStore(self.store).load_state()["runs_completed"]
        if completed != self.runs:
            problems.append(f"journal records {completed} completed runs, "
                            f"not {self.runs}")
        return problems


class SiteSource(MemoryDocumentSource):
    """An HTML site whose pages the benchmark re-renders between ticks."""

    def set_pages(self, pages) -> None:
        self._pages = list(pages)


def _idempotent_rerun(workload: Workload) -> list[str]:
    """A run with no new input must recompute, spend and change nothing."""
    before = workload.digest()
    workload.result = workload.wrangler.run()
    counts = workload.counts()
    problems = []
    if counts["core.nodes_recomputed"] or counts["sources.access_cost"]:
        problems.append("a rerun with no new input recomputed or re-fetched")
    if workload.digest() != before:
        problems.append("a rerun with no new input changed the output")
    return problems


WORKLOADS = {
    "cold-e6": ColdE6,
    "payg-refresh": PaygRefresh,
    "velocity-tick": VelocityTick,
}
