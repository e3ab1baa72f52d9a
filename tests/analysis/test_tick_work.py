"""A velocity tick's fixed work, counted exactly.

A tick re-acquires changed sources and commits what it computes.  Each
distinct piece of that work is done once: a page is parsed once however
many candidate wrappers induction and repair extract with, a table is
encoded once however many journal steps cite it, and a row is digested
once per delta fetch.  The counts are deterministic, so the bounds are
exact.
"""

import random
from collections import Counter

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.htmlgen import annotations_for, random_listings, render_site
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.extraction import dom
from repro.ingest import checkpoint
from repro.ingest.checkpoint import CheckpointStore
from repro.model import workingdata
from repro.sources.memory import MemoryDocumentSource, MemorySource


def build_wrangler(world):
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=60.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    return Wrangler(user, data, master_key="catalog",
                    join_attribute="product", today=world.today)


class TestTickWork:
    def test_acquiring_a_site_parses_each_page_once(self, monkeypatch):
        site = render_site("shop", random_listings(30, random.Random(5)))
        assert len(site.pages) == 2
        wrangler = build_wrangler(generate_world(10, 2, seed=77))
        source = MemoryDocumentSource("shop", site.pages)
        wrangler.add_source(source)
        wrangler.annotate_examples("shop", annotations_for(site, 3))
        fed = Counter()
        feed = dom._TreeBuilder.feed

        def counted_feed(builder, data):
            fed[data] += 1
            return feed(builder, data)

        monkeypatch.setattr(dom._TreeBuilder, "feed", counted_feed)
        dom.parse_html.cache_clear()
        table = wrangler._acquire(source)
        assert len(table) == 30
        assert set(fed) == {html for __, html in site.pages}
        assert max(fed.values()) == 1

    def test_a_checkpointed_run_encodes_each_payload_once(
        self, monkeypatch, tmp_path
    ):
        world = generate_world(10, 2, seed=77)
        encoded = Counter()
        encode = checkpoint.encode_payload

        def counted_encode(payload):
            encoded[id(payload)] += 1
            return encode(payload)

        monkeypatch.setattr(checkpoint, "encode_payload", counted_encode)
        rows = {
            name: [dict(row, seq=seq) for seq, row in enumerate(source_rows)]
            for name, source_rows in world.source_rows.items()
        }
        wrangler = build_wrangler(world)
        for name in world.source_names:
            wrangler.add_source(MemorySource(name, rows[name], cursor="seq"))
        wrangler.checkpointing(CheckpointStore(tmp_path))
        result = wrangler.run()
        assert result.ingest["output_snapshot"] is not None
        assert encoded and max(encoded.values()) == 1
        # A tick: one source slides its window and the run goes again.
        encoded.clear()
        name = world.source_names[0]
        ticked = rows[name][2:] + [
            dict(row, seq=len(rows[name]) + offset)
            for offset, row in enumerate(rows[name][:2])
        ]
        wrangler.registry.get(name).replace_rows(ticked)
        wrangler.refresh_source(name)
        result = wrangler.run()
        assert result.ingest["acquisitions"][name]["mode"] == "delta"
        assert encoded and max(encoded.values()) == 1

    def test_a_delta_fetch_digests_each_row_once(self, monkeypatch):
        rows = [{"product": f"p{seq}", "seq": seq} for seq in range(40)]
        source = MemorySource("feed", rows, cursor="seq")
        first = source.fetch_delta(None)
        source.replace_rows(rows[5:] + [
            {"product": f"p{seq}", "seq": seq} for seq in range(40, 45)
        ])
        # row_digest hashes through workingdata.content_digest, whichever
        # module it was imported into, so this counts every row digest.
        hashed = Counter()
        content_digest = workingdata.content_digest

        def counted_digest(payload):
            hashed["calls"] += 1
            return content_digest(payload)

        monkeypatch.setattr(workingdata, "content_digest", counted_digest)
        batch = source.fetch_delta(first.watermark)
        assert batch.mode == "delta" and len(batch.order) == 40
        assert hashed["calls"] == 40
        hashed.clear()
        full = source.fetch_delta(None)
        assert hashed["calls"] == len(full.rows) == 40
