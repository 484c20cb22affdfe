#!/usr/bin/env python3
"""Operating a long-lived index: persistence, adds, removals, analysis.

Simulates the lifecycle of a production deployment: build an index,
save it to disk, reload it in a "fresh process", ingest newly arrived
documents incrementally, tombstone a retracted document, and inspect
the index health statistics.

Run:  python examples/index_maintenance.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Index, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus.synthetic import DatasetProfile, SyntheticCorpusGenerator
from repro.eval import postings_statistics, prefix_sharing
from repro.persistence import save_searcher


def main() -> None:
    profile = DatasetProfile(
        name="OPS",
        num_documents=30,
        num_queries=0,
        avg_doc_length=250,
        avg_query_length=0,
        vocabulary_size=3_000,
    )
    data = SyntheticCorpusGenerator(profile, seed=42).generate_data()
    params = SearchParams(w=25, tau=4, k_max=3)

    # --- day 0: build and persist -------------------------------------
    searcher = PKWiseSearcher(data, params)
    print(f"built: {searcher.index}")
    print(f"  {postings_statistics(searcher.index)}")
    sharing = prefix_sharing(
        list(data)[:5], searcher.order, params.w, params.tau, searcher.scheme
    )
    print(f"  {sharing}")

    with tempfile.TemporaryDirectory() as tmp:
        index_path = Path(tmp) / "corpus.idx"
        save_searcher(searcher, index_path, data=data)
        print(f"saved {index_path.stat().st_size / 1024:.0f} KiB to disk")

        # --- day 1: reload and serve ----------------------------------
        # (A snapshot always reopens frozen.  Mutations go through the
        # Index facade: the first add lazily layers the LSM write path
        # over the frozen base.)
        reopened = Index.open(index_path)
        data = reopened.data
        print(f"reloaded: {reopened.searcher().index}")

        # A new document arrives: it quotes document 7.
        quoted = list(data[7].tokens[30:120])
        newcomer = data.add_token_ids(
            list(data[3].tokens[:50]) + quoted, name="newcomer"
        )
        new_id = reopened.add(newcomer)
        print(f"ingested {newcomer.name} as doc {new_id} (live={reopened.live})")

        # Search with the newcomer as the query: finds its source.
        result = reopened.search(newcomer)
        source_docs = {pair.doc_id for pair in result.pairs} - {new_id}
        print(f"  reuse detected from documents: {sorted(source_docs)}")
        assert 7 in source_docs and 3 in source_docs

        # --- day 2: document 7 is retracted ---------------------------
        reopened.remove(7)
        result = reopened.search(newcomer)
        remaining = {pair.doc_id for pair in result.pairs} - {new_id}
        print(f"  after retracting doc 7: {sorted(remaining)}")
        assert 7 not in remaining and 3 in remaining

    print("lifecycle complete: build -> save -> load -> add -> remove")


if __name__ == "__main__":
    main()
