#!/usr/bin/env python3
"""Near-duplicate detection over a *live* news wire.

Simulates the news-agency scenario from the paper's introduction as a
streaming system: wire stories arrive continuously and are indexed
through the LSM write path (memtable + frozen segments), outlet
stories are matched against the index *while it is being written*, a
wire story is retracted mid-stream, and a compaction folds the tiers
without a pause in query service.  At the end the streamed index is
checked pair-for-pair against a one-shot batch build — the streaming
machinery never changes a single result.

Run:  python examples/near_duplicate_news.py
"""

from __future__ import annotations

from repro import Index, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.corpus.plagiarism import ObfuscationLevel, PlagiarismInjector
from repro.corpus.synthetic import DatasetProfile, SyntheticCorpusGenerator

SEED_STORIES = 15  # wire stories indexed before the stream starts
RETRACTED = 7      # wire story pulled mid-stream


def build_newswire(seed: int = 11):
    """Wire stories and outlet rewrites, both as token-string lists."""
    profile = DatasetProfile(
        name="WIRE",
        num_documents=40,
        num_queries=6,
        avg_doc_length=300,
        avg_query_length=250,
        vocabulary_size=4_000,
    )
    generator = SyntheticCorpusGenerator(profile, seed=seed)
    data = generator.generate_data()
    injector = PlagiarismInjector(seed=seed + 1, vocabulary_size=len(data.vocabulary))
    outlets = []
    for query_id, tokens in enumerate(generator.generate_queries()):
        # Each outlet story republishes two wire passages with edits.
        for level in (ObfuscationLevel.LOW, ObfuscationLevel.HIGH):
            tokens, _truth = injector.splice_case(
                data, query_id, tokens, segment_length=90, level=level
            )
        outlets.append(data.vocabulary.decode(tokens))
    wire = [data.vocabulary.decode(doc.tokens) for doc in data]
    return wire, outlets


def matches(index_like, data, outlet_tokens):
    query = data.encode_query_tokens(outlet_tokens)
    return {
        (pair.doc_id, pair.data_start, pair.query_start)
        for pair in index_like.search(query).pairs
    }


def main() -> None:
    wire, outlets = build_newswire()
    params = SearchParams(w=30, tau=5, k_max=3)

    # --- t=0: bootstrap from this morning's wire backlog --------------
    data = DocumentCollection()
    for story_id, tokens in enumerate(wire[:SEED_STORIES]):
        data.add_tokens(tokens, name=f"wire-{story_id}")
    index = Index(PKWiseSearcher(data, params), data)
    print(f"seeded index with {SEED_STORIES} wire stories: {index}")

    # --- the day unfolds: stories stream in, outlets query live -------
    for story_id in range(SEED_STORIES, len(wire)):
        document = data.add_tokens(wire[story_id], name=f"wire-{story_id}")
        index.add(document)

        if story_id == 24:
            # An outlet checks a story while the memtable is hot.
            found = matches(index, data, outlets[0])
            store = index.searcher().store
            print(
                f"after {story_id + 1} stories: outlet-0 matches "
                f"{len(found)} passages  "
                f"(memtable={store.memtable_docs} docs, "
                f"segments={store.num_segments})"
            )

        if story_id == 29:
            # Mid-stream: a wire story is retracted, then a compaction
            # folds memtable + tombstone into one frozen segment.
            # Queries keep running throughout — installs swap the view
            # atomically under the facade.
            index.remove(RETRACTED)
            before = matches(index, data, outlets[0])
            index.compact()
            after = matches(index, data, outlets[0])
            assert before == after, "compaction must not change results"
            store = index.searcher().store
            print(
                f"after {story_id + 1} stories: retracted wire-{RETRACTED}, "
                f"compacted to {store.num_segments} segment(s); "
                f"results unchanged across the fold"
            )

    # --- close of day: the streamed index equals a batch rebuild ------
    batch_data = DocumentCollection()
    for story_id, tokens in enumerate(wire):
        batch_data.add_tokens(tokens, name=f"wire-{story_id}")
    batch = Index(PKWiseSearcher(batch_data, params), batch_data)
    batch.remove(RETRACTED)

    print(f"\n{'outlet':<10}{'passages':>9}   sources")
    for outlet_id, outlet_tokens in enumerate(outlets):
        streamed = matches(index, data, outlet_tokens)
        one_shot = matches(batch, batch_data, outlet_tokens)
        assert streamed == one_shot, "streamed and batch results must agree"
        sources = sorted({doc_id for doc_id, *_ in streamed})
        print(f"outlet-{outlet_id:<3}{len(streamed):>9}   {sources}")

    print(
        "\nevery streamed result matches the one-shot batch build: the "
        "LSM write path (memtable, tombstones, compaction) is invisible "
        "to the result set."
    )


if __name__ == "__main__":
    main()
