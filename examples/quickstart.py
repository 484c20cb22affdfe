#!/usr/bin/env python3
"""Quickstart: find partially replicated text between two documents.

Builds a tiny collection, runs pkwise local similarity search, and
prints every matching window pair — including the paper's own running
example (Example 1: "the lord of the rings" vs "the lord and the
kings").

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection


def main() -> None:
    # 1. Build a collection of data documents.  The collection owns the
    #    tokenizer (whitespace by default) and the shared vocabulary.
    data = DocumentCollection()
    data.add_text("the lord of the rings", name="tolkien")
    data.add_text(
        "in a hole in the ground there lived a hobbit and the hobbit "
        "liked the comfort of his hole in the ground",
        name="hobbit",
    )

    # 2. Encode a query document against the same vocabulary.
    query = data.encode_query("the lord and the kings", name="suspicious")

    # 3. Configure the search: windows of w=4 consecutive tokens may
    #    differ by at most tau=1 token.  k_max controls the partitioned
    #    k-wise signature scheme (see the paper, Section 3).
    params = SearchParams(w=4, tau=1, k_max=2)

    # 4. Index the data documents and search.
    searcher = PKWiseSearcher(data, params)
    result = searcher.search(query)

    print(f"query: {query.name!r}  (w={params.w}, tau={params.tau})")
    for match in result.sorted_pairs():
        document = data[match.doc_id]
        data_window = " ".join(
            data.decode_window(document, match.data_start, params.w)
        )
        # decode_window uses the query's stored source tokens, so words
        # outside the data vocabulary ("and", "kings") print faithfully.
        query_window = " ".join(
            data.decode_window(query, match.query_start, params.w)
        )
        print(
            f"  {document.name}[{match.data_start}] ~ "
            f"query[{match.query_start}]  overlap={match.overlap}/{params.w}"
        )
        print(f"    data : {data_window!r}")
        print(f"    query: {query_window!r}")

    stats = result.stats
    print(
        f"phases: signature {stats.signature_time * 1e3:.2f}ms, "
        f"candidates {stats.candidate_time * 1e3:.2f}ms "
        f"({stats.candidate_windows} windows verified), "
        f"verification {stats.verify_time * 1e3:.2f}ms"
    )


if __name__ == "__main__":
    main()
