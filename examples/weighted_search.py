#!/usr/bin/env python3
"""Weighted local similarity search (Appendix C of the paper).

Plain local similarity search counts every shared token equally, so two
windows full of stopwords look similar.  The weighted extension assigns
each token a weight — here the classic IDF-style ``log(N / df)`` — and
matches windows whose shared-token *weight* reaches a threshold, making
rare-content overlap count for much more than stopword overlap.

The example shows a pair of windows that unweighted search reports (they
share frequent tokens) but weighted search correctly rejects, and vice
versa.

Run:  python examples/weighted_search.py
"""

from __future__ import annotations

import math

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.core.weighted import WeightedPKWiseSearcher
from repro.corpus import DocumentCollection


def main() -> None:
    data = DocumentCollection()
    # Six filler sentences establish "the of a and" as stopwords.
    for index in range(6):
        data.add_text(
            f"the story of a meeting and the report of a decision "
            f"in committee {index} and the summary of a plan",
            name=f"minutes-{index}",
        )
    data.add_text(
        "zephyr quantum katana nebula crimson falcon zenith oracle",
        name="codenames",
    )

    # Query 1 shares only stopwords with the minutes; query 2 shares the
    # rare codenames (with one changed).
    query = data.encode_query(
        "the view of a harbor and the sound of a gull "
        "zephyr quantum katana nebula crimson falcon zenith oracle"
    )

    w = 8
    unweighted = PKWiseSearcher(data, SearchParams(w=w, tau=3, k_max=2))
    plain = unweighted.search(query)
    print(f"unweighted (w={w}, tau=3): {len(plain.pairs)} window pairs")
    stopword_hits = sum(1 for p in plain.pairs if p.doc_id < 6)
    print(f"  ... of which {stopword_hits} are stopword-only matches "
          f"against the committee minutes")

    # IDF weights from document frequency.
    df: dict[int, int] = {}
    for document in data:
        for token_id in set(document.tokens):
            df[token_id] = df.get(token_id, 0) + 1
    n_docs = len(data)

    def idf(token_id: int) -> float:
        return math.log((n_docs + 1) / (df.get(token_id, 0) + 1)) + 0.1

    # Require shared weight >= the weight of ~5 rare tokens.
    theta = 5 * idf(data.vocabulary.id_of("zephyr"))
    weighted = WeightedPKWiseSearcher(
        data, w=w, theta_weight=theta, weight_of_token=idf
    )
    pairs, _stats = weighted.search(query)
    print(f"\nweighted (theta = weight of ~5 rare tokens): "
          f"{len(pairs)} window pairs")
    for pair in sorted(pairs):
        document = data[pair.doc_id]
        window_text = " ".join(
            data.vocabulary.decode(document.window(pair.data_start, w))
        )
        print(
            f"  {document.name}[{pair.data_start}] "
            f"weight={pair.intersection_weight:.2f}  {window_text!r}"
        )
    assert all(pair.doc_id == 6 for pair in pairs), (
        "weighted search should only keep the rare-token match"
    )
    print("\nstopword-only matches are gone; the codename reuse remains.")


if __name__ == "__main__":
    main()
