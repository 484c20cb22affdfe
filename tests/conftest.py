"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import DocumentCollection, GlobalOrder, SearchParams


@pytest.fixture
def paper_example():
    """The running example of the paper (Example 1): d and q, w=4, tau=1."""
    data = DocumentCollection()
    data.add_text("the lord of the rings")
    query = data.encode_query("the lord and the kings")
    params = SearchParams(w=4, tau=1, k_max=2)
    return data, query, params


@pytest.fixture
def small_corpus():
    """A small deterministic corpus with genuine repeated segments."""
    rng = random.Random(1234)
    data = DocumentCollection()
    vocab = [f"w{i}" for i in range(60)]
    docs = []
    for _ in range(6):
        docs.append([vocab[rng.randrange(len(vocab))] for _ in range(80)])
    # Copy a segment of doc 0 into doc 3 with one substitution.
    segment = docs[0][10:40]
    segment[5] = "w999"
    docs[3][20:50] = segment
    for tokens in docs:
        data.add_tokens(tokens)
    return data


def random_collection(rng: random.Random, *, max_docs=4, max_len=40, max_vocab=25):
    """A random collection + query for randomized equivalence tests."""
    vocab = rng.randint(3, max_vocab)
    data = DocumentCollection()
    for _ in range(rng.randint(1, max_docs)):
        length = rng.randint(5, max_len)
        data.add_tokens([f"t{rng.randrange(vocab)}" for _ in range(length)])
    query = data.encode_query_tokens(
        [f"t{rng.randrange(vocab)}" for _ in range(rng.randint(5, max_len))]
    )
    return data, query


def brute_force_pairs(data: DocumentCollection, query, w: int, tau: int) -> set:
    """Reference implementation: every window pair, one-shot overlaps."""
    out = set()
    query_tokens = query.tokens
    for document in data:
        for i in range(document.num_windows(w)):
            counts = Counter(document.tokens[i : i + w])
            for j in range(max(0, len(query_tokens) - w + 1)):
                window = query_tokens[j : j + w]
                query_counts = Counter(window)
                overlap = sum(
                    min(count, query_counts[token]) for token, count in counts.items()
                )
                if w - overlap <= tau:
                    out.add((document.doc_id, i, j, overlap))
    return out


def pairs_as_set(result) -> set:
    """MatchPair list -> comparable set of tuples."""
    return set(map(tuple, result.pairs if hasattr(result, "pairs") else result))


def probe_runs(batch) -> list[list[tuple]]:
    """ProbeBatch -> one ``[(doc, u, v), ...]`` run per probed signature."""
    rows = list(zip(batch.docs.tolist(), batch.us.tolist(), batch.vs.tolist()))
    bounds = batch.entry_bounds().tolist()
    assert bounds[-1] == batch.entries
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
