"""The build kernels' block, chunk and width seams, crossed by one check.

:func:`cross_seams` shrinks the block constants to a few cells, so a few
hundred tokens cross every seam, and holds the kernels' output to the
references that define it: the index to the one-document Algorithm 5
build; the order, scheme, lazy ranks and covers to their per-document
and per-rank definitions (kept here); the pairs, near and past int16 doc
ids, to the oracle.  Its drawn vocabularies, run counts and interval
lengths cross the width seams of the stored columns: int8 to int16 at
128, int16 to int32 past 32,767.  One seeded generator draws its cases;
the feature suites name their fixed ones with :func:`seam_case`.
"""

from __future__ import annotations

import copy
import random
from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchParams
from repro.core.pkwise import (
    DEFAULT_FREQ_HIGH,
    DEFAULT_FREQ_LOW,
    PKWiseSearcher,
    default_scheme,
    order_and_scheme,
)
from repro.corpus import Document, DocumentCollection
from repro.index.compact import CompactIntervalIndex, PackedRankDocs, _packed_column
from repro.ingest import IngestStore
from repro.ingest.tiered import Tier, TieredFingerprints, TieredIntervalIndex, TieredRankDocs
from repro.ordering import GlobalOrder
from repro.ordering.global_order import OOV_RANK, window_frequencies
from repro.params import max_prefix_length
from repro.partition.scheme import PartitionScheme
from repro.routing import FingerprintTier, fingerprints
from repro.routing.fingerprints import LANES
from repro.signatures.maintain import COUNTERS, SignatureStream
from repro.tokenize import Vocabulary

from .conftest import (
    PerTokenOrder,
    admitted_ranks,
    expected_pairs,
    pairs_as_set,
    per_document_window_frequencies,
    probe_runs,
    reference_index,
)

#: A universe past int16: its top ranks take an int32 rank column.
LARGE = 2**15 + 2_000
WIDTHS = (np.int8, np.int16, np.int32, np.int64)
#: The case field that shrinks each block constant.
CONSTANTS = {
    "bulk_cells": "repro.signatures.bulk._BLOCK_CELLS",
    "order_tokens": "repro.ordering.global_order._BLOCK_TOKENS",
    "chunk_tokens": "repro.routing.fingerprints._CHUNK_TOKENS",
    "chunk_blocks": "repro.routing.fingerprints._CHUNK_BLOCKS",
    "cover_cells": "repro.routing.fingerprints._BLOCK_CELLS",
    "column_start": "repro.ingest.memtable.COLUMN_START",
    "block_tokens": "repro.routing.fingerprints.BLOCK_TOKENS",
}


def per_rank_borders(params, relative, freq_low, freq_high):
    """``default_scheme``'s borders by walking the ranks' relative
    frequencies one at a time: what its one ``searchsorted`` is held to."""
    size, k_max = len(relative), params.k_max
    if k_max == 1 or size == 0:
        return ()
    borders, rank = [], 0
    for class_index in range(2, k_max + 1):
        fraction = 0.0 if k_max == 2 else (class_index - 2) / (k_max - 2)
        threshold = freq_low * (freq_high / freq_low) ** fraction
        while rank < size and relative[rank] < threshold:
            rank += 1
        borders.append(rank)
    return tuple(borders)


def reference_cover_lanes(ranks, block_len):
    """One document's ``cover_lanes`` rows by the layout's definition.

    Tumbling blocks of ``block_len`` tokens, each the OR of its tokens'
    lanes; a cover per pair of consecutive blocks, their OR; a document
    of one block keeps that block, an empty one has no row.
    """
    lanes = fingerprints._token_lanes(np.asarray(ranks, dtype=np.int64).view(np.uint64))
    blocks = [
        np.bitwise_or.reduce(lanes[start : start + block_len], axis=0)
        for start in range(0, len(lanes), block_len)
    ]
    if len(blocks) > 1:
        blocks = [left | right for left, right in zip(blocks, blocks[1:])]
    return np.array(blocks, dtype=np.uint64).reshape(-1, LANES)


def seam_case(**fields):
    """One case of :func:`cross_seams`.  The defaults cross every shrunk
    block bound, store the ranks at int8 and put global doc ids past
    int16; ``w`` defaults to Theorem 2's bound, so pairs are checked;
    ``borders=None`` draws them from the held ranks.  ``copies`` more
    documents repeat one ``w``-token text, so each of its signatures owns
    a run of at least that many postings, and a last one of ``flat``
    windows repeats one token, so one interval spans them all."""
    case = SimpleNamespace(
        tau=2, k_max=3, m=2, size=40, lengths=[0, 4, 22, 9, 13, 30], late=[8], oov=False,
        borders=None, seed=1, doc_lo=2**15 - 2, copies=0, flat=0,
        bulk_cells=40, order_tokens=25, chunk_tokens=25, chunk_blocks=3, cover_cells=100,
        column_start=8, block_tokens=5, bootstrap=2,
    )
    vars(case).update(fields)
    if "w" not in fields:
        case.w = max(case.tau + 1, max_prefix_length(case.tau, case.k_max, case.m))
    return case


@st.composite
def build_inputs(draw):
    """``(w, tau, k_max, m)``, ``w`` at Theorem 2's bound, above or below
    it (no pairs then), document lengths (below zero: 0, 1, ``w - 1``,
    ``w``, ``w + 1``), a vocabulary on either side of 128 tokens (int8
    ranks below), or past int16, runs and intervals of none or about 128
    postings and windows, the block constants, and a seed for the rest.
    The 20 draws reach the bulk kernel's open/close edges: a group whose
    ranks stay the same while the prefix length moves its cut (8 of
    them), a rank repeated inside one slice (17), and a class-1 run
    carried over a block seam to its document's end (15)."""
    k_max = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3)) if k_max > 1 else 1
    tau = draw(st.integers(0, 6))
    w = max(tau + 1, max_prefix_length(tau, k_max, m) + draw(st.integers(-3, 3)))
    edges = (0, 1, w - 1, w, w + 1)
    lengths = st.lists(st.integers(-5, 3 * w), min_size=1, max_size=6).map(
        lambda drawn: [edges[n] if n < 0 else n for n in drawn]
    )
    return seam_case(
        w=w, tau=tau, k_max=k_max, m=m, lengths=draw(lengths), late=draw(lengths)[:2],
        size=LARGE if draw(st.integers(0, 7)) == 3 else draw(st.integers(3, 140)),  # 1 in 8
        copies=draw(st.one_of(st.just(0), st.integers(120, 136))),
        flat=draw(st.one_of(st.just(0), st.integers(120, 136))),
        oov=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)),
        doc_lo=draw(st.sampled_from([0, 2**15 - 6, 2**15 - 2, 2**15, 40_000])),
        bootstrap=draw(st.integers(0, 6)),
        **{name: draw(st.integers(1, top))
           for name, top in zip(CONSTANTS, (32 * w, 120, 120, 12, 2048, 3 * w, 2 * w))},
    )


def widened(order, dtype):
    """A copy of ``order`` with each of its tables at least ``dtype``."""
    wide = copy.deepcopy(order)
    for name in ("_token_of_rank", "_rank_of_token"):
        column = getattr(order, name)
        setattr(wide, name, column.astype(np.promote_types(column.dtype, dtype)))
    return wide


def stored(columns):
    """Every column's dtype and bytes; integer columns must be narrowest."""
    for name, c in columns.items():
        assert c.dtype.kind != "i" or c.dtype == _packed_column(c.astype(np.int64)).dtype, name
    return {name: (c.dtype.str, c.tobytes()) for name, c in columns.items()}


def cross_seams(case):
    """Build ``case``'s corpus under its block constants and hold each
    kernel to its reference (numbered as the three in the module doc)."""
    w, tau, rng = case.w, case.tau, random.Random(case.seed)
    with ExitStack() as stack:
        for field, target in CONSTANTS.items():
            stack.enter_context(mock.patch(target, getattr(case, field)))
        # 2: window frequencies, the order by (frequency, name), the default
        # scheme at the default, descending and drawn thresholds.
        size = case.size
        vocabulary = Vocabulary(f"t{i}" for i in range(size))
        pool = vocabulary.decode(rng.sample(range(size - 1), min(size - 1, rng.randint(2, 39))))
        pool.append(f"t{size - 1}")  # the top id: past int16 in a large universe
        data = DocumentCollection(vocabulary=vocabulary)
        for length in case.lengths:
            data.add_tokens(rng.choices(pool, k=length))
        if case.copies:
            repeated = rng.choices(pool, k=w)
            for _ in range(case.copies):
                data.add_tokens(repeated)
        if case.flat:
            data.add_tokens([rng.choice(pool)] * (w - 1 + case.flat))
        freq = window_frequencies(data, w).tolist()
        assert freq == per_document_window_frequencies(data, w)
        order = GlobalOrder(data, w)
        ranked = order._token_of_rank
        keys = list(zip(np.array(freq)[ranked].tolist(), vocabulary.decode(ranked)))
        assert sorted(ranked) == list(range(size)) and keys == sorted(keys)
        windows = data.total_windows(w)
        relative = [freq[token] / windows if windows else 0.0 for token in ranked.tolist()]
        options = [*relative, DEFAULT_FREQ_LOW, DEFAULT_FREQ_HIGH, 0.3]
        drawn = rng.choice(options) or DEFAULT_FREQ_LOW, rng.choice(options)
        for low, high in [(DEFAULT_FREQ_LOW, DEFAULT_FREQ_HIGH), (0.3, 0.01), drawn]:
            want = per_rank_borders(case, relative, low, high)  # ints: repr tells numpy's apart
            assert repr(default_scheme(case, np.array(relative), low, high).borders) == repr(want)
        # 2: the one count gives that order and the default scheme; the
        # order keeps no frequency, so a reloaded copy holds what it holds.
        built, default = order_and_scheme(data, case)
        assert default == default_scheme(case, np.array(relative))
        (meta, columns), (built_meta, built_columns) = order.to_arrays(), built.to_arrays()
        assert meta == built_meta == {"w": case.w} and set(columns) == {"token_of_rank", "admitted"}
        assert all(np.array_equal(columns[name], built_columns[name]) for name in columns)
        assert vars(GlobalOrder.from_arrays(meta, columns)).keys() == vars(order).keys()
        # 2: later documents admit new words lazily, in one gather as one by one.
        reference = PerTokenOrder(order)
        for length in case.late:
            data.add_tokens(rng.choices(pool + ["new0", "new1", "new2"], k=length))
        rank_docs = order.rank_documents(data)
        assert list(rank_docs) == [reference.rank_sequence(document.tokens) for document in data]
        assert list(admitted_ranks(order).items()) == list(reference.extra_ranks.items())
        # 2: the order's tables at their width and every wider one rank
        # alike through each door, the OOV sentinel and ids past the
        # ranked ones among a query's tokens (OOV_RANK: a query admits
        # nothing), and every rank a Python int.
        fresh = range(len(vocabulary), len(vocabulary) + 3)  # never admitted
        pool = [-1, *rng.sample(range(size), min(size, 5)), *range(size, len(vocabulary)), *fresh]
        query = Document(-1, rng.choices(pool, k=rng.randint(0, 40)))
        documents = [*data, query]
        one_by_one = PerTokenOrder(order)
        want = [one_by_one.rank_sequence(d.tokens, admit=False) for d in documents]
        for dtype in WIDTHS[WIDTHS.index(order._token_of_rank.dtype.type):]:
            for door in (
                lambda wide: [*wide.rank_documents(data), wide.rank_document(query)],
                lambda wide: [wide.rank_sequence(d.tokens) for d in documents],
                lambda wide: [[r for t in d.tokens for r in wide.rank_sequence([t])] for d in documents],
            ):
                wide = widened(order, dtype)
                got = door(wide)
                assert got == want and {type(r) for ranks in got for r in ranks} <= {int}
                assert len(wide._rank_of_token) == len(order._rank_of_token)
                assert admitted_ranks(wide) == admitted_ranks(order)
        # 1 and 2: the build's columns and counters, and the covers, at the
        # rank column's width (OOV_RANK takes int64) and every wider one, and
        # one document at a time; borders on held ranks meet group starts.
        borders = case.borders
        if borders is None:
            held = sorted({0, order.universe_size, *np.maximum(rank_docs._values, 0).tolist()})
            held = held[: rng.randint(1, len(held))]  # [0]: non-partitioned k-wise
            borders = tuple(sorted(rng.choices(held, k=case.k_max - 1)))
        scheme = PartitionScheme(universe_size=order.universe_size, borders=borders, m=case.m)
        documents = [
            [OOV_RANK if case.oov and at % 7 == 0 else rank for at, rank in enumerate(ranks)]
            for ranks in rank_docs
        ]
        built = reference_index(SimpleNamespace(params=case, scheme=scheme, rank_docs=documents))
        meta, columns = CompactIntervalIndex.from_index(built).to_arrays()
        streamed = dict.fromkeys(COUNTERS, 0)
        for ranks in documents:
            stream = SignatureStream(ranks, w, tau, scheme)
            for _event in stream.events():
                pass
            for name in COUNTERS:
                streamed[name] += getattr(stream, name)
        covers = [reference_cover_lanes(ranks, max(case.block_tokens, w)) for ranks in documents]
        covers = (np.concatenate([np.zeros((0, LANES), np.uint64), *covers]).tobytes(),
                  [len(rows) for rows in covers])

        def cover_columns(tier):
            assert tier.cover_lanes.dtype == np.uint64
            return tier.cover_lanes.tobytes(), tier.cover_counts.tolist()

        packed = PackedRankDocs.from_lists(documents)
        for dtype in WIDTHS[WIDTHS.index(packed._values.dtype.type):]:
            column = PackedRankDocs(packed._offsets, packed._values.astype(dtype))
            index = CompactIntervalIndex.from_rank_docs(column, w, tau, scheme)
            assert index.build_stats == streamed
            assert index.to_arrays()[0] == meta and stored(index.to_arrays()[1]) == stored(columns)
            assert cover_columns(FingerprintTier.from_rank_docs(column, w=w)) == covers
        grown = FingerprintTier.concatenated([
            FingerprintTier.from_rank_docs(PackedRankDocs.from_lists([ranks]), w=w)
            for ranks in documents
        ])
        assert cover_columns(grown) == covers
        # 1: columns stored at any width probe alike, signs and all, at
        # int32 at least; so do they as one tier, and two merged, from doc_lo.
        signatures = list(built._postings)
        signs = [(-1) ** at for at in range(len(signatures))]
        batches = [CompactIntervalIndex.from_arrays(meta, scheme, {
            name: c if name == "keys" else c.astype(np.promote_types(c.dtype, dtype))
            for name, c in columns.items()
        }).probe_many(signatures, signs) for dtype in WIDTHS]
        assert all(min(b.docs.itemsize, b.us.itemsize, b.vs.itemsize) >= 4 for b in batches)
        runs = probe_runs(batches[0])
        assert runs == [list(built._postings[signature]) for signature in signatures]
        assert all(probe_runs(b) == runs for b in batches)
        assert all(b.signs.tolist() == batches[0].signs.tolist() for b in batches)
        n = len(documents)
        lo = case.doc_lo
        tiers = [Tier(lo + at, lo + at + n, 1, index, packed, "segment") for at in (0, n)]
        for kept in (tiers[1:], tiers):
            batch = TieredIntervalIndex(kept, w, tau, scheme).probe_many(signatures, signs)
            assert probe_runs(batch) == [
                [(tier.doc_lo + doc, u, v) for tier in kept for doc, u, v in run] for run in runs
            ]
        if w < max_prefix_length(tau, case.k_max, case.m):
            return
        # 3: pairs of the built engine, and routed, of its index as two
        # merged tiers from doc_lo on.
        params = SearchParams(w=w, tau=tau, k_max=case.k_max, m=case.m, routing="exact")
        engine = PKWiseSearcher(data, params, scheme=scheme, order=order)
        tiers = [Tier(lo + at, lo + at + n, 1, engine.index, engine.rank_docs, "segment") for at in (0, n)]
        tiered = PKWiseSearcher.from_prebuilt(
            params, order, scheme, TieredIntervalIndex(tiers, w, tau, scheme), TieredRankDocs(tiers)
        )
        tiered._routing_tier = TieredFingerprints(tiers, params)
        longest = max(data, key=len).tokens
        cut = vocabulary.decode(longest[len(longest) // 3:])
        cut[len(cut) // 2:len(cut) // 2 + 1] = ["unseen"]
        noise = rng.choices(pool + ["unseen"], k=rng.randint(0, 3 * w))
        for query in map(data.encode_query_tokens, (cut, noise)):
            want = expected_pairs(data, query, w, tau)
            assert pairs_as_set(engine.search(query, routing="off")) == want
            got = pairs_as_set(tiered.search(query, routing="exact"))
            assert got == {(lo + at + doc, *rest) for at in (0, n) for doc, *rest in want}
        # 3: the corpus through a live store whose rank column starts at
        # ``column_start`` tokens: the first ``bootstrap`` documents in one
        # block, the rest one add at a time across the column's growths, a
        # seal part-way (its column with room to spare), then a fold.
        texts = [vocabulary.decode(document.tokens) for document in data]
        first = min(case.bootstrap, len(texts))
        head = DocumentCollection()
        for tokens in texts[:first]:
            head.add_tokens(tokens)
        store = IngestStore.create(params, data=head)
        seal_at = rng.randint(first, len(texts))
        for at, tokens in enumerate(texts[first:], first):
            if at == seal_at:
                store._seal()
            store.add_tokens(tokens)
        for fold in (False, True):
            if fold:
                store.flush()
            for tokens in (cut, noise):
                query = store.data.encode_query_tokens(tokens)
                got = pairs_as_set(store.searcher().search(query))
                assert got == expected_pairs(store.data, query, w, tau)
        store.close()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(case=build_inputs())
def test_build_kernels_match_their_references(case):
    cross_seams(case)
