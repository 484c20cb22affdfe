"""Tests for the fingerprint routing tier (:mod:`repro.routing`).

The contract under test:

* **Conservativeness** — ``exact`` mode never changes results: every
  routing cell of ``test_exactness.py`` (serial, pooled, sharded, live,
  per request) returns the reference pairs; here, only inputs at the
  edge of the budget derivation.
* **Producer** — :meth:`FingerprintTier.from_rank_docs` writes, byte
  for byte, the covers of the layout's definition at
  ``max(BLOCK_TOKENS, w)``, whatever the rank column's width and
  wherever its chunk seams fall: ``test_seams.py`` holds it to
  ``reference_cover_lanes``, here at named cases.
* **Survivors** — the fingerprint tier keeps every document with a true
  match and prunes documents that share no token with the query.  The
  whole-array kernel returns, bit for bit, the mask of the per-window
  loop kept here as :func:`reference_survivors`, and its working memory
  does not grow with the query.
* **API surface** — :class:`~repro.RoutingPolicy` is a frozen kw-only
  dataclass of one mode that normalizes from strings/dicts and rides on
  :class:`~repro.SearchParams`.  No file stores covers: every mmap cell
  of ``test_exactness.py`` saves with routing off and routes from
  ``Index.open`` or per query.  Here, that a file holding an older
  writer's covers routes as if it held none, and that each document is
  fingerprinted once per process.
* **Observability** — the ``routing.*`` counters report checked and
  pruned documents (merged across workers in the pooled cells).
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
import urllib.request
import zlib

import numpy as np
import pytest

from repro import ConfigurationError, Index, RoutingPolicy, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.index.compact import PackedRankDocs
from repro.ingest import store as ingest_store
from repro.persistence import read_envelope, write_envelope
from repro.routing import ROUTING_MODES, FingerprintTier, fingerprints
from repro.routing.fingerprints import FINGERPRINT_BITS, missing_bit_budget
from repro.service import SearchService, serve_http

from .conftest import expected_pairs, make_corpus, make_queries, pairs_as_set, serving
from .test_seams import cross_seams, seam_case


def reference_survivors(tier, query_ranks, *, w, tau):
    """:meth:`FingerprintTier.survivors` one tested window at a time.

    Each window is OR-reduced from its own tokens and tested against
    every cover separately; the kernel must return this mask bit for bit.
    """
    u = np.asarray(query_ranks, dtype=np.int64).astype(np.uint64)
    n = len(u)
    budget = missing_bit_budget(tau)
    if tier.ndocs == 0 or n < w or budget >= FINGERPRINT_BITS:
        return None
    last = n - w
    positions = list(range(0, last + 1, tau + 1))
    if positions[-1] != last:
        positions.append(last)
    token_lanes = fingerprints._token_lanes(u)
    inverted = ~tier.cover_lanes
    cover_ok = np.zeros(len(inverted), dtype=bool)
    for start in positions:
        window = np.bitwise_or.reduce(token_lanes[start : start + w], axis=0)
        missing = np.bitwise_count(window[None, :] & inverted).sum(axis=1)
        cover_ok |= missing <= budget
    return np.bincount(tier.doc_of_cover, weights=cover_ok, minlength=tier.ndocs) > 0


def assert_same_mask(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------------------------------
class TestRoutingPolicy:
    def test_round_trips_through_dict(self):
        # One frozen, keyword-only field, however it is spelt; it rides
        # on SearchParams, whose repr keys the service cache.
        assert RoutingPolicy.from_dict(None) == RoutingPolicy()
        assert not RoutingPolicy().enabled and RoutingPolicy().mode == "off"
        policy = RoutingPolicy(mode="exact")
        assert policy.enabled and policy.to_dict() == {"mode": "exact"}
        for spelt in ("exact", {"mode": "exact"}, policy.to_dict()):
            assert RoutingPolicy.from_dict(spelt) == policy
        assert RoutingPolicy.from_dict(policy) is policy
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.mode = "off"  # type: ignore[misc]
        with pytest.raises(TypeError):
            RoutingPolicy("exact")  # positional rejected
        params = SearchParams(w=8, tau=2, k_max=2).with_routing("exact")
        assert params.routing == policy and "exact" in repr(params)

    def test_validation_errors_are_typed(self):
        # The lossy mode, its knobs and the block length are gone, not
        # aliased.
        assert ROUTING_MODES == ("off", "exact")
        with pytest.raises(ConfigurationError):
            RoutingPolicy(mode="approx")
        for removed in (
            "fuzzy",
            3.14,
            "approx",
            {"mode": "exact", "bands": 2},
            {"hamming_budget": 3},
            {"mode": "exact", "block_tokens": 64},
        ):
            with pytest.raises(ConfigurationError):
                RoutingPolicy.from_dict(removed)


# ----------------------------------------------------------------------
class TestFingerprintTier:
    PARAMS = SearchParams(w=8, tau=2, k_max=2)

    @pytest.fixture(autouse=True)
    def blocks_of_16(self, monkeypatch):
        monkeypatch.setattr(fingerprints, "BLOCK_TOKENS", 16)

    def _tier_and_corpus(self, seed=0):
        data, rng = make_corpus(seed)
        searcher = PKWiseSearcher(data, self.PARAMS)
        rank_docs = searcher.rank_docs
        tier = FingerprintTier.from_rank_docs(rank_docs, w=self.PARAMS.w)
        return data, searcher, rank_docs, tier

    def test_survivors_keep_every_true_match(self):
        data, searcher, rank_docs, tier = self._tier_and_corpus()
        query = data.encode_query_tokens(
            data.vocabulary.decode(data[0].tokens[8:38])
        )
        ranks = searcher.order.rank_document(query)
        mask = tier.survivors(ranks, w=self.PARAMS.w, tau=self.PARAMS.tau)
        matched_docs = {pair.doc_id for pair in searcher.search(query).pairs}
        assert matched_docs  # the planted copy matches
        for doc_id in matched_docs:
            assert mask is None or mask[doc_id]

    def test_survivors_prune_unrelated_docs(self):
        data, searcher, rank_docs, tier = self._tier_and_corpus()
        # A query over a disjoint token universe shares no fingerprint
        # bits with any document: everything must be pruned.
        # (crc32, not hash(): str hashes change per process, and about one
        # seed in forty collides with a document's cover.)
        alien = [zlib.crc32(f"alien{i}".encode()) % (2**31) for i in range(30)]
        mask = tier.survivors(alien, w=self.PARAMS.w, tau=self.PARAMS.tau)
        assert mask is not None
        assert not mask.any()

    def test_survivors_none_when_unprunable(self):
        empty = FingerprintTier.from_rank_docs(PackedRankDocs.from_lists([]), w=8)
        assert empty.survivors([1, 2, 3], w=8, tau=2) is None
        data, searcher, rank_docs, tier = self._tier_and_corpus()
        # Query shorter than w: no window to fingerprint.
        assert tier.survivors([1, 2], w=8, tau=2) is None
        # A 2 * tau budget at/above the width can never prune.
        assert (
            tier.survivors(
                list(range(FINGERPRINT_BITS + 30)),
                w=FINGERPRINT_BITS,
                tau=FINGERPRINT_BITS // 2,
            )
            is None
        )

    def test_covers_are_width_invariant(self):
        # A named case of test_seams.cross_seams: covers at every width.
        cross_seams(seam_case(block_tokens=16, late=[12, 30]))

    def test_exact_budget_derivation(self):
        assert missing_bit_budget(0) == 0
        assert missing_bit_budget(3) == 6


# ----------------------------------------------------------------------
class TestFingerprintProducer:
    """:meth:`FingerprintTier.from_rank_docs` at its edges and chunk
    seams: named cases of ``test_seams.cross_seams``, which holds its
    covers, at every width and grown a document at a time, to the
    definition."""

    @pytest.mark.parametrize("w, block_len", [(8, 16), (16, 16), (1, 1), (5, 7)])
    def test_edge_lengths_and_column_widths(self, w, block_len):
        # Empty documents, shorter than w, and multiples of block_len.
        lengths = [0, 1, w - 1, block_len, 2 * block_len, 3 * block_len,
                   block_len + 1, 0, 5 * block_len - 1]
        cross_seams(seam_case(w=w, tau=min(2, w - 1), lengths=lengths, block_tokens=block_len))

    def test_oov_sentinel_and_admitted_ranks(self):
        cross_seams(seam_case(oov=True, late=[12, 30]))

    def test_documents_straddle_the_chunk_bounds(self):
        # A document longer than a chunk in tokens and in blocks, empty
        # and one-block documents between them.
        cross_seams(seam_case(lengths=[0, 4, 90, 1, 0, 17, 40], chunk_tokens=30, chunk_blocks=3))


# ----------------------------------------------------------------------
class TestSurvivorKernel:
    """The whole-array kernel equals :func:`reference_survivors`."""

    # (w, tau, block_len): w = 1, w not a power of two, w == block_len,
    # tau = w - 1.
    LAYOUTS = [(1, 0, 16), (7, 2, 16), (8, 2, 8), (12, 3, 16), (16, 5, 16), (8, 7, 16)]

    @staticmethod
    def _rank_docs(seed, w):
        """A ``make_corpus`` collection's rank sequences with an empty
        and a shorter-than-``w`` document spliced in."""
        data, rng = make_corpus(seed, docs=8)
        searcher = PKWiseSearcher(data, SearchParams(w=8, tau=2, k_max=2))
        docs = [list(searcher.rank_docs[i]) for i in range(len(data))]
        return docs[:2] + [[]] + [docs[2][: w - 1]] + docs[2:], rng

    @staticmethod
    def _queries(docs, rng, w, tau):
        """Queries of ``w``, ``w + 1`` and ``w + tau + 1`` tokens, one
        whose last start is off the stride, cut from document 0 and
        drawn at random (negative OOV ranks included)."""
        stride = tau + 1
        lengths = [w, w + 1, w + tau + 1, w + 2 * stride + 1, 40]
        queries = []
        for length in lengths:
            queries.append(docs[0][5 : 5 + length])
            queries.append([rng.randrange(-1, 45) for _ in range(length)])
        return queries

    @pytest.mark.parametrize("cells", [None, 1, 200], ids=["default", "cells1", "cells200"])
    @pytest.mark.parametrize("w, tau, block_len", LAYOUTS)
    def test_matches_reference_loop(self, monkeypatch, w, tau, block_len, cells):
        # Small cell counts cut every query into many position blocks.
        if cells is not None:
            monkeypatch.setattr(fingerprints, "_BLOCK_CELLS", cells)
        kept = pruned = 0
        monkeypatch.setattr(fingerprints, "BLOCK_TOKENS", block_len)
        for seed in range(3):
            docs, rng = self._rank_docs(seed, w)
            tier = FingerprintTier.from_rank_docs(PackedRankDocs.from_lists(docs), w=w)
            has_covers = tier.cover_counts > 0
            for query in self._queries(docs, rng, w, tau):
                want = reference_survivors(tier, query, w=w, tau=tau)
                assert_same_mask(tier.survivors(query, w=w, tau=tau), want)
                kept += int(want.sum())
                pruned += int((has_covers & ~want).sum())
        # Some fingerprinted document survives, and some is pruned unless
        # the budget covers a whole window (a w-window sets <= w bits).
        assert kept and (pruned or 2 * tau >= w)

    def test_long_query_spans_several_blocks(self, monkeypatch):
        # ~18k covers: a block at the default cell count holds ~57 of the
        # query's ~300 tested positions.
        monkeypatch.setattr(fingerprints, "BLOCK_TOKENS", 8)
        rng = np.random.default_rng(0)
        docs = [rng.integers(0, 5000, 80).tolist() for _ in range(2000)]
        tier = FingerprintTier.from_rank_docs(PackedRankDocs.from_lists(docs), w=8)
        query = docs[7][:40] + rng.integers(0, 5000, 860).tolist()
        ncovers = len(tier.cover_lanes)
        assert -(-(len(query) - 8) // 3) + 1 > 4 * (fingerprints._BLOCK_CELLS // ncovers)
        want = reference_survivors(tier, query, w=8, tau=2)
        assert want[7] and not want.all()
        assert_same_mask(tier.survivors(query, w=8, tau=2), want)

    def test_live_view_matches_reference(self):
        # A TieredFingerprints view over a segment and the memtable
        # equals one flat tier over the same documents, before and after
        # the memtable's fingerprints grow by one more add.
        params = SearchParams(w=8, tau=2, k_max=2)
        data, rng = make_corpus(11, docs=9)
        texts = [" ".join(data.vocabulary.decode(doc.tokens)) for doc in data]
        index = Index.open_live(params=params, routing="exact")
        for text in texts[:5]:
            index.add(text)
        index.flush()
        searcher = index.searcher()
        queries = make_queries(data, rng, count=4)
        for more in (texts[5:], texts[:1]):
            for text in more:
                index.add(text)
            view = searcher.routing_fingerprints()
            flat = FingerprintTier.from_rank_docs(
                PackedRankDocs.from_lists(searcher.rank_docs), w=params.w
            )
            for query in queries:
                ranks = searcher.order.rank_document(query)
                want = reference_survivors(flat, ranks, w=params.w, tau=params.tau)
                assert_same_mask(view.survivors(ranks, w=params.w, tau=params.tau), want)
        index.close()

    def test_working_memory_is_bounded_for_a_long_query(self, monkeypatch):
        # A million-token query.  Only the uint64 copy of the input may
        # grow with the query; the rest is one block of at most
        # _BLOCK_CELLS cells, whose span table peaks at 16 MiB while it
        # doubles.  Token lanes for the whole query alone are 64 MB.
        monkeypatch.setattr(fingerprints, "BLOCK_TOKENS", 16)
        _, _, rank_docs, tier = TestFingerprintTier()._tier_and_corpus()
        query = np.random.default_rng(0).integers(0, 45, 1_000_000).tolist()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mask = tier.survivors(query, w=8, tau=2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert mask is not None and mask.any()
        assert peak < 8 * len(query) + 24 * 2**20, peak


# ----------------------------------------------------------------------
class TestExactRoutingIdentity:
    """Exact routing's counters.  Its pairs equal off's in every routing
    cell of ``test_exactness.py``, per request and live ones included."""

    def test_routing_counters_report_pruning(self):
        data, rng = make_corpus(4)
        routed = PKWiseSearcher(data, SearchParams(w=8, tau=2, k_max=2, routing="exact"))
        query = make_queries(data, rng, count=2)[1]  # random: prunable
        result = routed.search(query)
        stats = result.stats
        assert stats.routing_checked_docs == len(data)
        assert 0 <= stats.routing_pruned_docs <= stats.routing_checked_docs
        assert stats.phase_seconds()["routing"] >= 0.0


# ----------------------------------------------------------------------
class TestHostileInputAtTheRoutingDoor:
    """Inputs at the edge of the budget derivation, through
    ``Index.search_text``: routed replies are the reference pairs."""

    @pytest.mark.parametrize(
        "tau, kind",
        [(2, "all-oov"), (7, "all-oov"), (7, "reuse"), (7, "oov-mixed")],
        ids=["all-oov", "all-oov-tau-w-1", "reuse-tau-w-1", "oov-mixed-tau-w-1"],
    )
    def test_routed_equals_reference(self, tau, kind):
        params = SearchParams(w=8, tau=tau, k_max=1)
        data, rng = make_corpus(12)
        texts = [" ".join(data.vocabulary.decode(doc.tokens)) for doc in data]
        index = Index.build(texts, params, routing="exact")
        words = data.vocabulary.decode(data[0].tokens[8:38])
        if kind == "all-oov":
            words = [f"unseen{i}" for i in range(30)]
        elif kind == "oov-mixed":
            words = [f"unseen{i}" if i % 3 == 0 else word for i, word in enumerate(words)]
        text = " ".join(words)
        want = expected_pairs(index.data, index.encode_query(text), params.w, tau)
        assert bool(want) == (kind != "all-oov")
        routed = index.search_text(text)
        assert routed.stats.routing_checked_docs == len(data)
        assert pairs_as_set(routed) == want
        assert pairs_as_set(index.search_text(text, routing="off")) == want


# ----------------------------------------------------------------------
class TestRoutingPersistence:
    """No file stores covers: each process fingerprints a document once,
    at the first routed query that reaches it, and ignores the covers an
    older writer left in a file."""

    PARAMS = SearchParams(w=8, tau=2, k_max=2)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_2_5_layout_snapshot_opens_unchanged(self, tmp_path, monkeypatch, mmap):
        # What 4.2.0 wrote beside the rank column: covers in
        # ``routing.cover_lanes`` / ``.cover_counts`` and a ``meta.routing``
        # key (2.5 also a MinHash column and a ``bands`` key, 3.5.0 covers
        # of 64-token blocks).  No reader reads them: zeroed covers, which
        # pruned every document while they were trusted, and covers of
        # 64-token blocks both route to the oracle's pairs.
        data, _rng = make_corpus(8, length=200)
        texts = [" ".join(data.vocabulary.decode(doc.tokens)) for doc in data]
        index = Index.build(texts, self.PARAMS, routing="exact")
        query_text = " ".join(data.vocabulary.decode(data[0].tokens[8:38]))
        want = expected_pairs(index.data, index.encode_query(query_text), 8, 2)
        assert want
        current = tmp_path / "routed.pkz"
        index.save(current)
        header, sections, arrays = read_envelope(current, "pkwise-index")
        with monkeypatch.context() as patch:
            patch.setattr(fingerprints, "BLOCK_TOKENS", 64)
            at_64 = FingerprintTier.from_rank_docs(index.searcher().rank_docs, w=8)
        for name, lanes in (("zeroed", np.zeros_like(at_64.cover_lanes)), ("64", at_64.cover_lanes)):
            arrays.update({
                "routing.cover_lanes": lanes,
                "routing.cover_counts": at_64.cover_counts,
                "routing.band_minima": np.zeros((len(lanes), 4), dtype=np.uint64),
            })
            sections["meta"]["routing"] = {"bands": 4}
            legacy = tmp_path / f"routed-{name}.pkz"
            write_envelope(legacy, "pkwise-index", sections, arrays, header=header)
            loaded = Index.open(legacy, mmap=mmap)
            routed = loaded.search_text(query_text)
            assert routed.stats.routing_checked_docs == len(loaded.data)
            assert pairs_as_set(routed) == want, name
            # Writes layer a memtable over them, routed alike.
            for text in (query_text, " ".join(reversed(query_text.split()))):
                doc_id = loaded.add(text)
                added = expected_pairs(loaded.data, loaded.encode_query(text), 8, 2)
                assert doc_id in {pair[0] for pair in added}
                assert pairs_as_set(loaded.search_text(text)) == added
            loaded.close()

    @pytest.fixture
    def fingerprinted(self, monkeypatch):
        """The documents passing through from_rank_docs, which makes every
        cover, one entry each."""
        fingerprinted = []
        real = FingerprintTier.from_rank_docs.__func__

        def counted(cls, rank_docs, *, w):
            fingerprinted.extend([1] * len(rank_docs))
            return real(cls, rank_docs, w=w)

        monkeypatch.setattr(FingerprintTier, "from_rank_docs", classmethod(counted))
        return fingerprinted

    @staticmethod
    def routes_exactly(index, query, removed=()):
        want = expected_pairs(index.data, index.encode_query(query), 8, 2, removed=removed)
        assert want and pairs_as_set(index.search_text(query)) == want

    def _fold_twice(self, directory, fingerprinted, monkeypatch):
        """A live store of 20 documents: 4 flushed, then 16 adds, each
        asked for by a routed query, sealed 8 at a time by auto-flush.
        Returns the index and the last query."""
        monkeypatch.setattr(ingest_store, "MEMTABLE_MAX_DOCS", 8)
        data, _rng = make_corpus(12, docs=4 + 16, length=40, vocab=400)
        texts = [" ".join(data.vocabulary.decode(doc.tokens)) for doc in data]
        index = Index.open_live(directory, self.PARAMS, routing="exact")
        for text in texts[:4]:
            index.add(text)
        index.flush()
        assert fingerprinted == []  # a flush fingerprints nothing
        for text in texts[4:]:
            index.add(text)  # every 8th seals the memtable: a fold
            query = " ".join(text.split()[5:35])
            self.routes_exactly(index, query)
        assert index._store.num_segments == 3 and index._store.memtable_docs == 0
        return index, query

    def test_segment_fingerprints_are_stored_and_reused(
        self, tmp_path, monkeypatch, fingerprinted
    ):
        # Stored in memory only: a reopened store, whose files hold no
        # covers, fingerprints each of its documents again at its first
        # routed query, and reuses them from then on.
        index, query = self._fold_twice(tmp_path / "store", fingerprinted, monkeypatch)
        total = len(index.data)
        index.close()
        del fingerprinted[:]
        reopened = Index.open_live(tmp_path / "store", routing="exact")
        assert fingerprinted == []
        for _ in range(2):
            self.routes_exactly(reopened, query)
            assert len(fingerprinted) == total
        reopened.close()

    def test_a_fold_joins_the_tiers_fingerprints(self, tmp_path, monkeypatch, fingerprinted):
        # Each document is fingerprinted once, by the query after its add:
        # a fold joins its tiers' covers onto the new segment, and
        # fingerprinting that segment again would count its documents
        # twice.  A compaction that purges a document builds its
        # segment's again, from the rank column.
        index, query = self._fold_twice(tmp_path / "store", fingerprinted, monkeypatch)
        total = len(index.data)
        assert len(fingerprinted) == total
        index.remove(5)
        index.compact()
        self.routes_exactly(index, query, removed={5})
        assert len(fingerprinted) == 2 * total
        index.close()

# ----------------------------------------------------------------------
class TestRoutingService:
    PARAMS = SearchParams(w=8, tau=2, k_max=2)

    def _service(self):
        data, rng = make_corpus(9)
        searcher = PKWiseSearcher(data, self.PARAMS.with_routing("exact"))
        return SearchService(Index(searcher, data)), data, rng

    def test_cache_is_keyed_per_policy(self):
        service, data, rng = self._service()
        query = make_queries(data, rng, count=1)[0]
        # An override is keyed by its mode, however it is spelt.
        first = service.search(query, routing={"mode": "exact"})
        second = service.search(query, routing="exact")
        third = service.search(query, routing=RoutingPolicy(mode="exact"))
        crossed = service.search(query, routing="off")
        assert not first.cached
        assert second.cached and third.cached
        assert not crossed.cached  # a different mode is a different key
        assert pairs_as_set(first) == pairs_as_set(second) == pairs_as_set(crossed)
        service.close()

    def test_http_routing_body(self):
        service, data, rng = self._service()
        query_text = " ".join(data.vocabulary.decode(data[0].tokens[8:38]))
        with service, serving(serve_http(service, port=0)) as httpd:
            def post(payload):
                request = urllib.request.Request(
                    f"{httpd.url}/search",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request) as reply:
                        return reply.status, json.loads(reply.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read())

            status, routed = post({"text": query_text, "routing": "exact"})
            assert status == 200
            status, off = post({"text": query_text, "routing": {"mode": "off"}})
            assert status == 200
            assert routed["pairs"] == off["pairs"]
            for removed in (
                "fuzzy",
                "approx",
                {"mode": "exact", "bands": 2},
                {"hamming_budget": 3},
                {"mode": "exact", "block_tokens": 64},
            ):
                status, error = post({"text": query_text, "routing": removed})
                assert status == 400 and "routing" in error["error"]
            status, again = post({"text": query_text, "routing": "exact"})
            assert status == 200 and again["pairs"] == routed["pairs"]
