"""Tests for the batch-first probe path (``probe_many``/``ProbeBatch``).

Covers the vectorized FNV hasher against the scalar reference, the
dict/compact ``probe_many`` parity contract (hit-for-hit, repeated
probes included; forced collisions are ``test_compact.py``'s), the flat-column batch
protocol itself (``sig_counts`` slicing, empty and all-OOV batches,
tombstone filtering), and the searcher-level guarantees the batched
slide loop must preserve: pair parity with tombstones, pairs
independent of the prefetch chunk size, and a populated, reconciling
``SearchStats`` phase breakdown.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pkwise import PKWiseSearcher
from repro.index.intervals import ProbeBatch
from repro.signatures.generate import signature_hash, signature_hashes

from .conftest import pairs_as_set, probe_runs, reference_index
from .test_seams import cross_seams, seam_case


class TestSignatureHashes:
    def test_matches_scalar_reference(self):
        signatures = [
            (),
            (0,),
            (1, 2, 3),
            (2**40, 2**41),
            (-1,),          # OOV ranks hash via 64-bit two's complement
            (7, -3, 12),
            tuple(range(9)),
        ]
        vectorized = signature_hashes(signatures)
        assert vectorized.dtype == np.uint32
        assert vectorized.tolist() == [signature_hash(s) for s in signatures]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(tuple),
            max_size=30,
        )
    )
    def test_any_batch_matches_scalar_reference(self, signatures):
        # The scalar hash is called nowhere in src/: it is the reference
        # this kernel is held to, lazy / OOV (negative) ranks and the
        # empty tuple included — as tuples and as the corpus build's
        # padded rank matrix plus lengths.
        want = [signature_hash(s) for s in signatures]
        assert signature_hashes(signatures).tolist() == want
        width = max(map(len, signatures), default=0)
        matrix = np.full((len(signatures), width), 99, dtype=np.int64)
        for row, signature in zip(matrix, signatures):
            row[: len(signature)] = signature
        lengths = np.asarray([len(s) for s in signatures], dtype=np.int64)
        assert signature_hashes(matrix, lengths).tolist() == want

    def test_rank_matrix_width_is_invisible(self):
        # A named case of test_seams.cross_seams: the build hashes off its
        # rank table at int8, int16, int32 and int64 alike.
        cross_seams(seam_case())

    def test_empty_input(self):
        assert len(signature_hashes([])) == 0

    def test_mixed_lengths_keep_positions(self):
        # Length-grouped hashing must scatter results back in order.
        signatures = [(1,), (2, 3), (4,), (5, 6), (7, 8, 9)]
        assert signature_hashes(signatures).tolist() == [
            signature_hash(s) for s in signatures
        ]


def batch_rows(batch: ProbeBatch) -> list[tuple]:
    return [
        (doc, u, v, sign)
        for doc, u, v, sign in zip(
            batch.docs.tolist(), batch.us.tolist(),
            batch.vs.tolist(), batch.signs.tolist(),
        )
    ]


class TestProbeManyParity:
    def _indexes(self, searcher):
        return reference_index(searcher), searcher.index

    def test_dict_and_compact_agree(self, built):
        _data, searcher = built
        dict_index, compact_index = self._indexes(searcher)
        keys = list(dict_index._postings)
        oov = (10**9, 10**9 + 1)
        for batch_keys in (keys[:1], keys[:5], keys + [oov]):
            signs = [1 if i % 3 else -1 for i in range(len(batch_keys))]
            a = dict_index.probe_many(batch_keys, signs)
            b = compact_index.probe_many(batch_keys, signs)
            assert a.probed == b.probed == len(batch_keys)
            assert a.entries == b.entries > 0
            assert batch_rows(a) == batch_rows(b)
            assert a.sig_counts.tolist() == b.sig_counts.tolist()
            # A probe leaves nothing behind: asked again, the same rows.
            again = compact_index.probe_many(batch_keys, signs)
            assert batch_rows(again) == batch_rows(b)
            unsigned = compact_index.probe_many(batch_keys)
            assert batch_rows(unsigned) == batch_rows(dict_index.probe_many(batch_keys))
            assert unsigned.signs.tolist() == [1] * b.entries  # default sign is +1

    def test_sig_counts_slice_matches_scalar_probe(self, built):
        # The dict index's scalar ``probe`` is the reference postings
        # list; each signature's slice of the compact batch must be it.
        _data, searcher = built
        dict_index, compact_index = self._indexes(searcher)
        assert compact_index.num_postings == dict_index.num_postings
        keys = list(dict_index._postings)
        runs = probe_runs(compact_index.probe_many(keys))
        assert len(runs) == len(keys)
        for key, run in zip(keys, runs):
            assert run == [tuple(hit) for hit in dict_index.probe(key)]

class TestProbeBatchEdges:
    def test_empty_batch(self, built):
        _data, searcher = built
        for index in (reference_index(searcher), searcher.index):
            batch = index.probe_many(())
            assert batch.probed == 0 and batch.entries == 0
            assert len(batch) == 0
            assert batch.entry_bounds().tolist() == [0]

    def test_all_oov_batch(self, built):
        _data, searcher = built
        oov = [(10**8 + i, 10**8 + i + 1) for i in range(40)]
        for index in (reference_index(searcher), searcher.index):
            batch = index.probe_many(oov)
            assert batch.probed == len(oov)
            assert batch.entries == 0
            assert batch.sig_counts.tolist() == [0] * len(oov)

    def test_column_length_validation(self):
        column = np.zeros(3, dtype=np.int64)
        with pytest.raises(ValueError, match="columns differ"):
            ProbeBatch(column, column[:2], column, column.astype(np.int8),
                       np.asarray([3]), 1)
        with pytest.raises(ValueError, match="sig_counts"):
            ProbeBatch(column, column, column, column.astype(np.int8),
                       np.asarray([3]), 2)

    def test_without_docs_filters_and_recounts(self):
        batch = ProbeBatch.from_rows(
            docs=[0, 1, 1, 2],
            us=[0, 5, 9, 3],
            vs=[4, 8, 12, 6],
            signs=[1, 1, -1, 1],
            sig_counts=[2, 1, 0, 1],
        )
        filtered = batch.without_docs({1})
        assert filtered.docs.tolist() == [0, 2]
        assert filtered.signs.tolist() == [1, 1]
        assert filtered.probed == batch.probed
        # Per-signature counts re-derived so slicing keeps working:
        # signature 0 loses its second hit (doc 1), signature 1's only
        # hit (doc 1, the closing -1) disappears too.
        assert filtered.sig_counts.tolist() == [1, 0, 0, 1]

    def test_without_docs_no_match_returns_self(self):
        batch = ProbeBatch.from_rows([0], [1], [2], [1], [1])
        assert batch.without_docs({99}) is batch
        assert batch.without_docs(set()) is batch


    def test_where_docs_keeps_ids_beyond_the_mask(self):
        batch = ProbeBatch.from_rows(
            docs=[0, 1, 1, 2],
            us=[0, 5, 9, 3],
            vs=[4, 8, 12, 6],
            signs=[1, 1, -1, 1],
            sig_counts=[2, 1, 0, 1],
        )
        filtered = batch.where_docs(np.asarray([True, False]))
        assert filtered.docs.tolist() == [0, 2]  # 2 was never fingerprinted
        assert filtered.sig_counts.tolist() == [1, 0, 0, 1]
        assert batch.where_docs(np.asarray([True, True])) is batch
        # A mask over no document at all prunes none (IndexError once).
        assert batch.where_docs(np.zeros(0, dtype=bool)) is batch


class TestSearcherLevelBatching:
    def test_stats_populated_and_reconcile(self, built, queries):
        _data, searcher = built
        result = searcher.search(queries[0])
        stats = result.stats
        assert stats.probe_batches >= 1
        assert stats.probe_signatures >= stats.probe_batches
        assert stats.postings_entries > 0
        assert stats.signature_time > 0
        assert stats.candidate_time > 0
        assert stats.verify_time > 0
        # The registry roundtrip must carry the new counters.
        back = type(stats).from_registry(stats.to_registry())
        assert back.probe_batches == stats.probe_batches
        assert back.probe_signatures == stats.probe_signatures

    def test_chunk_boundary_parity(self, built, queries, monkeypatch):
        # Results must not depend on the prefetch chunk size.
        _data, searcher = built
        expected = [pairs_as_set(searcher.search(q)) for q in queries]
        for chunk in (1, 3, 1000):
            monkeypatch.setattr(PKWiseSearcher, "_PROBE_CHUNK_EVENTS", chunk)
            got = [pairs_as_set(searcher.search(q)) for q in queries]
            assert got == expected, f"pairs drifted at chunk size {chunk}"
