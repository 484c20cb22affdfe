"""Tests for the one checksummed envelope and the snapshots built on it.

Every guarantee is pinned against the single on-disk layout: index
snapshots first, then once each for the two other envelope kinds (a
run checkpoint and an ingest ``MANIFEST``).
"""

from __future__ import annotations

import pickle
import random
import re
import signal
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Index,
    PersistenceError,
    SearchParams,
    faults,
    make_profile_collection,
    persistence,
)
from repro.core.pkwise import PKWiseSearcher
from repro.core.weighted import WeightedPKWiseSearcher
from repro.corpus import DocumentCollection
from repro.corpus.collection import ColumnDocuments
from repro.faults import FaultPlan, FaultSpec
from repro.index.compact import CompactIntervalIndex, PackedRankDocs
from repro.ingest import IngestStore
from repro.ingest.manifest import (
    _OLDER_STORES,
    MANIFEST_KIND,
    ManifestState,
    manifest_path,
    read_manifest,
    write_manifest,
)
from repro.parallel.checkpoint import WORKLOAD_KIND, RunCheckpoint
from repro.persistence import (
    is_current_envelope,
    load_bundle,
    read_envelope,
    rotated_paths,
    save_searcher,
    write_envelope,
)
from repro.service import ShardPlan
from repro.tokenize import WhitespaceTokenizer

from .conftest import expected_pairs, load_script, pairs_as_set, reference_index

MAGIC = b"repro-envelope-4"
#: The magic of repro 2.0–4.1, whose TOC was a pickle.
OLD_MAGIC = b"repro-envelope-3"


def corrupt_plan(point: str, section: str) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(point=point, kind="corrupt", match={"section": section})]
    )


class TestRoundtrip:
    def test_bundle_with_data(self, built, tmp_path):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data)
        bundle = load_bundle(path)
        assert len(bundle.data) == len(data)
        assert bundle.data[0].tokens == data[0].tokens
        assert pairs_as_set(bundle.searcher.search(data[3])) == pairs_as_set(
            searcher.search(data[3])
        )
        assert bundle.path == path and bundle.load_seconds > 0

    def test_bundle_without_data(self, built, tmp_path):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        bundle = load_bundle(path)
        assert bundle.data is None
        assert pairs_as_set(bundle.searcher.search(data[3])) == pairs_as_set(
            searcher.search(data[3])
        )

    def test_params_preserved(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        loaded = load_bundle(path).searcher
        assert loaded.params == searcher.params
        assert loaded.scheme.borders == searcher.scheme.borders
        # The header carries the params readable without any section.
        header, _sections, _arrays = read_envelope(path, "pkwise-index")
        assert header["params"] == {
            "w": 10, "tau": 2, "k_max": 3, "m": searcher.params.m,
        }

    def test_2_0_0_snapshot_with_hashed_key_still_opens(self, built, tmp_path):
        # 2.0.0 wrote ``"hashed": false`` into the index meta; 2.1 drops
        # the key on write and ignores it on read — same format.
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data)
        header, sections, arrays = read_envelope(path, "pkwise-index")
        assert "hashed" not in sections["meta"]["index"]
        sections["meta"]["index"]["hashed"] = False
        write_envelope(path, "pkwise-index", sections, arrays, header)
        with Index.open(path, mmap=True) as index:
            for query in (data[0], data[3]):
                assert pairs_as_set(index.search(query)) == expected_pairs(
                    data, query, 10, 2
                )

    def test_tombstones_and_epoch_survive(self, built, queries, tmp_path):
        _data, searcher = built
        searcher._remove_document(0)
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        loaded = load_bundle(path, mmap=True).searcher
        assert loaded.removed_documents == frozenset({0})
        assert loaded.index_epoch == searcher.index_epoch > 0
        assert not any(pair.doc_id == 0 for pair in loaded.search(queries[1]).pairs)

    def test_saving_a_frozen_searcher_writes_the_same_bytes(self, built, tmp_path):
        # The build's array pass, the streamed dict reference frozen by
        # from_index, and the snapshot re-saved: one file.
        _data, searcher = built
        streamed = PKWiseSearcher.from_prebuilt(
            searcher.params, searcher.order, searcher.scheme,
            CompactIntervalIndex.from_index(reference_index(searcher)),
            PackedRankDocs.from_lists(list(searcher.rank_docs)),
            searcher.index_build_seconds,
        )
        save_searcher(searcher, tmp_path / "a.idx")
        save_searcher(streamed, tmp_path / "b.idx")
        save_searcher(load_bundle(tmp_path / "a.idx").searcher, tmp_path / "c.idx")
        written = {(tmp_path / name).read_bytes() for name in ("a.idx", "b.idx", "c.idx")}
        assert len(written) == 1

    def test_weighted_searcher_is_a_typed_error(self, small_corpus, tmp_path):
        weighted = WeightedPKWiseSearcher(
            small_corpus, w=10, theta_weight=8.0, weight_of_token=lambda _t: 1.0
        )
        path = tmp_path / "weighted.idx"
        with pytest.raises(PersistenceError, match="PKWiseSearcher"):
            save_searcher(weighted, path, rotate=1)
        assert not path.exists()

    def test_atomic_write_leaves_no_temp(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.idx"]

    def test_failing_dump_cleans_temp_and_keeps_old_file(self, built, tmp_path):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        good_bytes = path.read_bytes()

        class Unstorable(WhitespaceTokenizer):
            def to_dict(self):
                raise RuntimeError("simulated dump failure")

        broken = data.subset(range(len(data)))
        broken.tokenizer = Unstorable()  # stored with the data header
        with pytest.raises(RuntimeError, match="simulated dump failure"):
            save_searcher(searcher, path, data=broken)
        assert not list(tmp_path.glob("*.tmp"))
        # The previous index file survives a failed overwrite untouched.
        assert path.read_bytes() == good_bytes
        assert load_bundle(path).searcher.params == searcher.params

    def test_concurrent_writers_use_distinct_temp_names(
        self, built, tmp_path, monkeypatch
    ):
        # Regression: the fixed ``path + .tmp`` name raced concurrent
        # writers; mkstemp must produce a fresh name per call even with
        # a writer's temp file already sitting in the directory.
        import repro.persistence as persistence

        _data, searcher = built
        path = tmp_path / "index.idx"
        seen = []
        original = persistence.tempfile.mkstemp

        def recording_mkstemp(*args, **kwargs):
            fd, name = original(*args, **kwargs)
            seen.append(name)
            return fd, name

        monkeypatch.setattr(persistence.tempfile, "mkstemp", recording_mkstemp)
        save_searcher(searcher, path)
        save_searcher(searcher, path)
        assert len(seen) == 2
        assert seen[0] != seen[1]
        for name in seen:
            assert name.endswith(".tmp")
            assert Path(name).parent == tmp_path


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="does not exist"):
            load_bundle(tmp_path / "nope.idx")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"not an envelope at all")
        with pytest.raises(PersistenceError, match="rebuild"):
            load_bundle(path)

    def test_malformed_toc(self, tmp_path):
        path = tmp_path / "torn.idx"
        path.write_bytes(MAGIC + (5).to_bytes(8, "little") + b"\x80nope")
        with pytest.raises(PersistenceError, match="malformed TOC"):
            load_bundle(path)

    def test_non_searcher_payload(self, tmp_path):
        path = tmp_path / "odd.idx"
        write_envelope(path, "pkwise-index", {"searcher": 42})
        with pytest.raises(PersistenceError, match="compact searcher"):
            load_bundle(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "partial.idx"
        write_envelope(path, "pkwise-index", {"meta": {"params": None}})
        with pytest.raises(PersistenceError, match="missing section"):
            load_bundle(path)

    def test_index_save_compact_false_names_the_removal(self, built, tmp_path):
        from repro import ConfigurationError, Index

        data, searcher = built
        index = Index(searcher, data)
        with pytest.raises(ConfigurationError, match="removed in 2.0"):
            index.save(tmp_path / "index.idx", compact=False)
        assert not (tmp_path / "index.idx").exists()


class TestChecksums:
    """A flipped payload byte is a typed error, never a pickle error."""

    def test_corrupt_section_named_in_error(self, built, tmp_path):
        # Corrupt one pickled section's bytes as they are read, exactly
        # as a disk fault would, via the persistence.read hook.
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        faults.install_plan(corrupt_plan("persistence.read", "order"))
        with pytest.raises(PersistenceError, match="section 'order' is corrupt"):
            load_bundle(path, fallback=False)

    def test_corrupt_write_detected_on_clean_read(self, built, tmp_path):
        # The write hook damages the bytes before their digest is taken,
        # so the read-side digest check passes and unpickling the
        # section may still fail — either way the error is typed, never
        # a raw pickle exception.
        _data, searcher = built
        path = tmp_path / "index.idx"
        faults.install_plan(corrupt_plan("persistence.write", "meta"))
        save_searcher(searcher, path)
        faults.clear_plan()
        try:
            load_bundle(path, fallback=False)
        except PersistenceError:
            pass

    def test_flipped_byte_on_disk_is_typed_error(self, built, tmp_path):
        # No fault plan at all: corrupt the file bytes directly, inside
        # the last raw column, which the documents are read through too.
        # The digest check names the section before any of them is read.
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data)
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 0xFF
        path.write_bytes(bytes(raw))
        for mmap in (False, True):
            with pytest.raises(
                PersistenceError, match="section 'ranks.values' is corrupt"
            ):
                load_bundle(path, fallback=False, mmap=mmap)

    def test_truncated_section_is_named(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PersistenceError, match="'ranks.values' is truncated"):
            load_bundle(path, fallback=False)

    def test_envelope_header_roundtrip(self, tmp_path):
        path = tmp_path / "env.bin"
        column = np.arange(7, dtype=np.int32)
        write_envelope(
            path,
            "test-kind",
            {"a": [1, 2, 3]},
            {"column": column},
            header={"note": "hi"},
        )
        for mmap in (False, True):
            header, sections, arrays = read_envelope(path, "test-kind", mmap=mmap)
            assert header == {"note": "hi"}
            assert sections == {"a": [1, 2, 3]}
            assert list(arrays) == ["column"]
            assert arrays["column"].dtype == np.int32
            assert arrays["column"].tolist() == column.tolist()
            assert not arrays["column"].flags["OWNDATA"]


class TestRotation:
    def test_rotated_paths_helper(self, tmp_path):
        path = tmp_path / "index.idx"
        assert rotated_paths(path, 2) == [
            tmp_path / "index.idx.1",
            tmp_path / "index.idx.2",
        ]

    def test_generations_shift_newest_first(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        generations = []
        for tombstone in range(4):
            # A tombstone per save makes every generation's bytes differ.
            searcher._remove_document(tombstone)
            save_searcher(searcher, path, rotate=2)
            generations.append(path.read_bytes())
        assert len(set(generations)) == 4
        # .1 is the previous primary, .2 the one before that; the
        # oldest generation fell off the end.
        assert (tmp_path / "index.idx.1").read_bytes() == generations[2]
        assert (tmp_path / "index.idx.2").read_bytes() == generations[1]
        assert not (tmp_path / "index.idx.3").exists()

    def test_fallback_to_rotated_snapshot_warns(self, built, tmp_path):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, rotate=1)
        save_searcher(searcher, path, rotate=1)  # now index.idx.1 exists
        path.write_bytes(b"scribbled over by a crash")
        with pytest.warns(RuntimeWarning, match="fell back to"):
            loaded = load_bundle(path).searcher
        query = data[3]
        assert pairs_as_set(loaded.search(query)) == pairs_as_set(
            searcher.search(query)
        )

    def test_fallback_disabled_raises_primary_error(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, rotate=1)
        save_searcher(searcher, path, rotate=1)
        path.write_bytes(b"scribbled over by a crash")
        with pytest.raises(PersistenceError):
            load_bundle(path, fallback=False)

    def test_bundle_records_fallback_source(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, rotate=1)
        save_searcher(searcher, path, rotate=1)
        path.write_bytes(b"scribbled over by a crash")
        with pytest.warns(RuntimeWarning):
            bundle = load_bundle(path)
        assert bundle.path == tmp_path / "index.idx.1"

    def test_fallback_skips_a_corrupt_newer_generation(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        for _ in range(3):
            save_searcher(searcher, path, rotate=2)
        path.unlink()  # a missing primary falls back too
        (tmp_path / "index.idx.1").write_bytes(b"also bad")
        with pytest.warns(RuntimeWarning, match="index.idx.2"):
            bundle = load_bundle(path)
        assert bundle.path == tmp_path / "index.idx.2"

    def test_no_intact_generation_reraises_primary(self, built, tmp_path):
        _data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, rotate=1)
        save_searcher(searcher, path, rotate=1)
        path.write_bytes(b"bad primary")
        (tmp_path / "index.idx.1").write_bytes(b"bad snapshot too")
        with pytest.raises(PersistenceError, match="index.idx[^.]"):
            load_bundle(path)


# ----------------------------------------------------------------------
# A snapshot stores the corpus once: documents come back through ranks.
# ----------------------------------------------------------------------
W, TAU = 5, 1
TOKEN_LISTS = st.lists(st.lists(st.integers(0, 7), max_size=24), min_size=1, max_size=5)


def _text(prefix: str, tokens) -> str:
    return " ".join(f"{prefix}{token}" for token in tokens)


class TestCorpusStoredOnce:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=TOKEN_LISTS,
        added=TOKEN_LISTS,
        shape=st.sampled_from(["built", "live", "tombstoned", "purged"]),
        victim=st.integers(0, 99),
        mmap=st.booleans(),
        with_data=st.booleans(),
    )
    def test_round_trip_reads_the_same_corpus(
        self, docs, added, shape, victim, mmap, with_data
    ):
        data = DocumentCollection()
        for doc_id, tokens in enumerate(docs):
            data.add_tokens([f"t{token}" for token in tokens], name=f"name-{doc_id}")
        index = Index.build(data, w=W, tau=TAU, k_max=2)
        purged = None
        if shape != "built":
            # Tokens first seen after the build rank below zero; "t"
            # ones mixed in keep the old documents findable.
            for number, tokens in enumerate(added):
                index.add(
                    _text("new", tokens) + " " + _text("t", tokens),
                    name=f"added-{number}",
                )
        if shape in ("tombstoned", "purged"):
            index.remove(victim % len(index.data))
        if shape == "purged":
            index.compact()
            purged = victim % len(index.data)
        texts = [_text("t", tokens) for tokens in docs + added]
        expected_pairs = [pairs_as_set(index.search_text(text)) for text in texts]
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch, "index.idx")
            if with_data:
                index.save(path)
            else:
                save_searcher(index.searcher(), path)
            with Index.open(path, mmap=mmap) as opened:
                found = [
                    pairs_as_set(opened.search(index.encode_query(text)))
                    for text in texts
                ]
                assert found == expected_pairs
                if not with_data:
                    assert opened.data is None
                    return
                assert [
                    pairs_as_set(opened.search_text(text)) for text in texts
                ] == expected_pairs
                assert len(opened.data) == len(index.data)
                assert opened.data.names() == [d.name for d in index.data]
                for before, after in zip(index.data, opened.data):
                    assert after.doc_id == before.doc_id
                    assert after.name == before.name
                    if before.doc_id == purged:
                        # A compaction emptied its rank column.
                        assert after.tokens == ()
                        continue
                    assert after.tokens == before.tokens
                    for start in range(after.num_windows(W)):
                        assert opened.data.decode_window(
                            after, start, W
                        ) == index.data.decode_window(before, start, W)

    def test_add_text_on_an_opened_snapshot_still_appends(self, built, tmp_path):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data)
        with Index.open(path, mmap=True) as opened:
            text = " ".join(data.vocabulary.decode(data[1].tokens[:40])) + " brand new"
            with opened.serve() as service:
                doc_id = service.add(text, name="late")
                assert doc_id == len(data) == len(opened.data) - 1
                found = pairs_as_set(service.search_text(text).pairs)
            assert {pair[0] for pair in found} >= {1, doc_id}
            late = opened.data[doc_id]
            assert late is opened.data[-1] and late.name == "late"
            assert opened.data.vocabulary.decode(late.tokens[-2:]) == ["brand", "new"]
            assert opened.data[1].tokens == data[1].tokens
            assert opened.data.lengths() == data.lengths() + [42]
            # The service wrote through the Index it serves, so the
            # Index's engine holds the document and saves it.
            assert pairs_as_set(opened.search_text(text).pairs) == found
            opened.save(tmp_path / "grown.idx")
        with Index.open(tmp_path / "grown.idx") as reopened:
            assert [d.tokens for d in reopened.data][:-1] == [d.tokens for d in data]
            assert reopened.data[doc_id].tokens == late.tokens
            assert pairs_as_set(reopened.search_text(text)) == found

    def test_the_view_keeps_nothing_and_counting_decodes_nothing(
        self, built, tmp_path, monkeypatch
    ):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data)
        ShardPlan.build(data, searcher.params, tmp_path / "shards", num_shards=2)
        opened = load_bundle(path, mmap=True).data
        view = opened.documents
        assert isinstance(view, ColumnDocuments) and not hasattr(view, "__dict__")
        held = {name: getattr(view, name) for name in ColumnDocuments.__slots__}

        def decoded(*_args):
            raise AssertionError("a document was decoded")

        with monkeypatch.context() as patch:
            patch.setattr(PackedRankDocs, "doc_ranks", decoded)
            assert len(opened) == len(data)
            assert opened.lengths() == [len(d) for d in data]
            assert opened.names() == [d.name for d in data]
            assert opened.total_tokens() == data.total_tokens()
            assert opened.total_windows(10) == data.total_windows(10)
            assert repr(opened) == repr(data)
            with pytest.raises(AssertionError, match="decoded"):
                opened[0]
        # A plan is reused only for the corpus it was cut from, so ensure
        # reads every token (one document at a time) to compare digests.
        plan = ShardPlan.ensure(opened, searcher.params, tmp_path / "shards", num_shards=2)
        assert plan == ShardPlan.load(tmp_path / "shards")
        # Reading makes a Document each time and writes nothing back.
        assert opened[0] is not opened[0] and opened[0] == data[0]
        assert [d.tokens for d in opened] == [d.tokens for d in data]
        assert opened[-1].tokens == data[-1].tokens
        assert [d.doc_id for d in view[1:3]] == [1, 2]
        with pytest.raises(IndexError):
            opened[len(data)]
        assert all(getattr(view, name) is value for name, value in held.items())
        assert view._appended == []

    @pytest.mark.parametrize(
        "alter, doc_id",
        [
            pytest.param(lambda docs: docs[:-1], 5, id="fewer"),
            pytest.param(lambda docs: docs + [docs[0]], 6, id="more"),
            pytest.param(
                lambda docs: docs[:2] + [docs[2][:-1]] + docs[3:], 2, id="shorter"
            ),
        ],
    )
    def test_a_collection_that_is_not_the_searchers_is_refused(
        self, built, tmp_path, alter, doc_id
    ):
        data, searcher = built
        path = tmp_path / "index.idx"
        save_searcher(searcher, path, data=data, rotate=1)
        good_bytes = path.read_bytes()
        other = DocumentCollection(vocabulary=data.vocabulary)
        for tokens in alter([list(d.tokens) for d in data]):
            other.add_token_ids(tokens)
        with pytest.raises(PersistenceError, match=rf"\b{doc_id}\b.*own collection"):
            save_searcher(searcher, path, data=other, rotate=1)
        # Refused before anything moved: no rotation, no new file.
        assert path.read_bytes() == good_bytes
        assert not (tmp_path / "index.idx.1").exists()



# ----------------------------------------------------------------------
# The other two envelope kinds ride the same writer and reader.
# ----------------------------------------------------------------------
def _write_checkpoint(directory: Path, built) -> Path:
    checkpoint = RunCheckpoint(directory / "run.ckpt", WORKLOAD_KIND, "fingerprint")
    checkpoint.record([0, 1], rows=[(0, 7, [])], snapshot={})
    checkpoint.flush()
    return checkpoint.path


def _read_checkpoint(path: Path):
    loaded = RunCheckpoint.load(path, WORKLOAD_KIND, "fingerprint")
    assert loaded.done_keys() == {0, 1}
    return loaded


def _write_manifest(directory: Path, built) -> Path:
    data, searcher = built
    write_manifest(
        directory,
        ManifestState(
            params=searcher.params,
            order=searcher.order,
            scheme=searcher.scheme,
            # A header, no document: with no segment, no sealed doc id.
            data={"tokenizer": data.tokenizer, "vocabulary": data.vocabulary,
                  "names": []},
            segments=[],
            tombstones={2},
            next_doc_id=0,
            wal_generation=1,
            generation=1,
        ),
    )
    return manifest_path(directory)


def _read_manifest(path: Path):
    state = read_manifest(path.parent)
    assert state.tombstones == {2} and state.wal_generation == 1
    return state


@pytest.mark.parametrize(
    "write, read, kind, section",
    [
        pytest.param(
            _write_checkpoint, _read_checkpoint, WORKLOAD_KIND, "records",
            id="checkpoint",
        ),
        pytest.param(
            _write_manifest, _read_manifest, MANIFEST_KIND, "order",
            id="manifest",
        ),
    ],
)
class TestOtherEnvelopeKinds:
    def test_roundtrip_through_the_one_envelope(
        self, built, tmp_path, write, read, kind, section
    ):
        path = write(tmp_path, built)
        assert path.read_bytes()[: len(MAGIC)] == MAGIC
        assert not list(tmp_path.glob("*.tmp"))
        read(path)
        _header, sections, _arrays = read_envelope(path, kind)
        assert section in sections

    def test_wrong_kind(self, built, tmp_path, write, read, kind, section):
        path = write(tmp_path, built)
        with pytest.raises(PersistenceError, match=f"is a '{kind}' envelope"):
            read_envelope(path, "pkwise-index")

    def test_corrupt_section_named_on_read(
        self, built, tmp_path, write, read, kind, section
    ):
        path = write(tmp_path, built)
        faults.install_plan(corrupt_plan("persistence.read", section))
        with pytest.raises(PersistenceError, match=f"section '{section}' is corrupt"):
            read(path)

    def test_flipped_byte_on_disk(self, built, tmp_path, write, read, kind, section):
        path = write(tmp_path, built)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # the last stored section's final byte
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError, match="is corrupt"):
            read(path)

    def test_failed_write_keeps_the_old_file(
        self, built, tmp_path, monkeypatch, write, read, kind, section
    ):
        import repro.persistence as persistence

        path = write(tmp_path, built)
        good_bytes = path.read_bytes()

        def failing_fsync(_fd):
            raise OSError("simulated disk full")

        monkeypatch.setattr(persistence.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, built)
        monkeypatch.undo()
        assert not list(tmp_path.glob("*.tmp"))
        assert path.read_bytes() == good_bytes
        read(path)


# ----------------------------------------------------------------------
# The stored format: the section checker's rules, and one digest table.
# ----------------------------------------------------------------------
#: The checker's smoke snapshot, but ``meta`` (the build time): moves only with the format.
SMOKE_DIGESTS = {
    "scheme": "json c1192f6fca793c8700e6dcff5dd94db7",
    "order": "json 397bad6f032e972cc9453b1d43fd63ae",
    "data": "json 2dea0dc1f136e2fc9a2153aa1ce5c1e0",
    "order.token_of_rank": "<i2 3652ced9cb49e8be7c488325061e8780",
    "order.admitted": "|i1 cae66941d9efbd404e4d88758ea67670",
    "vocabulary.utf8": "|u1 9b28a18f2c1802bd126639579156a772",
    "vocabulary.lengths": "|i1 51742a963b45cf1a46a0d55dff5d61ff",
    "names.utf8": "|u1 49e4c3a9d6dafa25d5cf1d44efb86c07",
    "names.lengths": "|i1 28b193cc2f9f2e3fe9f94483b5cf90c5",
    "index.keys": "<u4 7c1ead56ec5803a30f929b6b4993e88b",
    "index.counts": "|i1 3efeab9046870f2a86c72c4bb6c3f3f7",
    "index.docs": "<i2 309d8a79ba32c49152a5e26d950b7d87",
    "index.us": "<i2 8d7912724b6f80c6423b7431184a0a80",
    "index.lens": "|i1 4ffd15a65ebed682401f66fdccbb6b3f",
    "ranks.lengths": "<i2 1c381d274d640f41a72b813197567629",
    "ranks.values": "<i2 aa79ef732ea5a0f234beb4b1595b5d9d",
}


def test_section_checker_passes_a_snapshot_a_plan_and_a_live_store(tmp_path, capsys):
    checker = load_script("benchmarks/snapshot_sections.py")
    assert checker.smoke(tmp_path) == 0, capsys.readouterr().err
    digests = checker.section_digests(tmp_path / "smoke.idx")
    del digests["meta"]
    assert digests == SMOKE_DIGESTS
    # Unrouted, the same corpus stores the same sections: no file stores covers.
    corpus = make_profile_collection("REUTERS", 0.02, 1)[0]
    Index.build(corpus, w=50, tau=5, k_max=4).save(tmp_path / "off.idx")
    digests = checker.section_digests(tmp_path / "off.idx")
    del digests["meta"]
    assert digests == SMOKE_DIGESTS


#: Tokens (and names) one joined string must keep apart: multi-byte
#: UTF-8, lengths past int8 (the length column widens to int16), and
#: NUL, newline, space and the empty string inside or as a token.
HOSTILE = {
    "utf8": ["naïve", "日本語", "😀", "Ωmega", "é"],
    "long": ["x" * 200, "y" * 128, "z"],
    "control": ["a\x00b", "\x00", "line\nbreak", "\n", "two words", " ", ""],
    "empty": [],
}


@pytest.mark.parametrize("tokens", HOSTILE.values(), ids=HOSTILE)
def test_hostile_strings_round_trip(tmp_path, monkeypatch, tokens):
    # Each reopened snapshot and live store keeps every token and name as
    # it was, and answers every query as the oracle does; the live
    # store's MANIFEST is cut by to_arrays while adds grow the vocabulary.
    rng = random.Random(len(tokens))
    pool = tokens + ["w0", "w1", "w2"] if tokens else []
    data = DocumentCollection()
    for at in range(6 if tokens else 0):
        data.add_tokens(rng.choices(pool, k=rng.randint(4, 20)), name=f"{pool[at % len(pool)]}{at}")
    queries = [data.encode_query_tokens(document_tokens) for document_tokens in (
        *(data.vocabulary.decode(document.tokens) for document in data), pool * 2, ["unseen"] * 8)]
    width = np.int16 if any(len(token) > 127 for token in tokens) else np.int8

    def answers_like_the_oracle(collection, searcher):
        assert list(collection.vocabulary)[: len(data.vocabulary)] == list(data.vocabulary)
        assert collection.names()[: len(data)] == data.names()
        for query in map(collection.encode_query_tokens, (q.source_tokens for q in queries)):
            assert pairs_as_set(searcher.search(query)) == expected_pairs(collection, query, 6, 1)

    Index.build(data, w=6, tau=1, k_max=2).save(tmp_path / "index.idx")
    _header, _sections, arrays = read_envelope(tmp_path / "index.idx", "pkwise-index")
    assert arrays["names.lengths"].dtype == width
    opened = Index.open(tmp_path / "index.idx", mmap=True)
    answers_like_the_oracle(opened.data, opened.searcher())

    head = DocumentCollection()
    for document in data[:3]:
        head.add_tokens(data.vocabulary.decode(document.tokens), name=document.name)
    params = SearchParams(w=6, tau=1, k_max=2)
    store = IngestStore.create(params, directory=tmp_path / "store", data=head)
    for document in data[3:]:
        store.add_tokens(data.vocabulary.decode(document.tokens), name=document.name)
    merge, raced = IngestStore._merge_tiers, []

    def racing(tiers, removed=()):
        raced.append(store.add_tokens([*pool, "late"], name="late\x00name"))
        return merge(tiers, removed)

    monkeypatch.setattr(IngestStore, "_merge_tiers", staticmethod(racing))
    store.flush()
    monkeypatch.undo()
    assert raced or not tokens  # an empty store has nothing to fold
    manifest = read_manifest(tmp_path / "store")
    assert len(manifest.data["vocabulary"]) == len(data.vocabulary)
    _header, _sections, arrays = read_envelope(manifest_path(tmp_path / "store"), MANIFEST_KIND)
    assert arrays["names.lengths"].dtype == width
    store.close()
    reopened = IngestStore.open(tmp_path / "store")
    assert list(reopened.data.vocabulary) == [*data.vocabulary, *("late" for _ in raced)]
    assert reopened.data.names() == [*data.names(), *("late\x00name" for _ in raced)]
    answers_like_the_oracle(reopened.data, reopened.searcher())
    reopened.close()


# ----------------------------------------------------------------------
# A file of an older format is refused, or its plan rebuilt, unread.
# ----------------------------------------------------------------------
class MarkerBomb:
    """Unpickling an instance creates ``marker``."""

    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (Path.touch, (self.marker,))


def _write_snapshot(directory: Path, built) -> Path:
    data, searcher = built
    save_searcher(searcher, directory / "index.idx", data=data)
    return directory / "index.idx"


def _write_plan(directory: Path, built) -> Path:
    data, searcher = built
    plan = ShardPlan.build(data, searcher.params, directory / "shards", num_shards=2)
    return directory / "shards" / plan.shards[0].path


def _write_segment(directory: Path, built) -> Path:
    data, searcher = built
    store = IngestStore.create(searcher.params, directory=directory / "store", data=data)
    store.flush()
    store.close()
    (segment,) = (directory / "store").glob("segment.g*.idx")
    return segment


def _older_file(version: int, kind: str, marker: Path) -> bytes:
    """A file as an older release wrote it, holding a ``MarkerBomb``: the
    pickles 1.x wrote (1, 2), then an envelope of 2.0–4.1 — the old
    magic and a pickled TOC — at ``version``."""
    if version == 1:
        return pickle.dumps(
            {"magic": "repro-pkwise-index", "version": 1, "searcher": MarkerBomb(marker)}
        )
    if version == 2:
        return pickle.dumps(
            {"magic": "repro-envelope", "version": 2, "sections": {"data": MarkerBomb(marker)}}
        )
    toc = pickle.dumps({"version": version, "kind": kind, "header": {"bomb": MarkerBomb(marker)},
                        "pickled": {}, "arrays": {}}, protocol=pickle.HIGHEST_PROTOCOL)
    return OLD_MAGIC + len(toc).to_bytes(8, "little") + toc


#: The pickles 1.x wrote (1, 2), then every envelope version before this one.
OLDER_VERSIONS = [1, 2, *_OLDER_STORES]


@pytest.mark.parametrize("version", OLDER_VERSIONS)
@pytest.mark.parametrize("kind", ["snapshot", "segment", "checkpoint", "manifest", "plan"])
def test_an_older_file_is_refused_unread(built, tmp_path, kind, version):
    assert sorted(_OLDER_STORES) == list(range(3, persistence._TOC_VERSION))
    write = {"snapshot": _write_snapshot, "segment": _write_segment,
             "checkpoint": _write_checkpoint, "manifest": _write_manifest,
             "plan": _write_plan}[kind]
    path = write(tmp_path, built)
    marker = tmp_path / "unpickled.marker"
    old = _older_file(version, persistence.read_toc(path)["kind"], marker)
    path.write_bytes(old)
    if version <= 2:
        said = "1.x releases are not migrated — rebuild it"
    elif kind == "manifest":
        said = re.escape(_OLDER_STORES[version][1])
    else:
        said = f"format version {version} .* rebuild the file"
    openers = {
        "snapshot": [partial(Index.open, path, mmap=False), partial(Index.open, path, mmap=True)],
        "segment": [partial(IngestStore.open, path.parent), partial(Index.open, path)],
        "checkpoint": [partial(RunCheckpoint.load, path, WORKLOAD_KIND, "fingerprint")],
        "manifest": [partial(IngestStore.open, path.parent),
                     partial(Index.open_live, path.parent)],
        "plan": [partial(Index.open, path)],
    }[kind]
    for opener in openers:
        with pytest.raises(PersistenceError, match=said):
            opener()
    if kind == "plan":
        data, searcher = built
        plan = ShardPlan.ensure(data, searcher.params, path.parent, num_shards=2)
        assert all(is_current_envelope(path.parent / spec.path) for spec in plan.shards)
        Index.open(path).close()
    assert not marker.exists()
    # The payload is live: unpickling it (an envelope's TOC) does create the marker.
    pickle.loads(old if version <= 2 else old[len(OLD_MAGIC) + 8:])
    assert marker.exists()


# ----------------------------------------------------------------------
# A file whose digests hold is still refused when the kernels cannot use
# it: each check on open names its section, within a second.
# ----------------------------------------------------------------------
@contextmanager
def _deadline(seconds: float):
    """Raise ``TimeoutError`` in the block after ``seconds`` (SIGALRM)."""

    def expire(_signum, _frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _rewritten(path: Path, **columns) -> None:
    """Rewrite ``path`` with some of its columns replaced, through the
    envelope writer: every digest, the TOC's too, holds."""
    header, sections, arrays = read_envelope(path, "pkwise-index")
    arrays = {**arrays, **{name.replace("__", "."): column for name, column in columns.items()}}
    write_envelope(path, "pkwise-index", sections, arrays, header)


#: A crafted snapshot -> the section its error names.  Before these
#: checks the first ran code from its TOC, the second raised an untyped
#: IndexError on the first query, the third never answered, and the last
#: answered 0 of its pairs.
CRAFTED = {
    "pickled-toc": "TOC",
    "docs-past-the-last-document": "section 'index.docs'",
    "lens-of-10**8": "section 'index.lens'",
    "ranks-of--7": "section 'ranks.values'",
    "keys-out-of-order": "section 'index.keys'",
    "counts-of-0": "section 'index.counts'",
    "lengths-short-of-the-values": "section 'ranks.lengths'",
    "order-not-a-permutation": "section 'order.token_of_rank'",
    "docs-unsigned": "section 'index.docs'",
}


@pytest.mark.parametrize("craft", CRAFTED)
def test_a_file_the_kernels_cannot_use_is_refused_on_open(built, tmp_path, craft):
    data, searcher = built
    path = tmp_path / "index.idx"
    save_searcher(searcher, path, data=data)
    _header, _sections, stored = read_envelope(path, "pkwise-index")
    marker = tmp_path / "unpickled.marker"
    if craft == "pickled-toc":
        path.write_bytes(_older_file(10, "pkwise-index", marker))
    elif craft == "docs-past-the-last-document":
        _rewritten(path, index__docs=stored["index.docs"] + len(data))
    elif craft == "lens-of-10**8":
        _rewritten(path, index__lens=np.full(len(stored["index.lens"]), 10**8, dtype=np.int32))
    elif craft == "ranks-of--7":
        _rewritten(path, ranks__values=np.full_like(stored["ranks.values"], -7))
    elif craft == "keys-out-of-order":
        _rewritten(path, index__keys=stored["index.keys"][::-1].copy())
    elif craft == "counts-of-0":
        counts = stored["index.counts"].copy()
        counts[0], counts[1] = 0, counts[1] + counts[0]
        _rewritten(path, index__counts=counts)
    elif craft == "lengths-short-of-the-values":
        lengths = stored["ranks.lengths"].copy()
        lengths[0] -= 1
        _rewritten(path, ranks__lengths=lengths)
    elif craft == "docs-unsigned":
        _rewritten(path, index__docs=stored["index.docs"].astype(np.uint64))
    else:
        _rewritten(path, order__token_of_rank=np.zeros_like(stored["order.token_of_rank"]))
    for mmap in (False, True):
        started = time.perf_counter()
        with _deadline(2.0), pytest.raises(PersistenceError, match=CRAFTED[craft]):
            with Index.open(path, mmap=mmap) as opened:
                opened.search(data[3])
        assert time.perf_counter() - started < 1.0
    assert not marker.exists()
