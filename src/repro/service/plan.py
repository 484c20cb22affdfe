"""The on-disk layout of a sharded corpus: ranges, snapshot files, manifest.

pkwise is exact and partitionable by document: a query's match pairs
over a corpus are the union of its pairs over any disjoint document
partition (each pair involves one data document; per-shard global
orders may differ, verification is order-independent).  This module
decides *how the corpus is cut and where the pieces live* — nothing
about serving them:

* :func:`partition_ranges` — N contiguous doc-id ranges balanced by
  token count.
* :class:`ShardSpec` / :class:`ShardPlan` — one ids-only compact
  snapshot per range under generation-named files
  (:func:`~repro.persistence.generation_name`) plus the JSON manifest
  ``shards.json`` that maps ranges to files, records ``replicas`` (how
  many workers serve each shard's one snapshot) and a digest of the
  corpus the files were built from.

:mod:`~repro.service.router` scatters queries over a plan's shards,
:mod:`~repro.service.workers` turns a plan into worker processes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.pkwise import PKWiseSearcher
from ..corpus import DocumentCollection
from ..errors import ConfigurationError
from ..params import SearchParams
from ..persistence import (
    _atomic_write,
    generation_name,
    is_current_envelope,
    save_searcher,
)

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "shards.json"

#: Manifest format marker (bump on incompatible layout changes).
MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1


def _manifest_params(params: SearchParams) -> dict:
    """The search parameters a manifest records and ``ensure`` compares."""
    return {"w": params.w, "tau": params.tau, "k_max": params.k_max, "m": params.m}


#: Token ids :func:`_corpus_digest` hashes at once (a longer document is
#: a block of its own).  Small, so that no block moves a serving router's
#: peak RSS: on the ``serve-sharded`` snapshot 2**18 ids raised it 2 MB.
DIGEST_BLOCK_IDS = 1 << 14


def _corpus_digest(data: DocumentCollection) -> str:
    """BLAKE2b of ``data``'s document lengths and token ids (int64): what
    a plan's shard files were cut from.  The ids are hashed in blocks of
    whole documents, so a collection opened over rank columns is never
    decoded whole; the hash is streamed, so any block size gives the
    same digest."""
    state = hashlib.blake2b(digest_size=16)
    lengths = np.asarray(data.lengths(), dtype=np.int64)
    state.update(lengths.tobytes())
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    lo = 0
    while lo < len(lengths):
        fits = np.searchsorted(offsets, offsets[lo] + DIGEST_BLOCK_IDS, side="right")
        hi = max(lo + 1, int(fits) - 1)
        state.update(data.token_ids(lo, hi))
        lo = hi
    return state.hexdigest()


def partition_ranges(
    sizes: Sequence[int], num_shards: int
) -> list[tuple[int, int]]:
    """Split ``len(sizes)`` documents into contiguous ``[lo, hi)`` ranges.

    Greedy balance by token count: each shard takes documents while
    adding the next one moves its total closer to the ideal share of
    the remaining tokens, subject to every remaining shard getting at
    least one document.  Deterministic for a given input.
    """
    num_docs = len(sizes)
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > num_docs:
        raise ConfigurationError(
            f"cannot split {num_docs} document(s) into {num_shards} shards"
        )
    remaining_tokens = sum(sizes)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for shard_id in range(num_shards):
        shards_left = num_shards - shard_id
        # Leave at least one document for every shard after this one.
        max_hi = num_docs - (shards_left - 1)
        target = remaining_tokens / shards_left
        hi = lo + 1  # every shard owns at least one document
        taken = sizes[lo]
        while hi < max_hi and abs(taken + sizes[hi] - target) <= abs(taken - target):
            taken += sizes[hi]
            hi += 1
        ranges.append((lo, hi))
        remaining_tokens -= taken
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a plan: a doc-id range and its snapshot file."""

    shard_id: int
    #: Global doc-id range ``[doc_lo, doc_hi)`` this shard owns; shard-
    #: local ids are ``global_id - doc_lo`` (subsets renumber from 0).
    doc_lo: int
    doc_hi: int
    #: Snapshot file name, relative to the manifest directory.
    path: str
    generation: int
    num_tokens: int = 0

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "doc_lo": self.doc_lo,
            "doc_hi": self.doc_hi,
            "path": self.path,
            "generation": self.generation,
            "num_tokens": self.num_tokens,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSpec":
        return cls(
            shard_id=int(payload["shard_id"]),
            doc_lo=int(payload["doc_lo"]),
            doc_hi=int(payload["doc_hi"]),
            path=str(payload["path"]),
            generation=int(payload["generation"]),
            num_tokens=int(payload.get("num_tokens", 0)),
        )


@dataclass(frozen=True)
class ShardPlan:
    """A persisted partition of one corpus into compact shard snapshots.

    ``replicas`` is the serving redundancy: R workers per shard, every
    one mapping the *same* generation-named snapshot file.  Replication
    is a property of the serving topology, not of the on-disk layout —
    a plan built with one replica count can be served with another.
    """

    shards: tuple[ShardSpec, ...]
    num_documents: int
    generation: int
    params: dict
    replicas: int = 1
    #: :func:`_corpus_digest` of the collection the shards were built from.
    digest: str | None = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Ranges must tile ``[0, num_documents)`` without gap or overlap."""
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        expected_lo = 0
        for spec in self.shards:
            if spec.doc_lo != expected_lo or spec.doc_hi <= spec.doc_lo:
                raise ConfigurationError(
                    f"shard {spec.shard_id} range [{spec.doc_lo}, "
                    f"{spec.doc_hi}) does not tile the corpus (expected "
                    f"lo={expected_lo})"
                )
            expected_lo = spec.doc_hi
        if expected_lo != self.num_documents:
            raise ConfigurationError(
                f"shard ranges cover {expected_lo} documents, corpus has "
                f"{self.num_documents}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        directory: str | Path,
        *,
        num_shards: int,
        generation: int = 1,
        replicas: int = 1,
    ) -> "ShardPlan":
        """Build ``num_shards`` compact snapshots + manifest under ``directory``.

        Each shard is built from :meth:`DocumentCollection.subset` of a
        contiguous doc-id range — subsets share the parent vocabulary,
        so a query's token ids mean the same in every shard — and
        written as an ids-only snapshot file so workers mmap it
        zero-copy and load no vocabulary: the router encodes every
        query and sends token ids.
        Re-building a higher ``generation`` into the same directory
        leaves the previous generation's files in place: workers that
        still map them keep serving until they are restarted.
        """
        return cls._build(
            data, params, directory, num_shards=num_shards, generation=generation,
            replicas=replicas, digest=_corpus_digest(data),
        )

    @classmethod
    def _build(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        directory: str | Path,
        *,
        num_shards: int,
        generation: int,
        replicas: int,
        digest: str,
    ) -> "ShardPlan":
        """:meth:`build` with the corpus digest already taken."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sizes = data.lengths()
        ranges = partition_ranges(sizes, num_shards)
        specs = []
        for shard_id, (lo, hi) in enumerate(ranges):
            subset = data.subset(range(lo, hi))
            searcher = PKWiseSearcher(subset, params)
            name = generation_name(f"shard-{shard_id:03d}", generation)
            save_searcher(searcher, directory / name)
            specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    doc_lo=lo,
                    doc_hi=hi,
                    path=name,
                    generation=generation,
                    num_tokens=sum(sizes[lo:hi]),
                )
            )
        plan = cls(
            shards=tuple(specs),
            num_documents=len(data),
            generation=generation,
            params=_manifest_params(params),
            replicas=replicas,
            digest=digest,
        )
        plan.validate()
        plan.save(directory)
        return plan

    def save(self, directory: str | Path) -> Path:
        """Atomically write the manifest as ``directory/shards.json``."""
        directory = Path(directory)
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "num_documents": self.num_documents,
            "num_shards": self.num_shards,
            "generation": self.generation,
            "replicas": self.replicas,
            "params": self.params,
            "digest": self.digest,
            "shards": [spec.to_dict() for spec in self.shards],
        }
        target = directory / MANIFEST_NAME
        text = json.dumps(payload, indent=2, sort_keys=True).encode()
        _atomic_write(target, lambda handle: handle.write(text))
        return target

    @classmethod
    def load(cls, directory: str | Path) -> "ShardPlan":
        """Read and validate ``directory/shards.json``."""
        manifest = Path(directory) / MANIFEST_NAME
        if not manifest.exists():
            raise ConfigurationError(f"no shard manifest at {manifest}")
        try:
            payload = json.loads(manifest.read_text())
        except (json.JSONDecodeError, ValueError) as exc:
            raise ConfigurationError(f"corrupt shard manifest {manifest}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(f"{manifest} is not a shard manifest")
        try:
            plan = cls(
                shards=tuple(
                    ShardSpec.from_dict(entry) for entry in payload["shards"]
                ),
                num_documents=int(payload["num_documents"]),
                generation=int(payload["generation"]),
                params=dict(payload.get("params", {})),
                # Pre-replication manifests carry no key: one worker per shard.
                replicas=int(payload.get("replicas", 1)),
                digest=payload.get("digest"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"damaged shard manifest {manifest}: {exc!r}"
            ) from exc
        plan.validate()
        return plan

    @classmethod
    def ensure(
        cls,
        data: DocumentCollection,
        params: SearchParams,
        directory: str | Path,
        *,
        num_shards: int,
        replicas: int = 1,
    ) -> "ShardPlan":
        """Reuse a compatible manifest in ``directory`` or build one.

        A manifest that matches in every way except ``replicas`` is
        reused with the new replica count (snapshot files are shared by
        all replicas of a shard, so changing R is a manifest-only edit).
        A plan is reused only when it was cut from ``data`` itself (its
        :func:`_corpus_digest`: the shard files are ids-only, so a plan of
        an edited corpus of the same size would answer the router's new
        token ids from the old documents) and every shard file is an
        envelope of this release's format (its TOC alone is read); any
        other plan, or one that records no digest, is rebuilt.
        """
        directory = Path(directory)
        digest = None
        if (directory / MANIFEST_NAME).exists():
            try:
                plan = cls.load(directory)
            except ConfigurationError:
                plan = None
            if (
                plan is not None
                and plan.num_shards == num_shards
                and plan.num_documents == len(data)
                and plan.params == _manifest_params(params)
                and plan.digest == (digest := _corpus_digest(data))
                and all(is_current_envelope(directory / spec.path) for spec in plan.shards)
            ):
                if plan.replicas != replicas:
                    plan = replace(plan, replicas=replicas)
                    plan.validate()
                    plan.save(directory)
                return plan
        return cls._build(
            data, params, directory, num_shards=num_shards, generation=1,
            replicas=replicas, digest=digest or _corpus_digest(data),
        )
