#!/usr/bin/env python
"""Section table of a snapshot, read from its TOC; guards that a file
is data and holds only what a reader uses: no pickled TOC or section,
the width of every integer column and of the signature keys, that
postings and rank columns store counts and lengths, that no file stores
routing covers, and that shard files and live-store segments store no
collection or order.

    PYTHONPATH=src python benchmarks/snapshot_sections.py [SNAPSHOT | MANIFEST | shards.json]
    PYTHONPATH=src python benchmarks/snapshot_sections.py --digests FILE

Without a path it builds the smoke snapshot (REUTERS profile at scale
0.02, routed), a two-shard plan over the same corpus and a small durable
live store over it (adds, a flush, a removal, a compaction), and checks
the snapshot, each shard file, the store's ``MANIFEST`` and each of its
segment files.  A ``MANIFEST`` path checks that store's segment files
too, a ``shards.json`` path each of that plan's shard files.  Exit 1 when

* the file has the magic of repro 4.1 and before, whose TOC is a
  pickle, or its TOC has a ``pickled`` group: every section is JSON or a
  raw integer column, so nothing in a file is ever unpickled;
* an integer array section is wider than its values need: every stored
  integer column is the narrowest of int8, int16, int32 and int64 that
  holds it (``repro.index.compact._packed_column``), so the run counts
  (``index.counts``), interval lengths (``index.lens``), document
  lengths (``ranks.lengths``) and the order's columns mostly store at
  one or two bytes;
* the file stores ``index.offsets``, ``index.vs`` or ``ranks.offsets``:
  a key's run is its count, an interval its length and a document its
  length, which mostly fit one or two bytes where absolute offsets and
  ends took four (a fifth of the search-reuse snapshot); the offsets are
  derived on open with one cumsum;
* the file stores a ``routing.*`` section or a ``meta.routing`` key: a
  tier's covers are a function of its rank column, built at a process's
  first routed query (they were 9.1% of the search-routed file, and a
  reader trusting them answered zeroed covers with no pairs);
* the signature keys (``index.keys``) are not ``<u4``: the paper's 4-byte
  hash, which ``repro.signatures.generate.signature_hashes`` yields
  (8-byte keys were a fifth of the search-reuse snapshot);
* a live store's segment stores an ``order`` or a collection header
  (``data``, ``vocabulary.*``, ``names.*``): the store's ``MANIFEST``
  holds its one copy of the order and the vocabulary;
* a shard file stores a collection header: the router encodes every
  query against the one collection it holds and sends token ids (a
  vocabulary in each shard file was 1.19 MB of live objects per worker
  at |V| = 10,518).

A file with signature keys prints their share of the file, one with a
rank column its bytes per corpus token, a plan its shard files' bytes
per corpus token, and the live store its total (``MANIFEST``, segments
and WAL) per token of the corpus it took in.

``--digests FILE`` prints the file's section table as its TOC records
it: each section's dtype (``json`` for a JSON one) and BLAKE2b digest.
``tests/test_persistence.py`` pins the smoke snapshot's.
"""

import sys
import tempfile
from pathlib import Path

from repro import Index, make_profile_collection
from repro.index.compact import _packed_column
from repro.ingest.manifest import MANIFEST_KIND, manifest_path
from repro.persistence import _OLD_MAGIC, PersistenceError, read_envelope, read_toc
from repro.service import ShardPlan
from repro.service.plan import MANIFEST_NAME as PLAN_NAME

#: The one width of a stored signature-key column.
KEY_DTYPE = "<u4"

#: Array sections stored as counts or lengths instead -> what replaces
#: each; the offsets and ends are derived on open.
DERIVED = {"index.offsets": "index.counts", "index.vs": "index.lens",
           "ranks.offsets": "ranks.lengths"}

#: A collection header's sections: the tokenizer, then the vocabulary's
#: and the names' UTF-8 bytes and length columns.
HEADER = ("data", "vocabulary.", "names.")


def stores(sections, prefixes) -> list[str]:
    """The names of ``sections`` that are, or start with, one of ``prefixes``."""
    return [name for name in sections
            if any(name == prefix or prefix.endswith(".") and name.startswith(prefix)
                   for prefix in prefixes)]


def main(path: Path, segment: bool = False, shard: bool = False) -> int:
    with open(path, "rb") as handle:
        if handle.read(len(_OLD_MAGIC)) == _OLD_MAGIC:
            print(f"FAIL: {path.name} has the magic of repro 4.1 and before: its "
                  f"TOC is a pickle", file=sys.stderr)
            return 1
    toc = read_toc(path)
    status = 0
    if "pickled" in toc:
        print(f"FAIL: {path.name}'s TOC has a pickled group; every section is "
              f"JSON or an integer column", file=sys.stderr)
        status = 1
    entries = {**toc["json"], **toc["arrays"]}
    total = sum(entry["length"] for entry in entries.values())
    for name, entry in entries.items():
        dtype, length = entry.get("dtype", "json"), entry["length"]
        print(f"{name:22s} {dtype:7s} {length:>10,d} B {length / max(total, 1):6.1%}")
    try:
        _header, sections, arrays = read_envelope(path, toc["kind"])
    except PersistenceError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    held = [*sections, *arrays]
    if segment and (found := stores(held, ("order", "order.", *HEADER))):
        print(f"FAIL: segment {path.name} stores {found}; its MANIFEST holds the "
              f"store's one copy", file=sys.stderr)
        status = 1
    if shard and (found := stores(held, HEADER)):
        print(f"FAIL: shard file {path.name} stores {found}; the router holds the one "
              f"collection and sends token ids", file=sys.stderr)
        status = 1
    for name, array in arrays.items():
        narrow = _packed_column(array).dtype if array.dtype.kind == "i" else array.dtype
        if narrow != array.dtype:
            print(f"FAIL: {path.name} stores {name} as {array.dtype}; "
                  f"its values fit {narrow}", file=sys.stderr)
            status = 1
    routing = stores(held, ("routing.",))
    if isinstance(sections.get("meta"), dict) and "routing" in sections["meta"]:
        routing.append("meta.routing")
    if routing:
        print(f"FAIL: {path.name} stores {routing}; routing covers are built from "
              f"the rank column, never stored", file=sys.stderr)
        status = 1
    for name, replacement in DERIVED.items():
        if name in arrays:
            print(f"FAIL: {path.name} stores {name}; it stores {replacement}, and "
                  f"{name} is derived on open", file=sys.stderr)
            status = 1
    keys = arrays.get("index.keys")
    if keys is not None:
        print(f"index.keys: {keys.nbytes:,d} B, {keys.nbytes / path.stat().st_size:.1%} "
              f"of the file")
        if keys.dtype.str != KEY_DTYPE:
            print(f"FAIL: {path.name} stores index.keys as {keys.dtype.str}, "
                  f"not {KEY_DTYPE}", file=sys.stderr)
            status = 1
    if "ranks.values" in arrays and arrays["ranks.values"].size:
        tokens = arrays["ranks.values"].size
        print(f"{path.stat().st_size:,d} B for {tokens:,d} corpus tokens: "
              f"{path.stat().st_size / tokens:.3f} B per token")
    return status


def check_plan(manifest: Path) -> int:
    """``main`` over each shard file of the plan ``manifest`` describes,
    and the files' bytes per corpus token."""
    plan = ShardPlan.load(manifest.parent)
    status, stored = 0, 0
    for spec in plan.shards:
        print()
        status |= main(manifest.parent / spec.path, shard=True)
        stored += (manifest.parent / spec.path).stat().st_size
    tokens = sum(spec.num_tokens for spec in plan.shards)
    print(f"\n{plan.num_shards} shard files: {stored:,d} B for {tokens:,d} corpus "
          f"tokens: {stored / tokens:.3f} B per token")
    return status


def check_store(manifest: Path) -> int:
    """``main`` over a live store's ``MANIFEST`` and each of its segments."""
    status = main(manifest)
    for path in sorted(manifest.parent.glob("segment.g*.idx")):
        print()
        status |= main(path, segment=True)
    return status


def section_digests(path: Path) -> dict[str, str]:
    """``{section: "dtype digest"}`` of the envelope at ``path``, from its
    TOC; a JSON section's dtype is ``json``."""
    toc = read_toc(path)
    return {name: f"{entry.get('dtype', 'json')} {entry['digest']}"
            for name, entry in {**toc["json"], **toc["arrays"]}.items()}


def smoke(scratch: Path) -> int:
    """Build the smoke snapshot (``scratch/smoke.idx``), a two-shard plan
    and a live store over one corpus in ``scratch``; check all three."""
    corpus = make_profile_collection("REUTERS", 0.02, 1)[0]
    index = Index.build(corpus, w=50, tau=5, k_max=4, routing="exact")
    index.save(scratch / "smoke.idx")
    status = main(scratch / "smoke.idx")
    ShardPlan.build(corpus, index.params, scratch / "shards", num_shards=2)
    status |= check_plan(scratch / "shards" / PLAN_NAME)
    live = Index.open_live(scratch / "live", w=50, tau=5, k_max=4)
    texts = [" ".join(corpus.vocabulary.decode(d.tokens)) for d in corpus]
    for text in texts[: len(texts) // 2]:
        live.add(text)
    live.flush()
    for text in texts[len(texts) // 2 :]:
        live.add(text)
    live.remove(0)
    live.compact()
    live.close()
    store = scratch / "live"
    print()
    status |= check_store(manifest_path(store))
    stored = sum(path.stat().st_size for path in store.iterdir())
    print(f"\nlive store: {stored:,d} B (MANIFEST, segments, WAL) for "
          f"{corpus.total_tokens():,d} corpus tokens: "
          f"{stored / corpus.total_tokens():.3f} B per token")
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        for name, digest in section_digests(Path(sys.argv[2])).items():
            print(f"{name:22s} {digest}")
        sys.exit(0)
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        if path.name == PLAN_NAME:
            sys.exit(check_plan(path))
        check = check_store if read_toc(path)["kind"] == MANIFEST_KIND else main
        sys.exit(check(path))
    with tempfile.TemporaryDirectory() as scratch:
        sys.exit(smoke(Path(scratch)))
