#!/usr/bin/env python
"""Section table of a snapshot, read from its TOC; guards the ``data``
header, the width of every integer column and of the signature keys,
that each per-token table is stored once and that shard files are
ids-only.

    PYTHONPATH=src python benchmarks/snapshot_sections.py [SNAPSHOT | MANIFEST | shards.json]
    PYTHONPATH=src python benchmarks/snapshot_sections.py --digests FILE

Without a path it builds the smoke snapshot (REUTERS profile at scale
0.02, routed), a two-shard plan over the same corpus and a small durable
live store over it (adds, a flush, a removal, a compaction), and checks
the snapshot, each shard file, the store's ``MANIFEST`` and each of its
segment files.  A ``MANIFEST`` path checks that store's segment files
too, a ``shards.json`` path each of that plan's shard files.  Exit 1 when

* ``data`` is more than 1 KB larger than its tokenizer, vocabulary and
  names pickled by themselves: a snapshot reads its tokens back from
  ``ranks.values``, and a live store from its segments', so neither may
  store them twice;
* an integer array section is wider than its values need: every stored
  integer column is the narrowest of int16, int32 and int64 that holds
  it (``repro.index.compact._packed_column``);
* the signature keys (``index.keys``) are not ``<u4``: the paper's 4-byte
  hash, which ``repro.signatures.generate.signature_hashes`` yields
  (8-byte keys were a fifth of the search-reuse snapshot);
* a pickled section stores a per-token table beside its inverse: the
  vocabulary pickles its token list, not ``_id_of``, and the order its
  ``_token_of_rank``, not ``_rank_of_token``;
* the order's stored ``_token_of_rank``, ``_freq_of_rank`` or
  ``_admitted`` is not an integer array at its narrowest width, or the
  order stores anything but integers and integer arrays: a dict, a list
  or a vocabulary (int lists cost every process that opens the file
  about 1 MB of int objects at |V| = 10,518; a dict of lazily admitted
  tokens was half of a live store's ``MANIFEST``);
* a live store's segment stores an ``order`` or ``data``: the store's
  ``MANIFEST`` holds its one copy of the order and the vocabulary;
* a shard file stores ``data``: the router encodes every query against
  the one collection it holds and sends token ids (a vocabulary in each
  shard file was 1.19 MB of live objects per worker at |V| = 10,518).

A file with signature keys prints their share of the file, one with a
rank column its bytes per corpus token, a plan its shard files' bytes
per corpus token, and the live store its total (``MANIFEST``, segments
and WAL) per token of the corpus it took in.

``--digests FILE`` prints the file's section table as its TOC records
it: each section's dtype (``pickle`` for a pickled one) and BLAKE2b
digest.  ``tests/test_persistence.py`` pins the smoke snapshot's.
"""

import io
import pickle
import pickletools
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Index, make_profile_collection
from repro.index.compact import _packed_column
from repro.ingest.manifest import MANIFEST_KIND, manifest_path
from repro.persistence import read_envelope, read_toc
from repro.service import ShardPlan
from repro.service.plan import MANIFEST_NAME as PLAN_NAME

SLACK = 1024

#: The one width of a stored signature-key column.
KEY_DTYPE = "<u4"

#: Attributes that are another pickled table's inverse: derived on load.
INVERSES = {"_id_of", "_rank_of_token"}

#: The order's stored tables: integer arrays at their narrowest width.
ORDER_TABLES = ("_token_of_rank", "_freq_of_rank", "_admitted")


class _StoredState:
    """Stands in for the order's class on load: keeps the state as stored."""

    def __setstate__(self, state):
        self.state = state


class _StateUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if (module, name) == ("repro.ordering.global_order", "GlobalOrder"):
            return _StoredState
        return super().find_class(module, name)


def stored_order_state(payload: bytes) -> dict | None:
    """The order section's pickled state as the file stores it, or None."""
    order = _StateUnpickler(io.BytesIO(payload)).load()
    return order.state if isinstance(order, _StoredState) else None


def main(path: Path, segment: bool = False, shard: bool = False) -> int:
    toc = read_toc(path)
    entries = {**toc["pickled"], **toc["arrays"]}
    total = sum(entry["length"] for entry in entries.values())
    for name, entry in entries.items():
        dtype, length = entry.get("dtype", "pickle"), entry["length"]
        print(f"{name:22s} {dtype:7s} {length:>10,d} B {length / total:6.1%}")
    _header, sections, arrays = read_envelope(path, toc["kind"])
    header = sections["data"] or {}
    parts = sum(
        len(pickle.dumps(header.get(key), pickle.HIGHEST_PROTOCOL))
        for key in ("tokenizer", "vocabulary", "names")
    )
    stored = entries["data"]["length"]
    print(f"data: {stored:,d} B stored; tokenizer + vocabulary + names: {parts:,d} B")
    status = 0
    if stored > parts + SLACK:
        print(f"FAIL: data carries {stored - parts:,d} B beyond its header", file=sys.stderr)
        status = 1
    if segment and (sections["order"] is not None or sections["data"] is not None):
        print(f"FAIL: segment {path.name} stores an order or data; its MANIFEST "
              f"holds the store's one copy", file=sys.stderr)
        status = 1
    if shard and sections["data"] is not None:
        print(f"FAIL: shard file {path.name} stores data; the router holds the "
              f"one collection and sends token ids", file=sys.stderr)
        status = 1
    # Sections start at the first 64-byte boundary past magic, length and TOC.
    blob = path.read_bytes()
    start = (24 + int.from_bytes(blob[16:24], "little") + 63) // 64 * 64
    for name, entry in toc["pickled"].items():
        payload = blob[start + entry["offset"]:start + entry["offset"] + entry["length"]]
        state = stored_order_state(payload) if name == "order" else None
        for table in ORDER_TABLES if state is not None else ():
            column = state.get(table)
            if not (isinstance(column, np.ndarray) and column.dtype.kind == "i"
                    and _packed_column(column).dtype == column.dtype):
                kind = column.dtype if isinstance(column, np.ndarray) else type(column).__name__
                print(f"FAIL: {path.name}'s order stores {table} as {kind}, not an "
                      f"integer array at its narrowest width", file=sys.stderr)
                status = 1
        for key, value in (state or {}).items():
            if not isinstance(value, (int, np.ndarray)):
                print(f"FAIL: {path.name}'s order stores {key} as a "
                      f"{type(value).__name__}, not an integer column", file=sys.stderr)
                status = 1
        names = {arg for _op, arg, _at in pickletools.genops(payload) if isinstance(arg, str)}
        for inverse in sorted(INVERSES & names):
            print(f"FAIL: {path.name}'s {name} stores {inverse} beside its inverse",
                  file=sys.stderr)
            status = 1
    for name, array in arrays.items():
        narrow = _packed_column(array).dtype if array.dtype.kind == "i" else array.dtype
        if narrow != array.dtype:
            print(f"FAIL: {path.name} stores {name} as {array.dtype}; "
                  f"its values fit {narrow}", file=sys.stderr)
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
    TOC; a pickled section's dtype is ``pickle``."""
    toc = read_toc(path)
    return {name: f"{entry.get('dtype', 'pickle')} {entry['digest']}"
            for name, entry in {**toc["pickled"], **toc["arrays"]}.items()}


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
