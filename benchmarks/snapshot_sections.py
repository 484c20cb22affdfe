#!/usr/bin/env python
"""Section table of a snapshot, read from its TOC; guards the ``data``
header and the width of every integer column.

    PYTHONPATH=src python benchmarks/snapshot_sections.py [SNAPSHOT]

Without a path it builds the smoke snapshot (REUTERS profile at scale
0.02, routed) and a small durable live store over the same corpus
(adds, a flush, a removal, a compaction), and checks the snapshot, the
store's ``MANIFEST`` and each of its segment files.  Exit 1 when

* ``data`` is more than 1 KB larger than its tokenizer, vocabulary and
  names pickled by themselves: a snapshot reads its tokens back from
  ``ranks.values``, and a live store from its segments', so neither may
  store them twice;
* an integer array section is wider than its values need: every stored
  integer column is the narrowest of int16, int32 and int64 that holds
  it (``repro.index.compact._packed_column``).

A file with a rank column also prints its bytes per corpus token.
"""

import pickle
import sys
import tempfile
from pathlib import Path

from repro import Index, make_profile_collection
from repro.index.compact import _packed_column
from repro.ingest.manifest import manifest_path
from repro.persistence import read_envelope

SLACK = 1024


def main(path: Path) -> int:
    with open(path, "rb") as handle:
        handle.seek(16)  # past the magic
        toc = pickle.loads(handle.read(int.from_bytes(handle.read(8), "little")))
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
    for name, array in arrays.items():
        narrow = _packed_column(array).dtype if array.dtype.kind == "i" else array.dtype
        if narrow != array.dtype:
            print(f"FAIL: {path.name} stores {name} as {array.dtype}; "
                  f"its values fit {narrow}", file=sys.stderr)
            status = 1
    if "ranks.values" in arrays and arrays["ranks.values"].size:
        tokens = arrays["ranks.values"].size
        print(f"{path.stat().st_size:,d} B for {tokens:,d} corpus tokens: "
              f"{path.stat().st_size / tokens:.3f} B per token")
    return status


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(Path(sys.argv[1])))
    with tempfile.TemporaryDirectory() as scratch:
        corpus = make_profile_collection("REUTERS", 0.02, 1)[0]
        Index.build(corpus, w=50, tau=5, k_max=4, routing="exact").save(f"{scratch}/smoke.idx")
        status = main(Path(scratch, "smoke.idx"))
        live = Index.open_live(Path(scratch, "live"), w=50, tau=5, k_max=4)
        texts = [" ".join(corpus.vocabulary.decode(d.tokens)) for d in corpus]
        for text in texts[: len(texts) // 2]:
            live.add(text)
        live.flush()
        for text in texts[len(texts) // 2 :]:
            live.add(text)
        live.remove(0)
        live.compact()
        live.close()
        for path in [manifest_path(Path(scratch, "live")),
                     *sorted(Path(scratch, "live").glob("segment.g*.idx"))]:
            print()
            status |= main(path)
        sys.exit(status)
