#!/usr/bin/env python
"""Section table of a snapshot, read from its TOC; guards the ``data`` header.

    PYTHONPATH=src python benchmarks/snapshot_sections.py [SNAPSHOT]

Without a path it builds the smoke snapshot (REUTERS profile at scale
0.02, routed) and a small durable live store over the same corpus
(adds, a flush, a removal, a compaction), and checks both the snapshot
and the store's ``MANIFEST``.  Exit 1 when ``data`` is more than 1 KB
larger than its tokenizer, vocabulary and names pickled by themselves:
a snapshot reads its tokens back from ``ranks.values``, and a live
store from its segments', so neither may store them twice.
"""

import pickle
import sys
import tempfile
from pathlib import Path

from repro import Index, make_profile_collection
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
    header = read_envelope(path, toc["kind"])[1]["data"] or {}
    parts = sum(
        len(pickle.dumps(header.get(key), pickle.HIGHEST_PROTOCOL))
        for key in ("tokenizer", "vocabulary", "names")
    )
    stored = entries["data"]["length"]
    print(f"data: {stored:,d} B stored; tokenizer + vocabulary + names: {parts:,d} B")
    if stored > parts + SLACK:
        print(f"FAIL: data carries {stored - parts:,d} B beyond its header", file=sys.stderr)
        return 1
    return 0


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
        print()
        sys.exit(main(manifest_path(Path(scratch, "live"))) or status)
