#!/usr/bin/env python
"""Fail when a file every change starts by reading whole outgrows its budget.

    python benchmarks/doc_budget.py [CHANGES.md ROADMAP.md]

An entry of ``CHANGES.md`` is a line that starts with ``- ``, with the
lines after it up to the next entry (its ``FOUND:`` / ``MENDED:`` lines
and any continuation).  Exit 1 when an entry is over
:data:`ENTRY_CHARS` characters, or ``ROADMAP.md`` over
:data:`ROADMAP_BYTES` bytes, naming each; the long form of an entry —
tables, dropped test ids, drills — belongs in the commit body, which
``git log`` keeps.
"""

import sys
from pathlib import Path

#: Most characters one CHANGES.md entry may take, its FOUND / MENDED lines included.
ENTRY_CHARS = 1200

#: Most bytes ROADMAP.md may take.
ROADMAP_BYTES = 45_000


def entries(text: str) -> list[tuple[int, str]]:
    """``(first line number, text)`` of each entry of a change log."""
    found: list[tuple[int, list[str]]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("- "):
            found.append((number, [line]))
        elif found and line.strip():
            found[-1][1].append(line)
    return [(number, "\n".join(lines)) for number, lines in found]


def check(changes: Path, roadmap: Path) -> int:
    status = 0
    for number, entry in entries(changes.read_text(encoding="utf-8")):
        if len(entry) > ENTRY_CHARS:
            print(f"FAIL: {changes}:{number}: the entry is {len(entry):,d} characters "
                  f"with its FOUND / MENDED lines, over {ENTRY_CHARS:,d}; keep the "
                  f"long form in the commit body", file=sys.stderr)
            status = 1
    size = roadmap.stat().st_size
    if size > ROADMAP_BYTES:
        print(f"FAIL: {roadmap} is {size:,d} bytes, over {ROADMAP_BYTES:,d}; move "
              f"what is done to the commit body and CHANGES.md", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    paths = [Path(arg) for arg in sys.argv[1:]] or [Path("CHANGES.md"), Path("ROADMAP.md")]
    sys.exit(check(*paths))
