"""Inverted indexes over signatures.

Two index flavours, matching Sections 3 and 4 of the paper:

* :class:`~repro.index.inverted.WindowInvertedIndex` maps each
  signature to the list of individual data windows whose prefix
  generates it (Algorithm 2).
* :class:`~repro.index.interval_index.IntervalIndex` maps each signature
  to maximal *window intervals* ``d[u, v]`` (Section 4.1), built by
  streaming signature open/close events while sliding through each
  document; it is both smaller (the paper reports 3-14x) and enables
  candidate-set sharing between adjacent query windows.
  :class:`~repro.index.compact.CompactIntervalIndex` is its frozen,
  array-backed form, which every snapshot stores.

Nothing is re-exported here: import each name from its module.
"""

__all__ = []
