"""Signature machinery: prefix lengths, k-wise generation, maintenance.

Implements Algorithm 1 (PrefixLength) including the Section 6
sub-partition generalization and the Appendix C weighted variant,
Algorithm 3 (GenSignature), and the incremental per-slide signature
maintenance of Section 4.1 (the library's equivalent of Algorithm 5),
which queries stream.  :mod:`repro.signatures.bulk` cuts a whole
corpus's signatures — or a live memtable's burst of writes — into the
same interval postings in one array pass.
"""

__all__ = []
