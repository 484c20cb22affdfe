"""Tests for incremental index maintenance through the :class:`repro.Index`
facade.  That an add is found, a removal is not, and one undoes nothing
of the other, new words included, is every step of the ``live``,
``reopen`` and ``served`` cells of ``test_exactness.py``; here, only the
id that names no document.
"""

from __future__ import annotations

import random

import pytest

from repro import Index, SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection


class TestRemoveDocument:
    def test_remove_unknown_raises(self):
        rng = random.Random(0)
        data = DocumentCollection()
        for _ in range(3):
            data.add_tokens([f"t{rng.randrange(60)}" for _ in range(50)])
        index = Index(PKWiseSearcher(data, SearchParams(w=10, tau=2, k_max=2)), data)
        with pytest.raises(IndexError):
            index.remove(99)
