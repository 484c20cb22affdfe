"""End-to-end search over q-gram tokenization.

The paper notes the algorithms are tokenization-independent ("a token
can be a word, a q-gram, etc.").  These tests run the full pipeline
with a :class:`QGramTokenizer` and check the robustness profile that
q-gram tokens induce: one word substitution perturbs q grams, so the
effective tolerance in *words* is roughly ``tau / q``.
"""

from __future__ import annotations

import random

from repro import SearchParams
from repro.core.pkwise import PKWiseSearcher
from repro.corpus import DocumentCollection
from repro.tokenize.tokenizer import QGramTokenizer


def make_collection(q=2):
    return DocumentCollection(tokenizer=QGramTokenizer(q=q))


class TestQGramPipeline:
    def test_exact_copy_found(self):
        rng = random.Random(0)
        data = make_collection()
        words = [f"w{rng.randrange(300)}" for _ in range(120)]
        data.add_text(" ".join(words))
        query = data.encode_query(" ".join(words[20:80]))
        params = SearchParams(w=20, tau=2, k_max=2)
        searcher = PKWiseSearcher(data, params)
        result = searcher.search(query)
        assert any(pair.overlap == 20 for pair in result.pairs)

    def test_one_word_edit_costs_q_grams(self):
        rng = random.Random(1)
        q = 2
        data = make_collection(q=q)
        words = [f"w{rng.randrange(300)}" for _ in range(80)]
        data.add_text(" ".join(words))
        edited = list(words[10:50])
        edited[20] = "REPLACED"
        query = data.encode_query(" ".join(edited))
        # One substituted word destroys q = 2 grams; tau = q tolerates it.
        params_tight = SearchParams(w=30, tau=1, k_max=2)
        params_loose = SearchParams(w=30, tau=q, k_max=2)
        tight = PKWiseSearcher(data, params_tight).search(query)
        loose = PKWiseSearcher(data, params_loose).search(query)
        # The edit sits mid-segment: windows spanning it need tau >= q.
        spanning_loose = [
            p for p in loose.pairs if p.query_start <= 20 <= p.query_start + 29
        ]
        spanning_tight = [
            p for p in tight.pairs if p.query_start <= 20 <= p.query_start + 29
        ]
        assert spanning_loose
        assert len(spanning_tight) < len(spanning_loose)

    def test_vocabulary_contains_grams(self):
        data = make_collection()
        data.add_text("a b c")
        gram = data.vocabulary.token_of(0)
        assert "␟" in gram  # the q-gram separator
